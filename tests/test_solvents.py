import itertools
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockred import matpoly, solvents
from blockred.data import load_power_network
from blockred.errors import (
    DefectiveRoot,
    DimensionMismatch,
    IncompleteSet,
    NoCompleteSetFound,
)
from blockred.matpoly import MatrixPolynomial
from blockred.solvents import (
    _size_combinations,
    CompleteSolventSet,
    Solvent,
    block_vandermonde,
    compute_complete_set,
    denominator_from_solvents,
    is_solvent,
    solvent_from_latent,
    solvent_from_roots,
    solvent_residual,
    validate_complete_set,
)
from blockred.sysrep import mfd_from_state_space
from conftest import random_monic_poly


def separated_matrices(rng, m, r, gap=2.0):
    """r random m x m matrices with spectra pushed to disjoint bands."""
    mats = []
    for i in range(r):
        M = rng.standard_normal((m, m))
        M = M - (np.max(np.linalg.eigvals(M).real) + 0.5 + gap * i) * np.eye(m)
        mats.append(M)
    return mats


def test_solvent_record_computes_eigenvalues():
    s = Solvent(np.diag([-1.0, -2.0]))
    assert_allclose(np.sort(s.eigenvalues.real), [-2.0, -1.0])
    assert s.size == 2
    assert s.side == "right"


def test_solvent_record_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        Solvent(np.ones((2, 3)))


def test_scalar_polynomial_roots_are_solvents():
    # s^2 + 3 s + 2 = (s + 1)(s + 2), blockwise with 1x1 blocks
    P = MatrixPolynomial([np.eye(1), 3 * np.eye(1), 2 * np.eye(1)])
    assert is_solvent(P, np.array([[-1.0]]))
    assert is_solvent(P, np.array([[-2.0]]))
    assert not is_solvent(P, np.array([[-3.0]]))


def test_diagonal_polynomial_left_and_right():
    P = MatrixPolynomial([np.eye(2), 3 * np.eye(2), 2 * np.eye(2)])
    X = np.diag([-1.0, -2.0])
    assert is_solvent(P, X, "right")
    assert is_solvent(P, X, "left")


def test_solvent_residual_scale_free(rng):
    P = MatrixPolynomial([np.eye(2), rng.standard_normal((2, 2))])
    X = rng.standard_normal((2, 2))
    r1 = solvent_residual(P, X)
    big = MatrixPolynomial([1e6 * c for c in P.coeffs])
    assert_allclose(solvent_residual(big, X), r1, rtol=1e-10)


def test_solvent_residual_is_the_relative_block_value(rng):
    # both sides run through one stacked kernel; the oracle forms each term
    # A_i X**(r-i) (right) or X**(r-i) A_i (left) on its own.  The residual is
    # already relative to the terms' size, so the two agree to 1e-14 absolute
    # (Horner's value and the power sum differ by rounding in the terms)
    for trial in range(40):
        m, r = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        P = random_monic_poly(rng, m, r)
        X = rng.standard_normal((m, m))
        if trial % 2:
            X = X + 1j * rng.standard_normal((m, m))
        for side in ("right", "left"):
            terms = [c @ np.linalg.matrix_power(X, r - i) if side == "right"
                     else np.linalg.matrix_power(X, r - i) @ c
                     for i, c in enumerate(P.coeffs)]
            scale = max(sum(np.linalg.norm(t) for t in terms), 1.0)
            want = np.linalg.norm(P.block_value(X, side)) / scale
            assert solvent_residual(P, X, side) == pytest.approx(want, rel=0.0, abs=1e-14)


def test_solvent_from_latent_recovers_known(rng):
    R1, R2 = separated_matrices(rng, 2, 2)
    P = denominator_from_solvents([R1, R2])
    # rebuild R1 from its own latent structure
    pairs = []
    for z in np.linalg.eigvals(R1):
        v, res = P.latent_vector(z, "right")
        assert res < 1e-6
        pairs.append((z, v))
    sol = solvent_from_latent(pairs, "right", polynomial=P)
    assert sol.residual < 1e-8
    assert_allclose(np.real_if_close(sol.matrix, tol=1e6), R1, atol=1e-6)


def test_solvent_from_latent_left_side(rng):
    R1, R2 = separated_matrices(rng, 2, 2)
    P = denominator_from_solvents([R1, R2])
    pairs = []
    for z in np.linalg.eigvals(R2):
        u, res = P.latent_vector(z, "left")
        assert res < 1e-6
        pairs.append((z, u))
    sol = solvent_from_latent(pairs, "left", polynomial=P)
    assert sol.side == "left"
    assert sol.residual < 1e-8
    assert is_solvent(P, sol.matrix, "left", tol=1e-7)


def test_solvent_from_latent_keeps_a_complex_solvent(rng):
    # roots that are not closed under conjugation give a complex solvent;
    # realify leaves its imaginary part, which is not negligible, in place
    V = rng.standard_normal((2, 2))
    roots = [-1.0 + 1.0j, -2.0]
    R = V @ np.diag(roots) @ np.linalg.inv(V)
    P = denominator_from_solvents([R, np.diag([-5.0, -6.0])])
    sol = solvent_from_latent(list(zip(roots, V.T)), "right", polynomial=P)
    assert np.iscomplexobj(sol.matrix)
    assert_allclose(sol.matrix, R, rtol=1e-12, atol=1e-12)
    assert_allclose(sol.eigenvalues, [-2.0, -1.0 + 1.0j])
    assert sol.residual < 1e-12


def test_block_vandermonde_structure():
    R1 = np.array([[1.0, 2.0], [0.0, 1.0]])
    R2 = np.array([[3.0, 0.0], [1.0, 3.0]])
    V = block_vandermonde([R1, R2])
    assert V.shape == (4, 4)
    assert_allclose(V[:2, :2], np.eye(2))
    assert_allclose(V[:2, 2:], np.eye(2))
    assert_allclose(V[2:, :2], R1)
    assert_allclose(V[2:, 2:], R2)
    V3 = block_vandermonde([R1, R2, np.eye(2)])
    assert_allclose(V3[4:6, :2], R1 @ R1)


def test_denominator_round_trip(rng):
    for _ in range(5):
        m = int(rng.integers(1, 4))
        r = int(rng.integers(2, 4))
        mats = separated_matrices(rng, m, r)
        P = denominator_from_solvents(mats)
        assert P.is_monic
        assert P.degree == r
        for M in mats:
            assert solvent_residual(P, M) < 1e-8
        union = np.sort_complex(
            np.concatenate([np.linalg.eigvals(M) for M in mats])
        )
        assert_allclose(
            np.sort_complex(P.latent_roots()), union, rtol=1e-6, atol=1e-6
        )


def test_validate_complete_set_passes(rng):
    mats = separated_matrices(rng, 2, 3)
    P = denominator_from_solvents(mats)
    cs = validate_complete_set(P, mats)
    assert isinstance(cs, CompleteSolventSet)
    assert len(cs) == 3
    assert cs.block_size == 2
    assert np.isfinite(cs.condition)
    assert cs.vandermonde.shape == (6, 6)


def test_validate_complete_set_count(rng):
    mats = separated_matrices(rng, 2, 3)
    P = denominator_from_solvents(mats)
    with pytest.raises(IncompleteSet) as exc:
        validate_complete_set(P, mats[:2])
    assert exc.value.condition == "count"


def test_validate_complete_set_residual(rng):
    mats = separated_matrices(rng, 2, 2)
    P = denominator_from_solvents(mats)
    bad = [mats[0], mats[1] + 0.5]
    with pytest.raises(IncompleteSet) as exc:
        validate_complete_set(P, bad)
    assert exc.value.condition == "residual"


def test_validate_complete_set_spectrum(rng):
    # three solvents of a degree-3 polynomial, one repeated: every matrix is
    # a true solvent but the eigenvalue union misses a third of the roots
    mats = separated_matrices(rng, 2, 3)
    P = denominator_from_solvents(mats)
    with pytest.raises(IncompleteSet) as exc:
        validate_complete_set(P, [mats[0], mats[1], mats[1]])
    assert exc.value.condition == "spectrum"


def test_validate_complete_set_overlap():
    # P(s) = (sI - X)(sI - X) accepts [X, X]: residuals and spectrum both
    # check out, but the two members share eigenvalues
    X = np.array([[-1.0, 0.5], [0.0, -2.0]])
    P = MatrixPolynomial([np.eye(2), -2 * X, X @ X])
    with pytest.raises(IncompleteSet) as exc:
        validate_complete_set(P, [X, X])
    assert exc.value.condition == "overlap"


def test_validate_complete_set_vandermonde():
    X1 = np.diag([-1.0, -2.0])
    X2 = np.diag([-1.001, -2.001])
    P = denominator_from_solvents([X1, X2])
    with pytest.raises(IncompleteSet) as exc:
        validate_complete_set(P, [X1, X2], eps_sing=1e-3)
    assert exc.value.condition == "vandermonde"


def test_solvent_from_roots_conjugate_pair_is_real():
    R1 = np.array([[0.0, 0.8], [-2.6, -1.6]])  # eigenvalues -0.8 +- 1.2i
    R2 = np.diag([-5.0, -6.0])
    P = denominator_from_solvents([R1, R2])
    sol = solvent_from_roots(P, [-0.8 + 1.2j, -0.8 - 1.2j])
    assert not np.iscomplexobj(sol.matrix)
    assert sol.residual < 1e-8
    assert_allclose(sol.matrix, R1, atol=1e-6)


def test_solvent_from_roots_defective():
    # (1,1) entry (s+1)^2 with a one-dimensional null space at s = -1
    P = MatrixPolynomial([
        np.eye(2),
        np.array([[2.0, 1.0], [0.0, 5.0]]),
        np.array([[1.0, 1.0], [0.0, 6.0]]),
    ])
    with pytest.raises(DefectiveRoot):
        solvent_from_roots(P, [-1.0, -1.0])


def test_solvent_from_roots_full_multiplicity():
    # (s + 1)(s + 2) I: each root has multiplicity m and m latent vectors, so
    # sigma_max of P(root) is as small as sigma_min
    P = MatrixPolynomial([np.eye(2), 3 * np.eye(2), 2 * np.eye(2)])
    assert_allclose(solvent_from_roots(P, [-1.0, -1.0]).matrix, -np.eye(2), atol=1e-12)


def test_compute_complete_set_siso():
    P = denominator_from_solvents([[[-1.0]], [[-2.0]], [[-3.0]]])
    cs = compute_complete_set(P)
    assert len(cs) == 3
    assert_allclose(sorted(M[0, 0] for M in cs.matrices), [-3.0, -2.0, -1.0], atol=1e-8)


def test_compute_complete_set_random(rng):
    for _ in range(4):
        m = int(rng.integers(1, 3))
        r = int(rng.integers(2, 4))
        mats = separated_matrices(rng, m, r)
        P = denominator_from_solvents(mats)
        cs = compute_complete_set(P)
        assert len(cs) == r
        union = np.sort_complex(
            np.concatenate([s.eigenvalues for s in cs.solvents])
        )
        assert_allclose(
            union, np.sort_complex(P.latent_roots()), rtol=1e-6, atol=1e-6
        )
        for M in cs.matrices:
            assert solvent_residual(P, M) < 1e-6


def test_compute_complete_set_degree_one():
    A1 = np.array([[3.0, 1.0], [0.0, 4.0]])
    P = MatrixPolynomial([np.eye(2), A1])
    cs = compute_complete_set(P)
    assert len(cs) == 1
    assert_allclose(cs.matrices[0], -A1)


def test_compute_complete_set_nonmonic_lead():
    lead = np.array([[2.0, 0.0], [0.5, 1.0]])
    mats = [np.diag([-1.0, -2.0]), np.diag([-4.0, -5.0])]
    mono = denominator_from_solvents(mats)
    P = MatrixPolynomial([lead @ c for c in mono.coeffs])
    cs = compute_complete_set(P)
    union = np.sort_complex(np.concatenate([s.eigenvalues for s in cs.solvents]))
    assert_allclose(union, [-5, -4, -2, -1], atol=1e-8)


def test_compute_complete_set_defective_fails():
    P = MatrixPolynomial([
        np.eye(2),
        np.array([[2.0, 1.0], [0.0, 5.0]]),
        np.array([[1.0, 1.0], [0.0, 6.0]]),
    ])
    with pytest.raises(NoCompleteSetFound):
        compute_complete_set(P)


def test_compute_complete_set_no_solvent_at_all():
    # X must satisfy X @ X = [[0, -1], [0, 0]], impossible for a 2x2 matrix
    # (any nilpotent square is zero), so no solvent exists
    P = MatrixPolynomial([
        np.eye(2), np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]]),
    ])
    with pytest.raises(NoCompleteSetFound):
        compute_complete_set(P)


def test_search_set_passes_the_public_check(rng):
    # the search checks its grouping once and hands on the Vandermonde matrix
    # and condition of that check; the public check of the same matrices
    # accepts them and agrees bit for bit
    polys = [random_monic_poly(rng, int(rng.integers(2, 4)), int(rng.integers(2, 5)))
             for _ in range(12)]
    polys += [mfd_from_state_space(load_power_network(fixed)).D for fixed in (False, True)]
    checked = 0
    for P in polys:
        try:
            cs = compute_complete_set(P)
        except NoCompleteSetFound:
            continue
        again = validate_complete_set(P, cs.matrices)
        assert again.condition == cs.condition
        assert np.array_equal(again.vandermonde, cs.vandermonde)
        for got, want in zip(cs.solvents, again.solvents):
            assert np.array_equal(got.eigenvalues, want.eigenvalues)
        checked += 1
    assert checked >= 8


def test_search_computes_each_latent_basis_once(count_calls):
    # diag((s+1)(s+2), (s+3)(s+4)): the roots -4 and -3 share the latent
    # vector e2, so the first grouping fails and the search backtracks; every
    # latent root and vector of these distinct roots comes from one
    # eigendecomposition of the companion, with no null-space basis and no
    # separate latent root solve
    bases = count_calls("_null_basis", solvents)
    roots = count_calls("latent_roots", matpoly.MatrixPolynomial)
    eigs = count_calls("eig", np.linalg)
    P = MatrixPolynomial([np.eye(2), np.diag([3.0, 7.0]), np.diag([2.0, 12.0])])
    cs = compute_complete_set(P)
    spectra = sorted(tuple(s.eigenvalues.real) for s in cs.solvents)
    assert_allclose(spectra, [(-4.0, -2.0), (-3.0, -1.0)], atol=1e-12)
    assert len(bases) == 0 and len(roots) == 0 and len(eigs) == 1

    # a conjugate pair is one unit: its mirror takes the conjugate vectors
    eigs.clear()
    mats = [np.array([[-1.0, 2.0], [-2.0, -1.0]]), np.diag([-3.0, -4.0]),
            np.array([[-5.0, 1.0], [-1.0, -5.0]])]
    cs = compute_complete_set(denominator_from_solvents(mats))
    assert len(cs) == 3 and len(bases) == 0 and len(eigs) == 1
    assert not any(np.iscomplexobj(M) for M in cs.matrices)


def test_search_work_is_bounded_by_the_node_budget():
    # 24 distinct real latent roots at m = 2, r = 12 leave 23!! = 3.2e11
    # complete groupings, and none the search reaches passes its Vandermonde
    # test; every group tried and every grouping reached costs budget, so the
    # default budget ends the search within seconds
    rng = np.random.default_rng(7)
    roots = -np.linspace(0.5, 3.0, 24)
    rng.shuffle(roots)
    D = MatrixPolynomial([np.eye(2)])
    for k in range(12):
        T = rng.standard_normal((2, 2))
        R = T @ np.diag(roots[2 * k:2 * k + 2]) @ np.linalg.inv(T)
        D = matpoly.poly_mul(D, MatrixPolynomial([np.eye(2), -R]))
    start = time.perf_counter()
    with pytest.raises(NoCompleteSetFound, match="node budget 10000 exhausted"):
        compute_complete_set(D)
    assert time.perf_counter() - start < 15.0


def _filtered_combinations(candidates, sizes, need):
    """The size filter over all subsets that _size_combinations replaces."""
    if need == 0:
        return [()]
    return [
        combo
        for k in range(1, len(candidates) + 1)
        for combo in itertools.combinations(candidates, k)
        if sum(sizes[c] for c in combo) == need
    ]


def test_size_combinations_match_the_subset_filter(rng):
    # same combinations in the same order: fewest units first, then
    # lexicographic by position, for unit sizes as clustering produces them
    for _ in range(300):
        length = int(rng.integers(0, 13))
        sizes = [int(x) for x in rng.choice([1, 1, 1, 2, 2, 3], size=length)]
        candidates = [int(c) for c in rng.permutation(length)]
        need = int(rng.integers(0, 7))
        got = list(_size_combinations(candidates, sizes, need))
        assert got == _filtered_combinations(candidates, sizes, need)


def test_size_combinations_skip_the_wrong_sizes():
    # 24 unit roots in groups of 3: 2024 combinations, where the subset
    # filter would walk all 2**24 subsets; in groups of 8 (24 real latent
    # roots at m = 8) the first comes without visiting the smaller counts
    assert len(list(_size_combinations(range(24), [1] * 24, 3))) == math.comb(24, 3)
    assert next(_size_combinations(range(24), [1] * 24, 8)) == tuple(range(8))
    assert list(_size_combinations(range(30), [2] * 30, 3)) == []
