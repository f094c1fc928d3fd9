import re

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from blockred.data import (
    load_power_network,
    reference_dominant_poles,
    reference_solvents,
)
from blockred.dompoles import dominance_order, dominant_poles, modal_form
from blockred.errors import (
    AlreadyMinimal,
    ConjugateBreak,
    DimensionMismatch,
    NoCompleteSetFound,
    NonDiagonalizableBlock,
    UnstableSystem,
)
from blockred.matpoly import MatrixPolynomial
from blockred.reduce import (
    Tolerances,
    match_solvents_to_poles,
    reduce_dominant,
    reduce_latent,
    trim_subsystem_eigen,
)
from blockred.solvents import (
    compute_complete_set,
    denominator_from_solvents,
    validate_complete_set,
)
from blockred.sysrep import (
    BlockDiagonalRealization,
    DiagonalBlock,
    RightMFD,
    StateSpace,
    block_diagonalize,
    controller_canonical,
    mfd_from_state_space,
)
from blockred import dompoles, metrics, reduce, solvents, sysrep
from blockred.metrics import h2_error, h2_norm

from conftest import (
    direct_sum,
    hankel_oracle,
    lyapunov_oracle,
    mp_guard_reference,
    planted_block_system,
    probe_points,
    transfer_oracle,
)
from test_dompoles import dense_pole_oracle


def test_tolerances_validation():
    Tolerances()  # defaults are consistent
    Tolerances(h2_threshold=0.5)
    with pytest.raises(ValueError):
        Tolerances(re_threshold=0.0)
    with pytest.raises(ValueError):
        Tolerances(h2_threshold=0.0)
    with pytest.raises(ValueError):
        Tolerances(node_budget=0)


def test_reduce_dominant_pole_count():
    # k below 1 asks for no dominant pole at all; k above n means every one
    ss = load_power_network(fixed=True)
    for k in (0, -1):
        with pytest.raises(DimensionMismatch):
            reduce_dominant(ss, k=k)
    assert reduce_dominant(ss, k=ss.n + 5)[1] == reduce_dominant(ss, k=ss.n)[1]


def test_reduce_latent_exact_factor(rng):
    # numerator almost exactly divisible by the fast factor: the fast latent
    # roots go and what remains is the slow factor alone
    slow = np.diag([-1.0, -2.0])
    fast = np.diag([-40.0, -50.0])
    D = denominator_from_solvents([slow, fast])
    E = rng.standard_normal((2, 2))
    N = MatrixPolynomial([np.eye(2), -fast + 1e-3 * E])  # (sI - fast) + tiny
    f = RightMFD(N, D)
    red, rep = reduce_latent(f)
    assert rep.method == "latent"
    assert rep.original_order == 4
    assert rep.reduced_order == 2
    assert len(rep.eliminated) == 1
    assert "-40" in rep.eliminated[0] and "-50" in rep.eliminated[0]
    assert rep.re_value <= rep.threshold
    assert rep.iterations == 1
    assert_allclose(
        np.sort(red.D.latent_roots().real), [-2.0, -1.0], atol=1e-8
    )
    for s in probe_points(rng, 5):
        assert_allclose(red.transfer(s), f.transfer(s), atol=2e-3)


def test_reduce_latent_permissive_threshold():
    # with the error budget wide open the scalar-like fraction collapses to
    # a single factor regardless of accuracy
    D = MatrixPolynomial([np.eye(2), 3 * np.eye(2), 2 * np.eye(2)])
    N = MatrixPolynomial([np.eye(2)])
    f = RightMFD(N, D)
    red, rep = reduce_latent(f, Tolerances(re_threshold=10.0))
    assert rep.reduced_order == 2
    assert red.D.degree == 1
    assert "-2" in rep.eliminated[0]
    assert_allclose(np.sort(red.D.latent_roots().real), [-1.0, -1.0], atol=1e-8)
    assert_allclose(red.D.coeffs[1], np.eye(2), atol=1e-8)


def test_reduce_latent_honest_rollback():
    # same fraction at the default threshold: the only candidate elimination
    # is far too lossy, so nothing happens
    D = MatrixPolynomial([np.eye(2), 3 * np.eye(2), 2 * np.eye(2)])
    f = RightMFD(MatrixPolynomial([np.eye(2)]), D)
    red, rep = reduce_latent(f)
    assert rep.reduced_order == 4
    assert rep.eliminated == []
    assert rep.re_value == 0.0
    assert rep.h2_error == 0.0


def test_reduce_latent_already_minimal():
    D = MatrixPolynomial([np.eye(2), np.eye(2)])
    f = RightMFD(MatrixPolynomial([np.eye(2)]), D)
    with pytest.raises(AlreadyMinimal):
        reduce_latent(f)


def test_reduce_latent_unstable():
    D = denominator_from_solvents([np.diag([1.0, -1.0]), np.diag([-3.0, -4.0])])
    f = RightMFD(MatrixPolynomial([np.eye(2)]), D)
    with pytest.raises(UnstableSystem):
        reduce_latent(f)


def test_match_solvents_reference_data():
    mats = reference_solvents()  # stated order
    D = denominator_from_solvents(mats)
    cs = validate_complete_set(D, mats)
    poles = reference_dominant_poles()
    result = match_solvents_to_poles(cs, poles, match_tol=0.1)
    assert result.matched == (0, 1, 3)
    assert result.unmatched == (2,)
    assert len(result.distances) == 4
    assert result.distances[2] > 0.1
    for i in (0, 1, 3):
        assert result.distances[i] <= 0.1


def test_match_accepts_plain_values():
    mats = [np.diag([-1.0, -2.0]), np.diag([-8.0, -9.0])]
    D = denominator_from_solvents(mats)
    cs = validate_complete_set(D, mats)
    result = match_solvents_to_poles(cs, [-1.0 + 0.0j, -2.0], 0.1)
    assert result.matched == (0,)
    assert result.unmatched == (1,)


def test_trim_subsystem_eigen_real_split(rng):
    blocks = (
        DiagonalBlock(np.diag([-1.0, -100.0]), rng.standard_normal((2, 2)),
                      rng.standard_normal((2, 2))),
        DiagonalBlock(-5.0 * np.eye(1), rng.standard_normal((1, 2)),
                      rng.standard_normal((2, 1))),
    )
    bd = BlockDiagonalRealization(blocks)
    # eigenvalues sort ascending by real part: index 0 is -100
    out = trim_subsystem_eigen(bd, 0, [0])
    assert out.n == 2
    vals = np.sort(out.poles().real)
    assert_allclose(vals, [-5.0, -1.0], atol=1e-10)
    # the kept part plus the dropped part reproduce the original exactly
    dropped = trim_subsystem_eigen(bd, 0, [1])  # complementary trim
    for s in probe_points(rng, 5):
        direct = bd.transfer(s)
        pieces = out.transfer(s) + dropped.transfer(s) - bd.feedthrough - blocks[1].c @ np.linalg.solve(s * np.eye(1) - blocks[1].a, blocks[1].b)
        assert_allclose(pieces, direct, rtol=1e-8, atol=1e-10)


def test_trim_subsystem_eigen_noop_and_bounds(rng):
    blk = DiagonalBlock(np.diag([-1.0, -2.0]), rng.standard_normal((2, 1)),
                        rng.standard_normal((1, 2)))
    bd = BlockDiagonalRealization((blk,))
    assert trim_subsystem_eigen(bd, 0, []) is bd
    with pytest.raises(DimensionMismatch):
        trim_subsystem_eigen(bd, 5, [0])
    with pytest.raises(DimensionMismatch):
        trim_subsystem_eigen(bd, 0, [7])


def test_trim_subsystem_eigen_conjugate_break(rng):
    a = np.array([[-1.0, 2.0], [-2.0, -1.0]])  # eigenvalues -1 +- 2i
    blk = DiagonalBlock(a, rng.standard_normal((2, 1)), rng.standard_normal((1, 2)))
    bd = BlockDiagonalRealization((blk,))
    with pytest.raises(ConjugateBreak):
        trim_subsystem_eigen(bd, 0, [0])
    # dropping the whole pair removes the block
    out = trim_subsystem_eigen(bd, 0, [0, 1])
    assert len(out.blocks) == 0
    assert out.io_shape == (1, 1)


def test_modal_block_keeps_conjugate_pairs_together(rng):
    # a complex mode's partner is the one modal_form pairs it with: kept
    # together they give one real rotation block, kept alone they break
    a = scipy.linalg.block_diag([[-1.0, 2.0], [-2.0, -1.0]], [[-3.0]])
    b, c = rng.standard_normal((3, 2)), rng.standard_normal((2, 3))
    modes = modal_form(a, b, c, 1e-10)
    pair = [i for i in range(3) if modes.values[i].imag != 0.0]
    (real,) = [i for i in range(3) if modes.values[i].imag == 0.0]
    for kept in ([pair[0], real], [pair[1]]):
        with pytest.raises(ConjugateBreak):
            reduce._assemble_modal_block(modes, kept)
    blk = reduce._assemble_modal_block(modes, [real] + pair)
    assert not np.iscomplexobj(blk.a) and blk.size == 3
    full = StateSpace(a, b, c)
    for s in probe_points(rng, 4):
        assert_allclose(StateSpace(blk.a, blk.b, blk.c).transfer(s), full.transfer(s), rtol=1e-12)


def _two_pair_block(rng):
    """A 4-state block, 2 inputs and 2 outputs, with the conjugate pairs
    -1 +- 3j and -8 +- 1.5j in random coordinates."""
    a = np.array([
        [-1.0, 3.0, 0.0, 0.0],
        [-3.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, -8.0, 1.5],
        [0.0, 0.0, -1.5, -8.0],
    ])
    T = rng.standard_normal((4, 4))
    while abs(np.linalg.det(T)) < 0.5:
        T = rng.standard_normal((4, 4))
    return DiagonalBlock(T @ a @ np.linalg.inv(T), rng.standard_normal((4, 2)),
                         rng.standard_normal((2, 4)))


def test_trim_preserves_remaining_transfer(rng):
    # dropping a conjugate pair from a 4-state block keeps the other pair's
    # contribution bit-consistent with a direct modal evaluation
    blk = _two_pair_block(rng)
    bd = BlockDiagonalRealization((blk,))
    vals = blk.eigenvalues
    # drop the pair nearest -8
    drop = [i for i, v in enumerate(vals) if abs(v.real + 8.0) < 1.0]
    out = trim_subsystem_eigen(bd, 0, drop)
    assert out.n == 2
    kept_vals = out.poles()
    assert np.all(np.abs(kept_vals.real + 1.0) < 1e-6)
    # compare against the original minus the dropped modal part
    theta, L, R = scipy.linalg.eig(blk.a, left=True, right=True)
    for s in probe_points(rng, 5):
        full = bd.transfer(s)
        dropped_sum = np.zeros_like(full)
        for i, lam in enumerate(theta):
            if abs(lam.real + 8.0) < 1.0:
                denom = np.vdot(L[:, i], R[:, i])
                res = np.outer(blk.c @ R[:, i], L[:, i].conj() @ blk.b) / denom
                dropped_sum += res / (s - lam)
        assert_allclose(out.transfer(s), full - dropped_sum, rtol=1e-7, atol=1e-9)


def test_trim_subsystem_eigen_decomposes_the_block_once(count_calls, rng):
    # drop positions index the modes of one eig of the block, sorted by
    # (real, imag): no eigvals pass, and no value is matched back to a mode
    eigs = count_calls("eig", np.linalg)
    values = count_calls("eigvals", np.linalg)

    def trim(blk, drop):
        eigs.clear()
        values.clear()
        out = trim_subsystem_eigen(BlockDiagonalRealization((blk,)), 0, drop)
        assert [args[0].shape for args in eigs] == [blk.a.shape]
        assert values == []
        return out

    # a repeated eigenvalue: positions 0, 1 and 2 are the states 2, 0 and 1,
    # so the two positions of -1 name different modes
    d = np.array([-1.0, -1.0, -2.0])
    b, c = rng.standard_normal((3, 2)), rng.standard_normal((2, 3))
    repeated = DiagonalBlock(np.diag(d), b, c)
    for drop, kept in (([0], [0, 1]), ([1], [1, 2]), ([2], [0, 2]), ([0, 1], [1]),
                       ([1, 2], [2])):
        out = trim(repeated, drop)
        for s in probe_points(rng, 3):
            want = c[:, kept] @ np.diag(1.0 / (s - d[kept])) @ b[kept]
            assert_allclose(out.transfer(s), want, rtol=1e-12)
    assert trim(repeated, [2, 0, 1, 1]).blocks == ()
    # a complex input matrix keeps its imaginary part next to a real a
    b = b + 1j * rng.standard_normal((3, 2))
    out = trim(DiagonalBlock(np.diag(d), b, c), [0])
    for s in probe_points(rng, 3):
        want = c[:, :2] @ np.diag(1.0 / (s - d[:2])) @ b[:2]
        assert_allclose(out.transfer(s), want, rtol=1e-12)

    # two conjugate pairs: positions 0 and 1 are -8 -+ 1.5j, 2 and 3 are -1 -+ 3j
    blk = _two_pair_block(rng)
    full = BlockDiagonalRealization((blk,))
    slow, fast = trim(blk, [0, 1]), trim(blk, [2, 3])
    assert_allclose(slow.poles(), [-1.0 - 3.0j, -1.0 + 3.0j], rtol=1e-9)
    assert_allclose(fast.poles(), [-8.0 - 1.5j, -8.0 + 1.5j], rtol=1e-9)
    for s in probe_points(rng, 3):
        assert_allclose(slow.transfer(s) + fast.transfer(s), full.transfer(s), rtol=1e-9)
    with pytest.raises(ConjugateBreak):
        trim_subsystem_eigen(full, 0, [1, 2])
    # a block that is not diagonalizable fails before the drop splits a pair
    rot = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    jordan = np.block([[rot, np.eye(2)], [np.zeros((2, 2)), rot]])
    defective = DiagonalBlock(jordan, rng.standard_normal((4, 1)), rng.standard_normal((1, 4)))
    with pytest.raises(NonDiagonalizableBlock):
        trim_subsystem_eigen(BlockDiagonalRealization((defective,)), 0, [0])


def test_reduce_dominant_planted_weak_block(rng):
    ss, weak, ablocks = planted_block_system(rng)
    weak_eigs = np.linalg.eigvals(ablocks[weak])
    red, rep = reduce_dominant(ss)
    assert rep.method == "dominant"
    assert rep.original_order == ss.n
    assert rep.reduced_order < ss.n
    assert rep.eliminated
    assert rep.re_value <= rep.threshold
    # the suppressed block's poles are gone, the others survive
    kept = red.poles()
    for v in weak_eigs:
        assert np.min(np.abs(kept - v)) > 1e-3
    strongest = [np.linalg.eigvals(a) for i, a in enumerate(ablocks) if i != weak]
    remaining = np.sort_complex(np.concatenate(strongest))
    assert_allclose(np.sort_complex(kept), remaining, rtol=1e-6, atol=1e-6)


def test_reduce_dominant_all_matched_is_identity(rng):
    ss, _, _ = planted_block_system(rng, suppress=False)
    red, rep = reduce_dominant(ss, k=ss.n)
    assert rep.eliminated == []
    assert rep.reduced_order == ss.n
    assert rep.iterations >= 0
    assert rep.h2_error == 0.0
    for s in probe_points(rng, 5):
        assert_allclose(red.transfer(s), ss.transfer(s), rtol=1e-8, atol=1e-10)


def test_reduce_dominant_fixture_corrected():
    ss = load_power_network(fixed=True)
    red, rep = reduce_dominant(ss)
    assert rep.original_order == 8
    assert rep.reduced_order == 6
    assert rep.iterations == 2
    assert len(rep.eliminated) == 1
    assert "no dominant pole" in rep.eliminated[0]
    assert rep.re_value == pytest.approx(0.0013624653, rel=1e-3)
    assert rep.re_value <= 0.01
    # the discarded block is the heavily damped oscillatory one
    kept = red.poles()
    assert np.min(np.abs(kept - (-9.09629 + 11.0387j))) > 1.0
    full_h2 = h2_norm(StateSpace(ss.A, ss.B, ss.C, np.zeros_like(ss.D)))
    assert rep.h2_error / full_h2 < 0.2


def test_reduce_dominant_fixture_verbatim_stays_full():
    ss = load_power_network(fixed=False)
    red, rep = reduce_dominant(ss)
    assert rep.reduced_order == 8
    assert rep.eliminated == []
    assert rep.re_value == 0.0


def test_reduce_dominant_fixture_eigen_trim():
    ss = load_power_network(fixed=True)
    red, rep = reduce_dominant(ss, trim_eigen=True)
    assert rep.reduced_order == 5
    assert any(ent.startswith("eigenvalues") for ent in rep.eliminated)
    assert rep.re_value <= 0.01


def test_reduce_dominant_no_continuation(rng):
    ss = load_power_network(fixed=True)
    red, rep = reduce_dominant(ss, continue_blocks=False)
    assert rep.reduced_order == 6
    assert rep.iterations == 1  # the roll-back attempt never happens
    assert len(rep.eliminated) == 1


def test_reduce_dominant_explicit_k():
    # asking for more poles does not resurrect a block whose residues fall
    # below the dominance cutoff: it stays unclaimed either way
    ss = load_power_network(fixed=True)
    red4, rep4 = reduce_dominant(ss, k=4)
    assert rep4.reduced_order == 6
    red8, rep8 = reduce_dominant(ss, k=8)
    assert rep8.reduced_order == 6
    assert rep8.eliminated[0] == rep4.eliminated[0]


def test_reduce_dominant_unstable(rng):
    a = np.diag([1.0, -2.0, -3.0, -4.0])
    ss = StateSpace(a, np.vstack([np.eye(2), np.eye(2)]), np.hstack([np.eye(2), np.eye(2)]))
    with pytest.raises(UnstableSystem):
        reduce_dominant(ss)


def test_reduce_dominant_report_re_matches_recomputation(rng):
    # the reported RE and H2 error are those of the returned model, eigenvalue
    # trims included: both are reproduced from the direct sum of the full
    # system and the reduced one
    planted, _, _ = planted_block_system(rng)
    for ss in (planted, load_power_network(fixed=True)):
        full = StateSpace(ss.A, ss.B, ss.C)
        for trim_eigen in (False, True):
            red, rep = reduce_dominant(ss, trim_eigen=trim_eigen)
            assert rep.eliminated
            reduced = StateSpace(red.A, red.B, red.C)
            err = direct_sum(full, reduced)
            want = np.sqrt(np.sum(hankel_oracle(err) ** 4) / np.sum(hankel_oracle(full) ** 4))
            assert rep.re_value == pytest.approx(want, rel=1e-8)
            assert rep.h2_error == pytest.approx(h2_error(full, reduced), rel=1e-8)


def test_reduce_dominant_guard_matches_a_40_digit_reference():
    # the reported RE and H2 error against modal Cauchy gramians of the input
    # realization in 40-digit arithmetic, for the modes the reduced model drops
    rng = np.random.default_rng(20260822)
    systems = [load_power_network(fixed=True)] + [planted_block_system(rng)[0] for _ in range(2)]
    for ss in systems:
        for trim_eigen in (False, True):
            red, rep = reduce_dominant(ss, trim_eigen=trim_eigen)
            assert rep.eliminated
            want_re, want_h2 = mp_guard_reference(ss.A, ss.B, ss.C, red.poles())
            assert rep.re_value == pytest.approx(want_re, rel=1e-9, abs=0.0)
            assert rep.h2_error == pytest.approx(want_h2, rel=1e-9, abs=0.0)


def test_eigenvalue_trims_never_split_a_conjugate_pair(monkeypatch):
    # a unit of the block's spectrum that holds one member of a conjugate
    # pair of the modal form (as a near-real pair grouped as two real roots
    # would) leaves no real model, so it is passed over
    ss, _, _ = planted_block_system(np.random.default_rng(5))
    tol = Tolerances(re_threshold=10.0)
    _, rep = reduce_dominant(ss, tol, continue_blocks=False, trim_eigen=True)
    assert any(label.startswith("eigenvalues") for label in rep.eliminated)
    original = reduce._root_partition

    def split_pairs(roots, real_poly):
        units, scale = original(roots, real_poly)
        return [[cluster] for unit in units for cluster in unit], scale

    monkeypatch.setattr(reduce, "_root_partition", split_pairs)
    red, rep = reduce_dominant(ss, tol, continue_blocks=False, trim_eigen=True)
    assert rep.eliminated
    assert not any(label.startswith("eigenvalues") for label in rep.eliminated)
    assert not np.iscomplexobj(red.A)


def test_eigenvalue_trims_take_the_modes_their_block_owns():
    # a trim step drops the modes of one unit of the block's own modes, by
    # position: no eigenvalue is matched back to a mode by distance
    _, rep = reduce_dominant(load_power_network(fixed=True), trim_eigen=True)
    assert rep.eliminated == [
        "block 1 [-9.09629-11.0387j, -9.09629+11.0387j] (no dominant pole)",
        "eigenvalues [-26.8911] of block 0",
    ]
    assert (rep.reduced_order, rep.iterations) == (5, 4)
    assert rep.re_value == pytest.approx(0.002031835827347881, rel=1e-9)
    assert rep.h2_error == pytest.approx(0.2661221856034597, rel=1e-9)
    tol = Tolerances(re_threshold=10.0)
    planted = {
        5: ("eigenvalues [-1.72843-0.49055j, -1.72843+0.49055j] of block 1",
            0.6664551472612125, 2.1318452835037625),
        6: ("eigenvalues [-1.9971-0.417792j, -1.9971+0.417792j] of block 0",
            0.40076536487955444, 2.311188695942437),
    }
    for seed, (label, re_value, h2) in planted.items():
        ss, _, _ = planted_block_system(np.random.default_rng(seed))
        _, rep = reduce_dominant(ss, tol, continue_blocks=False, trim_eigen=True)
        assert rep.eliminated[-1] == label
        assert rep.re_value == pytest.approx(re_value, rel=1e-9)
        assert rep.h2_error == pytest.approx(h2, rel=1e-9)


def _width_systems():
    """The width recipe: default_rng(3) draws 12 systems for each (m, r) in
    turn, each with A = T diag(v) inv(T), v ~ U(-5, -0.2), and T, B and C
    standard normal."""
    rng = np.random.default_rng(3)
    systems = {}
    for m, r in ((2, 8), (4, 3), (4, 4), (5, 3)):
        n = m * r
        for k in range(12):
            v = rng.uniform(-5.0, -0.2, n)
            t = rng.standard_normal((n, n))
            b = rng.standard_normal((n, m))
            c = rng.standard_normal((m, n))
            systems[(m, r, k)] = StateSpace(t @ np.diag(v) @ np.linalg.inv(t), b, c)
    return systems


def test_reduce_dominant_needs_no_block_decoupling():
    # these complete sets pass every check of the search, but similarity with
    # their block Vandermonde matrix leaves off-diagonal defects of 1e-5 to
    # 1e-2; the reduction reads nothing from that similarity
    systems = _width_systems()
    for key in ((4, 4, 3), (4, 4, 4), (5, 3, 2)):
        ss = systems[key]
        red, rep = reduce_dominant(ss)
        assert red.is_stable()
        assert rep.reduced_order == red.n
        for s in probe_points(np.random.default_rng(0), 10):
            want = transfer_oracle(ss, s)
            assert np.linalg.norm(red.transfer(s) - want) <= 1e-5 * np.linalg.norm(want)


def _siso_system():
    # 1/(s+1) + 0.5/(s+3) + 0.01/(s+20): the fast mode carries almost nothing
    return StateSpace(
        np.diag([-1.0, -3.0, -20.0]), np.ones((3, 1)), np.array([[1.0, 0.5, 0.01]])
    )


def test_reduce_dominant_siso():
    red, rep = reduce_dominant(_siso_system())
    assert rep.reduced_order == 2
    assert rep.eliminated == ["block 0 [-20] (no dominant pole)"]
    assert rep.re_value <= rep.threshold
    assert_allclose(np.sort(red.poles().real), [-3.0, -1.0], atol=1e-8)


def test_reduce_latent_siso():
    red, rep = reduce_latent(mfd_from_state_space(_siso_system()))
    assert rep.reduced_order == 2
    assert rep.eliminated == ["solvent eigenvalues [-20]"]
    assert rep.re_value <= rep.threshold
    assert_allclose(np.sort(red.D.latent_roots().real), [-3.0, -1.0], atol=1e-8)


def test_reduce_dominant_nonsquare(rng):
    # three outputs, two inputs: the reduction is stable and its reported RE
    # is reproduced from the Hankel values of full and full - reduced
    ss2, weak, ablocks = planted_block_system(rng)
    ss = StateSpace(ss2.A, ss2.B, np.vstack([ss2.C, rng.standard_normal((1, 2)) @ ss2.C]))
    red, rep = reduce_dominant(ss)
    assert rep.reduced_order < ss.n
    assert np.all(red.poles().real < 0.0)
    assert red.C.shape == (3, red.n)
    err = StateSpace(
        scipy.linalg.block_diag(ss.A, red.A), np.vstack([ss.B, red.B]),
        np.hstack([ss.C, -red.C]),
    )
    want = np.sqrt(np.sum(hankel_oracle(err) ** 4) / np.sum(hankel_oracle(ss) ** 4))
    assert rep.re_value == pytest.approx(want, rel=1e-5, abs=1e-9)
    for v in np.linalg.eigvals(ablocks[weak]):
        assert np.min(np.abs(red.poles() - v)) > 1e-3


# An m = 3, r = 3 system of a graded family (output block i weighted by
# 0.2**i) on which the former iterative dominant pole search gave up after
# 8 of 9 poles.
_PLAIN_M3R3_A = np.array([
    [12.5759278120882, -0.14767548685773793, -8.530947279858342, -6.412461000451143,
     -2.4546681645163733, 7.505392989035024, -5.942659350986062, 4.5959717154429285,
     13.5031057102945],
    [4.255528546854432, -1.0475142249666487, -3.9306763875805695, -3.863386795233535,
     -3.1359787228129874, -0.2827047318778582, -4.49458052299697, 3.8764766532156387,
     4.788586054251567],
    [14.557592966935951, -0.02525104399327401, -10.481410319957492, -7.014673826117465,
     -2.343555234729533, 9.521862781687556, -6.515789876491432, 4.836344637378409,
     15.192614666984635],
    [12.555469387513929, -0.2606387937072804, -7.989874324640155, -5.338199806397885,
     -2.2663360819224514, 8.507176061015791, -5.735373173273247, 2.5508841665095963,
     13.572510654379077],
    [-3.405971345403128, -0.7208088926444114, 1.7312304135813485, -0.4279900285220554,
     -0.5365907302755627, -3.3253624753933497, 1.5157381809366377,
     -0.14143552756171987, -3.0379212905839474],
    [-8.156500867560265, 0.6193595419302789, 4.941833615260099, 4.287297280178139,
     1.1208914705891169, -5.083487233443083, 3.6754145038419805, -2.7968600737461817,
     -8.27741739788565],
    [0.4747235269078332, 0.352764216156518, -0.3924554278757211, -0.8648937670365601,
     -1.0848431826580025, -1.5051478534365301, -1.2501710519099758, 1.2232411488244836,
     0.3051985152736524],
    [-25.78238955325339, 0.6614486518530708, 15.596339071255732, 10.60374270312457,
     3.4534172135520556, -16.01797514230697, 11.92391940432174, -8.475750215751997,
     -25.206448327876377],
    [10.100609540067097, -0.46009610277515867, -6.450674473375892, -5.049232358323597,
     -1.7280475808977211, 5.818955936751603, -4.843623418899702, 3.377813223094611,
     9.795991959830248],
])
_PLAIN_M3R3_B = np.array([
    [-0.831547980155288, -0.7703306805269846, 0.5203961640490148],
    [-0.877245551064478, 0.4352016718355882, 1.3616674010208303],
    [0.07388803939335968, -0.3076647102252612, 0.7692125578697093],
    [-0.37248761113718637, -0.7713217701295874, 0.2667369941314492],
    [-1.2934967965160238, -0.25582293982517595, 0.16597651695816204],
    [-0.009353883947047125, 0.6152913226398993, 0.0670236004787643],
    [-0.05024018469194534, 0.6052182315337814, 0.7441755417359031],
    [-1.0706413070744085, 0.5257813288652708, -0.7668966758280307],
    [-0.038613934511250274, -0.42979249137695924, 0.25015891202263474],
])
_PLAIN_M3R3_C = np.array([
    [10.495769664769107, -0.29424870669351744, -6.274525239903539, -3.551988628471437,
     -1.8992335818893908, 7.412781790535546, -5.907869968526173, 2.636243779802214,
     11.511306207187504],
    [10.838731516583886, -0.570010026094758, -6.913487518590853, -3.5798809981022877,
     -0.9242470231651497, 10.880208743242735, -5.844654125839101, 1.7848049945434057,
     13.366517779955263],
    [-4.021793042701787, -0.2135870338107996, 2.50162588304135, 0.905723689330827,
     1.1668626916777716, -2.5400215790691307, 2.110535822824282, -0.9924300040724715,
     -3.733501979045966],
])


def test_reduce_dominant_where_the_iterative_search_failed():
    ss = StateSpace(_PLAIN_M3R3_A, _PLAIN_M3R3_B, _PLAIN_M3R3_C)
    red, rep = reduce_dominant(ss)
    assert rep.reduced_order == 6
    assert rep.re_value <= rep.threshold
    got = dominant_poles(ss, ss.n)
    want = dominance_order(dense_pole_oracle(ss))
    assert len(got) == ss.n
    for g in got:
        w = min(want, key=lambda q: abs(q.value - g.value))
        assert g.value == pytest.approx(w.value, rel=1e-8)
        assert g.dominance == pytest.approx(w.dominance, rel=1e-6)


def _two_step_fraction():
    """m = 2, r = 3 fraction whose latent reduction (at RE threshold 0.05)
    eliminates the fast and then the middle solvent: the first step leaves
    the numerator undivided (its degree 1 is below the quotient's 2), the
    second divides it, leaving a remainder of norm 1.3e-3."""
    D = denominator_from_solvents(
        [np.diag([-0.05, -0.08]), np.diag([-0.5, -0.6]), np.diag([-1.0, -1.1])]
    )
    n1 = np.array([[0.02, 0.01], [-0.01, 0.03]])
    n0 = n1 @ np.diag([0.5, 0.6]) + 1e-3 * np.array([[1.0, 0.3], [-0.2, 0.8]])
    return RightMFD(MatrixPolynomial([n1, n0]), D)


def test_guards_of_a_reduction_share_one_sign_iteration(count_calls):
    # every latent guard attempt reads the one ErrorGuard of its reduction,
    # built with a single sign iteration on the full controller form, and the
    # reported H2 error is the guard's as well; the dominant guard reads the
    # modal form's Cauchy gramians instead, eigenvalue trims included, and
    # runs no sign iteration at all
    calls = count_calls("_sign_steps", metrics)
    ss = load_power_network(fixed=True)
    runs = {
        "dominant": lambda: reduce_dominant(ss),
        "trim": lambda: reduce_dominant(ss, trim_eigen=True),
        "latent": lambda: reduce_latent(_two_step_fraction(), Tolerances(re_threshold=0.05)),
        "latent-network": lambda: reduce_latent(mfd_from_state_space(ss)),
    }
    reports, counts = {}, {}
    for name, run in runs.items():
        calls.clear()
        _, reports[name] = run()
        counts[name] = len(calls)
    trims = reports["trim"].iterations - reports["dominant"].iterations
    assert reports["dominant"].iterations == 2 and trims == 2
    assert reports["latent"].iterations == 2 and len(reports["latent"].eliminated) == 2
    assert reports["latent-network"].iterations == 1
    assert counts == {"dominant": 0, "trim": 0, "latent": 1, "latent-network": 1}


def test_reduce_dominant_decomposes_the_full_system_once(count_calls):
    # ranking, block dominance, claiming, every error output and the reduced
    # model come from one modal form of the full controller form, eigenvalue
    # trims included, and the system is never decoupled into solvent blocks
    calls = count_calls("modal_form", dompoles, reduce)
    decouplings = count_calls("block_diagonalize", sysrep, reduce)

    def orders():
        return [args[0].shape[0] for args in calls]

    ss = load_power_network(fixed=True)
    for kwargs in ({}, {"k": 2}, {"continue_blocks": False}, {"trim_eigen": True}):
        calls.clear()
        _, rep = reduce_dominant(ss, **kwargs)
        assert rep.eliminated
        assert orders() == [8]
    assert sum(label.startswith("eigenvalues") for label in rep.eliminated) == 1  # the trim run
    calls.clear()
    _, rep = reduce_dominant(load_power_network(fixed=False))
    assert rep.eliminated == [] and orders() == [8]
    assert decouplings == []


def test_reduce_dominant_solves_one_eigenproblem(count_calls):
    # the modal form of the full controller form is the one spectral
    # computation of a reduction: the search reads the latent roots and
    # vectors from it, the stability check its values and the guard its
    # Cauchy gramians, so no other n x n eigensolve, no sign iteration and no
    # separate latent root solve remain, eigenvalue trims included
    eigs = count_calls("eig", np.linalg)
    values = count_calls("eigvals", np.linalg)
    steps = count_calls("_sign_steps", metrics)
    roots = count_calls("latent_roots", MatrixPolynomial)
    ss = load_power_network(fixed=True)
    for trim_eigen in (False, True):
        for calls in (eigs, values, steps, roots):
            calls.clear()
        _, rep = reduce_dominant(ss, trim_eigen=trim_eigen)
        assert rep.eliminated
        assert [args[0].shape for args in eigs] == [(ss.n, ss.n)]
        assert not any(args[0].shape == (ss.n, ss.n) for args in values)
        assert steps == [] and roots == []


def test_guard_runs_no_factorization_per_candidate(count_calls):
    # the guard reads every candidate's RE from power sums of its gramians:
    # the one eigvalsh of a latent reduction is the full Hankel spectrum's,
    # and the one Cholesky factorization of a dominant reduction is the full
    # controllability gramian's, eigenvalue trims included
    eigvalsh = count_calls("eigvalsh", np.linalg)
    cholesky = count_calls("cholesky", np.linalg)
    ss = load_power_network(fixed=True)
    tol = Tolerances(re_threshold=0.05)
    attempts = []
    for fraction, system in ((_two_step_fraction(), _two_step_fraction()),
                             (mfd_from_state_space(ss), ss)):
        eigvalsh.clear()
        _, rep = reduce_latent(fraction, tol)
        attempts.append(rep.iterations)
        assert len(eigvalsh) == 1
        for trim_eigen in (False, True):
            cholesky.clear()
            _, rep = reduce_dominant(system, tol, trim_eigen=trim_eigen)
            attempts.append(rep.iterations)
            assert len(cholesky) == 1
    assert attempts == [2, 3, 4, 1, 2, 4]


def test_repeated_and_defective_latent_roots_keep_their_outcomes():
    # a repeated root takes a null-space basis of D there in place of
    # eigenvectors; the outcomes are those of the search that built every
    # latent vector that way
    N = MatrixPolynomial([np.array([[1.0, 0.5], [0.2, 1.0]]),
                          np.array([[0.3, -0.1], [0.4, 0.7]])])
    # diag((s+1)(s+2), (s+1)(s+3)): -1 twice, with two latent vectors
    repeated = MatrixPolynomial([np.eye(2), np.diag([3.0, 4.0]), np.diag([2.0, 3.0])])
    cs = compute_complete_set(repeated)
    assert [tuple(sol.eigenvalues.real) for sol in cs.solvents] == [(-3.0, -2.0), (-1.0, -1.0)]
    assert_allclose(cs.matrices[0], np.diag([-2.0, -3.0]), atol=1e-12)
    assert_allclose(cs.matrices[1], -np.eye(2), atol=1e-12)
    assert cs.condition == pytest.approx(8.938527151143624, rel=1e-12)
    ss = controller_canonical(RightMFD(N, repeated))
    tol = Tolerances(re_threshold=10.0)
    red, rep = reduce_dominant(ss, tol, k=1, continue_blocks=False)
    assert rep.eliminated == ["block 1 [-1, -1] (no dominant pole)"]
    assert rep.re_value == pytest.approx(2.7256068030841227, rel=1e-9)
    assert rep.h2_error == pytest.approx(0.5667892024377317, rel=1e-9)
    assert_allclose(red.poles(), [-3.0, -2.0], atol=1e-12)
    red, rep = reduce_dominant(ss, tol, k=1, continue_blocks=False, trim_eigen=True)
    assert rep.eliminated == ["block 1 [-1, -1] (no dominant pole)",
                              "eigenvalues [-3] of block 0", "eigenvalues [-2] of block 0"]
    assert red.n == 0 and rep.re_value == pytest.approx(1.0, rel=1e-9)
    assert rep.h2_error == pytest.approx(0.6093028803476972, rel=1e-9)
    for trim_eigen in (False, True):
        _, rep = reduce_dominant(ss, trim_eigen=trim_eigen)
        assert rep.eliminated == [] and rep.reduced_order == 4
    # (1,1) entry (s+1)**2 with one latent vector at -1: the companion is
    # defective too, yet the error is the search's
    defective = MatrixPolynomial([np.eye(2), np.array([[2.0, 1.0], [0.0, 5.0]]),
                                  np.array([[1.0, 1.0], [0.0, 6.0]])])
    with pytest.raises(NoCompleteSetFound):
        compute_complete_set(defective)
    ss = controller_canonical(RightMFD(N, defective))
    for trim_eigen in (False, True):
        with pytest.raises(NoCompleteSetFound):
            reduce_dominant(ss, trim_eigen=trim_eigen)


def test_reduce_latent_validates_no_intermediate_polynomial(count_calls):
    # quotients, products and normalized forms are built from validated
    # polynomials and skip the validating constructor
    D = denominator_from_solvents([np.diag([-1.0, -2.0]), np.diag([-40.0, -50.0])])
    N = MatrixPolynomial([np.eye(2), np.diag([40.0, 50.0]) + 1e-3])  # (sI - fast) + tiny
    cases = ((_two_step_fraction(), 2), (RightMFD(N, D), 1))
    calls = count_calls("__init__", MatrixPolynomial)
    for fraction, steps in cases:
        calls.clear()
        _, rep = reduce_latent(fraction, Tolerances(re_threshold=0.05))
        assert len(rep.eliminated) == steps
        assert len(calls) <= 1


def test_h2_gate_reads_the_full_norm_from_the_guard(count_calls):
    # the relative H2 gate divides by the full system's H2 norm, which the
    # guard holds, and reads the H2 error each attempt measures anyway:
    # setting the gate adds no H2 norm, no sign iteration and no H2 error, and
    # a gate that passes every step leaves the report as it is, to the bit
    ss = load_power_network(fixed=True)
    norms = count_calls("h2_norm", metrics, reduce)
    steps = count_calls("_sign_steps", metrics)
    errors = count_calls("h2_error", metrics.ErrorGuard)
    runs = {
        "trim": lambda h2: reduce_dominant(ss, Tolerances(h2_threshold=h2), trim_eigen=True),
        "latent": lambda h2: reduce_latent(_two_step_fraction(),
                                           Tolerances(re_threshold=0.05, h2_threshold=h2)),
    }

    def run(name, h2_threshold):
        for calls in (norms, steps, errors):
            calls.clear()
        _, rep = runs[name](h2_threshold)
        return rep, len(norms), len(steps), len(errors)

    for name, iterations in (("trim", 4), ("latent", 2)):
        gated, gated_norms, gated_steps, gated_errors = run(name, 0.5)
        free, _, free_steps, free_errors = run(name, None)
        # trim: two block attempts, two eigenvalue trims; latent: two steps
        assert gated.iterations == iterations
        assert gated == free  # every field, h2_error to the bit
        assert gated_norms == 0
        assert gated_steps == free_steps
        # one H2 error sets the guard's norm, one per attempt whose RE passed
        assert gated_errors == free_errors == 3


def test_h2_gate_measures_each_candidate():
    # the last accepted candidate is the reduced model, and the report gives
    # the H2 error the guard measured for it; a gate just above its relative
    # error accepts it, one just below rolls the last step back
    ss = load_power_network(fixed=True)
    full_norm = h2_norm(ss)
    for trim_eigen, order, rollback in ((False, 6, 8), (True, 5, 6)):
        _, free = reduce_dominant(ss, trim_eigen=trim_eigen)
        assert free.reduced_order == order
        rel = free.h2_error / full_norm
        for factor, want in ((1.0 + 1e-6, order), (1.0 - 1e-6, rollback)):
            _, rep = reduce_dominant(
                ss, Tolerances(h2_threshold=rel * factor), trim_eigen=trim_eigen
            )
            assert rep.reduced_order == want


def test_reduce_latent_guard_matches_the_direct_sum(rng):
    # RE and H2 of the order-n error realization against the direct sum of
    # the full and reduced controller forms, analysed by Kronecker solves
    f = _two_step_fraction()
    red, rep = reduce_latent(f, Tolerances(re_threshold=0.05))
    assert len(rep.eliminated) == 2 and rep.reduced_order == 2
    full, cand = controller_canonical(f), controller_canonical(red)
    err = StateSpace(scipy.linalg.block_diag(full.A, cand.A), np.vstack([full.B, cand.B]),
                     np.hstack([full.C, -cand.C]))
    want_re = np.sqrt(np.sum(hankel_oracle(err) ** 4) / np.sum(hankel_oracle(full) ** 4))
    P = lyapunov_oracle(err.A, err.B @ err.B.T)
    want_h2 = np.sqrt(np.trace(err.C @ P @ err.C.T))
    assert rep.neglected_numerator_norm > 1e-3
    assert 1e-3 < want_re < 0.05
    assert rep.re_value == pytest.approx(want_re, rel=1e-8)
    assert rep.h2_error == pytest.approx(want_h2, rel=1e-8)


def test_reduce_latent_rejects_an_unstable_candidate(monkeypatch):
    # the guard never looks at a candidate's state matrix, so the latent roots
    # a candidate keeps are checked on their own; a drift of the kept root -1
    # to +1, as rounding in the quotient could cause, must not pass
    D = denominator_from_solvents([np.diag([-1.0, -2.0]), np.diag([-40.0, -50.0])])
    f = RightMFD(MatrixPolynomial([np.eye(2)]), D)
    original = MatrixPolynomial.latent_roots

    def drifted(self):
        roots = original(self)
        return np.where(np.abs(roots + 1.0) < 1e-9, 1.0 + 0.0j, roots)

    reduce_latent(f, Tolerances(re_threshold=10.0))
    monkeypatch.setattr(MatrixPolynomial, "latent_roots", drifted)
    with pytest.raises(UnstableSystem):
        reduce_latent(f, Tolerances(re_threshold=10.0))


def test_error_output_realizes_the_neglected_parts(rng):
    # the dominant guard measures the modes dropped by a mask of the full
    # controller form's modal form through the modal output matrix with the
    # kept modes' columns zeroed, whose observable part is the modal
    # truncation (diag(lambda_I), b_I, c_I): its transfer is that of the parts
    # it stands for (whole discarded blocks, and a block plus one trimmed
    # mode), and its RE and H2 error are those of a realization of those parts
    D = denominator_from_solvents(
        [np.diag([-1.0, -2.0]), np.array([[-3.0, 4.0], [-4.0, -3.0]]), np.diag([-9.0, -12.0])]
    )
    f = RightMFD(MatrixPolynomial([rng.standard_normal((3, 2)), rng.standard_normal((3, 2)),
                                   rng.standard_normal((3, 2))]), D)
    css = controller_canonical(f)
    bd = block_diagonalize(css, compute_complete_set(D))
    modes = modal_form(css.A, css.B, css.C, 1e-10)
    _, groups = solvents._search(D, modes.values, modes.right, 1e-10, 1e-6, 1e-6, 10000)
    owner = np.empty(css.n, dtype=int)
    for i, group in enumerate(groups):
        owner[group] = i
        assert_allclose(np.sort_complex(modes.values[group]), bd.blocks[i].eigenvalues, atol=1e-9)
    guard = metrics.ErrorGuard.from_modes(modes)
    full4 = np.sum(hankel_oracle(css) ** 4)

    def check(dropped, parts):
        lam, b, c = modes.values[dropped], modes.inputs[dropped], modes.outputs[:, dropped]
        for s in probe_points(rng, 5):
            assert_allclose((c / (s - lam)) @ b, transfer_oracle(parts, s), rtol=1e-9, atol=1e-12)
        want_re = np.sqrt(np.sum(hankel_oracle(parts) ** 4) / full4)
        P = lyapunov_oracle(parts.A, parts.B @ parts.B.T)
        assert guard.relative_error(modes.outputs * dropped, 4) == pytest.approx(
            want_re, rel=1e-9, abs=0.0)
        assert guard.h2_error(modes.outputs * dropped) == pytest.approx(
            np.sqrt(np.trace(parts.C @ P @ parts.C.T)), rel=1e-9, abs=0.0)

    for discard in ({0}, {1}, {0, 2}, {0, 1, 2}):
        blocks = [bd.blocks[i] for i in sorted(discard)]
        parts = StateSpace(scipy.linalg.block_diag(*[blk.a for blk in blocks]),
                           np.vstack([blk.b for blk in blocks]),
                           np.hstack([blk.c for blk in blocks]))
        check(np.isin(owner, list(discard)), parts)
    # block k holds -9 and -12; -12 goes, and so does a whole block j
    k = next(i for i, blk in enumerate(bd.blocks) if abs(blk.eigenvalues[0] + 12.0) < 1e-6)
    j = 0 if k else 1
    mode = int(np.argmin(np.abs(modes.values + 12.0)))
    assert owner[mode] == k
    # the residue of -12 in block k, from its own left and right eigenvectors
    block = bd.blocks[k]
    theta, left, right = scipy.linalg.eig(block.a, left=True, right=True)
    i = int(np.argmin(np.abs(theta + 12.0)))
    brow = (left[:, i].conj() @ block.b / np.vdot(left[:, i], right[:, i])).real
    ccol = (block.c @ right[:, i]).real
    parts = StateSpace(scipy.linalg.block_diag(bd.blocks[j].a, [[-12.0]]),
                       np.vstack([bd.blocks[j].b, brow]),
                       np.hstack([bd.blocks[j].c, ccol[:, None]]))
    check((owner == j) | (np.arange(css.n) == mode), parts)


def _unvalued(label):
    """An elimination label without its bracketed eigenvalues."""
    return re.sub(r"\[[^]]*\]", "[]", label)


def test_block_labels_do_not_depend_on_the_frequency_unit():
    # s -> alpha s, realized as (alpha A, sqrt(alpha) B, sqrt(alpha) C), scales
    # every pole and residue by alpha and leaves dominance indices and Hankel
    # values as they are, so the same blocks go for the same relative error
    rng = np.random.default_rng(20260822)
    systems = [planted_block_system(rng)[0] for _ in range(30)]
    for ss in systems:
        red, rep = reduce_dominant(ss)
        assert rep.eliminated
        for alpha in (0.1, 0.01):
            scaled = StateSpace(alpha * ss.A, np.sqrt(alpha) * ss.B, np.sqrt(alpha) * ss.C)
            red_a, rep_a = reduce_dominant(scaled)
            assert [_unvalued(label) for label in rep_a.eliminated] == [
                _unvalued(label) for label in rep.eliminated]
            assert rep_a.re_value == pytest.approx(rep.re_value, rel=1e-6)
            assert_allclose(np.sort_complex(red_a.poles() / alpha),
                            np.sort_complex(red.poles()), rtol=1e-8)
