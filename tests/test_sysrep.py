import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockred.errors import (
    DimensionMismatch,
    ImproperFraction,
    IndivisibleDimensions,
    NotBlockControllable,
    NotDecoupled,
    NotMonic,
    ProbeAtPole,
    UnstableSystem,
)
from blockred.matpoly import MatrixPolynomial
from blockred.metrics import h2_norm
from blockred.solvents import denominator_from_solvents, validate_complete_set
from blockred.sysrep import (
    BlockDiagonalRealization,
    DiagonalBlock,
    RightMFD,
    StateSpace,
    block_diagonalize,
    controller_canonical,
    make_right_mfd,
    mfd_from_state_space,
    recompose,
    transfer_eval,
)

from conftest import probe_points, random_stable_system, transfer_oracle

from test_solvents import separated_matrices


def random_mfd(rng, m, p, r):
    D = denominator_from_solvents(separated_matrices(rng, m, r))
    ncoeffs = [rng.standard_normal((p, m)) for _ in range(r)]
    return RightMFD(MatrixPolynomial(ncoeffs), D)


def test_state_space_dims_and_validation(rng):
    ss = random_stable_system(rng, 4, 2, 3)
    assert (ss.n, ss.m, ss.p) == (4, 2, 3)
    assert ss.is_stable()
    with pytest.raises(DimensionMismatch):
        StateSpace(np.eye(3), np.ones((2, 1)), np.ones((1, 3)))
    with pytest.raises(DimensionMismatch):
        StateSpace(np.eye(2), np.ones((2, 1)), np.ones((1, 3)))
    with pytest.raises(DimensionMismatch):
        StateSpace(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.ones((2, 2)))


def test_state_space_default_feedthrough():
    ss = StateSpace(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    assert_allclose(ss.D, np.zeros((1, 1)))


def test_state_space_rejects_nonfinite():
    A = np.array([[np.nan, 0.0], [0.0, -1.0]])
    with pytest.raises(DimensionMismatch):
        StateSpace(A, np.ones((2, 1)), np.ones((1, 2)))


def test_transfer_matches_oracle(rng):
    ss = random_stable_system(rng, 5, 2, 2)
    for s in probe_points(rng, 8):
        assert_allclose(ss.transfer(s), transfer_oracle(ss, s), rtol=1e-10)


def test_transfer_at_pole_raises():
    ss = StateSpace(np.array([[-1.0]]), np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(ProbeAtPole):
        ss.transfer(-1.0)


# the probe matrix is formed, with inf * 0 entries, before the check refuses it
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("s", [np.inf, complex(0.0, np.inf), np.nan])
def test_transfer_refuses_non_finite_probe(rng, s):
    ss = random_stable_system(rng, 4, 2, 2)
    for system in (ss, random_mfd(rng, 2, 2, 2),
                   BlockDiagonalRealization(((ss.A, ss.B, ss.C),))):
        with pytest.raises(DimensionMismatch, match="not finite"):
            system.transfer(s)
        with pytest.raises(DimensionMismatch, match="not finite"):
            transfer_eval(system, s)


def test_poles_and_stability():
    ss = StateSpace(np.diag([-1.0, 2.0]), np.ones((2, 1)), np.ones((1, 2)))
    assert not ss.is_stable()
    assert_allclose(np.sort(ss.poles().real), [-1.0, 2.0])


def test_is_stable_applies_the_solvers_margin():
    # A = T diag(0, -1, -2, -3) inv(T): rounding leaves the pole at 0 slightly
    # left of the axis in 17 of 50 draws, but within the margin every solver
    # requires, so no representation may call the system stable
    rng = np.random.default_rng(0)
    below_axis = 0
    for _ in range(50):
        T = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        C = rng.standard_normal((2, 4))
        A = T @ np.diag([0.0, -1.0, -2.0, -3.0]) @ np.linalg.inv(T)
        ss = StateSpace(A, B, C)
        below_axis += bool(np.max(ss.poles().real) < 0.0)
        frac = mfd_from_state_space(ss)
        bd = BlockDiagonalRealization((DiagonalBlock(A, B, C),))
        for system in (ss, frac, bd):
            assert not system.is_stable()
            with pytest.raises(UnstableSystem):
                h2_norm(system)
    assert below_axis == 17


def test_mfd_transfer_definition(rng):
    f = random_mfd(rng, 2, 3, 2)
    assert f.order == 4
    assert (f.m, f.p) == (2, 3)
    for s in probe_points(rng, 6):
        direct = f.N.evaluate(s) @ np.linalg.inv(f.D.evaluate(s)) + f.feedthrough
        assert_allclose(f.transfer(s), direct, rtol=1e-9, atol=1e-12)


def test_mfd_requires_monic_denominator():
    N = MatrixPolynomial([np.ones((1, 2))])
    D = MatrixPolynomial([2 * np.eye(2), np.eye(2)])
    with pytest.raises(NotMonic):
        RightMFD(N, D)
    f = make_right_mfd(N, D)  # normalizes instead
    assert f.D.is_monic


def test_mfd_rejects_improper():
    D = MatrixPolynomial([np.eye(2), np.eye(2)])
    N = MatrixPolynomial([np.ones((2, 2)), np.zeros((2, 2))])
    with pytest.raises(ImproperFraction):
        RightMFD(N, D)


def test_make_right_mfd_splits_constant_quotient(rng):
    # N of the same degree as D leaves a constant quotient, which becomes
    # feedthrough without changing the fraction value
    D = denominator_from_solvents(separated_matrices(rng, 2, 2))
    E = rng.standard_normal((2, 2))
    low = [rng.standard_normal((2, 2)) for _ in range(2)]
    from blockred.matpoly import poly_mul
    N = poly_mul(MatrixPolynomial([E]), D)
    N = MatrixPolynomial([
        N.coeffs[0], N.coeffs[1] + low[0], N.coeffs[2] + low[1],
    ])
    f = make_right_mfd(N, D)
    assert f.N.degree < f.D.degree
    assert_allclose(f.feedthrough, E, rtol=1e-8, atol=1e-10)
    for s in probe_points(rng, 4):
        want = N.evaluate(s) @ np.linalg.inv(D.evaluate(s))
        assert_allclose(f.transfer(s), want, rtol=1e-8, atol=1e-10)


def test_make_right_mfd_needs_a_constant_quotient(rng):
    D = denominator_from_solvents(separated_matrices(rng, 2, 2))
    low = [rng.standard_normal((2, 2)) for _ in range(3)]
    with pytest.raises(ImproperFraction, match="non-constant quotient"):
        make_right_mfd(MatrixPolynomial([np.ones((2, 2))] + low), D)
    with pytest.raises(DimensionMismatch):
        make_right_mfd(MatrixPolynomial([np.ones((2, 3))] * 3), D)
    # zero leading coefficients leave a constant quotient: the coefficient
    # of s**deg D
    N = MatrixPolynomial([np.zeros((2, 2))] + low)
    f = make_right_mfd(N, D)
    assert f.N.degree < f.D.degree
    assert_allclose(f.feedthrough, low[0], rtol=0, atol=0)
    for s in probe_points(rng, 4):
        want = N.evaluate(s) @ np.linalg.inv(D.evaluate(s))
        assert_allclose(f.transfer(s), want, rtol=1e-8, atol=1e-10)


def test_controller_canonical_structure(rng):
    f = random_mfd(rng, 2, 2, 3)
    ss = controller_canonical(f)
    assert ss.n == 6
    assert_allclose(ss.B[:4], np.zeros((4, 2)))
    assert_allclose(ss.B[4:], np.eye(2))
    assert_allclose(ss.A[:2, 2:4], np.eye(2))
    assert_allclose(ss.A[:2, :2], np.zeros((2, 2)))
    # output blocks carry numerator coefficients by ascending power
    assert_allclose(ss.C[:, :2], f.N.coeffs[-1])


def test_controller_canonical_transfer(rng):
    for _ in range(5):
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 4))
        r = int(rng.integers(2, 4))
        f = random_mfd(rng, m, p, r)
        ss = controller_canonical(f)
        for s in probe_points(rng, 5):
            assert_allclose(ss.transfer(s), f.transfer(s), rtol=1e-7, atol=1e-9)


def test_mfd_from_state_space_round_trip(rng):
    for _ in range(5):
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        r = int(rng.integers(2, 4))
        f = random_mfd(rng, m, p, r)
        ss = controller_canonical(f)
        # hide the canonical structure behind a random similarity
        n = ss.n
        T = rng.standard_normal((n, n))
        while np.linalg.cond(T) > 100.0:
            T = rng.standard_normal((n, n))
        hidden = StateSpace(
            T @ ss.A @ np.linalg.inv(T), T @ ss.B, ss.C @ np.linalg.inv(T), ss.D
        )
        g = mfd_from_state_space(hidden)
        for s in probe_points(rng, 6):
            assert_allclose(g.transfer(s), f.transfer(s), rtol=1e-6, atol=1e-8)


def test_mfd_from_state_space_preserves_feedthrough(rng):
    E = np.array([[1.0, -2.0], [0.5, 0.25]])
    D = denominator_from_solvents(separated_matrices(rng, 2, 2))
    f = RightMFD(MatrixPolynomial([rng.standard_normal((2, 2))] * 2), D, E)
    g = mfd_from_state_space(controller_canonical(f))
    assert_allclose(g.feedthrough, E)


def test_mfd_from_state_space_indivisible(rng):
    ss = random_stable_system(rng, 3, 2, 2)
    with pytest.raises(IndivisibleDimensions):
        mfd_from_state_space(ss)


def test_mfd_from_state_space_uncontrollable():
    ss = StateSpace(
        np.diag([-1.0, -2.0, -3.0, -4.0]),
        np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
        np.ones((1, 4)),
    )
    with pytest.raises(NotBlockControllable):
        mfd_from_state_space(ss)


def test_block_diagonalize_recovers_solvents(rng):
    mats = separated_matrices(rng, 2, 3)
    D = denominator_from_solvents(mats)
    f = RightMFD(MatrixPolynomial([rng.standard_normal((2, 2)) for _ in range(3)]), D)
    ss = controller_canonical(f)
    cs = validate_complete_set(D, mats)
    bd = block_diagonalize(ss, cs)
    assert len(bd.blocks) == 3
    for blk, M in zip(bd.blocks, mats):
        assert_allclose(blk.a, M, rtol=1e-8, atol=1e-10)
    for s in probe_points(rng, 6):
        assert_allclose(bd.transfer(s), ss.transfer(s), rtol=1e-7, atol=1e-9)


def test_block_diagonalize_rejects_foreign_set(rng):
    mats = separated_matrices(rng, 2, 2)
    D = denominator_from_solvents(mats)
    f = RightMFD(MatrixPolynomial([rng.standard_normal((2, 2))] * 2), D)
    ss = controller_canonical(f)
    other = separated_matrices(rng, 2, 2, gap=3.0)
    other_set = validate_complete_set(denominator_from_solvents(other), other)
    with pytest.raises(NotDecoupled):
        block_diagonalize(ss, other_set)


def test_block_diagonalize_wrong_order(rng):
    mats = separated_matrices(rng, 2, 2)
    cs = validate_complete_set(denominator_from_solvents(mats), mats)
    ss = random_stable_system(rng, 6, 2, 2)
    with pytest.raises(DimensionMismatch):
        block_diagonalize(ss, cs)


def test_recompose_round_trip(rng):
    mats = separated_matrices(rng, 2, 2)
    D = denominator_from_solvents(mats)
    E = rng.standard_normal((2, 2))
    f = RightMFD(MatrixPolynomial([rng.standard_normal((2, 2))] * 2), D, E)
    ss = controller_canonical(f)
    cs = validate_complete_set(D, mats)
    bd = block_diagonalize(ss, cs)
    back = recompose(bd)
    assert_allclose(back.D, E)
    for s in probe_points(rng, 5):
        assert_allclose(back.transfer(s), ss.transfer(s), rtol=1e-7, atol=1e-9)


def test_select_preserves_feedthrough_and_shape(rng):
    blocks = (
        DiagonalBlock(-np.eye(2), np.ones((2, 2)), np.ones((2, 2))),
        DiagonalBlock(-3 * np.eye(2), np.ones((2, 2)), 2 * np.ones((2, 2))),
    )
    E = np.array([[0.5, 0.0], [0.0, 0.5]])
    sub = BlockDiagonalRealization(blocks[1:], E)
    assert sub.n == 2
    assert_allclose(sub.feedthrough, E)
    empty = BlockDiagonalRealization((), E)
    assert empty.n == 0
    assert empty.io_shape == (2, 2)
    ss = recompose(empty)
    assert ss.n == 0
    assert_allclose(ss.transfer(1.0), E)


def test_empty_realization_requires_shape():
    with pytest.raises(DimensionMismatch):
        BlockDiagonalRealization(())


def test_diagonal_block_eigenvalues_sorted():
    blk = DiagonalBlock(np.diag([-5.0, -1.0]), np.ones((2, 1)), np.ones((1, 2)))
    assert_allclose(blk.eigenvalues.real, [-5.0, -1.0])


def test_transfer_eval_dispatch(rng):
    ss = random_stable_system(rng, 4, 2, 2)
    f = mfd_from_state_space(ss)
    s = 1.0 + 0.5j
    assert_allclose(transfer_eval(f, s), transfer_eval(ss, s), rtol=1e-7, atol=1e-9)
