import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockred.dompoles import modal_form
from blockred.errors import (
    DimensionMismatch,
    FeedthroughMismatch,
    NonzeroFeedthrough,
    UnstableSystem,
)
from blockred.metrics import (
    STABILITY_MARGIN,
    ErrorGuard,
    HankelSpectrum,
    bode_samples,
    gramians,
    h2_error,
    h2_norm,
    hankel_singular_values,
    lyapunov_solve,
    relative_error,
)
from blockred.matpoly import MatrixPolynomial
from blockred.solvents import denominator_from_solvents
from blockred.sysrep import RightMFD, StateSpace, controller_canonical, mfd_from_state_space

from conftest import (
    direct_sum,
    h2_oracle,
    hankel_oracle,
    lyapunov_exact,
    lyapunov_oracle,
    random_diagonalizable_stable,
    random_stable_matrix,
    random_stable_system,
)


def test_lyapunov_matches_kronecker_oracle(rng):
    for _ in range(10):
        n = int(rng.integers(1, 9))
        a = random_stable_matrix(rng, n)
        b = rng.standard_normal((n, 2))
        q = b @ b.T
        x = lyapunov_solve(a, q)
        want = lyapunov_oracle(a, q)
        assert_allclose(x, want, rtol=1e-8, atol=1e-10)
        # defining equation holds
        assert_allclose(a @ x + x @ a.T + q, np.zeros((n, n)), atol=1e-9 * max(1.0, np.max(np.abs(q))))


def test_lyapunov_rejects_mismatch():
    with pytest.raises(DimensionMismatch):
        lyapunov_solve(-np.eye(2), np.eye(3))


def test_lyapunov_complex_matrix(rng):
    n = 5
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = a - (float(np.max(np.linalg.eigvals(a).real)) + 0.5) * np.eye(n)
    b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    q = b @ b.conj().T
    x = lyapunov_solve(a, q)
    assert_allclose(x, lyapunov_oracle(a, q), rtol=1e-9, atol=1e-12)
    assert_allclose(x, x.conj().T, rtol=0, atol=1e-14 * np.max(np.abs(x)))
    assert_allclose(a @ x + x @ a.conj().T + q, 0.0, atol=1e-10)


def test_lyapunov_jordan_block():
    # a single defective eigenvalue: no eigenbasis, which the sign
    # iteration does not need (-0.1 with n = 6 has condition 2e6)
    for lam, n in ((-0.5, 4), (-2.0, 6), (-0.1, 6)):
        a = lam * np.eye(n) + np.diag(np.ones(n - 1), 1)
        q = np.outer(np.arange(1.0, n + 1), np.arange(1.0, n + 1)) + np.eye(n)
        x = lyapunov_solve(a, q)
        want = lyapunov_exact(a, q)
        assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want)


def test_gramians_of_ill_conditioned_controller_form(rng):
    # block companion of a degree-5 denominator with solvent spectra from
    # -0.2 to -16: condition numbers of A in the thousands
    mats = []
    for i in range(5):
        t = rng.standard_normal((2, 2))
        while np.linalg.cond(t) > 5.0:
            t = rng.standard_normal((2, 2))
        values = -0.2 * 3.0 ** i * rng.uniform(0.9, 1.1, size=2)
        mats.append(t @ np.diag(values) @ np.linalg.inv(t))
    D = denominator_from_solvents(mats)
    N = MatrixPolynomial([rng.standard_normal((2, 2)) for _ in range(5)])
    ss = controller_canonical(RightMFD(N, D))
    assert np.linalg.cond(ss.A) > 1e3
    g = gramians(ss)
    for got, (a, w) in zip(
        (g.controllability, g.observability),
        ((ss.A, ss.B @ ss.B.T), (ss.A.T, ss.C.T @ ss.C)),
    ):
        want = lyapunov_oracle(a, w)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is a plain double on this platform")
def test_lyapunov_refinement_reaches_the_rounded_solution():
    # A = T diag(-0.1 .. -10) inv(T) with cond(T) near 1e3: condition 1e5,
    # where the bare sign iteration is off by 2e-12 and the solution
    # refined with an extended-precision residual is exact to rounding
    rng = np.random.default_rng(125)
    n = 6
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    T = U @ np.diag(np.logspace(0, -rng.uniform(2, 4), n)) @ V
    a = T @ np.diag(-np.logspace(-1, 1, n)) @ np.linalg.inv(T)
    b = rng.standard_normal((n, 2))
    q = b @ b.T
    want = lyapunov_exact(a, q)
    assert np.linalg.norm(lyapunov_solve(a, q) - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("a", [
    np.diag([0.5, -1.0]),  # unstable
    np.array([[-1.0, 3.0], [0.0, 2.0]]),  # unstable, non-normal
    np.diag([0.0, -1.0]),  # marginal: a zero eigenvalue
    np.array([[0.0, 2.0], [-0.5, 0.0]]),  # marginal: eigenvalues +-i
])
def test_lyapunov_rejects_unstable_and_marginal(a):
    with pytest.raises(UnstableSystem):
        lyapunov_solve(a, np.eye(2))


def test_numerically_marginal_state_matrices_are_unstable():
    # a zero eigenvalue behind a random similarity: rounding moves it up to
    # 1.4e-14 ||A||_F to either side of the axis, and on the stable side the
    # sign iteration used to return gramians with entries near 5e15
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = rng.standard_normal((4, 4))
        a = t @ np.diag([0.0, -1.0, -2.0, -3.0]) @ np.linalg.inv(t)
        assert np.max(np.linalg.eigvals(a).real) > -STABILITY_MARGIN * np.linalg.norm(a)
        ss = StateSpace(a, np.eye(4), np.eye(4))
        for solve in (lambda: lyapunov_solve(a, np.eye(4)), lambda: gramians(ss),
                      lambda: ErrorGuard.from_system(ss)):
            with pytest.raises(UnstableSystem):
                solve()


def test_gramian_defining_equations(rng):
    ss = random_stable_system(rng, 6, 2, 2)
    g = gramians(ss)
    scale = max(1.0, float(np.max(np.abs(ss.B))) ** 2)
    assert_allclose(
        ss.A @ g.controllability + g.controllability @ ss.A.T + ss.B @ ss.B.T,
        np.zeros((6, 6)), atol=1e-8 * scale,
    )
    assert_allclose(
        ss.A.T @ g.observability + g.observability @ ss.A + ss.C.T @ ss.C,
        np.zeros((6, 6)), atol=1e-8 * scale,
    )


def test_gramians_require_stability():
    ss = StateSpace(np.array([[1.0]]), np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(UnstableSystem):
        gramians(ss)


def test_h2_norm_trace_identity(rng):
    # trace(C P C^T) equals trace(B^T Q B): both give the H2 norm
    for _ in range(10):
        ss = random_stable_system(rng, int(rng.integers(2, 8)), 2, 3)
        g = gramians(ss)
        via_p = np.trace(ss.C @ g.controllability @ ss.C.T)
        via_q = np.trace(ss.B.T @ g.observability @ ss.B)
        assert_allclose(via_p, via_q, rtol=1e-8)
        assert h2_norm(ss) == pytest.approx(np.sqrt(via_p), rel=1e-10)


def test_h2_norm_analytic_first_order():
    # G(s) = 1/(s + a) has H2 norm 1/sqrt(2 a)
    for a in (0.5, 1.0, 4.0):
        ss = StateSpace(np.array([[-a]]), np.ones((1, 1)), np.ones((1, 1)))
        assert h2_norm(ss) == pytest.approx(1.0 / np.sqrt(2 * a), rel=1e-12)


def test_h2_norm_matches_quadrature(rng):
    for _ in range(4):
        ss = random_stable_system(rng, int(rng.integers(2, 6)), 2, 2)
        assert h2_norm(ss) == pytest.approx(h2_oracle(ss), rel=1e-6)


def test_h2_norm_rejects_feedthrough():
    ss = StateSpace(-np.eye(1), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(NonzeroFeedthrough):
        h2_norm(ss)


def test_h2_norm_accepts_mfd(rng):
    ss = random_stable_system(rng, 4, 2, 2)
    f = mfd_from_state_space(ss)
    assert h2_norm(f) == pytest.approx(h2_norm(ss), rel=1e-8)


def test_h2_error_shape_mismatch(rng):
    a = random_stable_system(rng, 4, 2, 2)
    b = random_stable_system(rng, 4, 1, 2)
    with pytest.raises(DimensionMismatch):
        h2_error(a, b)


def test_h2_error_properties(rng):
    a = random_stable_system(rng, 4, 2, 2)
    b = random_stable_system(rng, 3, 2, 2)
    assert h2_error(a, a) == pytest.approx(0.0, abs=1e-9)
    e = h2_error(a, b)
    assert e == pytest.approx(h2_error(b, a), rel=1e-10)
    assert e == pytest.approx(h2_oracle(direct_sum(a, b)), rel=1e-6)


def test_h2_error_matches_direct_sum_gramian(rng):
    for _ in range(5):
        a = random_stable_system(rng, int(rng.integers(1, 6)), 2, 3)
        b = random_stable_system(rng, int(rng.integers(1, 6)), 2, 3)
        d = direct_sum(a, b)
        want = np.sqrt(np.trace(d.C @ lyapunov_oracle(d.A, d.B @ d.B.T) @ d.C.T))
        assert h2_error(a, b) == pytest.approx(want, rel=1e-9)
    empty = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((3, 0)))
    assert h2_error(a, empty) == pytest.approx(h2_norm(a), rel=1e-12)
    assert h2_error(a, a) == 0.0  # identical blocks cancel exactly


def test_h2_error_feedthrough_mismatch(rng):
    a = random_stable_system(rng, 3, 2, 2)
    b = StateSpace(a.A, a.B, a.C, np.ones((2, 2)))
    with pytest.raises(FeedthroughMismatch):
        h2_error(a, b)
    # equal feedthrough on both sides cancels and is accepted
    c = StateSpace(a.A, a.B, 2 * a.C, np.ones((2, 2)))
    assert h2_error(b, c) > 0.0


def test_hankel_values_match_oracle(rng):
    for _ in range(8):
        ss = random_stable_system(rng, int(rng.integers(2, 9)), 2, 2)
        got = hankel_singular_values(ss).values
        want = hankel_oracle(ss)
        assert np.all(np.diff(got) <= 1e-12)  # largest first
        assert_allclose(got, want, rtol=1e-6, atol=1e-10)


def test_hankel_invariant_under_similarity(rng):
    ss = random_stable_system(rng, 5, 2, 2)
    T = rng.standard_normal((5, 5))
    while np.linalg.cond(T) > 50.0:
        T = rng.standard_normal((5, 5))
    sim = StateSpace(
        T @ ss.A @ np.linalg.inv(T), T @ ss.B, ss.C @ np.linalg.inv(T), ss.D
    )
    assert_allclose(
        hankel_singular_values(sim).values,
        hankel_singular_values(ss).values,
        rtol=1e-7,
    )


def test_hankel_power_sum():
    hs = hankel_singular_values(
        StateSpace(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
    )
    assert hs.power_sum(2) == pytest.approx(float(np.sum(hs.values ** 2)))


def test_relative_error_extremes(rng):
    full = random_stable_system(rng, 5, 2, 2)
    nothing = StateSpace(
        np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.zeros((2, 2))
    )
    for power in (2, 4):
        assert relative_error(full, nothing, power) == pytest.approx(0.0, abs=1e-12)
        assert relative_error(full, full, power) == pytest.approx(1.0, rel=1e-12)


def test_relative_error_monotone(rng):
    # neglecting a weaker part gives a smaller index
    a = np.diag([-1.0, -2.0, -30.0])
    b = np.ones((3, 1))
    c = np.array([[1.0, 1.0, 0.1]])
    full = StateSpace(a, b, c)
    weak = StateSpace(a[2:, 2:], b[2:], c[:, 2:])
    strong = StateSpace(a[:1, :1], b[:1], c[:, :1])
    for power in (2, 4):
        r_weak = relative_error(full, weak, power)
        r_strong = relative_error(full, strong, power)
        assert 0.0 < r_weak < r_strong < 1.0


def test_relative_error_reuses_full_spectrum(rng):
    full = random_stable_system(rng, 6, 2, 2)
    part = random_stable_system(rng, 2, 2, 2)
    spectrum = hankel_singular_values(full)
    for power in (2, 4):
        assert relative_error(spectrum, part, power) == relative_error(full, part, power)
        assert relative_error(spectrum, hankel_singular_values(part), power) == (
            relative_error(full, part, power))


def test_error_guard_matches_the_oracles(rng):
    ss = random_stable_system(rng, 6, 2, 3)
    guard = ErrorGuard.from_system(ss)
    assert np.array_equal(guard.spectrum.values, hankel_singular_values(ss).values)
    assert guard.h2_norm == pytest.approx(h2_norm(ss), rel=1e-12)
    P = lyapunov_oracle(ss.A, ss.B @ ss.B.T)
    full = HankelSpectrum(hankel_oracle(ss))
    for c_err in (rng.standard_normal((3, 6)), rng.standard_normal((1, 6)),
                  rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))):
        err = StateSpace(ss.A, ss.B, c_err)
        Q = lyapunov_oracle(ss.A.conj().T, c_err.conj().T @ c_err)
        want = np.sort(np.sqrt(np.clip(np.linalg.eigvals(P @ Q).real, 0.0, None)))[::-1]
        for power in (2, 4):
            got = guard.relative_error(c_err, power)
            want_re = relative_error(full, HankelSpectrum(want), power)
            assert got == pytest.approx(want_re, rel=1e-9)
            if not np.iscomplexobj(c_err):
                assert got == pytest.approx(relative_error(ss, err, power), rel=1e-9)
        assert guard.h2_error(c_err) == pytest.approx(
            np.sqrt(np.trace(c_err @ P @ c_err.conj().T).real), rel=1e-10)


def test_error_guard_sources_agree(rng):
    # the guard from the system (sign iteration) and the guard from its modal
    # form (Cauchy gramians) measure the same error system: C_e in state
    # coordinates is C_e X in the modal ones, X being the right eigenvectors
    for _ in range(5):
        ss = random_diagonalizable_stable(rng, 6, 2, 3)
        modes = modal_form(ss.A, ss.B, ss.C, 1e-10)
        by_system, by_modes = ErrorGuard.from_system(ss), ErrorGuard.from_modes(modes)
        assert_allclose(by_modes.spectrum.values, by_system.spectrum.values, rtol=1e-9)
        for c_err in (rng.standard_normal((3, 6)),
                      rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))):
            modal = c_err @ modes.right
            for power in (2, 4):
                assert by_modes.relative_error(modal, power) == pytest.approx(
                    by_system.relative_error(c_err, power), rel=1e-9)
            assert by_modes.h2_error(modal) == pytest.approx(
                by_system.h2_error(c_err), rel=1e-10)


def test_relative_error_rejects_bad_power(rng):
    full = random_stable_system(rng, 3, 1, 1)
    with pytest.raises(ValueError):
        relative_error(full, full, 3)


def test_bode_first_order_analytic():
    ss = StateSpace(np.array([[-1.0]]), np.ones((1, 1)), np.ones((1, 1)))
    table = bode_samples(ss, wmin=1.0, wmax=2.0, count=2)
    # the first sample sits at omega = 1 where |G| = 1/sqrt(2)
    assert_allclose(table.omega, [1.0, 2.0])
    assert table.magnitude[0, 0, 0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)
    assert table.phase_deg[0, 0, 0] == pytest.approx(-45.0, rel=1e-10)


def test_bode_grid_and_shapes(rng):
    ss = random_stable_system(rng, 4, 2, 3)
    table = bode_samples(ss, wmin=0.1, wmax=10.0, count=25)
    assert table.omega.shape == (25,)
    assert table.omega[0] == pytest.approx(0.1)
    assert table.omega[-1] == pytest.approx(10.0)
    assert table.magnitude.shape == (25, 3, 2)
    assert table.phase_deg.shape == (25, 3, 2)
    k = 7
    G = ss.transfer(1j * table.omega[k])
    assert_allclose(table.magnitude[k], np.abs(G), rtol=1e-12)


def test_bode_rejects_bad_grid(rng):
    ss = random_stable_system(rng, 2, 1, 1)
    with pytest.raises(ValueError):
        bode_samples(ss, wmin=1.0, wmax=0.1)
    with pytest.raises(ValueError):
        bode_samples(ss, count=1)
