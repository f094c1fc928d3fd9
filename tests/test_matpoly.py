import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockred.errors import (
    DimensionMismatch,
    NotALatentRoot,
    SingularLeadingCoefficient,
)
from blockred.matpoly import (
    MatrixPolynomial,
    mul_linear,
    poly_mul,
)
from blockred.sysrep import controller_output

from conftest import (
    block_value_oracle,
    poly_value_oracle,
    probe_points,
    random_monic_poly,
)


def test_basic_properties():
    P = MatrixPolynomial([np.eye(2), np.ones((2, 2)), 2 * np.eye(2)])
    assert P.degree == 2
    assert P.rows == 2 and P.cols == 2
    assert P.block_size == 2
    assert P.is_square
    assert P.is_real
    assert P.is_monic


def _assert_stacked(P, dtype=np.float64):
    assert isinstance(P.coeffs, np.ndarray)
    assert P.coeffs.shape == (P.degree + 1, P.rows, P.cols)
    assert P.coeffs.dtype == dtype
    assert not P.coeffs.flags.writeable
    with pytest.raises(ValueError):
        P.coeffs[0, 0, 0] = 1.0


def test_coefficients_are_one_read_only_stack(rng):
    # the constructor and every polynomial result hold one (d+1, p, m) array
    lead = np.array([[2.0, 0.3], [0.1, 1.5]])
    P = MatrixPolynomial([lead, rng.standard_normal((2, 2)), rng.standard_normal((2, 2))])
    X = rng.standard_normal((2, 2))
    N = MatrixPolynomial([np.zeros((3, 2)), rng.standard_normal((3, 2))])
    results = [
        P, P.monic_normalized(), P.block_divide(X).quotient,
        P.block_divide(X, "left").quotient, poly_mul(N, P), mul_linear(P, X),
        mul_linear(P, X, "left"), N.trimmed(),
    ]
    for R in results:
        _assert_stacked(R)
    assert [R.degree for R in results] == [2, 2, 1, 1, 3, 3, 3, 0]
    assert N.trimmed().rows == 3
    # one complex coefficient makes the whole stack complex
    C = MatrixPolynomial([np.eye(2), 1j * np.eye(2), [[1, 2], [3, 4]]])
    _assert_stacked(C, np.complex128)
    assert not C.is_real and P.is_real
    _assert_stacked(C.block_divide(X).quotient, np.complex128)
    # the input is copied: changing it later does not reach the polynomial
    c0 = np.eye(2)
    Q = MatrixPolynomial([c0, np.zeros((2, 2))])
    c0[0, 0] = 5.0
    assert Q.coeffs[0, 0, 0] == 1.0 and Q.is_monic
    # a stack is accepted as input as well
    assert np.array_equal(MatrixPolynomial(P.coeffs).coeffs, P.coeffs)


def test_stacked_arithmetic_matches_the_coefficient_loops(rng):
    # the same products and sums as one coefficient at a time, so the
    # results are equal to the last bit
    for dtype in (float, complex):
        P = MatrixPolynomial([np.eye(3)] + [rng.standard_normal((3, 3)).astype(dtype)
                                            for _ in range(3)])
        N = MatrixPolynomial([rng.standard_normal((2, 3)) for _ in range(2)])
        X = rng.standard_normal((3, 3))
        r, m = P.degree, 3
        companion = np.zeros((r * m, r * m), dtype=P.coeffs.dtype)
        for i in range(r - 1):
            companion[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = np.eye(m)
        for j in range(r):
            companion[(r - 1) * m:, j * m:(j + 1) * m] = -P.coeffs[r - j]
        assert np.array_equal(P.companion(), companion)
        product = [np.zeros((2, 3), dtype=P.coeffs.dtype) for _ in range(N.degree + r + 1)]
        for i, a in enumerate(N.coeffs):
            for j, b in enumerate(P.coeffs):
                product[i + j] = product[i + j] + a @ b
        assert np.array_equal(poly_mul(N, P).coeffs, product)
        for side in ("right", "left"):
            qx = [q @ X if side == "right" else X @ q for q in P.coeffs]
            linear = [P.coeffs[0]] + [P.coeffs[i] - qx[i - 1] for i in range(1, r + 1)]
            assert np.array_equal(mul_linear(P, X, side).coeffs, linear + [-qx[-1]])
        output = np.hstack([N.coeffs[1], N.coeffs[0], np.zeros((2, 3))])
        assert np.array_equal(controller_output(N, 3), output)


def test_public_constructor_still_validates_each_coefficient():
    with pytest.raises(DimensionMismatch, match="coefficient 1 contains non-finite"):
        MatrixPolynomial([np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]])
    with pytest.raises(DimensionMismatch, match="coefficient 0 must be 2-D"):
        MatrixPolynomial([np.ones(2), np.eye(2)])
    with pytest.raises(DimensionMismatch, match="coefficient 1 has shape"):
        MatrixPolynomial([np.eye(2), np.eye(3)])


def test_overflowing_results_raise():
    # a result coefficient past the float range is rejected like an
    # infinite input coefficient
    P = MatrixPolynomial([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DimensionMismatch, match="coefficient 2 contains non-finite"):
            P.block_divide(1e200 * np.eye(2))
        big = MatrixPolynomial([1e200 * np.eye(2)])
        with pytest.raises(DimensionMismatch, match="coefficient 1 contains non-finite"):
            mul_linear(big, 1e200 * np.eye(2))
        with pytest.raises(DimensionMismatch, match="coefficient 0 contains non-finite"):
            poly_mul(big, big)


def test_rejects_inconsistent_shapes():
    with pytest.raises(DimensionMismatch):
        MatrixPolynomial([np.eye(2), np.ones((3, 3))])


def test_rejects_empty():
    with pytest.raises(DimensionMismatch):
        MatrixPolynomial([])


def test_evaluate_matches_power_sum(rng):
    for _ in range(10):
        m = int(rng.integers(1, 4))
        r = int(rng.integers(1, 5))
        P = random_monic_poly(rng, m, r)
        for s in probe_points(rng, 5):
            assert_allclose(P.evaluate(s), poly_value_oracle(P, s), rtol=1e-12)


def test_evaluate_real_point_stays_real():
    P = MatrixPolynomial([np.eye(2), np.zeros((2, 2))])
    v = P.evaluate(2.0)
    assert not np.iscomplexobj(v)
    assert_allclose(v, 2 * np.eye(2))


def test_block_value_both_sides(rng):
    for _ in range(10):
        m = int(rng.integers(1, 4))
        r = int(rng.integers(1, 5))
        P = random_monic_poly(rng, m, r)
        X = rng.standard_normal((m, m))
        for side in ("right", "left"):
            assert_allclose(
                P.block_value(X, side), block_value_oracle(P, X, side),
                rtol=1e-10, atol=1e-10,
            )


def test_block_value_scalar_blocks_match_evaluate(rng):
    # with 1x1 blocks the block value at [s] is just evaluation at s
    P = random_monic_poly(rng, 1, 3)
    s = 0.7
    assert_allclose(P.block_value(np.array([[s]])), P.evaluate(s), rtol=1e-12)


def test_block_divide_identity(rng):
    # A(s) == Q(s) (sI - X) + R and the left-sided mirror
    for _ in range(20):
        m = int(rng.integers(1, 4))
        r = int(rng.integers(1, 5))
        P = random_monic_poly(rng, m, r)
        X = rng.standard_normal((m, m))
        for side in ("right", "left"):
            res = P.block_divide(X, side)
            back = mul_linear(res.quotient, X, side)
            rebuilt = list(back.coeffs)
            rebuilt[-1] = rebuilt[-1] + res.remainder
            for a, b in zip(P.coeffs, rebuilt):
                assert_allclose(a, b, rtol=1e-10, atol=1e-10)


def test_block_divide_remainder_is_block_value(rng):
    for _ in range(20):
        m = int(rng.integers(1, 4))
        r = int(rng.integers(1, 5))
        P = random_monic_poly(rng, m, r)
        X = rng.standard_normal((m, m))
        for side in ("right", "left"):
            res = P.block_divide(X, side)
            assert_allclose(
                res.remainder, P.block_value(X, side), rtol=1e-10, atol=1e-10
            )


def test_block_divide_exact_iff_solvent(rng):
    # a companion-derived invariant subspace gives an exact divisor
    P = random_monic_poly(rng, 2, 3)
    C = P.companion()
    w, V = np.linalg.eig(C)
    # pick a conjugate-closed pair of eigenvalues to build a real solvent
    order = np.argsort(w.imag)
    i = order[0]
    j = int(np.argmin(np.abs(w - np.conj(w[i]))))
    Vs = V[:, [i, j]]
    top = Vs[:2, :]
    X = np.real(top @ np.diag(w[[i, j]]) @ np.linalg.inv(top))
    rem = P.block_divide(X).remainder
    assert np.max(np.abs(rem)) < 1e-6
    # a random matrix is (generically) not a solvent
    Y = rng.standard_normal((2, 2))
    assert np.max(np.abs(P.block_divide(Y).remainder)) > 1e-6


def test_block_divide_rejects_degree_zero():
    P = MatrixPolynomial([np.eye(2)])
    with pytest.raises(DimensionMismatch):
        P.block_divide(np.eye(2))


def test_block_divide_rejects_wrong_size():
    P = MatrixPolynomial([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(DimensionMismatch):
        P.block_divide(np.eye(3))


def test_companion_eigenvalues_are_latent_roots(rng):
    for _ in range(10):
        m = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        P = random_monic_poly(rng, m, r)
        roots = P.latent_roots()
        assert roots.shape == (r * m,)
        # each root makes A(s) singular
        for z in roots:
            sig = np.linalg.svd(P.evaluate(z), compute_uv=False)
            assert sig[-1] <= 1e-6 * max(sig[0], 1.0)


def test_companion_structure():
    C1 = 3.0 * np.eye(2)
    C2 = np.array([[2.0, 1.0], [0.0, 2.0]])
    P = MatrixPolynomial([np.eye(2), C1, C2])
    A = P.companion()
    assert A.shape == (4, 4)
    assert_allclose(A[:2, 2:], np.eye(2))
    assert_allclose(A[2:, :2], -C2)
    assert_allclose(A[2:, 2:], -C1)


def test_monic_normalized_preserves_latent_roots(rng):
    lead = np.array([[2.0, 0.3], [0.1, 1.5]])
    tail = [rng.standard_normal((2, 2)) for _ in range(2)]
    P = MatrixPolynomial([lead] + tail)
    M = P.monic_normalized()
    assert M.is_monic
    assert_allclose(
        np.sort_complex(P.latent_roots()), np.sort_complex(M.latent_roots()),
        rtol=1e-8, atol=1e-8,
    )


def test_monic_normalized_rejects_singular_lead():
    P = MatrixPolynomial([np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(SingularLeadingCoefficient):
        P.monic_normalized()


def test_latent_vector_annihilates(rng):
    P = random_monic_poly(rng, 2, 2)
    for z in P.latent_roots():
        v, res = P.latent_vector(z, "right")
        assert res < 1e-6
        assert_allclose(np.linalg.norm(v), 1.0, rtol=1e-12)
        assert np.linalg.norm(P.evaluate(z) @ v) < 1e-6
        u, res_l = P.latent_vector(z, "left")
        assert res_l < 1e-6
        assert np.linalg.norm(u @ P.evaluate(z)) < 1e-6


def test_latent_vector_rejects_non_root():
    P = MatrixPolynomial([np.eye(2), np.zeros((2, 2)), np.eye(2) * 2.0])
    with pytest.raises(NotALatentRoot):
        P.latent_vector(100.0)


def test_latent_vector_scalar_polynomial():
    # with 1 x 1 blocks the root test cannot compare sigma_min with sigma_max
    P = MatrixPolynomial([np.eye(1), 3 * np.eye(1), 2 * np.eye(1)])
    v, res = P.latent_vector(-2.0)
    assert abs(v[0]) == pytest.approx(1.0)
    assert res < 1e-12
    with pytest.raises(NotALatentRoot):
        P.latent_vector(-1.5)


def test_determinant_polynomial_known_case():
    # diag(s^2 + 3 s + 2, s^2 + 3 s + 2) has determinant (s^2 + 3 s + 2)^2
    P = MatrixPolynomial([np.eye(2), 3 * np.eye(2), 2 * np.eye(2)])
    d = P.determinant_polynomial()
    assert_allclose(d, [1.0, 6.0, 13.0, 12.0, 4.0], atol=1e-8)


def test_determinant_polynomial_matches_dense(rng):
    for _ in range(5):
        P = random_monic_poly(rng, 2, 2)
        d = P.determinant_polynomial()
        for s in probe_points(rng, 6):
            direct = np.linalg.det(P.evaluate(s))
            assert_allclose(np.polyval(d, s), direct, rtol=1e-7, atol=1e-7)


def test_trimmed_drops_leading_zeros():
    P = MatrixPolynomial([np.zeros((2, 2)), np.eye(2), np.ones((2, 2))])
    T = P.trimmed()
    assert T.degree == 1
    assert_allclose(T.coeffs[0], np.eye(2))


def test_poly_mul_matches_pointwise(rng):
    A = random_monic_poly(rng, 2, 2)
    B = random_monic_poly(rng, 2, 1)
    C = poly_mul(A, B)
    assert C.degree == 3
    for s in probe_points(rng, 5):
        assert_allclose(
            C.evaluate(s), A.evaluate(s) @ B.evaluate(s), rtol=1e-10, atol=1e-10
        )


def test_mul_linear_matches_pointwise(rng):
    Q = random_monic_poly(rng, 2, 2)
    X = rng.standard_normal((2, 2))
    for side in ("right", "left"):
        M = mul_linear(Q, X, side)
        for s in probe_points(rng, 4):
            lin = s * np.eye(2) - X
            want = Q.evaluate(s) @ lin if side == "right" else lin @ Q.evaluate(s)
            assert_allclose(M.evaluate(s), want, rtol=1e-10, atol=1e-10)
