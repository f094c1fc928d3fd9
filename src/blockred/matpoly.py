"""Matrix polynomials: evaluation, latent structure, block division.

A degree-r matrix polynomial is stored leading coefficient first,

    A(s) = C[0] s**r + C[1] s**(r-1) + ... + C[r],

with every coefficient the same (possibly rectangular) shape, as one
read-only (r + 1, p, m) array.  Latent roots and latent vectors, the block
companion matrix, block division by a linear factor s*I - X, and the scalar
determinant polynomial all live here.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import as_matrix, cond2, phase_normalize, realify_each, sort_complex
from .errors import (
    DimensionMismatch,
    InterpolationError,
    NotALatentRoot,
    SingularLeadingCoefficient,
)

DEFAULT_TAU_NULL = 1e-6
# A matrix whose condition number reaches 1 / eps_sing counts as singular.
DEFAULT_EPS_SING = 1e-10


@dataclass
class BlockDivisionResult:
    quotient: "MatrixPolynomial"
    remainder: np.ndarray
    side: str


class MatrixPolynomial:
    """Matrix polynomial with coefficients stored leading-first.

    coeffs is one read-only (degree + 1, rows, cols) array, float64 or
    complex128 (complex as soon as one coefficient is).  The constructor
    validates every coefficient (2-D, finite, one shape).  Results that the
    module computes from polynomials already built come from _from_stack,
    which checks only that they are finite.
    """

    def __init__(self, coeffs):
        mats = [as_matrix(c, f"coefficient {i}") for i, c in enumerate(coeffs)]
        if not mats:
            raise DimensionMismatch("a matrix polynomial needs at least one coefficient")
        shape = mats[0].shape
        for i, c in enumerate(mats):
            if c.shape != shape:
                raise DimensionMismatch(
                    f"coefficient {i} has shape {c.shape}, expected {shape}"
                )
        self._adopt(np.stack(mats))

    @classmethod
    def _from_stack(cls, stack):
        """Polynomial on a (degree + 1, rows, cols) float64 or complex128
        stack computed from validated polynomials, adopted without a copy.

        Only finiteness is checked, since arithmetic can overflow.
        """
        finite = np.isfinite(stack)
        if not finite.all():
            i = int(np.argmin(finite.all(axis=(1, 2))))
            raise DimensionMismatch(f"coefficient {i} contains non-finite entries")
        poly = cls.__new__(cls)
        poly._adopt(stack)
        return poly

    def _adopt(self, stack):
        stack.flags.writeable = False
        self.coeffs = stack

    # -- basic structure ------------------------------------------------

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    @property
    def rows(self):
        return self.coeffs.shape[1]

    @property
    def cols(self):
        return self.coeffs.shape[2]

    @property
    def block_size(self):
        if self.rows != self.cols:
            raise DimensionMismatch(
                f"square blocks required, got {self.rows}x{self.cols}"
            )
        return self.rows

    @property
    def is_square(self):
        return self.rows == self.cols

    @property
    def is_real(self):
        return not np.iscomplexobj(self.coeffs)

    @cached_property
    def is_monic(self):
        return bool(
            self.is_square
            and np.max(np.abs(self.coeffs[0] - np.eye(self.rows))) <= 1e-12
        )

    @cached_property
    def _norms(self):
        """Frobenius norm of every coefficient."""
        return [float(np.linalg.norm(c)) for c in self.coeffs]

    def __repr__(self):
        kind = f"{self.rows}x{self.cols}"
        return f"MatrixPolynomial(degree={self.degree}, blocks={kind})"

    def trimmed(self, tol=0.0):
        """Drop numerically zero leading coefficients (keeps at least one)."""
        sizes = np.max(np.abs(self.coeffs), axis=(1, 2), initial=0.0)
        thresh = tol * max(float(np.max(sizes)), 1.0)
        k = 0
        while k < self.degree and sizes[k] <= thresh:
            k += 1
        if k == 0:
            return self
        return MatrixPolynomial._from_stack(self.coeffs[k:])

    # -- evaluation -----------------------------------------------------

    def evaluate(self, s):
        """Value of the polynomial at a complex scalar, by Horner recursion."""
        value = np.array(self.coeffs[0], dtype=complex)
        for c in self.coeffs[1:]:
            value = value * s + c
        if self.is_real and not np.iscomplexobj(np.asarray(s)):
            return value.real
        return value

    def evaluation_scale(self, s):
        """Sum of ||C_k||_F |s|**(degree - k): the size of the terms of A(s).

        A singular value of A(s) that is small against this sum is zero up
        to rounding, whatever the size of the other singular values.
        """
        z = abs(complex(s))
        total = 0.0
        for norm in self._norms:
            total = total * z + norm
        return total

    def block_value(self, X, side="right"):
        """Value with a square matrix substituted for the scalar variable.

        side "right" computes sum_i C[i] @ X**(r-i); side "left" computes
        sum_i X**(r-i) @ C[i].  Equal to the block division remainder on the
        same side.
        """
        X = as_matrix(X, "X")
        _check_side(side)
        want = self.cols if side == "right" else self.rows
        if X.shape != (want, want):
            raise DimensionMismatch(
                f"X must be {want}x{want} for side '{side}', got {X.shape}"
            )
        value = np.array(self.coeffs[0], dtype=np.result_type(self.coeffs[0], X))
        for c in self.coeffs[1:]:
            value = value @ X + c if side == "right" else X @ value + c
        return value

    def block_divide(self, X, side="right"):
        """Divide by the linear factor (s*I - X) on the given side.

        Right: A(s) = Q(s) @ (s I - X) + R.  Left: A(s) = (s I - X) @ Q(s) + R.
        The quotient has degree r - 1; the remainder is a constant matrix.
        """
        if self.degree < 1:
            raise DimensionMismatch("block division needs degree >= 1")
        X = as_matrix(X, "X")
        _check_side(side)
        want = self.cols if side == "right" else self.rows
        if X.shape != (want, want):
            raise DimensionMismatch(
                f"X must be {want}x{want} for side '{side}', got {X.shape}"
            )
        q = np.empty((self.degree, self.rows, self.cols),
                     dtype=np.result_type(self.coeffs, X))
        q[0] = self.coeffs[0]
        for i in range(1, self.degree):
            q[i] = self.coeffs[i] + (q[i - 1] @ X if side == "right" else X @ q[i - 1])
        rem = self.coeffs[-1] + (q[-1] @ X if side == "right" else X @ q[-1])
        return BlockDivisionResult(MatrixPolynomial._from_stack(q), rem, side)

    # -- latent structure -----------------------------------------------

    def monic_normalized(self):
        """Equivalent monic polynomial inv(C[0]) @ A(s).

        Latent roots and right latent vectors are unchanged.
        """
        n = self.block_size
        lead = self.coeffs[0]
        if self.is_monic:
            return self
        if cond2(lead) >= 1.0 / DEFAULT_EPS_SING:
            raise SingularLeadingCoefficient(
                f"leading coefficient condition {cond2(lead):.2e} exceeds {1.0 / DEFAULT_EPS_SING:.0e}"
            )
        lu = np.linalg.inv(lead)
        coeffs = np.empty_like(self.coeffs)
        coeffs[0] = np.eye(n)
        coeffs[1:] = lu @ self.coeffs[1:]
        return MatrixPolynomial._from_stack(realify_each(coeffs, 1e-12))

    def companion(self):
        """Block companion matrix (bottom block row carries the coefficients).

        For a monic degree-r polynomial with m x m blocks the result is
        r*m x r*m with identity blocks on the superdiagonal and
        [-C[r], ..., -C[1]] along the bottom block row.
        """
        mono = self.monic_normalized()
        m = mono.block_size
        r = mono.degree
        if r == 0:
            return np.zeros((0, 0))
        A = np.zeros((r * m, r * m), dtype=mono.coeffs.dtype)
        A[:(r - 1) * m, m:] = np.eye((r - 1) * m)
        # block column j holds -C[r - j]
        A[(r - 1) * m:, :] = -mono.coeffs[:0:-1].transpose(1, 0, 2).reshape(m, r * m)
        return A

    def latent_roots(self):
        """All r*m latent roots (eigenvalues of the block companion)."""
        C = self.companion()
        if C.shape[0] == 0:
            return np.zeros(0, dtype=complex)
        return sort_complex(np.linalg.eigvals(C))

    def latent_vector(self, root, side="right", tau_null=DEFAULT_TAU_NULL):
        """Unit latent vector at a latent root, from the SVD of A(root).

        Raises NotALatentRoot when the smallest singular value of A(root) is
        not below tau_null relative to the evaluation scale of the polynomial
        there (see evaluation_scale).
        """
        _check_side(side)
        self.block_size  # squares only
        A = self.evaluate(complex(root))
        U, sig, Vh = np.linalg.svd(A)
        smin = sig[-1] if sig.size else 0.0
        scale = self.evaluation_scale(root)
        if smin > tau_null * scale:
            raise NotALatentRoot(
                f"smallest singular value {smin:.3e} vs evaluation scale {scale:.3e} "
                f"at s = {complex(root):.6g}"
            )
        if side == "right":
            v = phase_normalize(Vh[-1].conj())
            residual = float(np.linalg.norm(A @ v))
        else:
            v = phase_normalize(U[:, -1].conj())
            residual = float(np.linalg.norm(v @ A))
        return v, residual

    # -- scalar determinant ---------------------------------------------

    def determinant_polynomial(self):
        """Coefficients of det A(s), descending, by circle interpolation.

        Samples the determinant at r*m + 1 equispaced points on a circle whose
        radius tracks the geometric mean of the latent root magnitudes, then
        recovers the coefficients with an inverse DFT.
        """
        m = self.block_size
        r = self.degree
        N = r * m + 1
        radius = self._interp_radius()
        k = np.arange(N)
        nodes = radius * np.exp(2j * np.pi * k / N)
        d = np.array([np.linalg.det(self.evaluate(z)) for z in nodes])
        if not np.all(np.isfinite(d)):
            raise InterpolationError("determinant samples are not finite")
        c_asc = np.fft.fft(d) / N / radius ** np.arange(N, dtype=float)
        if not np.all(np.isfinite(c_asc)):
            raise InterpolationError("interpolation produced non-finite coefficients")
        if self.is_real:
            c_asc = c_asc.real
        return np.asarray(c_asc[::-1])

    def _interp_radius(self):
        m = self.block_size
        r = self.degree
        if r == 0:
            return 1.0
        d0 = abs(np.linalg.det(self.coeffs[0]))
        dr = abs(np.linalg.det(self.coeffs[-1]))
        if d0 > 0 and dr > 0 and np.isfinite(d0) and np.isfinite(dr):
            return max(1.0, float((dr / d0) ** (1.0 / (r * m))))
        return 1.5


def _check_side(side):
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")


# -- polynomial arithmetic helpers -------------------------------------------

def poly_mul(A, B):
    """Product A(s) @ B(s) of two matrix polynomials."""
    if A.cols != B.rows:
        raise DimensionMismatch(
            f"cannot multiply {A.rows}x{A.cols} by {B.rows}x{B.cols} blocks"
        )
    da, db = A.degree, B.degree
    out = np.zeros((da + db + 1, A.rows, B.cols), dtype=np.result_type(A.coeffs, B.coeffs))
    for i, ca in enumerate(A.coeffs):
        out[i:i + db + 1] += ca @ B.coeffs
    return MatrixPolynomial._from_stack(out)


def mul_linear(Q, X, side="right"):
    """Product of Q(s) with the linear factor (s*I - X) on the given side."""
    X = as_matrix(X, "X")
    _check_side(side)
    q = Q.coeffs
    qx = q @ X if side == "right" else X @ q
    out = np.empty((len(q) + 1,) + qx.shape[1:], dtype=qx.dtype)
    out[0] = q[0]
    out[1:-1] = q[1:] - qx[:-1]
    out[-1] = -qx[-1]
    return MatrixPolynomial._from_stack(out)


def right_divmod(N, D):
    """Right polynomial division N(s) = Q(s) @ D(s) + R(s), deg R < deg D.

    D must be monic and square with block size equal to N's column count.
    """
    from .errors import NotMonic

    if not D.is_monic:
        raise NotMonic("right division requires a monic divisor")
    m = D.block_size
    if N.cols != m:
        raise DimensionMismatch(
            f"numerator blocks have {N.cols} columns, divisor is {m}x{m}"
        )
    r = D.degree
    if r == 0:
        return N, MatrixPolynomial([np.zeros((N.rows, m))])
    dn = N.degree
    dtype = np.result_type(N.coeffs[0], D.coeffs[0])
    # ascending storage: work[p] is the coefficient of s**p
    work = [np.array(N.coeffs[dn - p], dtype=dtype) for p in range(dn + 1)]
    while len(work) < r:
        work.append(np.zeros((N.rows, m), dtype=dtype))
    dasc = [D.coeffs[r - p] for p in range(r + 1)]
    qcoeffs = {}
    for p in range(dn, r - 1, -1):
        T = work[p]
        qcoeffs[p - r] = T
        for j in range(r + 1):
            work[p - r + j] = work[p - r + j] - T @ dasc[j]
    if qcoeffs:
        qdeg = max(qcoeffs)
        Q = MatrixPolynomial(
            [qcoeffs.get(qdeg - i, np.zeros((N.rows, m), dtype=dtype)) for i in range(qdeg + 1)]
        )
    else:
        Q = MatrixPolynomial([np.zeros((N.rows, m), dtype=dtype)])
    R = MatrixPolynomial([work[r - 1 - i] for i in range(r)])
    return Q, R
