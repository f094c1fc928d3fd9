"""State-space, right matrix-fraction, and block-decoupled realizations.

The three forms of an m-input p-output LTI system used here:

* StateSpace: (A, B, C, D) with dx/dt = Ax + Bu, y = Cx + Du.
* RightMFD: G(s) = N(s) inv(D(s)) + E with D monic of degree r and
  deg N < r (strictly proper fraction plus constant feedthrough).
* BlockDiagonalRealization: a direct sum of small state-space blocks, the
  form produced by similarity with a block Vandermonde matrix.

Conversions in both directions and the block decoupling transform live here.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import (as_matrix, block_diag, cond2, realify, realify_each, sort_complex,
                    stable_by_margin)
from .errors import (
    DimensionMismatch,
    ImproperFraction,
    IndivisibleDimensions,
    NotBlockControllable,
    NotDecoupled,
    NotMonic,
    ProbeAtPole,
    SingularVandermonde,
)
from .matpoly import DEFAULT_EPS_SING, MatrixPolynomial, right_divmod


def _solve_probe(M, rhs, s, eps_sing):
    if cond2(M) >= 1.0 / eps_sing:
        raise ProbeAtPole(f"probe point {complex(s):.6g} is too close to a pole")
    return np.linalg.solve(M, rhs)


@dataclass
class StateSpace:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: Optional[np.ndarray] = None

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        self.B = as_matrix(self.B, "B")
        self.C = as_matrix(self.C, "C")
        n = self.A.shape[0]
        if self.A.shape[1] != n:
            raise DimensionMismatch(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise DimensionMismatch(
                f"B has {self.B.shape[0]} rows, A is {n}x{n}"
            )
        if self.C.shape[1] != n:
            raise DimensionMismatch(
                f"C has {self.C.shape[1]} columns, A is {n}x{n}"
            )
        if self.D is None:
            self.D = np.zeros((self.C.shape[0], self.B.shape[1]))
        self.D = as_matrix(self.D, "D")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise DimensionMismatch(
                f"D must be {self.C.shape[0]}x{self.B.shape[1]}, got {self.D.shape}"
            )

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    def poles(self):
        if self.n == 0:
            return np.zeros(0, dtype=complex)
        return sort_complex(np.linalg.eigvals(self.A))

    def is_stable(self):
        """Whether every pole lies left of -STABILITY_MARGIN ||A||_F."""
        return stable_by_margin(self.poles(), float(np.linalg.norm(self.A)))

    def transfer(self, s, eps_sing=DEFAULT_EPS_SING):
        """Transfer matrix C (sI - A)^-1 B + D at a complex point."""
        if self.n == 0:
            return np.array(self.D, dtype=complex)
        M = s * np.eye(self.n) - self.A
        X = _solve_probe(M, self.B, s, eps_sing)
        return self.C @ X + self.D


@dataclass
class RightMFD:
    """Right matrix fraction N(s) inv(D(s)) + E with a monic denominator."""

    N: MatrixPolynomial
    D: MatrixPolynomial
    feedthrough: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.N, MatrixPolynomial) or not isinstance(self.D, MatrixPolynomial):
            raise DimensionMismatch("N and D must be matrix polynomials")
        if not self.D.is_square:
            raise DimensionMismatch("denominator blocks must be square")
        if self.D.degree < 1:
            raise DimensionMismatch("denominator degree must be at least 1")
        if not self.D.is_monic:
            raise NotMonic("denominator must be monic; use make_right_mfd to normalize")
        m = self.D.block_size
        if self.N.cols != m:
            raise DimensionMismatch(
                f"numerator blocks have {self.N.cols} columns, denominator is {m}x{m}"
            )
        if self.N.degree >= self.D.degree:
            raise ImproperFraction(
                f"deg N = {self.N.degree} must be below deg D = {self.D.degree}"
            )
        if self.feedthrough is None:
            self.feedthrough = np.zeros((self.N.rows, m))
        self.feedthrough = as_matrix(self.feedthrough, "feedthrough")
        if self.feedthrough.shape != (self.N.rows, m):
            raise DimensionMismatch(
                f"feedthrough must be {self.N.rows}x{m}, got {self.feedthrough.shape}"
            )

    @property
    def m(self):
        return self.D.block_size

    @property
    def p(self):
        return self.N.rows

    @property
    def order(self):
        return self.D.degree * self.m

    def poles(self):
        return self.D.latent_roots()

    def is_stable(self):
        """Stability by the margin rule, on the block companion of D."""
        return stable_by_margin(self.poles(), float(np.linalg.norm(self.D.companion())))

    def transfer(self, s, eps_sing=DEFAULT_EPS_SING):
        Dv = np.asarray(self.D.evaluate(s), dtype=complex)
        Nv = np.asarray(self.N.evaluate(s), dtype=complex)
        X = _solve_probe(Dv.T, Nv.T, s, eps_sing)
        return X.T + self.feedthrough


def make_right_mfd(N, D, feedthrough=None):
    """Normalize a numerator/denominator pair into a proper RightMFD.

    A non-monic denominator with invertible leading coefficient is normalized
    by a right constant factor (the fraction value is unchanged).  A numerator
    of degree equal to deg D is split by polynomial division; a constant
    quotient moves into the feedthrough, anything of higher degree raises
    ImproperFraction.
    """
    if D.degree < 1:
        raise DimensionMismatch("denominator degree must be at least 1")
    m = D.block_size
    if not D.is_monic:
        lead = np.asarray(D.coeffs[0])
        if cond2(lead) >= 1.0 / DEFAULT_EPS_SING:
            raise NotMonic("denominator leading coefficient is numerically singular")
        W = np.linalg.inv(lead)
        D = MatrixPolynomial._from_stack(realify_each(D.coeffs @ W, 1e-12))
        N = MatrixPolynomial._from_stack(realify_each(N.coeffs @ W, 1e-12))
    E = np.zeros((N.rows, m)) if feedthrough is None else as_matrix(feedthrough, "feedthrough")
    if N.degree >= D.degree:
        Q, R = right_divmod(N, D)
        if Q.degree >= 1 and max(float(np.max(np.abs(c))) for c in Q.coeffs[:-1]) > 1e-12:
            raise ImproperFraction(
                f"numerator degree {N.degree} exceeds denominator degree {D.degree} "
                "by a non-constant quotient"
            )
        E = E + Q.coeffs[-1]
        N = R
    return RightMFD(N.trimmed(1e-14), D, E)


@dataclass
class DiagonalBlock:
    """One decoupled subsystem (a, b, c) of a block diagonal realization."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.a = as_matrix(self.a, "block a")
        self.b = as_matrix(self.b, "block b")
        self.c = as_matrix(self.c, "block c")
        k = self.a.shape[0]
        if self.a.shape[1] != k:
            raise DimensionMismatch(f"block a must be square, got {self.a.shape}")
        if self.b.shape[0] != k or self.c.shape[1] != k:
            raise DimensionMismatch("block b/c sizes do not match a")

    @property
    def size(self):
        return self.a.shape[0]

    @property
    def eigenvalues(self):
        if self.size == 0:
            return np.zeros(0, dtype=complex)
        return sort_complex(np.linalg.eigvals(self.a))


@dataclass
class BlockDiagonalRealization:
    blocks: tuple
    feedthrough: np.ndarray = None
    io_shape: tuple = None  # (p, m), needed when blocks is empty

    def __post_init__(self):
        self.blocks = tuple(
            b if isinstance(b, DiagonalBlock) else DiagonalBlock(*b) for b in self.blocks
        )
        if self.feedthrough is None:
            if self.blocks:
                p = self.blocks[0].c.shape[0]
                m = self.blocks[0].b.shape[1]
            elif self.io_shape is not None:
                p, m = self.io_shape
            else:
                raise DimensionMismatch("empty realization needs io_shape or feedthrough")
            self.feedthrough = np.zeros((p, m))
        self.feedthrough = as_matrix(self.feedthrough, "feedthrough")
        p, m = self.feedthrough.shape
        self.io_shape = (p, m)
        for i, blk in enumerate(self.blocks):
            if blk.b.shape[1] != m or blk.c.shape[0] != p:
                raise DimensionMismatch(f"block {i} does not match the {p}x{m} io shape")

    @property
    def n(self):
        return sum(b.size for b in self.blocks)

    @property
    def m(self):
        return self.io_shape[1]

    @property
    def p(self):
        return self.io_shape[0]

    def poles(self):
        if not self.blocks:
            return np.zeros(0, dtype=complex)
        return sort_complex(np.concatenate([b.eigenvalues for b in self.blocks]))

    def is_stable(self):
        """Stability by the margin rule, on the direct sum of the blocks."""
        size = np.linalg.norm([np.linalg.norm(b.a) for b in self.blocks])
        return stable_by_margin(self.poles(), float(size))

    def transfer(self, s, eps_sing=DEFAULT_EPS_SING):
        total = np.array(self.feedthrough, dtype=complex)
        for blk in self.blocks:
            M = s * np.eye(blk.size) - blk.a
            X = _solve_probe(M, blk.b, s, eps_sing)
            total = total + blk.c @ X
        return total


def transfer_eval(system, s, eps_sing=DEFAULT_EPS_SING):
    """Transfer matrix of any representation at a complex point."""
    return system.transfer(s, eps_sing=eps_sing)


def controller_canonical(f):
    """Block controller canonical state space of a right matrix fraction.

    The state matrix is the block companion of D, the input matrix is zero
    except for an identity in the bottom block, and the output matrix carries
    the numerator coefficients by ascending power.
    """
    if not isinstance(f, RightMFD):
        raise DimensionMismatch("controller_canonical expects a RightMFD")
    m = f.m
    r = f.D.degree
    n = r * m
    A = f.D.companion()
    B = np.zeros((n, m))
    B[(r - 1) * m:, :] = np.eye(m)
    C = controller_output(f.N, r)
    return StateSpace(realify(A, 1e-14), B, realify(C, 1e-14), f.feedthrough)


def controller_output(N, degree):
    """Output matrix that realizes N(s) inv(D(s)) on the block controller
    form of a monic D of the given degree (deg N < degree): the numerator
    coefficients by ascending power."""
    p, m = N.rows, N.cols
    k = N.degree + 1
    C = np.zeros((p, degree * m), dtype=N.coeffs.dtype)
    C[:, :k * m] = N.coeffs[::-1].transpose(1, 0, 2).reshape(p, k * m)
    return C


def _controller_structure_error(Abar, m, r):
    """Deviation of a matrix from block companion structure (bottom row free)."""
    n = r * m
    err = 0.0
    for i in range(r - 1):
        for j in range(r):
            blk = Abar[i * m:(i + 1) * m, j * m:(j + 1) * m]
            target = np.eye(m) if j == i + 1 else 0.0
            err = max(err, float(np.max(np.abs(blk - target))))
    return err


def mfd_from_state_space(sys, eps_sing=DEFAULT_EPS_SING):
    """Right matrix fraction of a block controllable state-space system.

    Requires n to be a multiple of m and the block controllability matrix
    [B, AB, ..., A**(r-1) B] to be invertible.  The similarity built from the
    last m rows of its inverse takes the system to block controller form,
    where the denominator can be read off the bottom block row.
    """
    if not isinstance(sys, StateSpace):
        raise DimensionMismatch("mfd_from_state_space expects a StateSpace")
    n, m = sys.n, sys.m
    if n == 0 or m == 0:
        raise DimensionMismatch("system must have states and inputs")
    if n % m != 0:
        raise IndivisibleDimensions(
            f"state dimension {n} is not a multiple of the input count {m}"
        )
    r = n // m
    ctrb = np.hstack([np.linalg.matrix_power(sys.A, i) @ sys.B for i in range(r)])
    c = cond2(ctrb)
    if not np.isfinite(c) or c >= 1.0 / eps_sing:
        raise NotBlockControllable(
            f"block controllability matrix condition {c:.3e}"
        )
    q = np.linalg.inv(ctrb)[n - m:, :]
    T = np.vstack([q @ np.linalg.matrix_power(sys.A, i) for i in range(r)])
    tc = cond2(T)
    if not np.isfinite(tc) or tc >= 1.0 / eps_sing:
        raise NotBlockControllable(f"similarity transform condition {tc:.3e}")
    Tinv = np.linalg.inv(T)
    Abar = T @ sys.A @ Tinv
    scale = max(1.0, float(np.max(np.abs(Abar))))
    serr = _controller_structure_error(Abar, m, r)
    if serr > 1e-6 * scale:
        raise NotBlockControllable(
            f"similarity failed to reach block controller form (defect {serr:.3e})"
        )
    bottom = Abar[(r - 1) * m:, :]
    dcoeffs = [np.eye(m)]
    for i in range(1, r + 1):  # A_i sits at block column r - i
        dcoeffs.append(realify(-bottom[:, (r - i) * m:(r - i + 1) * m], 1e-12))
    D = MatrixPolynomial(dcoeffs)
    Cbar = sys.C @ Tinv
    ncoeffs = []
    for i in range(r - 1, -1, -1):  # descending power
        ncoeffs.append(realify(Cbar[:, i * m:(i + 1) * m], 1e-12))
    N = MatrixPolynomial(ncoeffs).trimmed(1e-12)
    return RightMFD(N, D, sys.D)


def block_diagonalize(sys, solvent_set, tol=1e-8, eps_sing=DEFAULT_EPS_SING):
    """Decouple a block controller form system along a complete solvent set.

    Similarity with the block Vandermonde matrix of the set turns the state
    matrix into a direct sum of the solvents.  The matrix and its condition
    are read from the set, as computed when the set was checked.  Raises
    NotDecoupled when the off-diagonal residue shows the system and the set
    do not belong together.
    """
    if not isinstance(sys, StateSpace):
        raise DimensionMismatch("block_diagonalize expects a StateSpace")
    m = solvent_set.block_size
    r = len(solvent_set)
    if sys.n != r * m:
        raise DimensionMismatch(
            f"system order {sys.n} does not match {r} blocks of size {m}"
        )
    V = solvent_set.vandermonde
    c = solvent_set.condition
    if not np.isfinite(c) or c >= 1.0 / eps_sing:
        raise SingularVandermonde(f"block Vandermonde condition {c:.3e}")
    Ar = np.linalg.solve(V, sys.A @ V)
    scale = max(1.0, float(np.max(np.abs(sys.A))))
    off = np.array(Ar)
    for i in range(r):
        off[i * m:(i + 1) * m, i * m:(i + 1) * m] = 0.0
    defect = float(np.max(np.abs(off)))
    if defect > tol * scale:
        raise NotDecoupled(
            f"off-diagonal defect {defect:.3e} after similarity (tol {tol:.1e})"
        )
    Br = np.linalg.solve(V, sys.B)
    Cr = sys.C @ V
    blocks = []
    for i, sol in enumerate(solvent_set.solvents):
        b = realify(Br[i * m:(i + 1) * m, :], 1e-8)
        cpart = realify(Cr[:, i * m:(i + 1) * m], 1e-8)
        blocks.append(DiagonalBlock(sol.matrix, b, cpart))
    return BlockDiagonalRealization(tuple(blocks), sys.D)


def recompose(bd):
    """Assemble a plain state-space system from a block diagonal realization."""
    if not isinstance(bd, BlockDiagonalRealization):
        raise DimensionMismatch("recompose expects a BlockDiagonalRealization")
    p, m = bd.io_shape
    if not bd.blocks:
        return StateSpace(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), bd.feedthrough)
    A = block_diag(*[b.a for b in bd.blocks])
    B = np.vstack([b.b for b in bd.blocks])
    C = np.hstack([b.c for b in bd.blocks])
    return StateSpace(A, B, C, bd.feedthrough)
