"""Error metrics and frequency-domain summaries for stable LTI systems.

Gramians come from Lyapunov equations, the H2 norm from the controllability
gramian, Hankel singular values from the symmetric product of both gramians,
and the relative reduction error RE compares Hankel power sums of a neglected
subsystem against the full system.

Every Lyapunov equation is solved by the Newton iteration for the matrix
sign function (Roberts 1980), scaled to speed up its first steps (Byers
1987; the scale is the cheap Frobenius-norm variant, Higham, Functions of
Matrices, 2008, section 5.5).  For stable A1 and A2 the sign of
H = [[A1, W], [0, -A2^H]] is [[-I, 2X], [0, I]], X being the solution of
A1 X + X A2^H + W = 0.  The iteration needs only inverses and products, so
it solves defective and complex A as well, and equations that share a state
matrix (the two gramians, the blocks of an H2 difference) share its
inverses.  Solutions for an ill-conditioned A are refined once with an
extended-precision residual.

Both reduction pipelines measure their candidates through one ErrorGuard
per reduction: a candidate is the output matrix of its error system on the
full system's own (A, B), so no error system is larger than the full one,
and its RE and H2 error are read from power sums of the gramians, not from
an eigensolve.  reduce_latent builds the guard from the system (one sign
iteration, replayed per candidate), reduce_dominant from the modal form it
already holds (Cauchy gramians, no sign iteration).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import STABILITY_MARGIN, as_matrix, stable_by_margin
from .errors import (
    DimensionMismatch,
    FeedthroughMismatch,
    NonzeroFeedthrough,
    UnstableSystem,
)
from .sysrep import (
    BlockDiagonalRealization,
    RightMFD,
    StateSpace,
    controller_canonical,
    recompose,
)


@dataclass
class Gramians:
    controllability: np.ndarray
    observability: np.ndarray


@dataclass
class HankelSpectrum:
    """Hankel singular values, largest first."""

    values: np.ndarray

    def power_sum(self, power):
        return float(np.sum(self.values ** power))


@dataclass
class BodeTable:
    """Frequency response samples: omega[k] with |G_ij| and arg G_ij."""

    omega: np.ndarray
    magnitude: np.ndarray  # shape (count, p, m)
    phase_deg: np.ndarray  # shape (count, p, m)


def as_state_space(system):
    """View any supported representation as a plain state-space system."""
    if isinstance(system, StateSpace):
        return system
    if isinstance(system, RightMFD):
        return controller_canonical(system)
    if isinstance(system, BlockDiagonalRealization):
        return recompose(system)
    raise DimensionMismatch(f"unsupported system type {type(system).__name__}")


def _require_stable_values(poles, size, what):
    """UnstableSystem unless every pole lies left of -STABILITY_MARGIN * size.

    size is the Frobenius norm of the state matrix the poles belong to (or
    derive from).  Rounding moves an eigenvalue of A by up to about
    cond(V) * 1.1e-16 * ||A||, V being its eigenvectors, so a pole on the
    axis may come out slightly stable; the margin makes such a pole count as
    unstable instead of yielding a gramian of size 1e15.
    """
    if not stable_by_margin(poles, size):
        worst = float(np.max(np.real(poles)))
        raise UnstableSystem(
            f"{what} needs a stable system (max Re pole = {worst:.6g}, "
            f"required below {-STABILITY_MARGIN * size:.3g})"
        )


def _require_stable(sys, what):
    if sys.n:
        _require_stable_values(sys.poles(), float(np.linalg.norm(sys.A)), what)


SIGN_MAX_STEPS = 100
SIGN_TOL = 1e-6  # relative change of the iterate that ends the iteration
SIGN_UNSCALED = 1e-2  # past this change, scaling would only slow the last steps
SIGN_LIMIT_TOL = 1e-6  # how near the final iterate must be to -I, per state
REFINE_COND = 1e4  # Frobenius condition of a base past which its solutions are refined


def _fro2(x):
    """Squared Frobenius norm."""
    v = x.ravel()
    return np.vdot(v, v).real


def _ct(x):
    """Conjugate transpose, a view for real x."""
    return x.conj().T if np.iscomplexobj(x) else x.T


def _sign_steps(bases):
    """The scaled Newton sign iteration E <- (mu E + inv(E) / mu) / 2, run on
    every base at once with one common scale mu, the geometric mean of the
    Frobenius-norm scales sqrt(||inv(E)|| / ||E||) of the bases.

    Returns the steps as (a, K, K^H), where K lists the inverses times
    sqrt(1 / (2 mu)) and a = mu / 2: the block iterate G of a term (i, j)
    then steps to a G + K[i] G K[j]^H.  Also returns the Frobenius
    condition number of every base, which the first step measures for free.
    Raises UnstableSystem when an iterate is singular (an eigenvalue on the
    imaginary axis), when the iterates do not settle within SIGN_MAX_STEPS,
    or when they settle away from -I (an eigenvalue in the right half plane,
    or an A so ill-conditioned that its sign is lost to rounding).
    """
    E = list(bases)
    steps = []
    conds = None
    scaled = True
    for _ in range(SIGN_MAX_STEPS):
        try:
            X = [np.linalg.inv(e) for e in E]
        except np.linalg.LinAlgError:
            raise UnstableSystem(
                "Lyapunov solve: singular sign iterate, the state matrix has an "
                "eigenvalue on the imaginary axis"
            ) from None
        mu = 1.0
        if scaled:
            ratios = [_fro2(x) / _fro2(e) for x, e in zip(X, E)]
            mu = math.prod(ratios) ** (0.25 / len(E))
        if conds is None:  # the first step, always scaled
            conds = [math.sqrt(r) * _fro2(e) for r, e in zip(ratios, E)]
        newE = [0.5 * (mu * e + x / mu) for e, x in zip(E, X)]
        K = [x * math.sqrt(0.5 / mu) for x in X]
        steps.append((0.5 * mu, K, [_ct(k) for k in K]))
        moves = [(_fro2(a - b), _fro2(a)) for a, b in zip(newE, E)]
        E = newE
        if not all(math.isfinite(d) for d, _ in moves):
            break
        if all(d <= SIGN_TOL ** 2 * size for d, size in moves):
            for e in E:
                gap = e + np.eye(e.shape[0])
                if _fro2(gap) > SIGN_LIMIT_TOL ** 2 * e.shape[0]:
                    raise UnstableSystem(
                        "Lyapunov solve: the sign iteration settled away from -I; "
                        "the state matrix has an eigenvalue in the right half "
                        "plane or is too ill-conditioned to tell"
                    )
            return steps, conds
        scaled = any(d > SIGN_UNSCALED ** 2 * size for d, size in moves)
    raise UnstableSystem(
        f"Lyapunov solve: the sign iteration did not reach -I in {SIGN_MAX_STEPS} "
        "steps; the state matrix is not numerically stable"
    )


def _replay(steps, i, j, w, dual):
    """The solution of term (i, j, w, dual) from the recorded steps."""
    g = w
    for a, K, KH in steps:
        g = a * g + ((KH[i] @ g @ K[j]) if dual else (K[i] @ g @ KH[j]))
    return 0.5 * g


def _solve_term(steps, conds, bases, term):
    """The solution of term (i, j, W, dual) from the recorded steps of bases.

    The iteration is not backward stable: its error grows with the
    condition of the bases.  A solution that involves a base of Frobenius
    condition above REFINE_COND is refined once: the residual is formed in
    extended precision (np.longdouble, 64-bit mantissa where the platform
    has it) and the same steps solve for the correction.
    """
    i, j, w, dual = term
    x = _replay(steps, i, j, w, dual)
    if max(conds[i], conds[j]) > REFINE_COND:
        left, right = (_ct(bases[i]), bases[j]) if dual else (bases[i], _ct(bases[j]))
        wide = np.clongdouble if np.iscomplexobj(x) else np.longdouble
        xw = x.astype(wide)
        r = left.astype(wide) @ xw + xw @ right.astype(wide) + w
        x = (xw + _replay(steps, i, j, r.astype(x.dtype), dual)).astype(x.dtype)
    return x


def _sign_solve(bases, terms):
    """Solve a batch of Sylvester equations with stable coefficients.

    bases lists non-empty square matrices; each term (i, j, W, dual) stands
    for bases[i] X + X bases[j]^H + W = 0, or for a dual term
    bases[i]^H X + X bases[j] + W = 0.  The bases run one sign iteration,
    each inverted once per step, and every term is solved by replaying the
    steps on W (see _solve_term).  Returns the solutions X in the order of
    terms.
    """
    steps, conds = _sign_steps(bases)
    return [_solve_term(steps, conds, bases, term) for term in terms]


def _gram(x):
    """x x^H."""
    return x @ _ct(x)


def lyapunov_solve(a, q):
    """Solve A X + X A^H + Q = 0 for Hermitian Q and stable A.

    Raises UnstableSystem when an eigenvalue of A lies in the right half
    plane, on the imaginary axis or within STABILITY_MARGIN ||A||_F of it.
    """
    a = as_matrix(a, "A")
    q = as_matrix(q, "Q")
    if a.shape[0] != a.shape[1] or q.shape != a.shape:
        raise DimensionMismatch("A and Q must be square and equally sized")
    if a.shape[0] == 0:
        return np.zeros((0, 0))
    _require_stable_values(np.linalg.eigvals(a), float(np.linalg.norm(a)), "a Lyapunov solve")
    (x,) = _sign_solve([a], [(0, 0, q, False)])
    return 0.5 * (x + _ct(x))


def gramians(system):
    """Controllability and observability gramians of a stable system."""
    sys = as_state_space(system)
    _require_stable(sys, "gramian computation")
    if sys.n == 0:
        return Gramians(np.zeros((0, 0)), np.zeros((0, 0)))
    P, Q = _sign_solve(
        [sys.A], [(0, 0, _gram(sys.B), False), (0, 0, _gram(_ct(sys.C)), True)]
    )
    return Gramians(0.5 * (P + _ct(P)), 0.5 * (Q + _ct(Q)))


def _output_power(c1, x, c2):
    """Real part of trace(C1 X C2^H)."""
    return float(np.sum(((c1 @ x) * c2.conj()).real))


def h2_norm(system):
    """H2 norm sqrt(trace(C P C^T)) of a stable strictly proper system."""
    sys = as_state_space(system)
    _require_stable(sys, "the H2 norm")
    dmax = float(np.max(np.abs(sys.D))) if sys.D.size else 0.0
    if dmax > 0.0:
        raise NonzeroFeedthrough(
            "the H2 norm is infinite for systems with nonzero feedthrough"
        )
    if sys.n == 0:
        return 0.0
    (P,) = _sign_solve([sys.A], [(0, 0, _gram(sys.B), False)])
    return float(np.sqrt(max(_output_power(sys.C, P, sys.C), 0.0)))


def _same_io(a, b):
    """Both systems as state space; DimensionMismatch unless their io shapes agree."""
    sa = as_state_space(a)
    sb = as_state_space(b)
    if sa.m != sb.m or sa.p != sb.p:
        raise DimensionMismatch(
            f"io shapes differ: {sa.p}x{sa.m} vs {sb.p}x{sb.m}"
        )
    return sa, sb


def h2_error(a, b):
    """H2 norm of the difference of two systems with equal feedthrough.

    ||G_a - G_b||^2 = tr(C_a P_aa C_a^H) - 2 Re tr(C_a P_ab C_b^H)
    + tr(C_b P_bb C_b^H), the three blocks of the difference's gramian
    coming from one sign iteration over A_a and A_b.  Identical systems give
    identical blocks, so their error is exactly 0.
    """
    sa, sb = _same_io(a, b)
    scale = max(1.0, float(np.max(np.abs(sa.D))), float(np.max(np.abs(sb.D))))
    if sa.D.size and float(np.max(np.abs(sa.D - sb.D))) > 1e-12 * scale:
        raise FeedthroughMismatch(
            "systems have different feedthrough; the H2 difference is infinite"
        )
    _require_stable(sa, "the H2 error")
    _require_stable(sb, "the H2 error")
    if sa.n == 0 or sb.n == 0:
        other = sb if sa.n == 0 else sa
        return h2_norm(StateSpace(other.A, other.B, other.C, np.zeros_like(other.D)))
    Paa, Pab, Pbb = _sign_solve(
        [sa.A, sb.A],
        [(0, 0, _gram(sa.B), False), (0, 1, sa.B @ _ct(sb.B), False),
         (1, 1, _gram(sb.B), False)],
    )
    val = (_output_power(sa.C, Paa, sa.C) - 2.0 * _output_power(sa.C, Pab, sb.C)
           + _output_power(sb.C, Pbb, sb.C))
    return float(np.sqrt(max(val, 0.0)))


def _square_root(P):
    """A factor S with P = S S^H, from the eigendecomposition of P."""
    w, U = np.linalg.eigh(P)
    return U * np.sqrt(np.clip(w, 0.0, None))


def _hankel(S, Q):
    """Hankel singular values of a system with gramians S S^H and Q: the
    roots of the eigenvalues of S^H Q S, largest first."""
    M = _ct(S) @ Q @ S
    ev = np.clip(np.linalg.eigvalsh(0.5 * (M + _ct(M))), 0.0, None)
    return HankelSpectrum(np.ascontiguousarray(np.sqrt(ev)[::-1]))


def hankel_singular_values(system):
    """Hankel singular values from the gramian pair, largest first."""
    sys = as_state_space(system)
    g = gramians(sys)
    if sys.n == 0:
        return HankelSpectrum(np.zeros(0))
    return _hankel(_square_root(g.controllability), g.observability)


def _factor(P):
    """A factor S with P = S S^H: the Cholesky factor, or _square_root's
    when P is numerically singular."""
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return _square_root(P)


class ErrorGuard:
    """Error measures of the candidate reductions of one stable system.

    A candidate is passed in as the output matrix C_e of its error system on
    the full system's own (A, B): G - G_c = C_e (sI - A)^-1 B.  The guard
    holds the controllability gramian P = S S^H, a map from C_e to its
    observability gramian Q_e, and the full Hankel spectrum and H2 norm.  A
    candidate's Hankel power sums are the squared Frobenius norm (power 4)
    and the trace (power 2) of S^H Q_e S, and its H2 norm is the root of
    tr(C_e P C_e^H): no eigensolve per candidate.
    """

    def __init__(self, P, S, observability, c):
        self._P = P
        self._S = S
        self._observability = observability
        self.spectrum = _hankel(S, observability(c))
        self.h2_norm = self.h2_error(c)

    @classmethod
    def from_system(cls, system):
        """The guard of a stable system: one sign iteration on A, whose
        recorded steps each Q_e replays on C_e^H C_e.  The spectrum is
        hankel_singular_values' to the bit."""
        sys = as_state_space(system)
        _require_stable(sys, "reduction")
        steps, conds = _sign_steps([sys.A])

        def solve(w, dual):
            x = _solve_term(steps, conds, [sys.A], (0, 0, w, dual))
            return 0.5 * (x + _ct(x))

        P = solve(_gram(sys.B), False)
        return cls(P, _square_root(P), lambda c: solve(_gram(_ct(c)), True), sys.C)

    @classmethod
    def from_modes(cls, modes):
        """The guard of a stable system in modal form (values lambda and input
        rows b of its modes; see dompoles.ModalForm), error outputs being in
        modal coordinates.  Its gramians are the Cauchy matrices
        P = -(b b^H) / (lambda_i + conj(lambda_j)) and
        Q_e = -(C_e^H C_e) / (conj(lambda_i) + lambda_j), entrywise (Antoulas,
        Approximation of Large-Scale Dynamical Systems, 2005, ch. 6).  Dropping
        modes is the output matrix with the columns of the kept modes zeroed."""
        lam, b = modes.values, modes.inputs
        P = -_gram(b) / (lam[:, None] + lam.conj()[None, :])
        sums = lam.conj()[:, None] + lam[None, :]
        return cls(P, _factor(P), lambda c: -(_ct(c) @ c) / sums, modes.outputs)

    def relative_error(self, c_err, hankel_power=4):
        """RE of the error system with output matrix c_err against the full
        system, at Hankel power 2 or 4 (see relative_error)."""
        if hankel_power not in (2, 4):
            raise ValueError(f"hankel_power must be 2 or 4, got {hankel_power}")
        M = _ct(self._S) @ self._observability(c_err) @ self._S
        numer = max(_fro2(M) if hankel_power == 4 else float(np.trace(M).real), 0.0)
        denom = self.spectrum.power_sum(hankel_power)
        if denom == 0.0:
            return 0.0 if numer == 0.0 else np.inf
        return float(np.sqrt(numer / denom))

    def h2_error(self, c_err):
        """H2 norm of the error system with output matrix c_err."""
        return float(np.sqrt(max(_output_power(c_err, self._P, c_err), 0.0)))


def relative_error(full, neglected, hankel_power=4):
    """RE: root of the Hankel power-sum ratio of neglected over full.

    hankel_power selects the exponent (2 or 4) applied to both spectra.  Each
    of full and neglected may also be given as its HankelSpectrum, so that a
    loop that tries many neglected parts against one system analyses it once.
    """
    if hankel_power not in (2, 4):
        raise ValueError(f"hankel_power must be 2 or 4, got {hankel_power}")
    if not isinstance(full, HankelSpectrum):
        full = hankel_singular_values(full)
    if not isinstance(neglected, HankelSpectrum):
        neglected = hankel_singular_values(neglected)
    denom = full.power_sum(hankel_power)
    numer = neglected.power_sum(hankel_power)
    if denom == 0.0:
        return 0.0 if numer == 0.0 else np.inf
    return float(np.sqrt(numer / denom))


def bode_samples(system, wmin=1e-2, wmax=1e3, count=200):
    """Frequency response on a log grid: magnitudes and phases in degrees."""
    sys_like = system if hasattr(system, "transfer") else as_state_space(system)
    if count < 2:
        raise ValueError("count must be at least 2")
    if not (0 < wmin < wmax):
        raise ValueError("need 0 < wmin < wmax")
    omega = np.geomspace(wmin, wmax, count)
    mags = []
    phases = []
    for w in omega:
        G = np.asarray(sys_like.transfer(1j * w), dtype=complex)
        mags.append(np.abs(G))
        phases.append(np.degrees(np.angle(G)))
    return BodeTable(omega, np.array(mags), np.array(phases))
