"""Shared builders and independent oracles for the test suite.

The oracles deliberately avoid the code paths they check: the Lyapunov
oracles solve the Kronecker-product linear system directly (one of them in
exact rational arithmetic), the H2 oracle
integrates the frequency response numerically, and transfer values come
from plain dense solves.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from blockred.matpoly import MatrixPolynomial
from blockred.sysrep import StateSpace


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name, *owners) wraps the function `name` of each owner (a
    module or a class) for the rest of the test and returns the list that
    every call appends its positional arguments to.  An owner that does not
    bind the name gets the first owner's function, so that a later import of
    it there is counted too."""
    def install(name, *owners):
        calls = []

        def counting(original):
            def wrapped(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)
            return wrapped

        first = getattr(owners[0], name)
        for owner in owners:
            monkeypatch.setattr(owner, name, counting(getattr(owner, name, first)),
                                raising=False)
        return calls

    return install


# -- builders -----------------------------------------------------------------

def random_monic_poly(rng, m, r, root_scale=2.0):
    """Monic matrix polynomial with random (generically simple) structure."""
    coeffs = [np.eye(m)]
    for _ in range(r):
        coeffs.append(root_scale * rng.standard_normal((m, m)))
    return MatrixPolynomial(coeffs)


def random_stable_matrix(rng, n, margin=0.3):
    a = rng.standard_normal((n, n))
    shift = float(np.max(np.linalg.eigvals(a).real))
    return a - (shift + margin + rng.uniform(0.0, 1.0)) * np.eye(n)


def random_stable_system(rng, n, m, p, margin=0.3):
    return StateSpace(
        random_stable_matrix(rng, n, margin),
        rng.standard_normal((n, m)),
        rng.standard_normal((p, n)),
        np.zeros((p, m)),
    )


def random_diagonalizable_stable(rng, n, m, p):
    """Stable system with a well-conditioned eigenbasis and simple spectrum."""
    n_pairs = int(rng.integers(0, n // 2 + 1))
    blocks = []
    used = 0
    re_parts = -np.sort(rng.uniform(0.3, 4.0, size=n))  # distinct enough
    idx = 0
    for _ in range(n_pairs):
        al = re_parts[idx]
        be = rng.uniform(0.4, 3.0)
        blocks.append(np.array([[al, -be], [be, al]]))
        used += 2
        idx += 1
    while used < n:
        blocks.append(np.array([[re_parts[idx]]]))
        used += 1
        idx += 1
    a0 = scipy.linalg.block_diag(*blocks)
    while True:
        t = rng.standard_normal((n, n))
        if np.linalg.cond(t) < 50.0:
            break
    a = t @ a0 @ np.linalg.inv(t)
    return StateSpace(
        a, rng.standard_normal((n, m)), rng.standard_normal((p, n)),
        np.zeros((p, m)),
    )


def planted_block_system(rng, suppress=True):
    """Decoupled stable 2x2 rotation blocks with separated conjugate pole
    pairs and balanced per-block Hankel content; optionally one block's
    output matrix is suppressed 100x.

    Returns (system, index of the weak block, list of block A matrices).
    """
    r = int(rng.integers(3, 5))
    while True:
        alphas = rng.uniform(-2.2, -0.55, size=r)
        betas = rng.uniform(0.4, 2.4, size=r)
        poles = alphas + 1j * betas
        ok = True
        for i in range(r):
            for j in range(i + 1, r):
                lim = 0.15 * max(1.0, abs(poles[i]), abs(poles[j]))
                if (abs(poles[i] - poles[j]) < lim
                        or abs(poles[i] - np.conj(poles[j])) < lim):
                    ok = False
        if ok:
            break
    ablocks, bs, cs = [], [], []
    for i in range(r):
        a = np.array([[alphas[i], -betas[i]], [betas[i], alphas[i]]])
        t = rng.standard_normal((2, 2))
        while abs(np.linalg.det(t)) < 0.3:
            t = rng.standard_normal((2, 2))
        ai = t @ a @ np.linalg.inv(t)
        bi = rng.standard_normal((2, 2))
        ci = rng.standard_normal((2, 2))
        P = scipy.linalg.solve_continuous_lyapunov(ai, -bi @ bi.T)
        Q = scipy.linalg.solve_continuous_lyapunov(ai.T, -ci.T @ ci)
        s_top = np.sqrt(np.max(np.abs(np.linalg.eigvals(P @ Q))))
        ablocks.append(ai)
        bs.append(bi)
        cs.append(ci / s_top)
    weak = int(rng.integers(0, r))
    if suppress:
        cs[weak] = cs[weak] / 100.0
    ss = StateSpace(
        scipy.linalg.block_diag(*ablocks), np.vstack(bs), np.hstack(cs),
        np.zeros((2, 2)),
    )
    return ss, weak, ablocks


def direct_sum(a, b):
    """Realization of G_a - G_b as the direct sum of two state-space systems."""
    return StateSpace(
        scipy.linalg.block_diag(a.A, b.A), np.vstack([a.B, b.B]),
        np.hstack([a.C, -b.C]), a.D - b.D,
    )


def probe_points(rng, count=20, scale=3.0):
    """Complex probe points spread over the right half plane and the axis
    neighborhood, away from typical pole locations."""
    re = rng.uniform(0.2, scale, size=count)
    im = rng.uniform(-scale, scale, size=count)
    return re + 1j * im


# -- oracles ------------------------------------------------------------------

def lyapunov_oracle(a, q):
    """Solve A X + X A^H + Q = 0 through the Kronecker-product system."""
    n = a.shape[0]
    big = np.kron(np.eye(n), np.conj(a)) + np.kron(a, np.eye(n))
    x = np.linalg.solve(big, -q.reshape(-1))
    return x.reshape(n, n)


def lyapunov_exact(a, q):
    """Solve A X + X A^T + Q = 0 for real A and Q in exact rational
    arithmetic (Gauss-Jordan on the Kronecker system), then round to double.

    Every double is a rational number, so the result is the correctly
    rounded solution of the equation the arrays define.  Meant for n <= 6.
    """
    n = a.shape[0]
    A = [[Fraction(float(v)) for v in row] for row in a]
    size = n * n
    M = [[Fraction(0)] * size + [Fraction(-float(q[i, j]))]
         for i in range(n) for j in range(n)]
    for i in range(n):
        for j in range(n):
            row = M[i * n + j]
            for k in range(n):
                row[k * n + j] += A[i][k]  # (A X)_ij
                row[i * n + k] += A[j][k]  # (X A^T)_ij
    for c in range(size):
        p = next(r for r in range(c, size) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        pivot = M[c][c]
        M[c] = [v / pivot for v in M[c]]
        for r in range(size):
            f = M[r][c]
            if r != c and f != 0:
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return np.array([[float(M[i * n + j][size]) for j in range(n)] for i in range(n)])


def transfer_oracle(ss, s):
    """Direct dense evaluation C (sI - A)^-1 B + D."""
    x = np.linalg.solve(s * np.eye(ss.n) - ss.A, ss.B)
    return ss.C @ x + ss.D


def h2_oracle(ss, limit=400):
    """H2 norm by numerical quadrature of the frequency response.

    Integrates ||G(iw)||_F^2 / pi over w >= 0 (the response of a real system
    is conjugate-symmetric in w).
    """
    def dens(w):
        g = transfer_oracle(ss, 1j * w)
        return float(np.sum(np.abs(g) ** 2)) / np.pi

    val, _err = scipy.integrate.quad(dens, 0.0, np.inf, limit=limit)
    return float(np.sqrt(val))


def hankel_oracle(ss):
    """Hankel singular values via the eigenvalues of P Q (dense, unsymmetric)."""
    P = lyapunov_oracle(ss.A, ss.B @ ss.B.T)
    Q = lyapunov_oracle(ss.A.T, ss.C.T @ ss.C)
    w = np.linalg.eigvals(P @ Q)
    w = np.clip(w.real, 0.0, None)
    return np.sort(np.sqrt(w))[::-1]


def mp_guard_reference(A, B, C, kept, dps=40):
    """RE (Hankel power 4) and H2 error of a modal truncation of (A, B, C),
    from modal Cauchy gramians in dps-digit arithmetic (mpmath).

    Each value of `kept` keeps the mode of A nearest to it; the other modes
    are dropped.  With A = X diag(lambda) inv(X), b = inv(X) B and c = C X,
    the gramians of any set I of modes are P_ij = -(b b^H)_ij /
    (lambda_i + conj(lambda_j)) and Q_ij = -(c^H c)_ij / (conj(lambda_i) +
    lambda_j) over I, so its Hankel power sum is tr((P Q)**2) and its H2
    norm the root of tr(c_I P c_I^H).  Returns (RE, H2) as floats.
    """
    import mpmath

    def mat(x):
        return mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in np.asarray(x)])

    with mpmath.workdps(dps):
        lam, X = mpmath.eig(mat(A))
        b = X ** -1 * mat(B)
        c = mat(C) * X
        n, m, p = len(lam), b.cols, c.rows
        dropped = list(range(n))
        for value in np.ravel(kept):
            dropped.remove(min(dropped, key=lambda i: abs(lam[i] - complex(value))))

        def gramians(modes):
            P = mpmath.matrix(len(modes))
            Q = mpmath.matrix(len(modes))
            for u, i in enumerate(modes):
                for v, j in enumerate(modes):
                    bb = mpmath.fsum(b[i, k] * mpmath.conj(b[j, k]) for k in range(m))
                    cc = mpmath.fsum(mpmath.conj(c[k, i]) * c[k, j] for k in range(p))
                    P[u, v] = -bb / (lam[i] + mpmath.conj(lam[j]))
                    Q[u, v] = -cc / (mpmath.conj(lam[i]) + lam[j])
            return P, Q

        def power4(modes):
            P, Q = gramians(modes)
            PQ = P * Q
            return mpmath.re(sum((PQ * PQ)[u, u] for u in range(len(modes))))

        P, _ = gramians(dropped)
        cd = mpmath.matrix([[c[k, i] for i in dropped] for k in range(p)])
        h2 = mpmath.re(sum((cd * P * cd.H)[k, k] for k in range(p)))
        re = mpmath.sqrt(power4(dropped) / power4(list(range(n))))
        return float(re), float(mpmath.sqrt(h2))


def poly_value_oracle(P, s):
    """Direct power-sum evaluation of a matrix polynomial at a scalar."""
    m = P.block_size
    total = np.zeros((P.rows, P.cols), dtype=complex)
    r = P.degree
    for i, c in enumerate(P.coeffs):
        total = total + np.asarray(c, dtype=complex) * s ** (r - i)
    return total


def block_value_oracle(P, X, side="right"):
    """Direct power-sum block value: sum A_i X^(r-i) or X^(r-i) A_i."""
    r = P.degree
    m = X.shape[0]
    total = np.zeros_like(np.asarray(X, dtype=complex))
    for i, c in enumerate(P.coeffs):
        power = np.linalg.matrix_power(np.asarray(X, dtype=complex), r - i)
        c = np.asarray(c, dtype=complex)
        total = total + (c @ power if side == "right" else power @ c)
    return total
