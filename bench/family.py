"""Seeded generator of the graded MIMO family.

Every system is square (p = m) and stable, with r solvent blocks of size m
and n = r * m states.  The family is built the way the paper builds its
examples: from a complete set of right solvents R_1 ... R_r, solvent i
(i = 0 slowest) owning its own spectral band.  The real parts of its
eigenvalues lie within 15% of -RATIO**(i - (r-1)/2), so the bands never
overlap, sit around magnitude 1, and the latent roots group into the planted
solvents from the left.  A solvent of size 2 holds either two real poles or
one conjugate pair, alternating from solvent to solvent; a solvent of size 3
holds one real pole and one conjugate pair.  Each solvent is
S diag(values) inv(S) with a random S of condition number at most COND_S, so
its latent vectors are well apart.

The monic denominator D(s) follows from the block Vandermonde system of the
set.  In the decoupled coordinates x = V z, with V the block Vandermonde
matrix, the output block of solvent i is a well-conditioned random matrix
scaled so that the most dominant pole of solvent i has STEP**i times the
dominance of the most dominant pole of solvent 0.  With STEP below the 5%
dominance cut-off only solvent 0 is claimed by a dominant pole, and since the
Hankel singular values fall off block by block the relative error guard
accepts the other eliminations.  The numerator N(s) is read back from those
outputs.  The state-space form is the block controller realisation of
N(s) inv(D(s)) under a random similarity with condition number at most
COND_T, which hides the block structure.  A system whose block Krylov matrix
has condition above KRYLOV_COND_MAX is drawn again: reduce_dominant works in
the coordinates of that matrix, accepts it up to condition 1e10, and past
1e8 its reported guard values lose more than 1e-3 of their accuracy.

The generator uses numpy only, so the checks built on it do not depend on
the package under test.
"""

from dataclasses import dataclass

import numpy as np

CONFIGS = tuple((m, r) for m in (2, 3) for r in (3, 4, 5))
SYSTEMS_PER_CONFIG = 32
RATIO = 1.8
STEP = 0.02
COND_S = 3.0
COND_T = 4.0
KRYLOV_COND_MAX = 1e8


@dataclass(frozen=True)
class GradedSystem:
    """One member of the family in both of its forms.

    A, B, C is the hidden state-space form.  den and num hold the monic
    denominator and the numerator coefficients, leading coefficient first,
    as the matrix fraction N(s) inv(D(s)) of the same transfer matrix.
    """

    label: str
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    den: tuple
    num: tuple
    poles: np.ndarray

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


def _random_conditioned(rng, k, cond):
    """k x k matrix Q1 diag(s) Q2 with singular values spanning [1, cond]."""
    q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
    q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
    s = np.exp(rng.uniform(0.0, np.log(cond), size=k))
    s[0], s[-1] = 1.0, cond
    return (q1 * s) @ q2


def _band(rng, m, r, i):
    """Real block with the planted eigenvalues of solvent i, and the values."""
    centre = RATIO ** (i - (r - 1) / 2)

    def re():
        return -centre * rng.uniform(0.85, 1.15)

    def pair():
        a, b = re(), centre * rng.uniform(0.3, 1.0)
        return np.array([[a, -b], [b, a]]), [complex(a, b), complex(a, -b)]

    if m == 1:
        x = re()
        return np.array([[x]]), [complex(x)]
    if m == 2 and i % 2 == 0:
        x, y = re(), re()
        return np.diag([x, y]), [complex(x), complex(y)]
    if m == 2:
        return pair()
    rot, vals = pair()
    x = re()
    core = np.zeros((3, 3))
    core[:2, :2] = rot
    core[2, 2] = x
    return core, vals + [complex(x)]


def _max_dominance(a, b, c):
    """Largest ||residue||_2 / |Re pole| over the poles of (a, b, c)."""
    vals, X = np.linalg.eig(a)
    Y = np.linalg.inv(X)
    return max(
        np.linalg.norm(np.outer(c @ X[:, k], Y[k] @ b), 2) / abs(vals[k].real)
        for k in range(vals.size)
    )


def block_vandermonde(solvents):
    """Row block k is [R_1**k, ..., R_r**k] for k = 0 ... r-1."""
    m = solvents[0].shape[0]
    r = len(solvents)
    V = np.zeros((r * m, r * m))
    for j, R in enumerate(solvents):
        power = np.eye(m)
        for k in range(r):
            V[k * m:(k + 1) * m, j * m:(j + 1) * m] = power
            power = power @ R
    return V


def make_system(rng, m, r, label="", step=STEP, by_dominance=True,
                krylov_cond_max=KRYLOV_COND_MAX):
    """One stable m-input, m-output system with r planted solvents.

    With by_dominance=False output block i is only multiplied by step**i, so
    the dominance of its poles also depends on the drawn matrices.  A draw
    whose block Krylov matrix [B, AB, ..., A**(r-1) B] has condition above
    krylov_cond_max is drawn again; None keeps every draw.
    """
    while True:
        g = _draw_system(rng, m, r, label, step, by_dominance)
        krylov = np.hstack([np.linalg.matrix_power(g.A, k) @ g.B for k in range(r)])
        if krylov_cond_max is None or np.linalg.cond(krylov) <= krylov_cond_max:
            return g


def _draw_system(rng, m, r, label, step, by_dominance):
    solvents, poles = [], []
    for i in range(r):
        core, vals = _band(rng, m, r, i)
        S = _random_conditioned(rng, m, COND_S)
        solvents.append(S @ core @ np.linalg.inv(S))
        poles.extend(vals)
    V = block_vandermonde(solvents)
    n = r * m
    # [A_r, ..., A_1] V = -[R_1**r, ..., R_r**r]
    tops = np.hstack([np.linalg.matrix_power(R, r) for R in solvents])
    coef = np.linalg.solve(V.T, -tops.T).T
    den = (np.eye(m),) + tuple(coef[:, j * m:(j + 1) * m] for j in range(r - 1, -1, -1))

    A = np.zeros((n, n))
    A[:-m, m:] = np.eye(n - m)
    A[-m:, :] = -coef
    B = np.zeros((n, m))
    B[-m:, :] = np.eye(m)
    # scale each output block so that the most dominant pole of block i has
    # dominance step**i relative to block 0
    B_dec = np.linalg.solve(V, B)
    C_dec = np.hstack([_random_conditioned(rng, m, COND_S) for _ in range(r)])
    for i, R in enumerate(solvents):
        cols = slice(i * m, (i + 1) * m)
        scale = _max_dominance(R, B_dec[cols], C_dec[:, cols]) if by_dominance else 1.0
        C_dec[:, cols] *= step ** i / scale
    C = np.linalg.solve(V.T, C_dec.T).T  # C V = C_dec
    num = tuple(C[:, k * m:(k + 1) * m] for k in range(r - 1, -1, -1))

    T = _random_conditioned(rng, n, COND_T)
    Tinv = np.linalg.inv(T)
    return GradedSystem(label, T @ A @ Tinv, T @ B, C @ Tinv, den, num, np.array(poles))


def make_family(seed, per_config=SYSTEMS_PER_CONFIG, **options):
    """per_config systems for each (m, r) in CONFIGS, in a fixed order.

    options go to make_system.
    """
    rng = np.random.default_rng(seed)
    family = []
    for m, r in CONFIGS:
        for k in range(per_config):
            family.append(make_system(rng, m, r, f"m{m}r{r}#{k}", **options))
    return family
