"""Solvents (block roots) of matrix polynomials and complete solvent sets.

A right solvent R of a monic A(s) = I s**r + A_1 s**(r-1) + ... + A_r
satisfies R**r + A_1 R**(r-1) + ... + A_r = 0; a left solvent L satisfies
L**r + L**(r-1) A_1 + ... + A_r = 0.  A complete set of r right solvents has
pairwise disjoint spectra whose union is the latent root multiset, and a
nonsingular block Vandermonde matrix.  Solvents are assembled from latent
pairs: R = V diag(roots) inv(V) with latent vectors as columns of V.

Every solvent built from latent roots, and every elimination candidate and
eigenvalue trim, starts from one partition of those roots, _root_partition:
numerically equal roots form clusters with their positions, and for a real
polynomial a complex cluster travels with its mirror in one conjugate unit.
A unit's latent vectors are computed once, the mirror cluster taking the
conjugate ones, so a solvent of a conjugate-closed group is real.

The complete-set search runs on one eigendecomposition of the block
companion: its eigenvector at a latent root lam is [v; lam v; ...;
lam**(r-1) v], so the first block row gives the latent vector v of every
simple root, and only a repeated root needs a null-space basis of A(lam)
(_null_basis), which also tells a defective root.  reduce_dominant hands
the search the modal form it already holds of the controller form, whose
state matrix is that companion.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._util import (
    as_matrix,
    cond2,
    pair_distance,
    realify,
    sort_complex,
)
from .errors import (
    DefectiveRoot,
    DependentVectors,
    DimensionMismatch,
    IncompleteSet,
    NoCompleteSetFound,
    SingularVandermonde,
)
from .matpoly import DEFAULT_EPS_SING, DEFAULT_TAU_NULL, MatrixPolynomial

DEFAULT_TAU_GAP = 1e-6
DEFAULT_NODE_BUDGET = 10000
_SEARCH_RESIDUAL = 1e-6  # largest solvent residual the complete-set search accepts
_TAU_MATCH = 1e-6  # largest distance of a set's eigenvalues from the latent roots, per scale


@dataclass
class Solvent:
    """A solvent matrix together with its spectrum and defect residual."""

    matrix: np.ndarray
    side: str = "right"
    eigenvalues: np.ndarray = field(default=None)
    residual: Optional[float] = None

    def __post_init__(self):
        self.matrix = as_matrix(self.matrix, "solvent")
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise DimensionMismatch(f"solvent must be square, got {self.matrix.shape}")
        if self.side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {self.side!r}")
        if self.eigenvalues is None:
            self.eigenvalues = sort_complex(np.linalg.eigvals(self.matrix))

    @property
    def size(self):
        return self.matrix.shape[0]


@dataclass
class CompleteSolventSet:
    """A validated complete set with its block Vandermonde matrix."""

    solvents: tuple
    vandermonde: np.ndarray
    condition: float

    @property
    def matrices(self):
        return [s.matrix for s in self.solvents]

    @property
    def block_size(self):
        return self.solvents[0].size

    def __len__(self):
        return len(self.solvents)


def solvent_residual(P, X, side="right"):
    """Relative residual of X as a solvent of P.

    The block value is compared against the sum of the norms of its terms, so
    the result is scale free in both P and X.
    """
    X = as_matrix(X, "X")
    m = P.block_size
    if X.shape != (m, m):
        raise DimensionMismatch(f"X must be {m}x{m}, got {X.shape}")
    return float(_solvent_residuals(P, X[None], side)[0])


def is_solvent(P, X, side="right", tol=1e-8):
    """Whether X solves the polynomial on the given side, at tolerance tol."""
    return solvent_residual(P, X, side) <= tol


def solvent_from_latent(pairs, side="right", polynomial=None, eps_sing=DEFAULT_EPS_SING):
    """Build a solvent from (root, latent vector) pairs via the spectral formula.

    For side "right" the latent vectors become columns of V and
    R = V diag(roots) inv(V); for side "left" they become rows of W and
    L = inv(W) diag(roots) W.  The matrix is returned real when its imaginary
    part is negligible against its real part (_util.realify), as it is for
    a conjugate-closed set of pairs.  Raises DependentVectors when the
    vector matrix is numerically singular.
    """
    roots = [complex(root) for root, _ in pairs]
    vecs = [np.asarray(v, dtype=complex) for _, v in pairs]
    m = vecs[0].shape[0]
    if len(vecs) != m:
        raise DimensionMismatch(f"need {m} latent pairs for {m}x{m} solvents, got {len(vecs)}")
    V = np.column_stack(vecs)
    c = cond2(V)
    if not np.isfinite(c) or c >= 1.0 / eps_sing:
        raise DependentVectors(f"latent vector matrix condition {c:.3e}")
    lam = np.diag(roots)
    if side == "right":
        M = V @ lam @ np.linalg.inv(V)
    else:
        W = V.T  # rows are the left latent vectors
        M = np.linalg.inv(W) @ lam @ W
    M = realify(M, 1e-8)
    residual = solvent_residual(polynomial, M, side) if polynomial is not None else None
    return Solvent(M, side, sort_complex(np.asarray(roots)), residual)


def block_vandermonde(matrices):
    """Row-block i of the result is [R_1**i, R_2**i, ..., R_r**i]."""
    mats = [as_matrix(M, f"solvent {i}") for i, M in enumerate(matrices)]
    if not mats:
        raise DimensionMismatch("need at least one solvent")
    m = mats[0].shape[0]
    for M in mats:
        if M.shape != (m, m):
            raise DimensionMismatch("solvents must share one square size")
    r = len(mats)
    X = np.stack(mats)
    powers = np.empty((r, r, m, m), dtype=X.dtype)  # powers[i, j] = R_j**i
    powers[0] = np.eye(m)
    for i in range(1, r):
        powers[i] = powers[i - 1] @ X
    return powers.transpose(0, 2, 1, 3).reshape(r * m, r * m)


def validate_complete_set(
    P,
    matrices,
    tol=1e-8,
    tau_gap=DEFAULT_TAU_GAP,
    eps_sing=DEFAULT_EPS_SING,
    tau_match=_TAU_MATCH,
):
    """Check the three completeness conditions and package the result.

    Raises IncompleteSet naming the failed condition: "residual" (a matrix is
    not a solvent at tol), "spectrum" (eigenvalue union does not match the
    latent roots), "overlap" (two solvents share spectrum within tau_gap), or
    "vandermonde" (block Vandermonde condition number at or above 1/eps_sing).
    """
    mono = P.monic_normalized()
    r = mono.degree
    if len(matrices) != r:
        raise IncompleteSet(
            f"need {r} solvents for a degree-{r} polynomial, got {len(matrices)}",
            condition="count",
        )
    solvents = []
    for i, M in enumerate(matrices):
        res = solvent_residual(mono, M, "right")
        if res > tol:
            raise IncompleteSet(
                f"matrix {i} has solvent residual {res:.3e} > {tol:.1e}",
                condition="residual",
            )
        solvents.append(Solvent(M, "right", residual=res))
    roots = mono.latent_roots()
    _check_spectra(solvents, roots, _root_scale(roots), tau_gap, tau_match)
    V = block_vandermonde([s.matrix for s in solvents])
    c = cond2(V)
    if not np.isfinite(c) or c >= 1.0 / eps_sing:
        raise IncompleteSet(
            f"block Vandermonde condition {c:.3e} >= {1.0 / eps_sing:.1e}",
            condition="vandermonde",
        )
    return CompleteSolventSet(tuple(solvents), V, c)


def _check_spectra(solvents, roots, scale, tau_gap, tau_match=_TAU_MATCH):
    """IncompleteSet unless the solvents' eigenvalues together match the
    latent roots and no two solvents share one."""
    spectra = [s.eigenvalues for s in solvents]
    dist = pair_distance(np.concatenate(spectra), roots)
    if dist > tau_match * scale:
        raise IncompleteSet(
            f"eigenvalue union misses the latent roots by {dist:.3e}",
            condition="spectrum",
        )
    overlap = _first_overlap(spectra, tau_gap * scale)
    if overlap is not None:
        i, j, d = overlap
        raise IncompleteSet(
            f"solvents {i} and {j} share spectrum (gap {d:.3e})",
            condition="overlap",
        )


def _first_overlap(spectra, tol):
    """(i, j, gap) for the first two spectra, in the order of the pairs
    (i, j) with i < j, that come within tol of each other, or None when they
    are pairwise disjoint."""
    values = np.concatenate(spectra)
    starts = np.cumsum([0] + [len(z) for z in spectra[:-1]])
    dist = np.abs(values[:, None] - values[None, :])
    gaps = np.minimum.reduceat(np.minimum.reduceat(dist, starts, axis=0), starts, axis=1)
    hits = np.argwhere(np.triu(gaps <= tol, 1))
    if not hits.size:
        return None
    i, j = hits[0]
    return int(i), int(j), gaps[i, j]


def denominator_from_solvents(matrices, eps_sing=DEFAULT_EPS_SING):
    """Monic polynomial having the given matrices as a complete right solvent set.

    Solves [A_r, ..., A_1] V = -[R_1**r, ..., R_r**r] for the coefficients,
    with V the block Vandermonde of the set.
    """
    mats = [as_matrix(M, f"solvent {i}") for i, M in enumerate(matrices)]
    m = mats[0].shape[0]
    r = len(mats)
    V = block_vandermonde(mats)
    c = cond2(V)
    if not np.isfinite(c) or c >= 1.0 / eps_sing:
        raise SingularVandermonde(f"block Vandermonde condition {c:.3e}")
    tops = []
    for M in mats:
        tops.append(np.linalg.matrix_power(M, r))
    rhs = -np.hstack(tops)  # m x (r*m)
    U = np.linalg.solve(V.T, rhs.T).T  # U = rhs @ inv(V), blocks [A_r ... A_1]
    coeffs = [np.eye(m)]
    for j in range(r - 1, -1, -1):
        coeffs.append(realify(U[:, j * m:(j + 1) * m], 1e-8))
    return MatrixPolynomial(coeffs)


# -- constructing complete sets from scratch ---------------------------------

def _root_scale(roots):
    """The size the tolerances on a root list are relative to."""
    return max(1.0, float(np.max(np.abs(roots), initial=0.0)))


def _root_partition(roots, real_poly):
    """Partition latent roots into conjugate units, keeping their positions.

    Numerically equal roots (within 1e-8 of the scale) merge into one
    cluster (value, indices): their running mean and their positions in
    roots.  A unit is a list of clusters: for a real polynomial a complex
    cluster and its mirror of equal multiplicity travel together, the one
    with negative imaginary part first; every other cluster is a unit of its
    own.  Units come sorted by their first root.

    Returns (units, scale), scale being what the tolerances were relative to.
    """
    roots = np.asarray(roots, dtype=complex).ravel()
    scale = _root_scale(roots)
    tol = 1e-8 * scale
    clusters = []
    for i in np.lexsort((roots.imag, roots.real)):
        z = roots[i]
        if clusters and abs(z - clusters[-1][0]) <= tol:
            val, idx = clusters[-1]
            clusters[-1] = ((val * len(idx) + z) / (len(idx) + 1), idx + [int(i)])
        else:
            clusters.append((z, [int(i)]))
    units = []
    used = [False] * len(clusters)
    for i, (z, idx) in enumerate(clusters):
        if used[i]:
            continue
        used[i] = True
        unit = [(z, idx)]
        if real_poly and abs(z.imag) > tol:
            for j, (w, widx) in enumerate(clusters):
                if not used[j] and abs(np.conj(z) - w) <= tol and len(widx) == len(idx):
                    used[j] = True
                    unit = [(z, idx), (w, widx)] if z.imag < 0 else [(w, widx), (z, idx)]
                    break
        units.append(unit)
    units.sort(key=lambda u: (u[0][0].real, u[0][0].imag))
    return units, scale


def _null_basis(P, lam, mult, tau_null):
    """mult independent right latent vectors at a (possibly repeated) root."""
    A = P.evaluate(complex(lam))
    U, sig, Vh = np.linalg.svd(A)
    # against the size of the terms of P(lam), not against sigma_max: with
    # mult = m (every SISO root) sigma_max is itself the value under test
    thresh = tau_null * max(P.evaluation_scale(lam), 1e-300)
    if float(sig[-mult]) > thresh:
        raise DefectiveRoot(
            f"root {complex(lam):.6g} with multiplicity {mult} has only "
            f"{int(np.sum(sig <= thresh))} independent latent vectors"
        )
    return Vh[-mult:].conj().T  # orthonormal columns


def solvent_from_roots(P, roots, tau_null=DEFAULT_TAU_NULL, eps_sing=DEFAULT_EPS_SING):
    """Right solvent whose spectrum is the given subset of latent roots.

    Each cluster of _root_partition takes a null-space basis of P at its
    root, a mirror cluster the conjugates of its partner's, so the matrix is
    real whenever the subset is conjugate closed.  Columns go in (real, imag)
    order of their roots.
    """
    mono = P.monic_normalized()
    m = mono.block_size
    roots = np.asarray(roots, dtype=complex).ravel()
    if roots.size != m:
        raise DimensionMismatch(f"need exactly {m} roots, got {roots.size}")
    clusters = []  # (root, positions, latent vectors as columns)
    for unit in _root_partition(roots, mono.is_real)[0]:
        z, idx = unit[0]
        basis = _null_basis(mono, z, len(idx), tau_null)
        clusters += [(w, widx, b) for (w, widx), b in zip(unit, [basis, basis.conj()])]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    pairs = [(z, b[:, k]) for z, idx, b in clusters for k in range(len(idx))]
    return solvent_from_latent(pairs, "right", polynomial=mono, eps_sing=eps_sing)


def compute_complete_set(
    P,
    eps_sing=DEFAULT_EPS_SING,
    tau_gap=DEFAULT_TAU_GAP,
    tau_null=DEFAULT_TAU_NULL,
    node_budget=DEFAULT_NODE_BUDGET,
):
    """Search for a complete right solvent set of a monic-normalizable P.

    One eigendecomposition of the block companion gives every latent root
    and latent vector (see _search).  Groups of size m are formed greedily
    from the most negative real parts outward, with backtracking when
    vectors turn out dependent, spectra overlap, a solvent residual exceeds
    1e-6 or the Vandermonde matrix is ill conditioned.  The grouping found
    is checked once more, its solvents' eigenvalues against the latent
    roots, and returned with the Vandermonde matrix and condition its last
    test computed; a failing check raises IncompleteSet.

    node_budget bounds the work of the search.  Every group tried costs one
    unit, whether its verdict is new or read from a memo, and so does every
    complete grouping reached.  A group costs at most one m x m condition
    number; a complete grouping costs its r solvents, their residuals and
    one rm x rm SVD.  Raises NoCompleteSetFound when the budget runs out or
    the search space holds no valid grouping.
    """
    mono = P.monic_normalized()
    if mono.degree == 1:
        return validate_complete_set(P, [-np.asarray(mono.coeffs[1])], eps_sing=eps_sing, tau_gap=tau_gap)
    values, vectors = np.linalg.eig(mono.companion())
    return _search(mono, values, vectors, eps_sing, tau_gap, tau_null, node_budget)[0]


def _search(mono, values, vectors, eps_sing, tau_gap, tau_null, node_budget):
    """Complete right solvent set of the monic mono from an eigendecomposition
    (values, vectors) of its block companion; see compute_complete_set.

    A simple root takes the first block row of its eigenvector, a repeated
    one a null-space basis (_null_basis; a defective root leaves its unit
    unusable), and a mirror cluster the conjugates of its partner's.  A
    group passes when its unit-normalized latent vectors L have condition
    below 1/eps_sing; only these verdicts are memoized.  A complete grouping
    passes when no two groups share a root within tau_gap, every solvent
    R = L diag(roots) inv(L) has residual at most _SEARCH_RESIDUAL, and the
    block Vandermonde matrix has condition below 1/eps_sing.

    Returns (CompleteSolventSet, groups), groups[i] listing the positions in
    values of the roots of solvent i.
    """
    m, r = mono.block_size, mono.degree
    if r < 1:
        raise DimensionMismatch("degree must be at least 1")
    units, scale = _root_partition(values, mono.is_real)
    sizes = [sum(len(idx) for _, idx in unit) for unit in units]
    if any(sz > m for sz in sizes):
        raise NoCompleteSetFound(
            "a root cluster (with its conjugate) exceeds the block size"
        )
    heads = vectors[:m] / np.linalg.norm(vectors[:m], axis=0)
    parts = [_unit_vectors(mono, unit, heads, tau_null) for unit in units]

    budget = [node_budget]
    memo = {}

    def charge():
        budget[0] -= 1
        if budget[0] < 0:
            raise NoCompleteSetFound(f"node budget {node_budget} exhausted")

    def independent(group):
        if group not in memo:
            memo[group] = all(parts[i] is not None for i in group) and (
                cond2(np.hstack([parts[i][1] for i in group])) < 1.0 / eps_sing)
        return memo[group]

    def leaf(groups):
        spectra = [np.concatenate([parts[i][0] for i in g]) for g in groups]
        if _first_overlap(spectra, tau_gap * scale) is not None:
            return None
        vecs = np.stack([np.hstack([parts[i][1] for i in g]) for g in groups])
        stack = (vecs * np.stack(spectra)[:, None, :]) @ np.linalg.inv(vecs)
        mats = [realify(R, 1e-8) for R in stack]
        residuals = _solvent_residuals(mono, mats)
        if np.any(residuals > _SEARCH_RESIDUAL):
            return None
        V = block_vandermonde(mats)
        c = cond2(V)
        if not np.isfinite(c) or c >= 1.0 / eps_sing:
            return None
        return groups, mats, residuals, V, c

    def dfs(free, chosen):
        # chosen: the groups so far; returns what leaf returns, or None
        if not free:
            charge()
            return leaf(chosen)
        seed, rest = free[0], free[1:]
        for combo in _size_combinations(rest, sizes, m - sizes[seed]):
            charge()
            group = (seed,) + combo
            if not independent(group):
                continue
            found = dfs([u for u in rest if u not in combo], chosen + [group])
            if found is not None:
                return found
        return None

    found = dfs(list(range(len(units))), [])
    if found is None:
        raise NoCompleteSetFound(
            "no grouping of the latent roots yields a complete solvent set"
        )
    groups, mats, residuals, V, c = found
    if len({M.dtype for M in mats}) == 1:
        spectra = np.linalg.eigvals(np.stack(mats))
    else:
        spectra = [np.linalg.eigvals(M) for M in mats]
    solvents = tuple(Solvent(M, "right", sort_complex(z), float(res))
                     for M, z, res in zip(mats, spectra, residuals))
    _check_spectra(solvents, values, scale, tau_gap)
    positions = [[k for i in g for k in parts[i][2]] for g in groups]
    return CompleteSolventSet(solvents, V, c), positions


def _unit_vectors(P, unit, heads, tau_null):
    """(roots, latent vectors as columns, positions of the roots) of a unit,
    or None when its repeated root is defective; heads holds the unit
    latent vectors of the simple roots, column by position."""
    z, idx = unit[0]
    if len(idx) == 1:
        cols = heads[:, idx]
    else:
        try:
            cols = _null_basis(P, z, len(idx), tau_null)
        except DefectiveRoot:
            return None
    roots = np.array([w for w, widx in unit for _ in widx])
    cols = np.hstack([cols, cols.conj()][:len(unit)])
    return roots, cols, [k for _, widx in unit for k in widx]


def _solvent_residuals(P, mats, side="right"):
    """solvent_residual(P, X, side) for every solvent X of mats, at once."""
    X = np.asarray(mats)
    power = np.broadcast_to(np.eye(X.shape[1]), X.shape)
    total = 0.0
    scale = 0.0
    for i in range(P.degree, -1, -1):
        term = P.coeffs[i] @ power if side == "right" else power @ P.coeffs[i]
        total = total + term
        scale = scale + np.linalg.norm(term, axis=(1, 2))
        if i > 0:
            power = power @ X if side == "right" else X @ power
    return np.linalg.norm(total, axis=(1, 2)) / np.maximum(scale, 1.0)


def _size_combinations(candidates, sizes, need):
    """Combinations of the candidates whose sizes (positive integers, looked
    up as sizes[c]) sum exactly to need.

    They come in the order of itertools.combinations filtered by size:
    fewest candidates first, lexicographic by position within each count.
    The walk prunes on the running sum against the least and the greatest
    size, so it never visits a combination of the wrong size.
    """
    candidates = list(candidates)
    size = [sizes[c] for c in candidates]
    if need == 0:
        yield ()
        return
    smallest, largest = min(size, default=1), max(size, default=0)

    def extend(start, count, left, chosen):
        # `count` more candidates from position `start` on, sizes summing to `left`
        if not count * smallest <= left <= count * largest:
            return
        if count == 1:
            for pos in range(start, len(candidates)):
                if size[pos] == left:
                    yield chosen + (candidates[pos],)
            return
        for pos in range(start, len(candidates) - count + 1):
            yield from extend(pos + 1, count - 1, left - size[pos],
                              chosen + (candidates[pos],))

    for count in range(1, len(candidates) + 1):
        yield from extend(0, count, need, ())
