"""Small numeric helpers used across modules."""

import numpy as np

STABILITY_MARGIN = 1e-10  # least distance of a stable pole from the axis, per unit of ||A||_F


def stable_by_margin(poles, size):
    """Whether every pole lies left of -STABILITY_MARGIN * size, size being
    the Frobenius norm of the state matrix the poles belong to."""
    return not len(poles) or float(np.max(np.real(poles))) < -STABILITY_MARGIN * size


def as_matrix(a, name="matrix"):
    from .errors import DimensionMismatch

    arr = np.asarray(a)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)


def realify(a, tol=1e-8):
    """Drop a negligible imaginary part, else return the input unchanged."""
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        return a
    scale = max(1.0, float(np.max(np.abs(a.real)))) if a.size else 1.0
    if a.size == 0 or np.max(np.abs(a.imag)) <= tol * scale:
        return np.ascontiguousarray(a.real)
    return a


def realify_each(stack, tol=1e-8):
    """realify applied to every matrix of a (k, p, m) stack at once.

    Each matrix's imaginary part is compared with its own real part.  The
    result is real when every imaginary part is negligible; otherwise it
    stays complex, with the negligible imaginary parts set to zero, which is
    what a polynomial built from the realified matrices one by one holds.
    """
    stack = np.asarray(stack)
    if not np.iscomplexobj(stack):
        return stack
    scale = np.maximum(1.0, np.max(np.abs(stack.real), axis=(1, 2), initial=0.0))
    small = np.max(np.abs(stack.imag), axis=(1, 2), initial=0.0) <= tol * scale
    if small.all():
        return np.ascontiguousarray(stack.real)
    out = stack.copy()
    out.imag[small] = 0.0
    return out


def sort_complex(z):
    """Sort by real part, then imaginary part (both ascending)."""
    z = np.asarray(z, dtype=complex).ravel()
    order = np.lexsort((z.imag, z.real))
    return z[order]


def phase_normalize(v):
    """Scale a vector to unit norm with its largest entry real positive."""
    v = np.asarray(v, dtype=complex)
    n = np.linalg.norm(v)
    if n == 0:
        return v
    v = v / n
    k = int(np.argmax(np.abs(v)))
    ph = v[k] / abs(v[k])
    return v / ph


def cond2(a):
    """2-norm condition number, inf when numerically singular."""
    if a.size == 0:
        return 1.0
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0.0 or not np.isfinite(s[-1]):
        return np.inf
    return float(s[0] / s[-1])


def block_diag(*mats):
    """Direct sum of 2-D arrays, complex when any of them is."""
    mats = [np.asarray(x) for x in mats]
    dtype = np.result_type(np.float64, *mats)
    rows = sum(x.shape[0] for x in mats)
    cols = sum(x.shape[1] for x in mats)
    out = np.zeros((rows, cols), dtype=dtype)
    r = c = 0
    for x in mats:
        out[r:r + x.shape[0], c:c + x.shape[1]] = x
        r += x.shape[0]
        c += x.shape[1]
    return out


def _has_perfect_matching(allowed):
    """Whether the boolean bipartite adjacency matrix has a perfect matching.

    Kuhn's augmenting path search: every row in turn looks for a free column
    or for a column whose owner can move to another allowed column.
    """
    n = allowed.shape[0]
    owner = [-1] * n
    neighbours = [[] for _ in range(n)]
    for i, j in zip(*(x.tolist() for x in np.nonzero(allowed))):
        neighbours[i].append(j)

    def augment(i, seen):
        for j in neighbours[i]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, [False] * n) for i in range(n))


def pair_distance(a, b):
    """Bottleneck distance of two multisets: over all one-to-one matchings,
    the least possible greatest distance between matched elements.

    The answer is one of the pairwise distances, so a binary search over
    them, each tested for a perfect matching, finds it exactly.  Returns inf
    when the multisets have different sizes.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        return np.inf
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    # every element needs some partner, which bounds the answer from below
    # and is the answer whenever the two multisets agree up to small errors
    floor = max(cost.min(axis=1).max(), cost.min(axis=0).max())
    if _has_perfect_matching(cost <= floor):
        return float(floor)
    levels = np.unique(cost[cost > floor])
    lo, hi = 0, levels.size - 1  # the largest level always admits a matching
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(cost <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])
