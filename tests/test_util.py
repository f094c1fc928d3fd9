import itertools

import numpy as np
import pytest

from blockred._util import block_diag, pair_distance, realify, realify_each


def brute_bottleneck(a, b):
    """Least greatest distance over every one-to-one matching."""
    cost = np.abs(np.subtract.outer(a, b))
    n = len(a)
    return min(
        max(cost[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n))
    )


def test_pair_distance_matches_brute_force(rng):
    pool = np.array([0.0, 1.0, -1.0, 1j, -1j, 2.0 + 1j, 2.0 - 1j])
    for trial in range(300):
        n = int(rng.integers(1, 7))
        if trial % 3 == 0:  # generic values
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        elif trial % 3 == 1:  # repeated values and tied distances
            a = rng.choice(pool, n)
            b = rng.choice(pool, n)
        else:  # a perturbed copy with repeated roots, as a solvent check sees it
            a = rng.choice(pool[:4], n)
            b = rng.permutation(a) + 1e-9 * rng.standard_normal(n)
        assert pair_distance(a, b) == brute_bottleneck(a, b)


def test_pair_distance_is_the_bottleneck_not_the_min_sum_maximum():
    # matching 0-0 and 1-1j has the least sum (sqrt 2) but its largest
    # distance is sqrt 2; matching 0-1j and 1-0 has distances 1 and 1
    assert pair_distance([0.0, 1.0], [0.0, 1j]) == 1.0


def test_pair_distance_edge_cases():
    assert pair_distance([], []) == 0.0
    assert pair_distance([1.0], [1.0, 2.0]) == np.inf
    assert pair_distance([1 + 1j, 1 - 1j, -2.0], [-2.0, 1 - 1j, 1 + 1j]) == 0.0


def test_block_diag():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5j]])
    c = np.zeros((0, 0))
    d = np.ones((1, 2))
    out = block_diag(a, c, b, d)
    assert out.dtype == complex
    want = np.zeros((4, 5), dtype=complex)
    want[:2, :2] = a
    want[2, 2] = 5j
    want[3, 3:] = 1.0
    assert np.array_equal(out, want)
    assert block_diag(a).dtype == np.float64
    assert block_diag().shape == (0, 0)


@pytest.mark.parametrize("n", [3, 5])
def test_block_diag_of_one_matrix_is_a_copy(n, rng):
    a = rng.standard_normal((n, n))
    out = block_diag(a)
    assert np.array_equal(out, a) and out is not a


def test_realify_each_matches_realify_per_matrix(rng):
    # each matrix's imaginary part is judged against its own real part: the
    # first two are negligible at 1e-10 (the second only because its real
    # part is large), the third is not
    base = rng.standard_normal((3, 2, 2))
    imag = np.stack([1e-12 * np.ones((2, 2)), 1e-6 * np.ones((2, 2)), 1e-3 * np.ones((2, 2))])
    base[1] *= 1e5
    mixed = base + 1j * imag
    for stack, complex_out in ((mixed, True), (mixed[:2], False), (base, False)):
        out = realify_each(stack, 1e-10)
        each = [realify(c, 1e-10) for c in stack]
        assert np.iscomplexobj(out) == complex_out
        assert np.iscomplexobj(out) == any(np.iscomplexobj(c) for c in each)
        assert out.shape == stack.shape
        for got, want in zip(out, each):
            assert np.array_equal(got, want)
            if np.iscomplexobj(got) and not np.iscomplexobj(want):
                assert np.all(got.imag == 0.0)
    # the input is left unchanged
    assert np.array_equal(mixed.imag, imag)
    assert realify_each(np.zeros((2, 0, 3), dtype=complex)).shape == (2, 0, 3)
