import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from blockred.dompoles import (
    DominantPole,
    dominance_index,
    dominance_order,
    dominant_poles,
    modal_form,
)
from blockred.errors import (
    DegenerateEigenvector,
    NonDiagonalizableBlock,
)
from blockred.sysrep import StateSpace

from conftest import probe_points, random_diagonalizable_stable


def dense_pole_oracle(ss):
    """All poles with residues and dominance, from one dense eigensolve."""
    w, vl, vr = scipy.linalg.eig(ss.A, left=True, right=True)
    out = []
    for i in range(ss.n):
        x = vr[:, i]
        y = vl[:, i]
        R = np.outer(ss.C @ x, y.conj() @ ss.B) / np.vdot(y, x)
        out.append(DominantPole(complex(w[i]), x, y, R, dominance_index(w[i], R)))
    return out


def test_residue_partial_fraction(rng):
    # the residues of a strictly proper system reassemble its transfer matrix
    ss = random_diagonalizable_stable(rng, 6, 2, 2)
    poles = dense_pole_oracle(ss)
    for s in probe_points(rng, 6):
        total = np.zeros((ss.p, ss.m), dtype=complex)
        for p in poles:
            total += p.residue / (s - p.value)
        assert_allclose(total, ss.transfer(s), rtol=1e-8, atol=1e-10)


def test_dominance_index_values():
    R = np.array([[3.0, 0.0], [0.0, 1.0]])
    assert dominance_index(-2.0 + 1.0j, R) == pytest.approx(1.5)
    assert dominance_index(0.0 + 5.0j, R) == np.inf


def test_dominance_order_sorting():
    mk = lambda v, r: DominantPole(v, None, None, np.array([[r]]), dominance_index(v, np.array([[r]])))
    weak = mk(-4.0 + 0j, 1.0)     # 0.25
    strong = mk(-1.0 + 0j, 2.0)   # 2.0
    axis = mk(0.0 + 3.0j, 0.5)    # inf
    out = dominance_order([weak, strong, axis])
    assert [p.value for p in out] == [axis.value, strong.value, weak.value]


def test_dominant_poles_full_set_matches_dense(rng):
    for _ in range(5):
        n = int(rng.integers(3, 8))
        ss = random_diagonalizable_stable(rng, n, 2, 2)
        got = dominant_poles(ss, n)
        assert len(got) == n
        want = np.sort_complex(np.linalg.eigvals(ss.A))
        assert_allclose(
            np.sort_complex([p.value for p in got]), want, rtol=1e-6, atol=1e-6
        )


def test_dominant_poles_output_is_ordered(rng):
    ss = random_diagonalizable_stable(rng, 6, 2, 2)
    got = dominant_poles(ss, 6)
    doms = [p.dominance for p in got]
    assert all(doms[i] >= doms[i + 1] - 1e-12 for i in range(len(doms) - 1))
    # the reported dominance is consistent with the reported residue
    for p in got:
        assert p.dominance == pytest.approx(dominance_index(p.value, p.residue), rel=1e-8)


def test_dominant_poles_conjugate_closure(rng):
    for _ in range(3):
        ss = random_diagonalizable_stable(rng, 6, 2, 2)
        got = dominant_poles(ss, 6)
        vals = np.array([p.value for p in got])
        for v in vals:
            if abs(v.imag) > 1e-8:
                d = np.min(np.abs(vals - np.conj(v)))
                assert d < 1e-6 * max(1.0, abs(v))


def test_dominant_poles_respects_count(rng):
    ss = random_diagonalizable_stable(rng, 8, 2, 2)
    got = dominant_poles(ss, 2)
    assert len(got) == 2
    # found values are true poles of the system
    eigs = np.linalg.eigvals(ss.A)
    for p in got:
        assert np.min(np.abs(eigs - p.value)) < 1e-6 * max(1.0, abs(p.value))


def test_dominant_poles_finds_most_dominant_first():
    # one very strong mode, one weak one, well separated
    a = np.diag([-1.0, -50.0])
    b = np.array([[10.0, 0.0], [0.0, 0.1]])
    ss = StateSpace(a, b, b.T)
    got = dominant_poles(ss, 1)
    assert got[0].value == pytest.approx(-1.0, abs=1e-6)


def test_dominant_poles_nonsquare_matches_dense(rng):
    # the residue norm is defined for any p x m, so no square G(s) is needed
    for m, p in ((1, 3), (3, 1), (2, 3)):
        ss = random_diagonalizable_stable(rng, 6, m, p)
        got = dominant_poles(ss, ss.n)
        want = dominance_order(dense_pole_oracle(ss))
        assert len(got) == len(want) == ss.n
        for g in got:
            w = min(want, key=lambda q: abs(q.value - g.value))
            assert g.value == pytest.approx(w.value, rel=1e-8, abs=1e-10)
            assert g.residue.shape == (p, m)
            assert_allclose(g.residue, w.residue, rtol=1e-6, atol=1e-9)
            assert g.dominance == pytest.approx(w.dominance, rel=1e-8)


def test_dominant_poles_cut_keeps_conjugate_pairs():
    # the most dominant pole is complex: a cut after it brings its partner
    a = scipy.linalg.block_diag(np.array([[-1.0, -3.0], [3.0, -1.0]]), -5.0, -8.0)
    b = np.array([[1.0, 0.0], [0.5, 1.0], [0.3, 0.1], [0.1, 0.3]])
    ss = StateSpace(a, b, b.T)
    got = dominant_poles(ss, 1)
    assert sorted(p.value.imag for p in got) == pytest.approx([-3.0, 3.0])
    got = dominant_poles(ss, 3)
    assert [p.value for p in got][2] == pytest.approx(-5.0)
    assert len(got) == 3


def test_dominant_poles_empty_requests(rng):
    ss = random_diagonalizable_stable(rng, 4, 2, 2)
    assert dominant_poles(ss, 0) == []


def modal_transfer(modes, s):
    """Sum over modes of outer(output column, input row) / (s - value)."""
    return sum(np.outer(modes.outputs[:, i], modes.inputs[i]) / (s - lam)
               for i, lam in enumerate(modes.values))


def test_modal_form_reassembles_transfer(rng):
    ss = random_diagonalizable_stable(rng, 5, 2, 3)
    modes = modal_form(ss.A, ss.B, ss.C, eps_sing=1e-10)
    for s in probe_points(rng, 5):
        total = modal_transfer(modes, s)
        assert_allclose(total, ss.transfer(s), rtol=1e-8, atol=1e-10)
    for i in range(modes.values.size):
        assert modes.dominance[i] == pytest.approx(
            dominance_index(modes.values[i], modes.residue(i)), rel=1e-10
        )


def test_modal_form_repeated_diagonalizable_eigenvalue(rng):
    # a double eigenvalue with two eigenvectors: the input rows come from
    # inv(V), so the modal split still reproduces the transfer matrix
    t = rng.standard_normal((3, 3))
    a = t @ np.diag([-1.0, -1.0, -3.0]) @ np.linalg.inv(t)
    ss = StateSpace(a, rng.standard_normal((3, 2)), rng.standard_normal((2, 3)))
    modes = modal_form(ss.A, ss.B, ss.C, eps_sing=1e-10)
    for s in probe_points(rng, 5):
        total = modal_transfer(modes, s)
        assert_allclose(total, ss.transfer(s), rtol=1e-7, atol=1e-9)


def test_modal_form_guards():
    jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
    b = np.eye(2)
    with pytest.raises(NonDiagonalizableBlock):
        modal_form(jordan, b, b, eps_sing=1e-10)
    with pytest.raises(DegenerateEigenvector):
        # a tolerance this small lets the Jordan block past the condition check
        modal_form(jordan, b, b, eps_sing=1e-300)
    with pytest.raises(NonDiagonalizableBlock):
        dominant_poles(StateSpace(jordan, b, b), 2)
    empty = modal_form(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((3, 0)), eps_sing=1e-10)
    assert empty.values.size == 0 and empty.inputs.shape == (0, 2)
