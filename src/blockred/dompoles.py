"""Dominant poles and modal decomposition from one dense eigensolve.

A pole lambda of G(s) = C (sI - A)^-1 B + D with eigentriplet (lambda, x, y)
of A carries the residue matrix R = (C x)(y^H B) / (y^H x); its dominance
index is ||R||_2 / |Re lambda|.  The state matrices met here are dense and
small, so one eigendecomposition of A yields every pole with its residue at
once: the ranking is exact, G(s) may have any number of inputs and outputs,
and no iteration is involved that could fail to converge.  modal_form is that
decomposition for any (a, b, c) triple; reduce_dominant reads its stability
check, complete solvent set, ranking, block dominance, error guard and
reduced model from one modal_form of the full system.
"""

from dataclasses import dataclass

import numpy as np

from ._util import cond2
from .errors import (
    DegenerateEigenvector,
    NoConvergence,
    NonDiagonalizableBlock,
)
from .matpoly import DEFAULT_EPS_SING
from .metrics import as_state_space


@dataclass
class DominantPole:
    value: complex
    right: np.ndarray
    left: np.ndarray
    residue: np.ndarray
    dominance: float


@dataclass
class ModalForm:
    """Eigendecomposition of a state matrix together with its input and output.

    Mode i has eigenvalue values[i], unit right eigenvector right[:, i], input
    row inputs[i] = y^H b / (y^H x) and output column outputs[:, i] = c x, so
    c (sI - a)^-1 b is the sum over modes of outer(outputs[:, i], inputs[i]) /
    (s - values[i]).  The input rows are the rows of inv(right) @ b, which
    keeps the split exact on a repeated but diagonalizable eigenvalue, where
    single left eigenvectors would not be paired with the right ones.
    """

    values: np.ndarray
    right: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    rows: np.ndarray  # inv(right); row i is y^H / (y^H x) for the left eigenvector y

    def residue(self, i):
        return np.outer(self.outputs[:, i], self.inputs[i])

    def left(self, i):
        """Unit left eigenvector of mode i."""
        y = self.rows[i].conj()
        return y / np.linalg.norm(y)

    @property
    def residue_norms(self):
        """||residue||_2 per mode: a residue has rank one, so its 2-norm is the
        product of the norms of its output column and input row."""
        return np.linalg.norm(self.outputs, axis=0) * np.linalg.norm(self.inputs, axis=1)

    @property
    def dominance(self):
        """||residue||_2 / |Re value| per mode; infinite on the imaginary axis."""
        re = np.abs(self.values.real)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(re == 0.0, np.inf, self.residue_norms / re)


def modal_form(a, b, c, eps_sing):
    """Diagonalize a and carry b and c into its eigenbasis.

    Raises NonDiagonalizableBlock when the eigenvector matrix has condition
    at least 1/eps_sing, DegenerateEigenvector when the
    left and right eigenvectors of a mode are near orthogonal, and
    NoConvergence when the eigenvalue iteration itself fails.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    n = a.shape[0]
    if n == 0:
        return ModalForm(
            np.zeros(0, dtype=complex), np.zeros((0, 0)), np.zeros((0, b.shape[1])),
            np.zeros((c.shape[0], 0)), np.zeros((0, 0)),
        )
    try:
        values, right = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    values = values.astype(complex, copy=False)  # numpy's are real when all are
    cond = cond2(right)
    if cond >= 1.0 / eps_sing:
        raise NonDiagonalizableBlock(f"eigenvector matrix condition {cond:.3e}")
    try:
        rows = np.linalg.inv(right)
    except np.linalg.LinAlgError as exc:
        raise NonDiagonalizableBlock("eigenvector matrix is singular") from exc
    # unit vectors x and y have |y^H x| = 1 / ||row of inv(right)||
    overlap = 1.0 / np.linalg.norm(rows, axis=1)
    bad = np.flatnonzero(~(overlap > 1e-12))
    if bad.size:
        raise DegenerateEigenvector(
            f"left/right eigenvectors at {complex(values[bad[0]]):.6g} are near orthogonal"
        )
    inputs, outputs = rows @ b, c @ right
    if not any(np.iscomplexobj(x) for x in (a, b, c)):
        # LAPACK returns exact conjugate eigenvector pairs; keep the rest of
        # each pair exactly conjugate too, so that pair members tie exactly
        partner = _conjugate_partners(values)
        top = [i for i in partner if values[i].imag > 0.0]
        low = [partner[i] for i in top]
        rows[low] = rows[top].conj()
        inputs[low] = inputs[top].conj()
        outputs[:, low] = outputs[:, top].conj()
    return ModalForm(values, right, inputs, outputs, rows)


def dominance_index(value, residue):
    """||R||_2 / |Re value|; infinite on the imaginary axis."""
    norm = float(np.linalg.norm(residue, 2))
    re = abs(complex(value).real)
    if re == 0.0:
        return np.inf
    return norm / re


def _rank_key(dominance, rnorm, value):
    return (-dominance if np.isfinite(dominance) else -np.inf, -rnorm, value.real, value.imag)


def dominance_order(poles):
    """Sort poles by descending dominance.

    Imaginary-axis poles (infinite index) come first; ties break by residue
    norm, then by value for determinism.
    """
    return sorted(poles, key=lambda p: _rank_key(
        p.dominance, float(np.linalg.norm(p.residue, 2)), p.value))


def _conjugate_partners(values):
    """Index of the conjugate of each complex eigenvalue of a real matrix.

    LAPACK lists the eigenvalues of a real matrix with each conjugate pair
    in consecutive places, the member with positive imaginary part first.
    """
    partner = {}
    for i in range(values.size - 1):
        if values[i].imag > 0.0 and i not in partner:
            partner[i], partner[i + 1] = i + 1, i
    return partner


def _snap(value, real_system):
    """A mode's value as a pole: within 1e-8 (relative) of the real axis a
    real system's eigenvalue is reported as real."""
    if real_system and abs(value.imag) <= 1e-8 * max(1.0, abs(value)):
        return complex(value.real, 0.0)
    return complex(value)


def _ranked_modes(modes, count, real_system):
    """Indices of the `count` most dominant modes, most dominant first.

    Modes are ranked as dominance_order ranks poles.  For a real system a
    complex mode whose conjugate falls beyond the cut brings the conjugate
    along.
    """
    dominance, rnorms = modes.dominance, modes.residue_norms
    ranked = sorted(range(modes.values.size), key=lambda i: _rank_key(
        dominance[i], rnorms[i], _snap(modes.values[i], real_system)))
    chosen = set(ranked[:count])
    if real_system:
        partner = _conjugate_partners(modes.values)
        chosen.update(partner[i] for i in ranked[:count] if i in partner)
    return [i for i in ranked if i in chosen]


def dominant_poles(system, count, eps_sing=DEFAULT_EPS_SING):
    """The `count` most dominant poles of a system, most dominant first.

    One dense eigendecomposition of A gives every pole with its residue; the
    poles are ranked by dominance_order and the first `count` returned.  For
    a real system a complex pole whose conjugate falls beyond the cut brings
    the conjugate along, and eigenvalues within 1e-8 (relative) of the real
    axis are reported as real.  Raises NonDiagonalizableBlock when the
    eigenvector matrix of A has condition at least 1/eps_sing.
    """
    sys = as_state_space(system)
    if sys.n == 0 or count <= 0:
        return []
    modes = modal_form(sys.A, sys.B, sys.C, eps_sing)
    real_system = not (
        np.iscomplexobj(sys.A) or np.iscomplexobj(sys.B) or np.iscomplexobj(sys.C)
    )
    dominance = modes.dominance
    return [
        DominantPole(_snap(modes.values[i], real_system), modes.right[:, i],
                     modes.left(i), modes.residue(i), float(dominance[i]))
        for i in _ranked_modes(modes, count, real_system)
    ]
