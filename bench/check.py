"""Checks of reduction outputs, computed apart from blockred.

Everything here uses numpy and scipy only: the reduced model is realised
anew from its matrices, its Gramians come from scipy Lyapunov solves, and
the guard values the pipeline reported are recomputed from them.  A check
returns a list of problems; an empty list means the output passed.

RE is the pipeline's relative error index with its default Hankel power 4,

    RE = sqrt( sum sigma_i(G - G_r)**4 / sum sigma_i(G)**4 ),

and since the sigma_i**2 are the eigenvalues of S^T Q S for any factor
P = S S^T, each power sum is the squared Frobenius norm of S^T Q S: a sum of
squares, free of the cancellation in trace((P Q)**2).  The H2 error is
sqrt(trace(C_e P_e C_e^T)) of the difference system G - G_r.

On 7680 reductions of the graded family (seeds 10-19 and 100-109) the worst
disagreement used 7% of a tolerance, and no kept pole moved by more than
7e-7 relative.  The tolerances leave room for reduce_dominant, which works
in the coordinates of the block Krylov matrix: the family redraws systems
past condition 1e8, and past 1e9 the reported RE can be off by 0.4-0.7%
(bench/faults.py order-ceiling).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

RE_ABS_TOL = 1e-6
RE_REL_TOL = 1e-3
H2_ABS_TOL = 1e-6  # relative to the H2 norm of the full model
H2_REL_TOL = 1e-3
POLE_TOL = 1e-3  # relative to max(1, |pole|)
REFERENCE_POLE_TOL = 1e-3  # the bundled reference poles carry 4 decimals


@dataclass(frozen=True)
class Model:
    """A state-space realisation (A, B, C); every model here is strictly proper."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    @property
    def n(self):
        return self.A.shape[0]

    def poles(self):
        return np.linalg.eigvals(self.A) if self.n else np.zeros(0, complex)


@dataclass(frozen=True)
class Claim:
    """What a pipeline reported about its reduction."""

    original_order: int
    reduced_order: int
    eliminated: int
    re_value: float
    h2_error: float
    threshold: float

    @classmethod
    def from_report(cls, report):
        return cls(
            report.original_order, report.reduced_order, len(report.eliminated),
            report.re_value, report.h2_error, report.threshold,
        )


def fraction_model(num, den):
    """Block controller realisation of N(s) inv(D(s)).

    num and den hold coefficients leading first; den is monic m x m.
    """
    den = [np.asarray(c, dtype=float) for c in den]
    num = [np.asarray(c, dtype=float) for c in num]
    m = den[0].shape[0]
    r = len(den) - 1
    n = r * m
    A = np.zeros((n, n))
    A[:n - m, m:] = np.eye(n - m)
    for j in range(r):
        A[n - m:, j * m:(j + 1) * m] = -den[r - j]
    B = np.zeros((n, m))
    B[n - m:] = np.eye(m)
    C = np.zeros((num[0].shape[0], n))
    q = len(num) - 1
    for i in range(q + 1):  # ascending power i
        C[:, i * m:(i + 1) * m] = num[q - i]
    return Model(A, B, C)


def difference(a, b):
    """Direct-sum realisation of G_a - G_b."""
    return Model(
        scipy.linalg.block_diag(a.A, b.A),
        np.vstack([a.B, b.B]),
        np.hstack([a.C, -b.C]),
    )


def _gramians(model):
    P = scipy.linalg.solve_continuous_lyapunov(model.A, -model.B @ model.B.T)
    Q = scipy.linalg.solve_continuous_lyapunov(model.A.T, -model.C.T @ model.C)
    return P, Q


def hankel_power4(model):
    """sum sigma_i**4 = ||S^T Q S||_F**2 with P = S S^T."""
    if model.n == 0:
        return 0.0
    P, Q = _gramians(model)
    w, U = np.linalg.eigh(0.5 * (P + P.T))
    S = U * np.sqrt(np.clip(w, 0.0, None))
    M = S.T @ Q @ S
    return float(np.sum(M * M))


def h2_norm(model):
    if model.n == 0:
        return 0.0
    P, _ = _gramians(model)
    return float(np.sqrt(max(np.trace(model.C @ P @ model.C.T), 0.0)))


def unmatched_poles(values, pool, tol):
    """Values that find no distinct partner in pool within tol * max(1, |v|)."""
    free = list(np.asarray(pool, dtype=complex))
    missing = []
    for v in sorted(np.asarray(values, dtype=complex), key=lambda z: (z.real, z.imag)):
        if not free:
            missing.append(v)
            continue
        d = [abs(v - w) for w in free]
        k = int(np.argmin(d))
        if d[k] <= tol * max(1.0, abs(v)):
            free.pop(k)
        else:
            missing.append(v)
    return missing


def check_reduction(full, reduced, claim, m):
    """Problems with a reduction of full to reduced that reported claim.

    m is the input count: every eliminated solvent removes m states.
    """
    problems = []
    if reduced.n and np.max(reduced.poles().real) >= 0.0:
        problems.append("reduced model is not stable")
    stray = unmatched_poles(reduced.poles(), full.poles(), POLE_TOL)
    if stray:
        problems.append(f"reduced poles {stray} are not poles of the full model")
    if claim.original_order != full.n:
        problems.append(f"original order {claim.original_order} != {full.n}")
    if claim.reduced_order != reduced.n:
        problems.append(f"reported order {claim.reduced_order} != realised order {reduced.n}")
    if full.n - reduced.n != m * claim.eliminated:
        problems.append(
            f"order {full.n} -> {reduced.n} does not remove {claim.eliminated} solvents of size {m}"
        )
    err = difference(full, reduced)
    re = float(np.sqrt(hankel_power4(err) / hankel_power4(full)))
    if abs(claim.re_value - re) > RE_ABS_TOL + RE_REL_TOL * re:
        problems.append(f"reported RE {claim.re_value:.9g}, recomputed {re:.9g}")
    if claim.re_value > claim.threshold:
        problems.append(f"RE {claim.re_value:.6g} exceeds the threshold {claim.threshold:.6g}")
    h2 = h2_norm(err)
    if abs(claim.h2_error - h2) > H2_ABS_TOL * h2_norm(full) + H2_REL_TOL * h2:
        problems.append(f"reported H2 error {claim.h2_error:.9g}, recomputed {h2:.9g}")
    return problems


def check_keeps_poles(reduced, reference_poles):
    """Problems when a reference pole is no longer a pole of the reduced model."""
    lost = unmatched_poles(reference_poles, reduced.poles(), REFERENCE_POLE_TOL)
    return [f"reference dominant poles {lost} were removed"] if lost else []


# -- the file formats the command line writes --------------------------------

def parse_matrices(text):
    """Header keys and matrices of a system document or a matrix list."""
    header, mats = {}, {}
    lines = [ln.split("#")[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    i = 0
    while i < len(lines):
        tok = lines[i].split()
        if tok[0] == "matrix":
            rows, cols = int(tok[2]), int(tok[3])
            data = [[float(v) for v in ln.split()] for ln in lines[i + 1:i + 1 + rows]]
            mats[tok[1]] = np.array(data, dtype=float).reshape(rows, cols)
            i += 1 + rows
        else:
            key, _, value = lines[i].partition(":")
            header[key.strip()] = value.strip()
            i += 1
    return header, mats


def document_model(text):
    """Model of a state_space or right_mfd system document."""
    header, mats = parse_matrices(text)
    kind = header.get("type")
    if kind == "state_space":
        if np.any(mats.get("D", 0.0) != 0.0):
            raise ValueError("document has a feedthrough")
        return Model(mats["A"], mats["B"], mats["C"])
    if kind == "right_mfd":
        r = int(header["r"])
        den = [mats[f"D{i}"] for i in range(r + 1)]
        num = []
        while f"N{len(num)}" in mats:
            num.append(mats[f"N{len(num)}"])
        lead = np.linalg.inv(den[0])
        return fraction_model([c @ lead for c in num], [c @ lead for c in den])
    raise ValueError(f"unsupported document type {kind!r}")


def parse_report(text):
    """Claim of a `blockred reduce` report file."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and not line.startswith(" "):
            fields[key.strip()] = value.strip()
    h2 = fields["h2_error"]
    return Claim(
        int(fields["original_order"]), int(fields["reduced_order"]),
        int(fields["eliminated"]), float(fields["re_value"]),
        float(h2) if h2 != "not computed" else float("nan"),
        float(fields["threshold"]),
    )


def parse_pole_list(text):
    """Poles of a "real imag" per line file."""
    values = []
    for line in text.splitlines():
        line = line.split("#")[0].strip()
        if line:
            re, im = line.split()
            values.append(complex(float(re), float(im)))
    return np.array(values)


def _response(model, omega):
    n = model.n
    return model.C @ np.linalg.solve(1j * omega * np.eye(n) - model.A, model.B)


def check_bode(csv_text, models, omegas):
    """Problems with a `blockred bode` CSV of the given models on a grid."""
    lines = csv_text.strip().splitlines()
    p, m = models[0].C.shape[0], models[0].B.shape[1]
    header = ["omega_rad_s"] + [
        f"{kind}_{i}{j}_{k}"
        for i in range(1, p + 1) for j in range(1, m + 1)
        for k in range(1, len(models) + 1) for kind in ("mag_db", "phase_deg")
    ]
    if lines[0].split(",") != header:
        return ["bode header does not list every channel of every system"]
    if len(lines) - 1 != len(omegas):
        return [f"bode has {len(lines) - 1} rows, expected {len(omegas)}"]
    worst_mag = worst_phase = 0.0
    for line, w in zip(lines[1:], omegas):
        cells = [float(c) for c in line.split(",")]
        if abs(cells[0] - w) > 1e-12 * w:
            return [f"bode row at omega {cells[0]!r}, expected {w!r}"]
        got = np.array(cells[1:]).reshape(p, m, len(models), 2)
        for k, model in enumerate(models):
            g = _response(model, w)
            worst_mag = max(worst_mag, float(np.max(np.abs(got[:, :, k, 0] - 20 * np.log10(np.abs(g))))))
            dphase = got[:, :, k, 1] - np.degrees(np.angle(g))
            worst_phase = max(worst_phase, float(np.max(np.abs((dphase + 180.0) % 360.0 - 180.0))))
    problems = []
    if worst_mag > 1e-6:
        problems.append(f"bode magnitude off by {worst_mag:.3g} dB")
    if worst_phase > 1e-6:
        problems.append(f"bode phase off by {worst_phase:.3g} deg")
    return problems
