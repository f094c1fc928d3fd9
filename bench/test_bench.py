"""Tests of the benchmark's generator, output checker and tracer.

    python3 -m pytest bench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import blockred  # noqa: E402
import blockred.cli  # noqa: E402
import check  # noqa: E402
import family  # noqa: E402
import tracing  # noqa: E402
from blockred.data import data_text, load_power_network  # noqa: E402


def test_generator_is_deterministic_in_the_seed():
    a, b, c = family.make_family(7), family.make_family(7), family.make_family(8)
    assert len(a) == len(family.CONFIGS) * family.SYSTEMS_PER_CONFIG
    for x, y in zip(a, b):
        assert x.label == y.label
        for name in ("A", "B", "C", "poles"):
            assert np.array_equal(getattr(x, name), getattr(y, name))
        assert all(np.array_equal(p, q) for p, q in zip(x.num + x.den, y.num + y.den))
    assert not np.array_equal(a[0].A, c[0].A)


def test_generator_forms_share_poles_and_transfer():
    for g in family.make_family(3)[::7]:
        planted = np.sort_complex(g.poles)
        assert np.allclose(np.sort_complex(np.linalg.eigvals(g.A)), planted, atol=1e-8)
        frac = check.fraction_model(g.num, g.den)
        assert np.allclose(np.sort_complex(frac.poles()), planted, atol=1e-8)
        s = 0.3 + 1.1j
        hidden = g.C @ np.linalg.solve(s * np.eye(g.n) - g.A, g.B)
        direct = frac.C @ np.linalg.solve(s * np.eye(g.n) - frac.A, frac.B)
        assert np.allclose(hidden, direct, rtol=1e-8, atol=1e-12)


@pytest.fixture(scope="module")
def power_network():
    ss = load_power_network(fixed=True)
    reduced, report = blockred.reduce_dominant(ss)
    return (check.Model(ss.A, ss.B, ss.C), check.Model(reduced.A, reduced.B, reduced.C),
            check.Claim.from_report(report))


def test_checker_passes_the_power_network_reduction(power_network):
    full, reduced, claim = power_network
    assert claim.eliminated >= 1
    assert check.check_reduction(full, reduced, claim, 2) == []
    reference = check.parse_pole_list(data_text("power_network_dominant_poles.txt"))
    assert check.check_keeps_poles(reduced, reference) == []


def test_checker_rejects_a_moved_pole(power_network):
    full, reduced, claim = power_network
    A = reduced.A.copy()
    A[0, 0] += 0.05
    problems = check.check_reduction(full, check.Model(A, reduced.B, reduced.C), claim, 2)
    assert any("not poles of the full model" in p for p in problems)


@pytest.mark.parametrize("field, corrupt, message", [
    ("re_value", lambda v: 1.05 * v, "reported RE"),
    ("h2_error", lambda v: 1.05 * v, "reported H2 error"),
    ("reduced_order", lambda v: v - 2, "reported order"),
])
def test_checker_rejects_a_misreported_claim(power_network, field, corrupt, message):
    full, reduced, claim = power_network
    bad = dataclasses.replace(claim, **{field: corrupt(getattr(claim, field))})
    assert any(message in p for p in check.check_reduction(full, reduced, bad, 2))


def test_checker_rejects_a_dropped_reference_pole(power_network):
    _, reduced, _ = power_network
    reference = check.parse_pole_list(data_text("power_network_dominant_poles.txt"))
    assert check.check_keeps_poles(reduced, np.append(reference, -9.0 + 11.0j))


def test_checker_reads_the_command_line_outputs(tmp_path):
    plant = tmp_path / "plant.sys"
    plant.write_text(data_text("power_network_8_fixed.sys"))
    out, csv = str(tmp_path / "red.sys"), str(tmp_path / "bode.csv")
    assert blockred.cli.main(["reduce", str(plant), "--out", out]) == 0
    assert blockred.cli.main(["bode", str(plant), out, "--points", "50", "--out", csv]) == 0
    full = check.document_model(plant.read_text())
    reduced = check.document_model(Path(out).read_text())
    claim = check.parse_report(Path(out + ".report").read_text())
    assert check.check_reduction(full, reduced, claim, 2) == []
    omegas = np.geomspace(1e-2, 1e2, 50)
    text = Path(csv).read_text()
    assert check.check_bode(text, [full, reduced], omegas) == []
    rows = text.splitlines()
    cells = rows[7].split(",")
    cells[1] = repr(float(cells[1]) + 0.01)
    rows[7] = ",".join(cells)
    assert check.check_bode("\n".join(rows), [full, reduced], omegas)


def test_tracer_records_layers_and_restores_the_package():
    original = blockred.reduce.dominant_poles
    method = blockred.MatrixPolynomial.__dict__["latent_roots"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert blockred.reduce.dominant_poles is not original
        tracer.op = 0
        blockred.reduce_dominant(load_power_network(fixed=True))
    finally:
        tracer.uninstall()
    assert blockred.reduce.dominant_poles is original
    assert blockred.MatrixPolynomial.__dict__["latent_roots"] is method
    metrics = tracing.summary(tracer.spans, 1)
    assert metrics["dompoles.dominant_poles.calls"] == (3, "count")
    assert metrics["solvents.search_yield"][0] == 1.0
    assert 0.0 < metrics["reduce.accept_share"][0] <= 1.0
    assert metrics["metrics.hankel_repeat_share"][0] > 0.0
    pipeline = [rec for rec in tracer.spans if rec[0] == "reduce.reduce_dominant"]
    assert len(pipeline) == 1 and pipeline[0][3] == -1
