import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockred
from blockred.cli import main
from blockred.data import data_path, load_power_network
from blockred.solvents import compute_complete_set
from blockred.sysdoc import load_system, save_document
from blockred.sysrep import (
    BlockDiagonalRealization,
    StateSpace,
    block_diagonalize,
    controller_canonical,
    mfd_from_state_space,
)

SIMPLE_SS = """\
type: state_space
name: two modes
n: 2
m: 1
p: 1

matrix A 2 2
-1 0
0 -2

matrix B 2 1
1
1

matrix C 1 2
1 1
"""

ODD_ORDER = """\
type: state_space
n: 3
m: 2
p: 1

matrix A 3 3
-1 0 0
0 -2 0
0 0 -3

matrix B 3 2
1 0
0 1
1 1

matrix C 1 3
1 1 1
"""

FIRST_ORDER = """\
type: state_space
n: 1
m: 1
p: 1

matrix A 1 1
-1

matrix B 1 1
1

matrix C 1 1
1
"""

OSCILLATOR = """\
type: state_space
n: 2
m: 1
p: 1

matrix A 2 2
0 1
-1 0

matrix B 2 1
0
1

matrix C 1 2
1 0
"""

MINIMAL_MFD = """\
type: right_mfd
m: 2
p: 2
r: 1

matrix D0 2 2
1 0
0 1

matrix D1 2 2
1 0
0 2

matrix N0 2 2
1 0
0 1
"""

UNSTABLE_SS = SIMPLE_SS.replace("-1 0\n0 -2", "1 0\n0 -2")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def fixture_path(fixed=True):
    name = "power_network_8_fixed.sys" if fixed else "power_network_8.sys"
    return str(data_path(name))


def test_validate_success(tmp_path, capsys):
    path = write(tmp_path, "simple.sys", SIMPLE_SS)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "type: state_space" in out
    assert "name: two modes" in out
    assert "n=2 m=1 p=1, stable" in out
    assert "poles:" in out
    assert "-1" in out and "-2" in out


def test_validate_parse_error_exit_1(tmp_path, capsys):
    path = write(tmp_path, "broken.sys", "type: state_space\nwhat is this\n")
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "line 2" in err


def test_validate_missing_file_exit_1(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.sys")]) == 1


def test_validate_invariant_exit_2(tmp_path, capsys):
    bad = SIMPLE_SS.replace("matrix B 2 1\n1\n1", "matrix B 1 1\n1")
    path = write(tmp_path, "bad.sys", bad)
    assert main(["validate", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_sections(tmp_path, capsys):
    path = write(tmp_path, "simple.sys", SIMPLE_SS)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "solvents:" in out
    assert "block Vandermonde condition:" in out
    assert "hankel singular values:" in out
    assert "h2 norm:" in out
    assert "dominant poles:" in out
    assert "dominance" in out


def test_analyze_degrades_on_unstable(tmp_path, capsys):
    path = write(tmp_path, "unstable.sys", UNSTABLE_SS)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "n=2 m=1 p=1, unstable" in out
    assert "unavailable:" in out  # gramian-based sections cannot run
    assert "dominant poles:" in out


def test_reduce_fixture_writes_document_and_report(tmp_path, capsys):
    out_path = str(tmp_path / "reduced.sys")
    assert main(["reduce", fixture_path(), "--out", out_path]) == 0
    stdout = capsys.readouterr().out
    assert "order 8 -> 6" in stdout
    assert "1 eliminated" in stdout
    red = load_system(out_path)
    assert isinstance(red, StateSpace)
    assert red.n == 6
    report = open(out_path + ".report").read()
    assert "method: dominant" in report
    assert "original_order: 8" in report
    assert "reduced_order: 6" in report
    assert "no dominant pole" in report
    assert "iterations: 2" in report


def test_reduce_block_diagonal_document(tmp_path, capsys):
    # a block diagonal document reduces as the state-space system it realizes
    ss = load_power_network(fixed=True)
    frac = mfd_from_state_space(ss)
    blocks = block_diagonalize(controller_canonical(frac), compute_complete_set(frac.D))
    path = str(tmp_path / "blocks.sys")
    save_document(blocks, path)
    assert isinstance(load_system(path), BlockDiagonalRealization)
    reports, re_values = [], []
    for source in (fixture_path(), path):
        out_path = str(tmp_path / "reduced.sys")
        assert main(["reduce", source, "--out", out_path]) == 0
        lines = open(out_path + ".report").read().splitlines()
        re_values.append(float(next(ln for ln in lines if ln.startswith("re_value:")).split()[1]))
        reports.append([ln for ln in lines if not ln.startswith(("re_value:", "h2_error:"))])
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert "reduced_order: 6" in reports[0]
    assert re_values[1] == pytest.approx(re_values[0], rel=1e-8)


def test_reduce_threshold_zero_echoes_input(tmp_path, capsys):
    out_path = str(tmp_path / "same.sys")
    code = main([
        "reduce", fixture_path(), "--out", out_path, "--threshold", "0",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "order 8 -> 8" in stdout
    assert "0 eliminated" in stdout
    red = load_system(out_path)
    orig = load_system(fixture_path())
    assert red.n == 8
    np.testing.assert_allclose(red.A, orig.A)
    np.testing.assert_allclose(red.C, orig.C)


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value)
    for command in ("reduce", "analyze")
    for flag, value in (("--threshold", "-1"), ("--h2-threshold", "0"),
                        ("--node-budget", "0"), ("--eps-sing", "nan"),
                        ("--k", "0"), ("--k", "-1"))
] + [("bode", "--eps-sing", "nan"), ("bode", "--eps-sing", "-1")])
def test_out_of_range_tolerance_exit_2(tmp_path, capsys, command, flag, value):
    # an out-of-range tolerance is an invariant violation, not a traceback
    # and not a silently different computation
    out_path = tmp_path / "out.sys"
    argv = [command, fixture_path(), flag, value]
    if command != "analyze":
        argv += ["--out", str(out_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out_path.exists()


def test_analyze_without_a_matrix_fraction(tmp_path, capsys):
    # n = 3 is no multiple of m = 2, so there is no matrix fraction and no
    # solvent set; the Hankel, H2 and dominant-pole sections need neither
    path = write(tmp_path, "odd.sys", ODD_ORDER)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert ("solvents:\n  unavailable: state dimension 3 is not a multiple of the "
            "input count 2\n") in out
    hankel = out.split("hankel singular values:\n")[1].split("h2 norm:")[0]
    assert len(hankel.splitlines()) == 3
    assert "dominant poles:\n  -1   dominance 1\n" in out
    assert out.count("unavailable") == 1


def test_reduce_latent_method_runs(tmp_path, capsys):
    out_path = str(tmp_path / "latent.sys")
    code = main([
        "reduce", fixture_path(), "--method", "latent", "--out", out_path,
    ])
    assert code == 0
    report = open(out_path + ".report").read()
    assert "method: latent" in report


def test_reduce_already_minimal_exit_3(tmp_path, capsys):
    path = write(tmp_path, "minimal.sys", MINIMAL_MFD)
    out_path = str(tmp_path / "out.sys")
    code = main(["reduce", path, "--method", "latent", "--out", out_path])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_reduce_unstable_exit_4(tmp_path, capsys):
    path = write(tmp_path, "unstable.sys", UNSTABLE_SS)
    out_path = str(tmp_path / "out.sys")
    assert main(["reduce", path, "--out", out_path]) == 4


def test_reduce_output_is_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.sys")
    b = str(tmp_path / "b.sys")
    assert main(["reduce", fixture_path(), "--out", a]) == 0
    assert main(["reduce", fixture_path(), "--out", b]) == 0
    capsys.readouterr()
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a + ".report", "rb").read() == open(b + ".report", "rb").read()


def test_bode_single_system_csv(tmp_path, capsys):
    path = write(tmp_path, "first.sys", FIRST_ORDER)
    code = main([
        "bode", path, "--wmin", "1", "--wmax", "1", "--points", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "omega_rad_s,mag_db_11,phase_deg_11"
    cells = lines[1].split(",")
    assert float(cells[0]) == pytest.approx(1.0)
    assert float(cells[1]) == pytest.approx(-3.0102999566398, abs=1e-9)
    assert float(cells[2]) == pytest.approx(-45.0, abs=1e-9)


def test_bode_writes_file(tmp_path, capsys):
    path = write(tmp_path, "first.sys", FIRST_ORDER)
    out_path = str(tmp_path / "resp.csv")
    code = main([
        "bode", path, "--wmin", "0.1", "--wmax", "10", "--points", "5",
        "--out", out_path,
    ])
    assert code == 0
    text = open(out_path).read()
    assert text.startswith("omega_rad_s,")
    assert len(text.strip().splitlines()) == 6


def test_bode_pole_probe_leaves_empty_row(tmp_path, capsys):
    path = write(tmp_path, "osc.sys", OSCILLATOR)
    code = main([
        "bode", path, "--wmin", "1", "--wmax", "1", "--points", "1",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert "probe at a pole" in captured.err
    row = captured.out.strip().splitlines()[1]
    assert row.split(",")[1] == ""  # magnitude cell left empty


def test_bode_two_systems_summary(tmp_path, capsys):
    out_path = str(tmp_path / "red.sys")
    assert main(["reduce", fixture_path(), "--out", out_path]) == 0
    capsys.readouterr()
    code = main([
        "bode", fixture_path(), out_path,
        "--wmin", "0.01", "--wmax", "100", "--points", "30",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "max |delta mag|" in captured.err
    header = captured.out.splitlines()[0]
    assert "mag_db_11_1" in header
    assert "mag_db_11_2" in header
    assert "phase_deg_22_2" in header


def test_bode_shape_mismatch_exit_2(tmp_path, capsys):
    a = write(tmp_path, "a.sys", FIRST_ORDER)
    wide = SIMPLE_SS.replace("m: 1", "m: 2").replace(
        "matrix B 2 1\n1\n1", "matrix B 2 2\n1 0\n1 1"
    )
    b = write(tmp_path, "wide.sys", wide)
    assert main(["bode", a, b]) == 2


def test_bode_bad_grid_exit_2(tmp_path, capsys):
    path = write(tmp_path, "first.sys", FIRST_ORDER)
    assert main(["bode", path, "--wmin", "10", "--wmax", "1"]) == 2


NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
from blockred.cli import main
plant, out = sys.argv[1], sys.argv[2]
runs = [
    ["validate", plant],
    ["analyze", plant],
    ["reduce", plant, "--method", "dominant", "--out", out + "/dominant.sys"],
    ["reduce", plant, "--method", "latent", "--out", out + "/latent.sys"],
    ["bode", plant, out + "/dominant.sys", "--points", "20", "--out", out + "/bode.csv"],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "scipy": sorted(
    name for name in sys.modules if name == "scipy" or name.startswith("scipy."))}))
"""


def test_cli_commands_run_without_scipy(tmp_path):
    # a fresh interpreter, so that modules the test session imported do not count
    env = dict(os.environ)
    src = str(Path(blockred.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, fixture_path(), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["scipy"] == []
