"""The CLI outcomes on the bundled power networks, pinned in
network_outcomes.json.

Every word of the output compares exactly: orders, iteration counts,
eliminated labels, headers.  Every decimal number compares to 1e-9
relative: RE, H2, the Hankel values, the H2 norm and the Bode cells.  After
a deliberate change of outcome, rewrite the file with
`PYTHONPATH=src python tests/test_network_outcomes.py`.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from blockred.cli import main
from blockred.data import data_path

EXPECTED = Path(__file__).with_name("network_outcomes.json")
NETWORKS = ("power_network_8", "power_network_8_fixed")
REDUCE_VARIANTS = {
    "dominant": [],
    "trim": ["--trim-eigen"],
    "trim_h2": ["--trim-eigen", "--h2-threshold", "0.5"],
    "latent": ["--method", "latent"],
    "latent_power2": ["--method", "latent", "--hankel-power", "2"],
}


def _run(argv):
    """Exit code, stdout and stderr of one in-process CLI call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def _outcomes(folder):
    """Text of every pinned run, by name; reduce runs include their report."""
    found = {}
    for net in NETWORKS:
        plant = str(data_path(net + ".sys"))
        for name, flags in REDUCE_VARIANTS.items():
            out = str(Path(folder) / f"{net}.{name}.sys")
            text = _run(["reduce", plant, "--out", out] + flags)
            found[f"{net} reduce {name}"] = text + Path(out + ".report").read_text()
        found[f"{net} analyze"] = _run(["analyze", plant])
        found[f"{net} analyze --k 3"] = _run(["analyze", plant, "--k", "3"])
    plant = str(data_path("power_network_8_fixed.sys"))
    reduced = str(Path(folder) / "power_network_8_fixed.dominant.sys")
    found["power_network_8_fixed bode"] = _run(
        ["bode", plant, reduced, "--wmin", "0.1", "--wmax", "100", "--points", "4"])
    return found


def _tokens(text):
    return text.replace(",", " , ").split()


def _decimal(token):
    """The token's value when it is a decimal number, else None."""
    if not any(c in token for c in ".e"):
        return None
    try:
        return float(token)
    except ValueError:
        return None


def test_network_outcomes_are_pinned(tmp_path):
    expected = json.loads(EXPECTED.read_text())
    found = _outcomes(tmp_path)
    assert sorted(found) == sorted(expected)
    for name, text in expected.items():
        want, got = _tokens(text), _tokens(found[name])
        assert len(got) == len(want), name
        for w, g in zip(want, got):
            value = _decimal(w)
            if value is None:
                assert g == w, name
            else:
                assert float(g) == pytest.approx(value, rel=1e-9), name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        EXPECTED.write_text(json.dumps(_outcomes(folder), indent=1) + "\n")
