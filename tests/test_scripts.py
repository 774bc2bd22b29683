"""The scripts in scripts/ run to the end on their documented options and
refuse bad ones with exit 2."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kneser

SRC = Path(kneser.__file__).resolve().parents[1]
SCRIPTS = SRC.parent / "scripts"


def _call(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def _run(script: str, *args: str) -> str:
    proc = _call(script, *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_factor_census_runs():
    out = _run("factor_census.py", "--max-n", "9", "--partitions")
    assert any(line.startswith("K(9,4):") for line in out.splitlines())


def test_overtaking_demo_runs():
    out = _run("overtaking_demo.py")
    assert "string period 18, glider period 18" in out


def test_overtaking_demo_writes_svg(tmp_path):
    svg = tmp_path / "demo.svg"
    out = _run("overtaking_demo.py", "--start", "1101000000", "--svg", str(svg))
    assert f"wrote {svg}" in out
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("args, err", [
    (["--steps", "-1"], "--steps must be nonnegative, got -1"),
    (["--start", "1111"], "--start 1111: need k >= 1 and n >= 2k+1, got n=4 k=4"),
], ids=["negative-steps", "too-many-ones"])
def test_overtaking_demo_rejects_bad_options(args, err):
    proc = _call("overtaking_demo.py", *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].endswith("error: " + err), proc.stderr


def test_mutation_probe_counts_kills_and_names_survivors():
    """A test of Kneser specs alone kills the mutant that doubles their
    vertex count and misses the two that change only the bipartite count."""
    out = _run("mutation_probe.py", "families", "vertex_count",
               "--tests", "tests/test_families.py::test_verify_tour_rejections")
    lines = out.splitlines()
    assert lines[-1] == "total: killed 1 of 3", out
    survivors = [line.split(" vertex_count: ")[1].split(" in `")[0]
                 for line in lines if line.startswith("survived ")]
    assert survivors == ["* -> //", "2 -> 3"], out


@pytest.mark.parametrize("args, err", [
    (["families", "nope", "--tests", "tests/test_families.py"], "no function nope in families.py"),
    (["nomodule", "f", "--tests", "tests/test_families.py"], "no module nomodule in src/kneser"),
    (["families", "vertex_count", "--tests", "tests/nope.py"], "no test file tests/nope.py"),
    (["families", "vertex_count", "--tests", "tests/nope.py::test_x"], "no test file tests/nope.py"),
], ids=["function", "module", "tests", "node"])
def test_mutation_probe_rejects_bad_options(args, err):
    proc = _call("mutation_probe.py", *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].endswith("error: " + err), proc.stderr
