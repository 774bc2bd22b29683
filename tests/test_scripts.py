"""The scripts in scripts/ run to the end on their documented options."""

import os
import subprocess
import sys
from pathlib import Path

import kneser

SRC = Path(kneser.__file__).resolve().parents[1]
SCRIPTS = SRC.parent / "scripts"


def _run(script: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_factor_census_runs():
    out = _run("factor_census.py", "--max-n", "9", "--partitions")
    assert any(line.startswith("K(9,4):") for line in out.splitlines())


def test_overtaking_demo_runs():
    out = _run("overtaking_demo.py")
    assert "string period 18, glider period 18" in out
