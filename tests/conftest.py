import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

import kneser
from kneser.bitstrings import CyclicBitstring, cycle_factor
from kneser.gluing import assemble_hamilton, build_gluing_plan

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@st.composite
def vertices(draw, min_n: int = 3, max_n: int = 12, min_k: int = 1):
    """A random CyclicBitstring with n in [min_n, max_n] and k <= (n-1)/2."""
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(min_k, (n - 1) // 2))
    seed = draw(st.integers(0, 2**32 - 1))
    ones = random.Random(seed).sample(range(n), k)
    bits = 0
    for i in ones:
        bits |= 1 << i
    return CyclicBitstring(n, k, bits)


class _Memo:
    def __init__(self, fn):
        self.fn = fn
        self.cache = {}

    def __call__(self, *key):
        if key not in self.cache:
            self.cache[key] = self.fn(*key)
        return self.cache[key]


@pytest.fixture(scope="session")
def factors():
    return _Memo(cycle_factor)


@pytest.fixture(scope="session")
def plans():
    return _Memo(lambda n, k: build_gluing_plan(n, k, full=True))


@pytest.fixture(scope="session")
def hamiltons(plans):
    return _Memo(lambda n, k: assemble_hamilton(plans(n, k)))


# The fault tables whose checks are no asserts, so that python -O, which
# strips asserts, still runs them.  One -O session runs every case, and each
# module's optimized-mode test reads the outcomes of its own tables.
OPTIMIZED = (
    "test_bitstrings.py::test_factor_rejects_a_faulty_period",
    "test_gliders.py::test_partition_rejects_a_faulty_kernel",
    "test_dynamics.py::test_dynamics_rejects_a_faulty_kernel",
    "test_dynamics.py::test_advance_rejects_a_glider_with_no_continuation",
    "test_gluing.py::test_plan_rejects_a_faulty_kernel",
    "test_gluing.py::test_rules_and_probe_reject_a_faulty_kernel",
    "test_gluing.py::test_walk_rejects_a_factor_cycle_too_short_to_splice",
    "test_gluing.py::test_walk_rejects_a_faulty_factor_cycle",
    "test_families.py::test_families_reject_a_faulty_kernel",
)


@pytest.fixture(scope="session")
def optimized_cases(tmp_path_factory):
    """Run OPTIMIZED in one python -O pytest session; the result checks that
    the given tables ran `passed` cases there and every one passed."""
    here = Path(__file__).resolve().parent
    report = tmp_path_factory.mktemp("optimized") / "report.xml"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", *(f"{here / node}" for node in OPTIMIZED)],
        capture_output=True, text=True, cwd=here.parent,
        env={**os.environ, "PYTHONPATH": str(Path(kneser.__file__).resolve().parents[1])},
    )
    outcomes = {}  # "file.py::name[id]" -> "passed", "failure", "error" or "skipped"
    for case in ET.parse(report).iter("testcase") if report.exists() else ():
        node = f"{case.get('classname').rpartition('.')[2]}.py::{case.get('name')}"
        outcomes[node] = next((child.tag for child in case
                               if child.tag in ("failure", "error", "skipped")), "passed")

    def check(*tables: str, passed: int) -> None:
        cases = {node: outcome for node, outcome in outcomes.items()
                 if node.partition("[")[0] in tables}
        failed = sorted(node for node, outcome in cases.items() if outcome != "passed")
        assert not failed and len(cases) == passed, (
            f"under python -O: {len(cases)} cases, not passed: {failed}\n"
            + proc.stdout + proc.stderr)

    return check
