"""The result records are immutable named tuples with short reprs, and
importing the CLI loads neither dataclasses nor inspect."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kneser
from kneser.bitstrings import Cycle, CyclicBitstring, cycle_factor, iter_bits, parenthesis_match
from kneser.dynamics import advance, capture_analysis, find_period, motion_trace, tau
from kneser.errors import ParameterError
from kneser.families import GraphSpec, hamilton_kneser
from kneser.gliders import glider_partition, train_composition
from kneser.gluing import build_gluing_plan

# every record but Cycle, which is a plain tuple subclass, by module
NAMED = {
    "CyclicBitstring", "Matching", "CycleFactor",
    "Glider", "GliderPartition", "TrainComposition",
    "CapturedCopy", "CaptureAnalysis", "AdvanceResult", "MotionStep", "MotionTrace",
    "OrbitPeriod", "TauResult",
    "RewriteMatch", "GluingPlan",
    "GraphSpec", "HamiltonResult",
}
# the fields each record leaves out of its repr
HIDDEN = {
    "CycleFactor": ("necklaces", "classes"),
    "GliderPartition": ("pos_class",),
    "CaptureAnalysis": ("partition",),
    "AdvanceResult": ("partition", "next_partition", "analysis"),
    "GluingPlan": ("factor", "rewrites", "tree", "at"),
}


@pytest.fixture(scope="module")
def records():
    """One instance of each named-tuple record, by type name."""
    x = CyclicBitstring.from_string("1101000100000")
    p = glider_partition(x)
    trace = motion_trace(x, 3)
    plan = build_gluing_plan(13, 5)
    one = CyclicBitstring.from_string("1000000")
    captured = next(
        c for bits in iter_bits(13, 5)
        for cs in capture_analysis(glider_partition(CyclicBitstring(13, 5, bits))).captured.values()
        for c in cs
    )
    found = [
        x, parenthesis_match(x), plan.factor,
        p.gliders[0], p, next(iter(train_composition(p).values())),
        captured, capture_analysis(p), advance(x), trace.steps[0], trace, find_period(x),
        tau(one, glider_partition(one).gliders[0], 1, 0),
        plan.rewrites[0], plan, GraphSpec("kneser", 7, 3), hamilton_kneser(7, 3),
    ]
    return {type(r).__name__: r for r in found}


def test_records_are_named_tuples(records):
    assert set(records) == NAMED
    for name, r in records.items():
        assert isinstance(r, tuple) and r._fields, name


def test_fields_cannot_be_assigned(records):
    for name in ("CyclicBitstring", "GraphSpec", "HamiltonResult", "CycleFactor", "GluingPlan"):
        r = records[name]
        with pytest.raises(AttributeError):
            setattr(r, r._fields[0], None)
        with pytest.raises(AttributeError):
            r.extra = None


def test_replace_changes_one_field_and_keeps_the_type(records):
    marker = object()
    for name, r in records.items():
        for i, f in enumerate(r._fields):
            new = r._replace(**{f: marker})
            assert type(new) is type(r), (name, f)
            assert new[i] is marker and new[:i] == r[:i] and new[i + 1:] == r[i + 1:], (name, f)
    tour = records["HamiltonResult"]._replace(note="x")
    assert tour.note == "x" and len(tour.vertices) == 35


def test_cycle_is_the_tuple_of_its_vertices():
    f = cycle_factor(9, 3)
    assert sum(len(c) for c in f.cycles) == 84
    for c in f.cycles:
        assert len(c) == len(c.vertices) == len(tuple(c))
        assert c.vertices == tuple(c) and c.key == c[0]
    c = f.cycles[0]
    short = c._replace(vertices=c.vertices[:2])
    assert type(short) is Cycle and short == c[:2] and len(short) == 2


def test_reprs_leave_out_the_hidden_fields(records):
    for name, hidden in HIDDEN.items():
        text = repr(records[name])
        assert text.startswith(f"{name}("), text
        for f in records[name]._fields:
            assert bool(re.search(rf"\b{f}=", text)) == (f not in hidden), (name, f)
    plan = records["GluingPlan"]
    assert (plan.n, plan.k) == (13, 5) and len(repr(plan)) < 200


def test_checked_records_still_refuse_bad_values():
    with pytest.raises(ParameterError):
        CyclicBitstring(5, 2, 0b111)
    with pytest.raises(ParameterError):
        GraphSpec("kneser", 3, 4)
    assert GraphSpec("johnson", 7, 3) == ("johnson", 7, 3, 0)


def test_cli_import_loads_no_dataclasses():
    """A @dataclass anywhere on the CLI's import path would load dataclasses,
    and with it inspect, on every request."""
    code = "import kneser.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(Path(kneser.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
