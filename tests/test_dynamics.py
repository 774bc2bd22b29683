import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kneser
from conftest import vertices
from oracles import det_fractions, motion_trace_per_step, shift_glider, tau_slow

from kneser import bitstrings, dynamics
from kneser.bitstrings import CyclicBitstring, apply_f, cycle_factor, iter_bits, rotate_bits
from kneser.dynamics import (
    advance,
    capture_analysis,
    find_period,
    motion_matrix,
    motion_trace,
    render_trace,
    tau,
    trace_svg,
)
from kneser.errors import InternalConsistencyError, ParameterError
from kneser.gliders import glider_partition, train_composition


def v(s: str) -> CyclicBitstring:
    return CyclicBitstring.from_string(s)


def f_power(x: CyclicBitstring, t: int) -> CyclicBitstring:
    for _ in range(t):
        x = apply_f(x)
    return x


# -- one step -----------------------------------------------------------------


@given(vertices())
def test_advance_agrees_with_f(x):
    assert advance(x).fx == apply_f(x)


@given(vertices())
def test_bijection_respects_speed(x):
    adv = advance(x)
    old = adv.partition.gliders
    new = adv.next_partition.gliders
    assert sorted(adv.bijection) == [g.id for g in old]
    assert sorted(adv.bijection.values()) == [g.id for g in new]
    for gid, nid in adv.bijection.items():
        assert old[gid].speed == new[nid].speed


@given(vertices())
def test_movers_are_free(x):
    p = glider_partition(x)
    ana = capture_analysis(p)
    free = {g.id for g in p.gliders if g.free}
    assert ana.movers
    assert ana.movers <= free
    for gid in ana.movers:
        for copy in ana.captured[gid]:
            assert p.gliders[copy.glider].speed < p.gliders[gid].speed


@given(vertices())
def test_step_displacement_balance(x):
    """Non-movers stand still; a mover advances its own doubled speed plus
    that of every glider it traps or releases during the step."""
    adv = advance(x)
    speeds = {g.id: g.speed for g in adv.partition.gliders}
    for gid, d2 in adv.delta2s.items():
        if gid not in adv.analysis.movers:
            assert d2 == 0
            continue
        carried = sum(
            2 * speeds[d]
            for d, trapper in adv.trap_events + adv.release_events
            if trapper == gid
        )
        assert d2 == 2 * speeds[gid] + carried


# -- many steps ---------------------------------------------------------------


def test_motion_trace_scans_once_per_step(monkeypatch):
    """Each step of the first lap reads f(x) off the partition it is given
    and f(f(x)) off the partition of f(x) it builds; later steps read the
    lap again.  So T steps over an orbit of L strings make min(T, L) + 1
    matching scans.  Rendering reads each f(x) off the next record and
    makes none."""
    calls = [0]
    scan = bitstrings._scan_match

    def counting(bits, n):
        calls[0] += 1
        return scan(bits, n)

    monkeypatch.setattr(bitstrings, "_scan_match", counting)
    for s, steps in (("110101000000", 100), ("110101000000", 10),
                     ("1001010000", 100), ("1101000000", 100)):
        length = find_period(v(s)).string_period
        calls[0] = 0
        render_trace(motion_trace(v(s), steps))
        assert calls[0] == min(steps, length) + 1, (s, steps, calls[0])
    calls[0] = 0
    motion_trace(v("110101000000"), 100)
    assert calls[0] == 19  # L = 18


def _analysis_starts():
    """The start shapes of the benchmark's analysis workload: four random
    k-sets each of K(14,5), K(15,6) and K(16,5)."""
    rng = random.Random("analysis-starts")
    for n, k in ((14, 5), (15, 6), (16, 5)):
        for _ in range(4):
            yield CyclicBitstring(n, k, sum(1 << i for i in rng.sample(range(n), k)))


def test_motion_trace_matches_per_step_reference(monkeypatch):
    """Reading the first lap again gives every field a trace with one
    advance per step gives, and calls advance min(T, L) times."""
    calls = [0]
    step = dynamics.advance

    def counting(x, partition=None):
        calls[0] += 1
        return step(x, partition=partition)

    monkeypatch.setattr(dynamics, "advance", counting)
    cases = []
    for n in range(3, 12):
        for k in range(1, (n - 1) // 2 + 1):
            for c in cycle_factor(n, k).cycles:
                length = len(c)
                cases += [(CyclicBitstring(n, k, c.key), length, steps)
                          for steps in {0, 1, length - 1, length, length + 1, 3 * length + 2}]
    starts = list(_analysis_starts())
    assert [str(x) for x in starts[:2]] == ["10100011000100", "11000010000101"]
    cases += [(x, find_period(x).string_period, 1000) for x in starts]
    for x, length, steps in cases:
        calls[0] = 0
        tr = motion_trace(x, steps)
        assert calls[0] == min(steps, length), (str(x), steps)
        ref = motion_trace_per_step(x, steps)
        assert tr == ref, (str(x), steps)
        assert list(tr.counters2.items()) == list(ref.counters2.items())
    assert len(cases) == 726


@given(vertices(max_n=10))
def test_motion_trace_checks_out(x):
    steps = 2 * x.n
    tr = motion_trace(x, steps)
    assert tr.final == f_power(x, steps)
    assert len(tr.steps) == steps


@given(vertices(max_n=9))
@settings(max_examples=40)
def test_period_closes_the_orbit(x):
    per = find_period(x)
    assert per.glider_period % per.string_period == 0
    assert f_power(x, per.string_period) == x
    tr = motion_trace(x, per.glider_period)
    assert tr.final == x
    for c, (start, end) in enumerate(zip(tr.start2s, tr.pos2)):
        assert (end - start) % (2 * x.n) == 0, f"class {c} not back on its steps"


def test_period_micro():
    per = find_period(v("100100"))
    assert per.string_period == 3
    assert per.glider_period == 6


def test_single_glider_cycle_length():
    # a lone glider advances by k per step: cycle length n / gcd(n, k)
    per = find_period(v("110000000"))
    assert per.string_period == 9
    per = find_period(v("11000000"))
    assert per.string_period == 4
    assert per.glider_period == 4


# -- first-visit search ---------------------------------------------------------


def trackable(p):
    """Gliders tau accepts: free, slowest, and closing their train."""
    vmin = min(g.speed for g in p.gliders)
    comp = train_composition(p)[vmin]
    return [p.gliders[t[-1]] for t in comp.trains if p.gliders[t[-1]].free]


@pytest.mark.parametrize("n,k", [(7, 2), (7, 3), (8, 3)])
def test_tau_matches_reference_exhaustive(n, k):
    for bits in iter_bits(n, k):
        x = CyclicBitstring(n, k, bits)
        p = glider_partition(x)
        for g in trackable(p):
            for bit in (0, 1):
                fast = tau(x, g, bit, 0, partition=p)
                slow = tau_slow(x, g, bit, 0)
                assert (fast.t, fast.z) == (slow.t, slow.z), (str(x), g.id, bit)


def _shifted_start_holds(x, p, g) -> bool:
    """f of the preimage shift is f(x) with bits s1 + 1 and s2 + 1 flipped,
    which is where tau starts its second orbit."""
    n = x.n
    flips = 1 << (g.s1 + 1) % n | 1 << (g.s2 + 1) % n
    return apply_f(shift_glider(x, g, p)).bits == apply_f(x).bits ^ flips


def test_shifted_start_matches_preimage_shift_exhaustive():
    pairs = 0
    for n in range(3, 13):
        for k in range(1, (n - 1) // 2 + 1):
            for bits in iter_bits(n, k):
                x = CyclicBitstring(n, k, bits)
                p = glider_partition(x)
                for g in trackable(p):
                    assert _shifted_start_holds(x, p, g), (str(x), g.id)
                    pairs += 1
    assert pairs == 4229


def _sampled_vertex(rng: random.Random) -> CyclicBitstring:
    """Half uniform, half rotated blocks 1^a 0^a with a >= vmin split by short
    runs of zeros, so that slow gliders of every speed up to 7 turn up."""
    n = rng.randint(13, 26)
    if rng.random() < 0.5:
        k = rng.randint(1, (n - 1) // 2)
        return CyclicBitstring(n, k, sum(1 << i for i in rng.sample(range(n), k)))
    vmin = rng.randint(1, min(7, (n - 1) // 2))
    s = "1" * vmin + "0" * vmin
    while True:
        a = rng.randint(vmin, vmin + 2)
        block = "0" * rng.randint(0, 2) + "1" * a + "0" * a
        if len(s) + len(block) >= n or s.count("1") + a > (n - 1) // 2:
            break
        s += block
    x = v(s.ljust(n, "0"))
    return CyclicBitstring(n, x.k, rotate_bits(x.bits, n, rng.randrange(n)))


def test_shifted_start_matches_preimage_shift_sampled():
    rng = random.Random(11)
    speeds = set()
    pairs = 0
    while pairs < 1000:
        x = _sampled_vertex(rng)
        p = glider_partition(x)
        for g in trackable(p):
            assert _shifted_start_holds(x, p, g), (str(x), g.id)
            speeds.add(g.speed)
            pairs += 1
    assert speeds == set(range(1, 8))


@given(vertices(min_n=6, max_n=9), st.integers(0, 1), st.integers(0, 8))
@settings(max_examples=40)
def test_tau_matches_reference(x, bit, pos):
    pos %= x.n
    p = glider_partition(x)
    eligible = trackable(p)
    if not eligible:
        return
    g = eligible[pos % len(eligible)]
    fast = tau(x, g, bit, pos, partition=p)
    slow = tau_slow(x, g, bit, pos)
    assert (fast.t, fast.z) == (slow.t, slow.z)


@pytest.mark.parametrize("s,gid,message", [
    ("1101000", 1, "only a free glider can be shifted"),
    ("1101000", 0, "only a slowest glider can be shifted"),
    ("10100", 0, "the shifted glider must close its train"),
], ids=["trapped", "fast", "inside-train"])
def test_tau_refuses_an_untrackable_glider(s, gid, message):
    x = v(s)
    p = glider_partition(x)
    with pytest.raises(ParameterError, match=message):
        tau(x, p.gliders[gid], 1, 0, partition=p)


def test_train_check_matches_train_composition_exhaustive():
    """tau refuses a free slowest glider exactly when train_composition does
    not list it last in its train."""
    checked = refused = 0
    for n in range(3, 14):
        for k in range(1, (n - 1) // 2 + 1):
            for bits in iter_bits(n, k):
                p = glider_partition(CyclicBitstring(n, k, bits))
                vmin = min(g.speed for g in p.gliders)
                last = {t[-1] for t in train_composition(p)[vmin].trains}
                for g in p.gliders:
                    if not g.free or g.speed != vmin:
                        continue
                    checked += 1
                    try:
                        dynamics._require_shiftable(p, g)
                    except ParameterError as exc:
                        assert str(exc) == "the shifted glider must close its train"
                        assert g.id not in last, (bits, n, g.id)
                        refused += 1
                    else:
                        assert g.id in last, (bits, n, g.id)
    assert (checked, refused) == (12662, 3233)


# -- the average-motion matrix ---------------------------------------------------


@given(st.integers(1, 5), st.data())
def test_motion_matrix_determinant(nu, data):
    speeds = tuple(sorted(data.draw(
        st.lists(st.integers(1, 6), min_size=nu, max_size=nu))))
    k = sum(speeds)
    n = data.draw(st.integers(2 * k + 1, 3 * k + 8))
    mat, det = motion_matrix(n, speeds)
    assert det == det_fractions(mat)
    assert det != 0
    closed = (-1) ** (nu - 1) * speeds[0]
    for i in range(2, nu + 1):
        big_v = sum(2 * speeds[min(i, j + 1) - 1] for j in range(nu))
        closed *= n - big_v
    assert det == closed


def test_motion_matrix_rejects_unsorted():
    with pytest.raises(ParameterError):
        motion_matrix(9, (2, 1))


# -- rendering ------------------------------------------------------------------


def test_render_trace_smoke():
    tr = motion_trace(v("1001010000"), 10)
    lines = render_trace(tr).splitlines()
    assert lines[0].startswith("t=0")
    assert "10-1010---" in lines[0]  # annotated start vertex
    assert len(lines) == 10


def test_trace_svg_smoke():
    tr = motion_trace(v("1001010000"), 6)
    svg = trace_svg(tr)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


# -- always-on invariants ---------------------------------------------------------


def _exits_cleanly(code: str, *flags: str) -> None:
    src = str(Path(kneser.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_capture_invariant_survives_optimized_mode():
    """A capture walk whose landing staircase starts on the glider's own last
    step, a matched zero, breaks the landing order; python -O, which strips
    asserts, must still raise from advance."""
    code = (
        "from kneser import dynamics\n"
        "from kneser.bitstrings import CyclicBitstring\n"
        "from kneser.errors import InternalConsistencyError\n"
        "walk = dynamics._capture_walk\n"
        "def onto_matched_zero(m0, n, s2, v, cap):\n"
        "    sp, stair = walk(m0, n, s2, v, cap)\n"
        "    return sp, [s2, *stair[1:]]\n"
        "dynamics._capture_walk = onto_matched_zero\n"
        "try:\n"
        "    dynamics.advance(CyclicBitstring.from_string('1100000'))\n"
        "except InternalConsistencyError as e:\n"
        "    raise SystemExit(0 if 'out of order' in str(e) else repr(e))\n"
        "raise SystemExit('no InternalConsistencyError')\n"
    )
    _exits_cleanly(code, "-O")


def test_advance_rejects_a_glider_with_no_continuation(monkeypatch):
    """A mover's landing staircase shifted by one: the glider of f(x) at its
    first new step, its old B, has its true landing as down-steps instead."""
    analyse = dynamics.capture_analysis

    def landing_off_by_one(p):
        ana = analyse(p)
        m = min(ana.movers)
        return ana._replace(landing={**ana.landing, m: tuple(c + 1 for c in ana.landing[m])})

    monkeypatch.setattr(dynamics, "capture_analysis", landing_off_by_one)
    with pytest.raises(InternalConsistencyError, match="has no continuation"):
        advance(v("1001010000"))


def test_continuation_check_survives_optimized_mode():
    test = f"{Path(__file__).resolve()}::test_advance_rejects_a_glider_with_no_continuation"
    _exits_cleanly("import pytest\n"
                   f"raise SystemExit(pytest.main(['-q', '-p', 'no:cacheprovider', {test!r}]))\n",
                   "-O")


# advance steps from y = f(1001010000) = 0100101000, given a partition of y
# whose fx claims f(y) = y, a wrong string of the same weight; the step's
# checks must catch it with asserts stripped too
_WRONG_FX = (
    "from kneser.bitstrings import CyclicBitstring, apply_f\n"
    "from kneser.dynamics import advance\n"
    "from kneser.errors import InternalConsistencyError\n"
    "from kneser.gliders import glider_partition\n"
    "y = apply_f(CyclicBitstring.from_string('1001010000'))\n"
    "p = glider_partition(y)\n"
    "bad = p._replace(fx=y.bits)\n"
    "try:\n"
    "    advance(y, partition=bad)\n"
    "except InternalConsistencyError:\n"
    "    raise SystemExit(0)\n"
    "raise SystemExit('no InternalConsistencyError')\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_advance_rejects_a_wrong_fx_of_its_partition(flags):
    _exits_cleanly(_WRONG_FX, *flags)


# advance from x = 1001010000 while each partition it builds carries its own
# string as fx, so the partition of f(x) claims f(f(x)) = f(x); of advance's
# checks only the step-type image reads that fx
_WRONG_IMAGE = (
    "from kneser import dynamics\n"
    "from kneser.bitstrings import CyclicBitstring\n"
    "from kneser.errors import InternalConsistencyError\n"
    "build = dynamics.glider_partition\n"
    "dynamics.glider_partition = lambda y: build(y)._replace(fx=y.bits)\n"
    "x = CyclicBitstring.from_string('1001010000')\n"
    "try:\n"
    "    dynamics.advance(x, partition=build(x))\n"
    "except InternalConsistencyError as e:\n"
    "    raise SystemExit(0 if 'step-type image mismatch' in str(e) else repr(e))\n"
    "raise SystemExit('no InternalConsistencyError')\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_advance_rejects_a_wrong_image_of_its_next_partition(flags):
    _exits_cleanly(_WRONG_IMAGE, *flags)


# a trace of x = 1001010000 (L = 10, three gliders of speed 1) through an
# advance whose result at x reads right `clean` times and wrong after that,
# read by the items() the trace calls once per step: no times for a fault
# on the first step, once for one that only the step replaying it a lap
# later sees; `kind` names the fault
_TRACE_FAULT = (
    "from kneser import dynamics\n"
    "from kneser.bitstrings import CyclicBitstring\n"
    "from kneser.errors import InternalConsistencyError\n"
    "x = CyclicBitstring.from_string('1001010000')\n"
    "class Faulty(dict):\n"
    "    def __init__(self, good, bad, clean):\n"
    "        super().__init__(good)\n"
    "        self.bad, self.clean = bad, clean\n"
    "    def items(self):\n"
    "        self.clean -= 1\n"
    "        return dict.items(self) if self.clean >= 0 else self.bad.items()\n"
    "def motion_law(adv, clean):\n"
    "    m = min(adv.analysis.movers)\n"
    "    bad = {**adv.delta2s, m: adv.delta2s[m] + 2}\n"
    "    return adv._replace(delta2s=Faulty(adv.delta2s, bad, clean))\n"
    "def drift(adv, clean):\n"
    "    b = adv.bijection\n"
    "    return adv._replace(bijection=Faulty(b, {**b, 0: b[1], 1: b[0]}, clean))\n"
    "fault, message = {'motion law': (motion_law, 'motion law violated'),\n"
    "                  'drift': (drift, 'drifted at step')}[kind]\n"
    "step = dynamics.advance\n"
    "for clean, at in ((0, 1), (1, 11)):\n"
    "    def faulty(y, partition=None):\n"
    "        adv = step(y, partition=partition)\n"
    "        return fault(adv, clean) if y.bits == x.bits else adv\n"
    "    dynamics.advance = faulty\n"
    "    try:\n"
    "        dynamics.motion_trace(x, 25)\n"
    "    except InternalConsistencyError as e:\n"
    "        if message not in str(e) or not str(e).endswith(f'at step {at}'):\n"
    "            raise SystemExit(repr(e))\n"
    "    else:\n"
    "        raise SystemExit(f'no InternalConsistencyError with {clean} clean reads')\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("fault", ["motion law", "drift"])
def test_motion_trace_rejects_a_faulty_step(fault, flags):
    """A mover's doubled gain off by 2 breaks the motion law; a bijection
    that swaps two gliders of one speed breaks the tracked positions.  Both
    are caught on the first step, and on the step that replays it a lap
    later."""
    _exits_cleanly(f"kind = {fault!r}\n" + _TRACE_FAULT, *flags)


# the partition of x built when the orbit of 1001010000 closes has its class
# map rotated by one; advance never reads it, so only the lap's own check can
_CLOSED_ELSEWHERE = (
    "from kneser import dynamics\n"
    "from kneser.bitstrings import CyclicBitstring\n"
    "from kneser.errors import InternalConsistencyError\n"
    "x = CyclicBitstring.from_string('1001010000')\n"
    "build = dynamics.glider_partition\n"
    "built = []\n"
    "def closing_elsewhere(y):\n"
    "    p = build(y)\n"
    "    if y.bits != x.bits:\n"
    "        return p\n"
    "    built.append(p)\n"
    "    return p if len(built) == 1 else p._replace(pos_class=p.pos_class[1:] + p.pos_class[:1])\n"
    "dynamics.glider_partition = closing_elsewhere\n"
    "try:\n"
    "    dynamics.motion_trace(x, 25)\n"
    "except InternalConsistencyError as e:\n"
    "    raise SystemExit(0 if 'closed on another partition' in str(e) else repr(e))\n"
    "raise SystemExit('no InternalConsistencyError')\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_motion_trace_rejects_an_orbit_closing_on_another_partition(flags):
    _exits_cleanly(_CLOSED_ELSEWHERE, *flags)


# 1100100: glider 0, of speed 2, moves and overruns glider 1, of speed 1, at
# shift 0; its capture walk lands on 13 and 14, glider 1's on 13
_CAPTURE = "1100100"


def _patch_walk(monkeypatch, change):
    """_capture_walk with change(s2, s_plus, staircase) applied to its answer."""
    walk = dynamics._capture_walk
    monkeypatch.setattr(dynamics, "_capture_walk",
                        lambda m0, n, s2, v, cap: change(s2, *walk(m0, n, s2, v, cap)))


def _matches_every_zero(monkeypatch):
    """A partition whose f(x) marks every 0 as matched: the capture walk
    falls by n - 2k a lap and never climbs to the glider's speed."""
    x = v(_CAPTURE)
    capture_analysis(glider_partition(x)._replace(fx=~x.bits & (1 << x.n) - 1))


def _drops_a_landing_step(monkeypatch):
    _patch_walk(monkeypatch, lambda s2, sp, stair: (sp, stair[:-1]))
    advance(v(_CAPTURE))


def _lands_two_laps_on(monkeypatch):
    """Glider 0's last landing step two laps further on passes the staircase
    checks, bits and all, but glider 1 then fits its jump twice."""
    s2 = glider_partition(v(_CAPTURE)).gliders[0].s2
    _patch_walk(monkeypatch, lambda at, sp, stair: (
        (sp + 14, [*stair[:-1], sp + 14]) if at == s2 else (sp, stair)))
    advance(v(_CAPTURE))


def _lands_on_the_movers_end(monkeypatch):
    """Glider 1 lands on glider 0's last landing step, 14."""
    s2 = glider_partition(v(_CAPTURE)).gliders[1].s2
    _patch_walk(monkeypatch, lambda at, sp, stair: (14, [14]) if at == s2 else (sp, stair))
    advance(v(_CAPTURE))


def _counts_a_stratum_too_many(monkeypatch):
    bisect = dynamics.bisect_left
    monkeypatch.setattr(dynamics, "bisect_left", lambda a, x: bisect(a, x) + 1)
    advance(v(_CAPTURE))


def _patch_analysis(monkeypatch, change):
    """capture_analysis with its s_plus mapped through change(partition, analysis)."""
    analyse = dynamics.capture_analysis
    monkeypatch.setattr(dynamics, "capture_analysis", lambda p: (
        lambda ana: ana._replace(s_plus={**ana.s_plus, **change(p, ana)}))(analyse(p)))


def _moves_an_end_a_lap(monkeypatch):
    _patch_analysis(monkeypatch, lambda p, ana: {0: ana.s_plus[0] + p.x.n})
    advance(v(_CAPTURE))


def _moves_a_shared_end(monkeypatch):
    """1011000 has two movers, glider 0's jump interval starting where glider
    1's ends: glider 1's end one step on and glider 0's one step back keep
    the gains' sum, and the intervals meet at glider 0's first position."""
    _patch_analysis(monkeypatch, lambda p, ana: {0: ana.s_plus[0] - 1, 1: ana.s_plus[1] + 1})
    advance(v("1011000"))


def _patch_partition(monkeypatch, change):
    """glider_partition with change(partition) applied to its answer."""
    build = dynamics.glider_partition
    monkeypatch.setattr(dynamics, "glider_partition", lambda y: change(build(y)))


def _drops_a_glider_of_fx(monkeypatch):
    x = v("1001010000")
    p = glider_partition(x)
    _patch_partition(monkeypatch, lambda q: q._replace(gliders=q.gliders[:-1]))
    advance(x, partition=p)


def _copies_glider_0(monkeypatch):
    """Glider 1 of 1001010000 read as a second glider 0: both continue as one."""
    x = v("1001010000")
    _patch_partition(monkeypatch, lambda p: p if p.x != x else p._replace(
        gliders=(p.gliders[0], p.gliders[0]._replace(id=1), *p.gliders[2:])))
    advance(x)


def _reads_no_fx(monkeypatch):
    """A partition whose f(x) is empty has no 1 at either shift position."""
    x = v("1001010000")
    g = glider_partition(x).gliders[-1]
    _patch_partition(monkeypatch, lambda p: p._replace(fx=0))
    tau(x, g, 1, 0)


def _speeds_up_class_0(monkeypatch):
    """100100's two classes swap places every lap."""
    trace = dynamics.motion_trace
    monkeypatch.setattr(dynamics, "motion_trace", lambda y, steps: (
        lambda tr: tr._replace(speeds=(tr.speeds[0] + 1, *tr.speeds[1:])))(trace(y, steps)))
    find_period(v("100100"))


def _misses_the_determinant(monkeypatch):
    det = dynamics._bareiss_det
    monkeypatch.setattr(dynamics, "_bareiss_det", lambda m: det(m) + 1)
    motion_matrix(9, (1, 2))


@pytest.mark.parametrize("fault,message", [
    (_matches_every_zero, "capture walk exceeded its cap"),
    (_drops_a_landing_step, "landing staircase is not one step per level"),
    (_lands_two_laps_on, "more than one translate of a class fits"),
    (_lands_on_the_movers_end, "captured copy reaches its mover's end"),
    (_counts_a_stratum_too_many, "captured copy is not slower than its stratum"),
    (_moves_an_end_a_lap, "doubled position gains do not sum to 2k"),
    (_moves_a_shared_end, "jump intervals overlap mod n"),
    (_drops_a_glider_of_fx, "glider count changed across f"),
    (_copies_glider_0, "glider continuation is not a bijection"),
    (_reads_no_fx, "shift positions carry equal bits"),
    (_speeds_up_class_0, "a class moved onto a glider of another speed"),
    (_misses_the_determinant, "motion matrix determinant mismatch"),
], ids=["cap", "staircase", "translates", "end", "stratum", "gains", "intervals", "count",
        "bijection", "shift", "speed", "determinant"])
def test_dynamics_rejects_a_faulty_kernel(fault, message, monkeypatch):
    """Each fault breaks one kernel that dynamics reads and reaches one check."""
    with pytest.raises(InternalConsistencyError, match=message):
        fault(monkeypatch)


def test_dynamics_faults_are_caught_in_optimized_mode():
    """The dynamics' checks are no asserts: python -O still runs them."""
    test = f"{Path(__file__).resolve()}::test_dynamics_rejects_a_faulty_kernel"
    src = str(Path(kneser.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                          capture_output=True, text=True, cwd=Path(__file__).resolve().parents[1],
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and "12 passed" in proc.stdout, proc.stdout + proc.stderr
