import os
import random
import subprocess
import sys
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given

import kneser
from kneser import gliders
from conftest import vertices
from oracles import glider_partition_recursive, speed_multiset_recursive, train_composition_cyclic
from kneser.bitstrings import (
    CyclicBitstring,
    descent_count,
    iter_bits,
    parenthesis_match,
    rotate_bits,
)
from kneser.errors import InternalConsistencyError
from kneser.gliders import (
    glider_partition,
    render_gliders,
    speed_multiset_direct,
    speed_partition,
    train_composition,
)

SMALL = [(5, 2), (7, 3), (8, 3), (9, 4), (9, 3), (11, 5)]


def v(s: str) -> CyclicBitstring:
    return CyclicBitstring.from_string(s)


# -- Motzkin path of the matching ----------------------------------------------


@given(vertices())
def test_motzkin_shape(x):
    # read from the anchor on, a 1 steps up, a matched 0 down and an
    # unmatched 0 flat: a Motzkin walk with k up and k down steps
    m = parenthesis_match(x)
    steps = [
        (m.bits >> i & 1) - (m.matched_zeros >> i & 1)
        for i in (j % x.n for j in range(m.anchor + 1, m.anchor + 1 + x.n))
    ]
    counts = Counter(steps)
    assert counts[1] == x.k
    assert counts[-1] == x.k
    assert counts[0] == x.n - 2 * x.k
    heights = list(accumulate(steps))
    assert min(heights) >= 0
    assert heights[-1] == 0


# -- glider partition ----------------------------------------------------------


@given(vertices())
def test_partition_covers_matched_positions(x):
    p = glider_partition(x)
    seen: dict[int, int] = {}
    for g in p.gliders:
        assert len(g.A) == len(g.B) == g.speed >= 1
        for pos in g.A + g.B:
            assert (pos % x.n) not in seen
            seen[pos % x.n] = g.id
    assert len(seen) == 2 * x.k
    for pos, gid in seen.items():
        assert p.pos_class[pos] == gid
    for pos in range(x.n):
        if pos not in seen:
            assert p.pos_class[pos] == -1


@given(vertices())
def test_step_bits(x):
    """Up-steps carry 1s and down-steps 0s; an inverted glider swaps them."""
    p = glider_partition(x)
    for g in p.gliders:
        up, down = (0, 1) if g.inverted else (1, 0)
        assert all(x.bits >> a % x.n & 1 == up for a in g.A)
        assert all(x.bits >> b % x.n & 1 == down for b in g.B)


@given(vertices())
def test_glider_count_is_descent_count(x):
    p = glider_partition(x)
    assert len(p.gliders) == descent_count(x.bits, x.n)


@given(vertices())
def test_speeds_sum_to_k(x):
    assert sum(glider_partition(x).speeds()) == x.k


@given(vertices())
def test_speed_multiset_two_ways(x):
    p = glider_partition(x)
    assert p.speeds() == speed_multiset_direct(x)


@pytest.mark.parametrize("n,k", SMALL)
def test_speed_multiset_two_ways_exhaustive(n, k):
    for bits in iter_bits(n, k):
        x = CyclicBitstring(n, k, bits)
        assert glider_partition(x).speeds() == speed_multiset_direct(x)


def _all_strings(max_n: int):
    for n in range(3, max_n + 1):
        for k in range(1, (n - 1) // 2 + 1):
            for bits in iter_bits(n, k):
                yield CyclicBitstring(n, k, bits)


def test_partition_matches_recursive_reference_exhaustive():
    # partitions compare every field: anchor, pos_class, and each glider's
    # id, A, B, parent, via_dent, inversion and trapping set
    count = 0
    for x in _all_strings(14):
        p = glider_partition(x)
        assert p == glider_partition_recursive(x), x
        assert [g.s0 for g in p.gliders] == sorted(g.s0 for g in p.gliders), x
        count += 1
    assert count == 14_016


def test_partition_matches_recursive_reference_sampled():
    rng = random.Random(12)
    for _ in range(1_000):
        n = rng.randint(15, 40)
        k = rng.randint(1, (n - 1) // 2)
        x = CyclicBitstring(n, k, sum(1 << i for i in rng.sample(range(n), k)))
        assert glider_partition(x) == glider_partition_recursive(x), x


def _same_trains(x):
    p = glider_partition(x)
    assert list(train_composition(p).items()) == list(train_composition_cyclic(p).items()), x


def test_train_composition_matches_cyclic_reference_exhaustive():
    count = 0
    for x in _all_strings(14):
        _same_trains(x)
        count += 1
    assert count == 14_016


def test_train_composition_matches_cyclic_reference_sampled():
    rng = random.Random(13)
    for _ in range(1_000):
        n = rng.randint(15, 40)
        k = rng.randint(1, (n - 1) // 2)
        _same_trains(CyclicBitstring(n, k, sum(1 << i for i in rng.sample(range(n), k))))


def test_speed_multiset_matches_recursive_reference():
    count = 0
    for x in _all_strings(16):
        assert speed_multiset_direct(x) == speed_multiset_recursive(x), x
        count += 1
    assert count == 56_731


@given(vertices())
def test_speed_partition_sorted(x):
    part = speed_partition(glider_partition(x))
    assert part == tuple(sorted(part, reverse=True))
    assert tuple(sorted(part)) == glider_partition(x).speeds()


@given(vertices())
def test_trapped_gliders_are_slower(x):
    p = glider_partition(x)
    for g in p.gliders:
        for t in g.trapped_by:
            assert p.gliders[t].speed > g.speed


@given(vertices())
def test_children_are_slower(x):
    # so gliders of one speed never nest, which train_composition relies on
    p = glider_partition(x)
    for g in p.gliders:
        if g.parent is not None:
            assert p.gliders[g.parent].speed > g.speed


def test_render_gliders_smoke():
    out = render_gliders(glider_partition(v("110010000")))
    assert "speed" in out and out.count("\n") >= 2


# -- trains --------------------------------------------------------------------


@given(vertices())
def test_train_composition_shape(x):
    p = glider_partition(x)
    comp = train_composition(p)
    mult = Counter(p.speeds())
    assert set(comp) == set(mult)
    for speed, tc in comp.items():
        assert sum(tc.composition) == mult[speed]
        assert sum(len(t) for t in tc.trains) == mult[speed]
        for train in tc.trains:
            assert all(p.gliders[g].speed == speed for g in train)


@given(vertices())
def test_train_composition_rotation_invariant(x):
    want = {s: tc.composition for s, tc in train_composition(glider_partition(x)).items()}
    y = CyclicBitstring(x.n, x.k, rotate_bits(x.bits, x.n, 3))
    got = {s: tc.composition for s, tc in train_composition(glider_partition(y)).items()}
    assert got == want


def test_trains_separate_equal_speeds():
    # two adjacent speed-1 gliders form one train; an unmatched zero between
    # the blocks splits them into singleton trains
    coupled = train_composition(glider_partition(v("101000")))
    assert coupled[1].composition == (2,)
    split = train_composition(glider_partition(v("100100")))
    assert split[1].composition == (1, 1)


@pytest.mark.parametrize("zeros,message,v_message", [
    (0b100, "an unmatched zero inside an excursion", None),
    (0b110, "the walk does not return to zero at the anchor", "the walk dips below zero"),
    (0, "the walk does not return to zero at the anchor",
     "the walk does not return to zero at the anchor"),
], ids=["4", "6", "0"])
def test_faulty_matched_zeros_raise(monkeypatch, zeros, message, v_message):
    """The 1 of 1000000 closes on position 1.  Closing it on position 2
    leaves an unmatched zero inside the excursion, closing two zeros takes
    the walk below zero, which V's stack sees and the partition reads as a
    walk that ends off zero, and closing none leaves it open at the anchor."""
    def faulty(x):
        return parenthesis_match(x)._replace(matched_zeros=zeros)

    monkeypatch.setattr(gliders, "parenthesis_match", faulty)
    with pytest.raises(InternalConsistencyError, match=message):
        glider_partition(v("1000000"))
    if v_message:  # V reads only the nesting, which is still sound at 0b100
        with pytest.raises(InternalConsistencyError, match=v_message):
            speed_multiset_direct(v("1000000"))


def test_glider_invariant_survives_optimized_mode():
    """A matching that reports a matched position as its anchor leaves the
    walk open at the end of the window; python -O, which strips asserts, must
    still raise instead of returning a speed multiset or a partition."""
    code = (
        "from kneser import gliders\n"
        "from kneser.bitstrings import CyclicBitstring, parenthesis_match\n"
        "from kneser.errors import InternalConsistencyError\n"
        "def faulty(x):  # reports position 0, a 1, as the anchor\n"
        "    return parenthesis_match(x)._replace(anchor=0)\n"
        "gliders.parenthesis_match = faulty\n"
        "x = CyclicBitstring.from_string('110100000')\n"
        "for fn in (gliders.speed_multiset_direct, gliders.glider_partition):\n"
        "    try:\n"
        "        print(fn(x))\n"
        "    except InternalConsistencyError as e:\n"
        "        if 'the anchor must close the window unmatched' in str(e):\n"
        "            continue\n"
        "        raise SystemExit(repr(e))\n"
        "    raise SystemExit(f'no InternalConsistencyError from {fn.__name__}')\n"
    )
    src = str(Path(kneser.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _counts_a_descent_too_many(monkeypatch):
    monkeypatch.setattr(gliders, "descent_count", lambda bits, n: descent_count(bits, n) + 1)
    glider_partition(v("1001010000"))


def _pairs_two_unmatched_zeros(monkeypatch):
    """A window reading the first two adjacent unmatched zeros as a matched
    10 pair: the walk still returns to zero, one extra 1 up."""
    window = gliders._window
    monkeypatch.setattr(gliders, "_window", lambda x: (
        lambda a, fx, w: (a, fx, w.replace("--", "10", 1)))(*window(x)))
    glider_partition(v("1000000"))


def _starts_each_slot_a_step_early(monkeypatch):
    """A child region of 1101000 then starts on its parent's step, which the
    child's glider claims again."""
    pairs = gliders.pairwise
    monkeypatch.setattr(gliders, "pairwise", lambda steps: ((u - 1, w) for u, w in pairs(steps)))
    glider_partition(v("1101000"))


@pytest.mark.parametrize("fault,message", [
    (_counts_a_descent_too_many, "!= descent count"),
    (_pairs_two_unmatched_zeros, "glider speeds do not sum to k"),
    (_starts_each_slot_a_step_early, "two gliders claim one position"),
], ids=["count", "speeds", "claim"])
def test_partition_rejects_a_faulty_kernel(fault, message, monkeypatch):
    with pytest.raises(InternalConsistencyError, match=message):
        fault(monkeypatch)


def test_partition_faults_are_caught_in_optimized_mode():
    """The partition's checks are no asserts: python -O still runs them."""
    test = f"{Path(__file__).resolve()}::test_partition_rejects_a_faulty_kernel"
    src = str(Path(kneser.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                          capture_output=True, text=True, cwd=Path(__file__).resolve().parents[1],
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and "3 passed" in proc.stdout, proc.stdout + proc.stderr
