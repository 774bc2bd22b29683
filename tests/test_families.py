import functools
import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
import types
from math import comb
from pathlib import Path

import pytest

import kneser
from kneser import dynamics, families
from kneser.bitstrings import from_string
from kneser.errors import InternalConsistencyError, ParameterError
from kneser.families import (
    GraphSpec,
    HamiltonResult,
    fallback_backtracking,
    hamilton_bipartite,
    hamilton_generalized_kneser,
    hamilton_johnson,
    hamilton_kneser,
    hamilton_tour,
    verify_tour,
)
from kneser.gluing import assemble_hamilton, build_gluing_plan
from oracles import fallback_backtracking_counts, posa_tour_positions, tour_fault_passes


def johnson_expectation(n: int, k: int, s: int) -> str:
    """Ground truth by elementary counting, independent of the library.

    Only one edge can leave a set when the forced overlap 2k-n exceeds s
    (no edges at all), or when s = 0 and n = 2k (complement matching)."""
    count = comb(n, k)
    if count == 1 or (n == 2 * k and s == 0 and count == 2):
        return "path"
    if 2 * k - n > s or (n == 2 * k and s == 0):
        return "none"
    if (n, k, s) in ((5, 2, 0), (5, 3, 1)):
        return "path"  # the Petersen graph and its complement relabeling
    return "cycle"


# -- specs and verification ------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ParameterError):
        GraphSpec("heawood", 7, 2)
    with pytest.raises(ParameterError):
        GraphSpec("kneser", 5, 0)
    with pytest.raises(ParameterError):
        GraphSpec("kneser", 5, 6)
    with pytest.raises(ParameterError):
        GraphSpec("johnson", 5, 2, -1)
    # bools are ints in Python, and a float n reached comb as a TypeError
    for n, k, s in [(5.0, 2, 0), (5, True, 0), (5, 2, 1.0), (5, 2, False)]:
        with pytest.raises(ParameterError, match="must be an integer"):
            GraphSpec("johnson", n, k, s)


def test_a_spec_keeps_s_only_where_its_family_reads_it():
    """Kneser and bipartite edges read no s, so their specs store 0 and one
    graph has one spec.  The rotation-extension search seeds its rng from
    the spec, so a K(13,6) spec with s = 1 once got another cycle."""
    assert GraphSpec("kneser", 13, 6, 1) == GraphSpec("kneser", 13, 6)
    assert GraphSpec("bipartite", 7, 2, 3) == GraphSpec("bipartite", 7, 2)
    assert GraphSpec("johnson", 9, 3, 1) != GraphSpec("johnson", 9, 3, 0)
    assert GraphSpec("gen-kneser", 9, 3, 1) != GraphSpec("gen-kneser", 9, 3, 0)
    assert hamilton_tour(GraphSpec("kneser", 13, 6, 1)) == hamilton_tour(GraphSpec("kneser", 13, 6))


def test_adjacency_semantics():
    a, b = from_string("11000"), from_string("00110")
    assert GraphSpec("kneser", 5, 2).adjacent(a, b)
    assert not GraphSpec("kneser", 5, 2).adjacent(a, from_string("01100"))
    assert GraphSpec("johnson", 5, 2, 1).adjacent(a, from_string("01100"))
    assert not GraphSpec("johnson", 5, 2, 1).adjacent(a, b)
    assert GraphSpec("gen-kneser", 5, 2, 1).adjacent(a, b)
    assert GraphSpec("gen-kneser", 5, 2, 1).adjacent(a, from_string("01100"))
    hi = GraphSpec("bipartite", 5, 2)
    assert hi.adjacent(from_string("11000"), from_string("11100"))
    assert not hi.adjacent(from_string("11000"), from_string("00111"))
    assert not hi.adjacent(a, a)


def test_verify_tour_rejections():
    spec = GraphSpec("kneser", 7, 2)
    r = hamilton_kneser(7, 2)
    good = list(r.vertices)
    assert verify_tour(spec, good, closed=True)
    assert not verify_tour(spec, good[:-1], closed=True)  # missing vertex
    assert not verify_tour(spec, good[:-1] + [good[0]], closed=True)  # repeat
    swapped = good[:]
    swapped[0], swapped[2] = swapped[2], swapped[0]
    assert not verify_tour(spec, swapped, closed=True)  # non-edge
    assert not verify_tour(spec, [good[0]] * len(good), closed=True)


def test_checked_names_the_fault():
    r = hamilton_kneser(7, 2)
    repeat = r.vertices[:-1] + r.vertices[:1]
    with pytest.raises(InternalConsistencyError, match="cycle fails .*: repeated vertex$"):
        families._checked(HamiltonResult(r.spec, "cycle", repeat, True))
    with pytest.raises(InternalConsistencyError, match="path fails .*: repeated vertex$"):
        families._checked(HamiltonResult(r.spec, "path", repeat, None))
    assert families._checked(HamiltonResult(r.spec, "path", (), False)).vertices == ()


# -- the one-pass tour check against the three-pass reference ----------------------


_FAULT_TOURS = {
    "K(9,3)": lambda: hamilton_kneser(9, 3),
    "J(9,3,1)": lambda: hamilton_johnson(9, 3, 1),
    "K(9,3,1)": lambda: hamilton_generalized_kneser(9, 3, 1),
    "H(7,2)": lambda: hamilton_bipartite(7, 2),
    "K(5,2) path": lambda: hamilton_kneser(5, 2),  # read closed, only its closing pair fails
    "K(17,7)": lambda: hamilton_kneser(17, 7),  # several chunks at the default size
    "K(12,2)": lambda: hamilton_kneser(12, 2),  # 4,096 masks for 66 vertices: a set, no byte map
}


@functools.cache
def _fault_tour(name: str) -> HamiltonResult:
    return _FAULT_TOURS[name]()


def _corrupt(rng: random.Random, spec: GraphSpec, tour: list[int], at: list[int]) -> list[int]:
    """tour with one to three corruptions, each at a position drawn from at:
    a drop, a repeat, a non-vertex or a swap."""
    seq = list(tour)
    for kind in rng.choices(["drop", "repeat", "non-vertex", "swap"], k=rng.randint(1, 3)):
        i = min(rng.choice(at), len(seq) - 1)
        if kind == "drop":
            del seq[i]
        elif kind == "repeat":
            j = rng.choice([j for j in at + [rng.randrange(len(seq))] if j < len(seq)])
            if rng.random() < 0.5:
                seq.insert(i, seq[j])
            elif i != j:
                seq[i] = seq[j]
        elif kind == "non-vertex":
            v = seq[i]  # one bit flipped or moved past n, negated, or empty
            seq[i] = rng.choice([v ^ 1 << rng.randrange(spec.n), (v & v - 1) | 1 << spec.n,
                                 -v, 0])
        else:
            j = min(rng.choice(at + [rng.randrange(len(seq))]), len(seq) - 1)
            seq[i], seq[j] = seq[j], seq[i]
    return seq


@pytest.mark.parametrize("name, chunk", [
    (name, chunk) for name in _FAULT_TOURS if name != "K(17,7)" for chunk in (1, 2, 7, None)
] + [("K(17,7)", None)])
def test_tour_fault_matches_the_reference(monkeypatch, name, chunk):
    """The one-pass check names the fault the three-pass reference names, for
    corruptions on both sides of each chunk seam, at both ends of the tour and
    at the closing pair, read closed and as a path, from a list, a tuple or a
    generator."""
    if chunk is not None:
        monkeypatch.setattr(families, "_CHUNK", chunk)
    size = families._CHUNK
    r = _fault_tour(name)
    tour = list(r.vertices)
    at = [0, size - 1, size, size + 1, len(tour) - 1]
    rng = random.Random(f"tour-fault:{name}:{chunk}")
    kinds = set()
    for case in range(150):
        seq = tour if case < 2 else _corrupt(rng, r.spec, tour, at)
        closed = case % 2 == 0
        want = tour_fault_passes(r.spec, seq, closed)
        shape = rng.choice([list, tuple, lambda s: (v for v in s)])
        assert families.tour_fault(r.spec, shape(seq), closed) == want, (case, closed)
        assert verify_tour(r.spec, shape(seq), closed) is (want is None)
        kinds.add(want and re.sub(r"[-\d]+", "#", want))
    assert kinds >= {"# vertices listed, the graph has #", "repeated vertex",
                     "# is not a vertex of this graph",
                     "positions # and #: # and # are not adjacent"}, kinds


def test_a_non_edge_across_a_chunk_seam_raises_under_python_O():
    """A glued tour with two vertices swapped just past a chunk seam fails its
    check at the seam pair even under python -O, which strips asserts."""
    n, k, at = 15, 6, families._CHUNK
    spec = GraphSpec("kneser", n, k)
    tour = list(assemble_hamilton(build_gluing_plan(n, k)))
    tour[at], tour[at + 1] = tour[at + 1], tour[at]
    want = tour_fault_passes(spec, tour)
    assert want.startswith(f"positions {at - 1} and {at}: ") and want.endswith(" not adjacent")
    code = (
        "from kneser import families\n"
        "from kneser.errors import InternalConsistencyError\n"
        "walk = families.iter_tour\n"
        "def swapped(plan):\n"
        "    tour = list(walk(plan))\n"
        f"    tour[{at}], tour[{at + 1}] = tour[{at + 1}], tour[{at}]\n"
        "    return iter(tour)\n"
        "families.iter_tour = swapped\n"
        "assert False, 'asserts run'\n"
        "try:\n"
        f"    families.hamilton_tour(families.GraphSpec('kneser', {n}, {k}))\n"
        "except InternalConsistencyError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(kneser.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"constructed cycle fails verification: {spec}: {want}\n"


def test_a_huge_ground_set_costs_no_2_to_the_n():
    """Whether a byte map fits is read off bit lengths: a one-vertex listing
    of K(10^9, 1) is refused by its count without 2^n ever being built, an
    int of 125 MB."""
    tracemalloc.start()
    try:
        fault = families.tour_fault(GraphSpec("kneser", 10**9, 1), [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fault == "1 vertices listed, the graph has 1000000000"
    assert peak < 2**20, peak


def test_a_byte_map_only_for_a_dense_graph_and_a_long_listing(monkeypatch):
    """tour_fault makes its byte map of the 2^n masks only when 2^n is at most
    16 times the graph's vertex count, and only once the listing reaches
    2^n / 1024 masks: a short listing, or any listing of a sparse graph,
    allocates no map of 2^n bytes.  A negative mask is kept off the map,
    where it would mark the mask 2^n below it."""
    sizes = []

    def spy(size):
        sizes.append(size)
        assert size <= 1 << 17, size  # never try the 2^40-byte ones
        return bytearray(size)

    monkeypatch.setattr(families, "bytearray", spy, raising=False)
    sparse = GraphSpec("kneser", 40, 2)  # 780 vertices
    assert families.tour_fault(sparse, [3, 5, 6]) == "3 vertices listed, the graph has 780"
    dense = GraphSpec("kneser", 40, 20)  # C(40, 20) is over 2^40 / 16
    short = [(1 << 20) - 1 << i for i in range(3000)]
    assert families.tour_fault(dense, short).startswith("3000 vertices listed, the graph has ")
    r = _fault_tour("K(12,2)")
    assert families.tour_fault(r.spec, r.vertices) is None
    assert sizes == []
    r = _fault_tour("K(17,7)")
    assert families.tour_fault(r.spec, r.vertices) is None
    assert families.tour_fault(r.spec, r.vertices[:-1] + r.vertices[:1]) == "repeated vertex"
    tour, top = list(r.vertices), 1 << r.spec.n
    i = next(i for i, v in enumerate(tour) if r.spec.valid_vertex(top - v))
    tour[i] = -tour[i]
    want = tour_fault_passes(r.spec, tour)
    assert want.endswith(" is not a vertex of this graph")
    assert families.tour_fault(r.spec, tour) == want
    assert sizes == [1 << 17] * 3


# -- Kneser dispatch ----------------------------------------------------------------


def test_kneser_gluing_range():
    for (n, k) in [(7, 2), (9, 3), (5, 1), (9, 1)]:
        r = hamilton_kneser(n, k)
        assert r.status == "cycle" and r.cycle_exists is True
        assert verify_tour(GraphSpec("kneser", n, k), r.vertices)


def test_kneser_sparse_fallback():
    for (n, k) in [(6, 2), (7, 3), (8, 3)]:
        r = hamilton_kneser(n, k)
        assert r.status == "cycle"
        assert verify_tour(GraphSpec("kneser", n, k), r.vertices)


def test_kneser_petersen_is_honest():
    r = hamilton_kneser(5, 2)
    assert r.status == "path"
    assert r.cycle_exists is False
    assert verify_tour(GraphSpec("kneser", 5, 2), r.vertices, closed=False)


def test_kneser_degenerate_cases():
    assert hamilton_kneser(1, 1).status == "path"
    assert hamilton_kneser(2, 1).status == "path"  # K2 has no cycle
    assert hamilton_kneser(2, 1).cycle_exists is False
    assert hamilton_kneser(3, 2).status == "none"  # edgeless
    assert hamilton_kneser(4, 2).status == "none"  # perfect matching


def test_kneser_posa_range():
    r = hamilton_kneser(9, 4)  # 126 vertices, degree 5: heuristic territory
    assert r.status == "cycle"
    assert verify_tour(GraphSpec("kneser", 9, 4), r.vertices)


def test_kneser_cap_respected():
    # an earlier default build must not answer a call with a tighter cap
    assert hamilton_kneser(8, 3).status == "cycle"
    r = hamilton_kneser(8, 3, fallback_cap=10)
    assert r.status == "unsupported"
    assert r.cycle_exists is None
    assert "cap" in r.note
    assert hamilton_kneser(8, 3).status == "cycle"  # full budget still works


@pytest.mark.parametrize("spec", [GraphSpec("kneser", 7, 3), GraphSpec("johnson", 9, 3, 1)],
                         ids=["search", "reduction"])
def test_a_nan_budget_is_a_parameter_error(spec):
    """NaN compares false with every clock reading, so it would read as a
    budget spent at once; it is refused before any build."""
    with pytest.raises(ParameterError, match="the time budget is not a number"):
        hamilton_tour(spec, fallback_secs=float("nan"))
    assert hamilton_tour(spec, fallback_secs=float("inf")).status == "cycle"


def test_kneser_fallback_budget_holds():
    # 6435 vertices of degree 8: building the neighbour table counts against the
    # budget, so a budget shorter than the build ends in the table, not the search
    t0 = time.monotonic()
    r = hamilton_kneser(15, 7, fallback_cap=20000, fallback_secs=0.005)
    elapsed = time.monotonic() - t0
    assert r.status == "timeout" and r.cycle_exists is None
    assert r.note == "search hit the time budget"
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize("spec", [
    GraphSpec("kneser", 9, 4), GraphSpec("kneser", 11, 5), GraphSpec("kneser", 13, 6),
    GraphSpec("kneser", 15, 7),
    GraphSpec("gen-kneser", 11, 5, 1),  # the union graph hamilton_generalized_kneser searches
], ids=lambda spec: f"{spec.family}-{spec.n}-{spec.k}-{spec.s}")
def test_posa_matches_position_map_reference(spec):
    """Given equal seeded rngs, the search finds the tour the position-map search finds."""
    verts = spec.vertices()
    adjacency = families._adjacency(spec, verts, time.monotonic() + 60)
    seed = f"{spec.family}:{spec.n}:{spec.k}:{spec.s}"
    got = families._posa_tour(verts, adjacency, time.monotonic() + 60, random.Random(seed))
    want = posa_tour_positions(verts, adjacency, time.monotonic() + 60, random.Random(seed))
    assert got[0] == "cycle" and got == want


@pytest.mark.parametrize("count,w", [(256, 1), (257, 2), (65536, 2), (65537, 3), (3 << 16, 3)])
def test_posa_path_codes(count, w):
    """The search's path encoding at ids 1, 2 and 3 bytes wide: _rotate finds
    each id's place, past hits that straddle two codes, and reverses the run
    after it, and _tip reads the last id of the run."""
    width, codes = families._id_codes(count)
    assert width == w and len(codes) == count and len(set(codes)) == count
    assert {len(code) for code in codes} == {2 * w - 1}
    rng = random.Random(count)
    # a run of ids made of the bytes 0, 1 and 2 alone holds codes straddling two
    small = [i for i in map(functools.partial(int.from_bytes, byteorder="little"),
                            itertools.product(range(3), repeat=w)) if i < count]
    run = list(dict.fromkeys(rng.sample(small, len(small)) + rng.sample(range(count), 20)))
    straddles = 0
    for i, v in enumerate(run):
        path = bytearray(b"".join(map(codes.__getitem__, run)))
        assert families._tip(path, w) == run[-1]
        straddles += path.find(codes[v]) != i * (2 * w - 1)  # a hit before v's own
        families._rotate(path, codes[v])
        want = run[:i + 1] + run[:i:-1]
        assert path == b"".join(map(codes.__getitem__, want))
        assert families._tip(path, w) == want[-1]
    assert (straddles > 0) == (w > 1)


def test_posa_budget_holds():
    # K(17,8) is past the exhaustive limit, its neighbour table takes about a
    # quarter of the budget and its search several budgets: the rotation loops
    # read the clock and stop
    t0 = time.monotonic()
    r = hamilton_kneser(17, 8, fallback_cap=30000, fallback_secs=0.8)
    elapsed = time.monotonic() - t0
    assert r.status == "path" or r.note == "heuristic search hit the time budget", r.note
    assert elapsed < 1.3, elapsed


def test_johnson_passes_its_remaining_budget():
    # J(15,7,0) is K(15,7); its piece gets what is left of 0.03 s, less than its
    # neighbour table takes, not a 1 s floor in which the search finds a cycle
    t0 = time.monotonic()
    r = hamilton_johnson(15, 7, 0, fallback_cap=20000, fallback_secs=0.03)
    elapsed = time.monotonic() - t0
    assert r.status == "timeout" and r.cycle_exists is None
    assert "1s" not in r.note
    assert elapsed < 0.7, elapsed


@pytest.mark.parametrize("n,k,s,cap,pieces,status", [
    (20, 9, 2, 100, 6, "unsupported"),
    (17, 7, 3, 1, 11, "unsupported"),
    (17, 7, 3, 20000, 33, "cycle"),
])
def test_johnson_stops_at_its_first_short_half(n, k, s, cap, pieces, status, monkeypatch):
    """A half that falls short ends the build before the other half is
    built: J(20,9,2) under a cap of 100 built 16 pieces, and J(17,7,3) under
    a cap of 1 built 33, while both halves were built first.  A build that
    succeeds still takes every piece."""
    built = []
    piece = families._piece
    monkeypatch.setattr(families, "_piece", lambda spec, *budget: (
        built.append(spec) or piece(spec, *budget)))
    r = hamilton_johnson(n, k, s, fallback_cap=cap)
    assert (len(built), r.status) == (pieces, status)
    if status != "cycle":
        assert r.cycle_exists is None and "exceeds the search cap" in r.note


def test_gen_kneser_pieces_share_one_budget():
    # every piece t = 1, 0 and the union search share one 0.05 s budget, and the
    # union graph's neighbour table reads the clock at every vertex
    t0 = time.monotonic()
    r = hamilton_generalized_kneser(16, 7, 1, fallback_cap=20000, fallback_secs=0.05)
    elapsed = time.monotonic() - t0
    assert r.status == "timeout" and r.cycle_exists is None
    assert elapsed < 0.4, elapsed


def test_isolated_vertex_rules_out_a_tour():
    # K(10,7,3): 120 seven-sets that always meet in four or more, so no edges
    r = hamilton_generalized_kneser(10, 7, 3)
    assert r.status == "none" and r.cycle_exists is False
    assert r.vertices == ()


def test_kneser_determinism():
    a = hamilton_kneser(9, 4)
    b = hamilton_kneser(9, 4)
    assert a is not b  # two independent builds
    assert a.vertices == b.vertices


# -- exhaustive fallback ---------------------------------------------------------------


def test_backtracking_rules_out_petersen_cycle():
    spec = GraphSpec("kneser", 5, 2)
    verts = spec.vertices()
    adjacency = {v: tuple(w for w in verts if spec.adjacent(v, w)) for v in verts}
    status, seq = fallback_backtracking(verts, adjacency, want_cycle=True)
    assert (status, seq) == ("none", None)
    status, seq = fallback_backtracking(verts, adjacency, want_cycle=False)
    assert status == "path"
    assert verify_tour(spec, seq, closed=False)


def test_backtracking_finds_small_cycle():
    verts = [0, 1, 2, 3]
    ring = {0: (1, 3), 1: (0, 2), 2: (1, 3), 3: (2, 0)}
    status, seq = fallback_backtracking(verts, ring, want_cycle=True)
    assert status == "cycle"
    assert sorted(seq) == verts


def test_backtracking_closes_a_cycle_only_on_an_edge_home():
    """A loop at c counts as one of its two connections for the prune, so
    only the closing check refuses the path a, b, c as a cycle."""
    adjacency = {"a": ("b",), "b": ("a", "c"), "c": ("b", "c")}
    assert fallback_backtracking("abc", adjacency, want_cycle=True) == ("none", None)


def _small_graphs():
    """Every graph of the four families with at most EXHAUSTIVE_LIMIT
    vertices and n <= 12: Kneser with n > 2k, Johnson and generalized Kneser
    with s < k, and every bipartite H(n, k)."""
    for n in range(1, 13):
        for k in range(1, n + 1):
            for family in ("kneser", "johnson", "gen-kneser", "bipartite"):
                for s in range(k) if family in ("johnson", "gen-kneser") else (0,):
                    spec = GraphSpec(family, n, k, s)
                    if spec.vertex_count() <= families.EXHAUSTIVE_LIMIT and (
                            family != "kneser" or n > 2 * k):
                        yield spec


def test_backtracking_matches_counting_reference():
    """The mask search returns the reference's result, cycle and path alike.
    The cycle searches of J(n, n-2, n-3) and J(8,5,4) take seconds and are
    left out."""
    slow = {GraphSpec("johnson", n, n - 2, n - 3) for n in range(3, 13)} | {
        GraphSpec("johnson", 8, 5, 4)}
    searches = 0
    for spec in _small_graphs():
        verts = spec.vertices()
        adjacency = families._adjacency(spec, verts, float("inf"))
        for want_cycle in (True, False):
            if want_cycle and spec in slow:
                continue
            got = fallback_backtracking(verts, adjacency, want_cycle)
            assert got == fallback_backtracking_counts(verts, adjacency, want_cycle), spec
            searches += 1
    assert searches == 1034


def _two_cliques(verts):
    """Adjacency of two disjoint 7-cliques on 14 vertices: no Hamilton cycle
    or path, and each start's walk runs through the 6! orders of its clique,
    so every search reads the clock."""
    return {v: tuple(w for w in half if w != v) for half in (verts[:7], verts[7:]) for v in half}


def test_backtracking_times_out_on_its_own_clock():
    """A deadline already past ends the search at the 1024th expansion of a
    start's walk: the cycle search of J(8,5,4) and the path search of two
    disjoint cliques get that far, and with no deadline both run dry."""
    spec = GraphSpec("johnson", 8, 5, 4)
    verts = spec.vertices()
    adjacency = families._adjacency(spec, verts, float("inf"))
    assert fallback_backtracking(verts, adjacency, True, time.monotonic() - 1) == ("timeout", None)
    cliques = _two_cliques(list(range(14)))
    for want_cycle in (True, False):
        assert fallback_backtracking(range(14), cliques, want_cycle, 0.0) == ("timeout", None)
        assert fallback_backtracking(range(14), cliques, want_cycle) == ("none", None)


@pytest.mark.parametrize("want_cycle,reads", [(True, 3), (False, 14 * 3)])
def test_backtracking_reads_the_clock_every_1024_expansions(want_cycle, reads, monkeypatch):
    """Each start's walk in a 7-clique meets 1957 paths from its start and so
    runs 2 * 1957 - 1 = 3913 expansions, reading the clock 3 times: once for
    the one start of a cycle search, once per start of a path search.  A
    clock that reads the deadline itself is not past it."""
    clock = []
    monkeypatch.setattr(families, "time", types.SimpleNamespace(
        monotonic=lambda: clock.append(5.0) or 5.0))
    assert fallback_backtracking(range(14), _two_cliques(list(range(14))), want_cycle,
                                 5.0) == ("none", None)
    assert len(clock) == reads


def test_search_reports_a_path_search_out_of_time(monkeypatch):
    """The clock passes the deadline between the two searches: the cycle
    search of two disjoint cliques runs dry, then the path search times out."""
    search = families.fallback_backtracking
    monkeypatch.setattr(families, "_adjacency", lambda spec, verts, deadline: _two_cliques(verts))
    monkeypatch.setattr(families, "fallback_backtracking",
                        lambda verts, adjacency, want_cycle, deadline:
                        search(verts, adjacency, want_cycle, deadline if want_cycle else 0.0))
    spec = GraphSpec("gen-kneser", 14, 1, 0)
    assert families._search_result(spec, 100, time.monotonic() + 60, "") == HamiltonResult(
        spec, "timeout", (), False, "no cycle exists; path search hit the time budget")


# -- Johnson graphs ------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_johnson_matrix(n):
    for k in range(1, n + 1):
        for s in range(0, k):
            r = hamilton_johnson(n, k, s)
            want = johnson_expectation(n, k, s)
            assert r.status == want, (n, k, s, r.status, r.note)
            if r.status != "none":
                spec = GraphSpec("johnson", n, k, s)
                assert verify_tour(spec, r.vertices, closed=(r.status == "cycle"))


def test_johnson_infeasible_pair_reports_paths():
    for (n, k, s) in [(5, 2, 0), (5, 3, 1)]:
        r = hamilton_johnson(n, k, s)
        assert r.status == "path" and r.cycle_exists is False
        assert verify_tour(GraphSpec("johnson", n, k, s), r.vertices, closed=False)


def test_johnson_complement_reduction():
    r = hamilton_johnson(9, 7, 5)  # complement of J(9, 2, 0)
    assert r.status == "cycle"
    assert verify_tour(GraphSpec("johnson", 9, 7, 5), r.vertices)


# -- generalized Kneser graphs ----------------------------------------------------------


def test_gen_kneser_views():
    r = hamilton_generalized_kneser(5, 2, 1)
    assert r.status == "cycle"
    assert verify_tour(GraphSpec("gen-kneser", 5, 2, 1), r.vertices)
    r = hamilton_generalized_kneser(6, 2, 2)  # s >= k: complete graph
    assert r.status == "cycle"
    assert verify_tour(GraphSpec("gen-kneser", 6, 2, 2), r.vertices)
    r = hamilton_generalized_kneser(5, 2, 0)  # plain Petersen again
    assert r.status == "path" and r.cycle_exists is False


def test_gen_kneser_zero_overlap_searches_once(monkeypatch):
    """K(5, 2, 0) is the Petersen graph: one cycle search and one path search."""
    calls = []
    real = families.fallback_backtracking

    def counted(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs.get("want_cycle", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(families, "fallback_backtracking", counted)
    r = hamilton_generalized_kneser(5, 2, 0)
    assert r.status == "path" and r.cycle_exists is False
    assert verify_tour(GraphSpec("gen-kneser", 5, 2, 0), r.vertices, closed=False)
    assert calls == [True, False]


def test_gen_kneser_prefers_single_overlap_class():
    # a J(n, k, t) cycle for any t <= s is reused edge for edge
    r = hamilton_generalized_kneser(8, 3, 1)
    assert r.status == "cycle"
    assert verify_tour(GraphSpec("gen-kneser", 8, 3, 1), r.vertices)


# -- bipartite containment graphs ---------------------------------------------------------


def test_bipartite_odd_count_gives_cycle():
    r = hamilton_bipartite(7, 2)  # 21 sets per side, odd
    assert r.status == "cycle"
    assert len(r.vertices) == 2 * comb(7, 2)
    assert verify_tour(GraphSpec("bipartite", 7, 2), r.vertices)


def test_bipartite_even_count_gives_path():
    r = hamilton_bipartite(6, 1)  # 6 sets per side, even
    assert r.status == "path"
    assert len(r.vertices) == 12
    assert verify_tour(GraphSpec("bipartite", 6, 1), r.vertices, closed=False)


def test_bipartite_needs_a_base_cycle():
    assert hamilton_bipartite(5, 2).status == "unsupported"
    assert hamilton_bipartite(4, 2).status == "none"


# -- always-on checks ----------------------------------------------------------------------


def _colex_piece(spec, *budget):
    """A "cycle" in colex order, whose first two sets meet."""
    return HamiltonResult(spec, "cycle", tuple(spec.vertices()), True, "colex order")


def _even_cycle_of_meeting_sets(spec, *budget):
    """An even Kneser "cycle" of two k-sets that both hold element 0."""
    first = (1 << spec.k) - 1
    return HamiltonResult(spec, "cycle", (first, first ^ 1 << spec.k - 1 ^ 1 << spec.k), True,
                          "two meeting sets")


@pytest.mark.parametrize("fake,build,message", [
    (_colex_piece, lambda: hamilton_johnson(7, 3, 1), "relabel blocks differ in size"),
    (_even_cycle_of_meeting_sets, lambda: hamilton_bipartite(7, 3),
     "even Kneser cycle without a same-parity chord"),
], ids=["relabel", "chord"])
def test_families_reject_a_faulty_kernel(fake, build, message, monkeypatch):
    """J(7,3,1) relabels its J(6,2,0) piece onto an edge of disjoint sets;
    H(7,3) joins the two interleavings of an even K(7,3) cycle at a chord
    between its sets at even places.  The faulty piece comes unchecked, as
    its check would otherwise name the fault first."""
    monkeypatch.setattr(families, "_piece", fake)
    with pytest.raises(InternalConsistencyError, match=message):
        build()


def test_families_faults_are_caught_in_optimized_mode():
    """The families' checks are no asserts: python -O still runs them."""
    here = Path(__file__).resolve().parent
    src = str(Path(kneser.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{here / 'test_families.py'}::test_families_reject_a_faulty_kernel"],
        capture_output=True, text=True, cwd=here.parent,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0 and "2 passed" in proc.stdout, proc.stdout + proc.stderr


# -- golden tours ----------------------------------------------------------------------------

# SHA-256 of the space-separated vertex bitmasks of each tour; any change to a
# tour, intended or not, shows up here and must be recorded with the change.
GOLDEN = {
    ("kneser", 9, 3, 0):
        ("cycle", "bbd2e2065277e2b6f7e3c220522885b60726d00fa806b7048eedd7e86228cb19"),
    ("kneser", 11, 4, 0):
        ("cycle", "fc613e64bd0b6c09c6dc0da9818b9f54ca4342325fa5ebdb6eecdb0ad5d25764"),
    ("kneser", 13, 5, 0):
        ("cycle", "616d751f1a0d408639f57e75f8d1f650c0587823eddb44a366728d3140b854e6"),
    ("kneser", 15, 6, 0):
        ("cycle", "a80a51d07c50f9ad452b668614f5f477353fda13a2bcebda52039ce4898ff876"),
    ("kneser", 17, 7, 0):
        ("cycle", "f2f360f547ef21880e95e92ca588dc3a970392b3b2c009e04aba230eefdbdc86"),
    ("kneser", 24, 4, 0):
        ("cycle", "2c8716cb5a99f856c21c786c0c7232df0e2e07abb4023827af069a071c97fd2b"),
    ("kneser", 7, 3, 0):
        ("cycle", "6d3a0d95add89955a6cbc2cc5e291a455fd05bfaced10e047c15070d44985420"),
    ("kneser", 13, 6, 0):
        ("cycle", "7bb89d64297fcffd0d1bb9a0601b37d78b2012eec1f09eab49633bb6df7f2bde"),
    ("kneser", 15, 7, 0):
        ("cycle", "1c5a6c8085e6340a74c539e9d07327ff095a3526c79c0f21c062f98621340ac8"),
    ("kneser", 5, 2, 0):
        ("path", "8781d7f58dafe3381e6c7a7c82dfdafa07ab8a9a514c375d895d41403233b4ae"),
    ("johnson", 12, 5, 2):
        ("cycle", "a9e4a1e2849382f2758ceecede651ce617e65339968553632d86f3e2e8c1eb44"),
    ("gen-kneser", 11, 4, 1):
        ("cycle", "63674ac32ec405db36c8b31dd4a2a4bb5826d49bed9bb0ce50ddbf1ada2a3faa"),
    ("bipartite", 10, 4, 0):
        ("path", "954b1d810a2f8b23cb4ffd4ea56a205c67ac4812e39845a1b52161501020ec09"),
}


def test_golden_tour_digests():
    for (family, n, k, s), (status, digest) in GOLDEN.items():
        r = hamilton_tour(GraphSpec(family, n, k, s))
        got = hashlib.sha256(" ".join(map(str, r.vertices)).encode()).hexdigest()
        assert (r.status, got) == (status, digest), (family, n, k, s)


def test_construction_runs_without_advance(monkeypatch):
    """The two-way probes of the plan track their glider without the
    capture analysis: with advance broken, K(17,7) still gives its golden
    tour."""

    def broken(*args, **kwargs):
        raise AssertionError("advance reached from the construction")

    monkeypatch.setattr(dynamics, "advance", broken)
    r = hamilton_kneser(17, 7)
    got = hashlib.sha256(" ".join(map(str, r.vertices)).encode()).hexdigest()
    assert (r.status, got) == GOLDEN[("kneser", 17, 7, 0)]


# -- one front door -------------------------------------------------------------------------


def test_hamilton_tour_dispatch():
    for spec in [
        GraphSpec("kneser", 7, 2),
        GraphSpec("johnson", 7, 2, 1),
        GraphSpec("gen-kneser", 7, 2, 1),
        GraphSpec("bipartite", 7, 2),
    ]:
        r = hamilton_tour(spec)
        assert r.spec == spec
        assert r.status == "cycle"
        assert verify_tour(spec, r.vertices)


# -- the public surface -------------------------------------------------------------------


def test_public_names_are_documented():
    """Everything kneser exports imports by name and is named in the README's API list."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library API", 1)[1].split("\n## ", 1)[0]
    named = {tok for span in re.findall(r"`([^`]+)`", section)
             for tok in re.findall(r"[A-Za-z_]\w*", span)}
    for name in kneser.__all__:
        assert hasattr(kneser, name), name
        assert name in named, f"{name} is exported but not in the README's API list"
