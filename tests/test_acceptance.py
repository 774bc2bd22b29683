"""Acceptance gate: one test per advertised guarantee.

Each test prints a single PASS line (visible with -s) and fails loudly
otherwise.  Matrices are bounded where a guarantee quantifies over an
unbounded family; the bounds are chosen to include every named instance
and the largest cases that finish in CI time.
"""

import time
from math import comb

from oracles import box, cyclic_equal, det_fractions

from kneser.bitstrings import (
    CyclicBitstring,
    apply_f,
    cycle_factor,
    descent_count,
    from_string,
    iter_bits,
    rotate_bits,
    to_string,
)
from kneser.dynamics import find_period, motion_matrix, motion_trace
from kneser.families import (
    GraphSpec,
    fallback_backtracking,
    hamilton_johnson,
    hamilton_kneser,
    hamilton_tour,
    verify_tour,
)
from kneser.gliders import (
    glider_partition,
    speed_multiset_direct,
    speed_partition,
    train_composition,
)
from kneser.gluing import connector_partners, is_connector

LISTED = [(7, 2), (9, 3), (11, 4), (13, 5), (15, 6), (17, 7), (19, 8), (21, 9)]
PER_INSTANCE_SECS = 600.0


def _sweep() -> list[tuple[int, int]]:
    pairs = []
    for k in range(1, 7):
        for n in range(2 * k + 3, 2 * k + 9):
            if comb(n, k) <= 6000:
                pairs.append((n, k))
    return pairs


RANGE_DENSE = list(dict.fromkeys(_sweep() + LISTED))


def _partition_of(x: CyclicBitstring) -> tuple[int, ...]:
    return speed_partition(glider_partition(x))


def test_criterion_1_generate_and_verify_dense_range():
    worst = 0.0
    for n, k in RANGE_DENSE:
        spec = GraphSpec("kneser", n, k)
        t0 = time.monotonic()
        r = hamilton_tour(spec)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert elapsed < PER_INSTANCE_SECS, (n, k, elapsed)
        assert r.status == "cycle", (n, k, r.status, r.note)
        assert len(r.vertices) == comb(n, k) == len(set(r.vertices))
        assert verify_tour(spec, r.vertices, closed=True), (n, k)
    print(f"criterion 1 PASS: {len(RANGE_DENSE)} instances up to "
          f"K(21,9), worst {worst:.1f}s per instance")


def test_criterion_2_cycle_factor_range(factors):
    for n, k in RANGE_DENSE:
        f = factors(n, k)
        assert all(len(c) >= 3 for c in f.cycles), (n, k)
        seen = [b for c in f.cycles for b in c.vertices]
        assert len(seen) == comb(n, k) == len(set(seen))
        assert set(seen) == set(iter_bits(n, k))
    f = factors(5, 2)
    want = [
        ["10100", "01010", "00101", "10010", "01001"],
        ["11000", "00110", "10001", "01100", "00011"],
    ]
    got = [[to_string(b, 5) for b in c.vertices] for c in f.cycles]
    assert len(got) == 2
    hits = {next(j for j, w in enumerate(want) if cyclic_equal(g, w)) for g in got}
    assert hits == {0, 1}
    print(f"criterion 2 PASS: factor partitions {len(RANGE_DENSE)} instances, "
          "K(5,2) matches the two pentagon orbits exactly")


INVARIANCE = ([(n, k) for n in range(3, 17) for k in range(1, (n - 1) // 2 + 1)]
              + [(17, 7), (17, 8), (18, 8), (19, 9)])


def test_criterion_3_invariants_constant_along_cycles(factors):
    checked = 0
    for n, k in INVARIANCE:
        assert comb(n, k) <= 10 ** 5
        for c in factors(n, k).cycles:
            ref = CyclicBitstring(n, k, c.key)
            pk = glider_partition(ref)
            v_ref = speed_partition(pk)
            z_ref = {s: tc.composition for s, tc in train_composition(pk).items()}
            d_ref = descent_count(c.key, n)
            assert len(v_ref) == d_ref
            for bits in c.vertices:
                x = CyclicBitstring(n, k, bits)
                p = glider_partition(x)
                assert speed_partition(p) == v_ref
                assert speed_multiset_direct(x) == p.speeds()
                assert {s: tc.composition
                        for s, tc in train_composition(p).items()} == z_ref
                assert descent_count(bits, n) == d_ref
                checked += 1
    print(f"criterion 3 PASS: V, Z, d constant on every cycle, "
          f"V agreed two ways at {checked} vertices")


DYNAMICS = [(n, k) for n in range(3, 17) for k in range(1, (n - 1) // 2 + 1)
            if comb(n, k) <= 10 ** 4]


def test_criterion_4_full_period_dynamics(factors):
    matrices: set[tuple[int, tuple[int, ...]]] = set()
    traced = 0
    for n, k in DYNAMICS:
        for c in factors(n, k).cycles:
            x = CyclicBitstring(n, k, c.key)
            per = find_period(x)
            assert per.string_period == len(c)
            assert per.glider_period % per.string_period == 0
            tr = motion_trace(x, per.glider_period)
            assert tr.final == x
            for start, end in zip(tr.start2s, tr.pos2):
                assert (end - start) % (2 * n) == 0
            matrices.add((n, tuple(sorted(tr.speeds))))
            traced += 1
    for n, speeds in matrices:
        mat, det = motion_matrix(n, speeds)
        assert det == det_fractions(mat)
        assert det != 0
        nu = len(speeds)
        closed = (-1) ** (nu - 1) * speeds[0]
        for i in range(2, nu + 1):
            closed *= n - sum(2 * speeds[min(i, j + 1) - 1] for j in range(nu))
        assert det == closed
    print(f"criterion 4 PASS: {traced} orbits traced over a full glider "
          f"period, {len(matrices)} interaction matrices nonsingular")


CONNECTOR_PAIRS = [(7, 2), (9, 3), (11, 4), (13, 5)]


def test_criterion_5_connector_structure(plans):
    for n, k in CONNECTOR_PAIRS:
        plan = plans(n, k)
        ell = n - 2 * k

        ends = [w for rm in plan.rewrites for w in (rm.x.bits, rm.image.bits)]
        assert len(ends) == len(set(ends)), (n, k, "rewrite endpoints collide")
        for rm in plan.rewrites:
            assert is_connector(rm.x, rm.image)

        # single-glider rewrite images sit in the window p+2 .. p+l+1, the
        # rotation pairs start past it and never reuse a rewrite endpoint
        s_index = {rotate_bits((1 << k) - 1, n, i): i for i in range(n)}
        window = {(plan.anchor + 2 + j) % n for j in range(ell)}
        for rm in plan.rewrites:
            for w in (rm.x.bits, rm.image.bits):
                if w in s_index:
                    assert s_index[w] in window
        used = {s_index[a.bits] for a, _ in plan.rotation_pairs}
        used |= {s_index[b.bits] for _, b in plan.rotation_pairs}
        assert not used & window
        for a, b in plan.rotation_pairs:
            assert a.bits not in ends and b.bits not in ends

        cycles = plan.factor.cycles
        assert len(plan.tree) + len(plan.rotation_pairs) + 1 == len(cycles)
        parent = list(range(len(cycles)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        at = {b: i for i, c in enumerate(cycles) for b in c.vertices}
        joints = [(rm.x.bits, rm.image.bits) for rm in plan.tree]
        joints += [(a.bits, b.bits) for a, b in plan.rotation_pairs]
        for u, w in joints:
            ru, rw = find(at[u]), find(at[w])
            assert ru != rw, (n, k, "splice closes a cycle among cycles")
            parent[ru] = rw
        assert len({find(i) for i in range(len(cycles))}) == 1

        for rm in plan.rewrites:
            src = _partition_of(rm.x)
            dst = _partition_of(rm.image)
            vs = glider_partition(rm.x).speeds()
            if rm.family == 2:
                assert vs[0] % 2 == 0 and dst == box(src, -1)
            elif rm.family == 4:
                assert vs[0] % 2 == 1
                assert dst == (box(src, -1) if vs[0] >= 3 else src)
            elif rm.family == 9:
                assert sorted(dst) == sorted(src)
            elif rm.family in (6, 7, 8):
                assert dst > box(src, 1)
            else:
                assert dst > src
                if rm.family == 1 and len(vs) >= 3 and vs[2] > vs[1]:
                    assert dst > box(src, 1)
    print(f"criterion 5 PASS: connector disjointness, window separation, "
          f"spanning trees, and partition directions hold on {CONNECTOR_PAIRS}")


def test_criterion_6_worked_micro_examples(factors, plans):
    x = CyclicBitstring.from_string("100000101")
    assert to_string(apply_f(x).bits, 9) == "011000010"

    f = factors(5, 2)
    want = [
        ["10100", "01010", "00101", "10010", "01001"],
        ["11000", "00110", "10001", "01100", "00011"],
    ]
    got = [[to_string(b, 5) for b in c.vertices] for c in f.cycles]
    assert {next(j for j, w in enumerate(want) if cyclic_equal(g, w))
            for g in got} == {0, 1}

    assert descent_count(from_string("001100010001"), 12) == 3

    per = find_period(CyclicBitstring.from_string("100100"))
    assert per.string_period == 3 and per.glider_period == 6

    pairs = {frozenset((_partition_of(rm.x), _partition_of(rm.image)))
             for rm in plans(13, 5).rewrites}
    assert frozenset(((3, 1, 1), (3, 2))) in pairs

    hub = CyclicBitstring.from_string("10101010000000")
    assert len(connector_partners(hub)) == 20
    print("criterion 6 PASS: all six worked micro examples reproduce")


JOHNSON_SPOTS = [(30, 2, 0), (30, 2, 1), (25, 3, 1), (20, 4, 2),
                 (16, 5, 3), (17, 8, 6)]


def johnson_expectation(n: int, k: int, s: int) -> str:
    count = comb(n, k)
    if count == 1 or (n == 2 * k and s == 0 and count == 2):
        return "path"
    if 2 * k - n > s or (n == 2 * k and s == 0):
        return "none"
    if (n, k, s) in ((5, 2, 0), (5, 3, 1)):
        return "path"
    return "cycle"


def test_criterion_7_reductions():
    r = hamilton_tour(GraphSpec("bipartite", 7, 2))
    assert r.status == "cycle" and len(r.vertices) == 42
    assert verify_tour(GraphSpec("bipartite", 7, 2), r.vertices, closed=True)
    r = hamilton_tour(GraphSpec("bipartite", 6, 1))
    assert r.status == "path" and len(r.vertices) == 12
    assert verify_tour(GraphSpec("bipartite", 6, 1), r.vertices, closed=False)

    triples = 0
    for n in range(2, 15):
        for k in range(1, n + 1):
            for s in range(0, k):
                r = hamilton_johnson(n, k, s)
                assert r.status == johnson_expectation(n, k, s), (n, k, s, r.note)
                if r.status != "none":
                    spec = GraphSpec("johnson", n, k, s)
                    assert verify_tour(spec, r.vertices,
                                       closed=(r.status == "cycle"))
                triples += 1
    for n, k, s in JOHNSON_SPOTS:
        r = hamilton_johnson(n, k, s)
        assert r.status == "cycle"
        assert verify_tour(GraphSpec("johnson", n, k, s), r.vertices, closed=True)
    for n, k, s in ((5, 2, 0), (5, 3, 1)):
        r = hamilton_johnson(n, k, s)
        assert r.status == "path" and r.cycle_exists is False
    print(f"criterion 7 PASS: bipartite pair, {triples} meet-exactly triples, "
          f"{len(JOHNSON_SPOTS)} large spots, infeasible pair honest")


def test_criterion_8_fallback_honesty():
    spec = GraphSpec("kneser", 5, 2)
    verts = spec.vertices()
    adjacency = {v: tuple(w for w in verts if spec.adjacent(v, w)) for v in verts}
    assert fallback_backtracking(verts, adjacency, want_cycle=True) == ("none", None)

    r = hamilton_kneser(5, 2)
    assert r.status == "path" and r.cycle_exists is False

    for n, k in [(7, 3), (8, 3)]:
        t0 = time.monotonic()
        r = hamilton_kneser(n, k)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, (n, k, elapsed)
        assert r.status == "cycle"
        assert verify_tour(GraphSpec("kneser", n, k), r.vertices, closed=True)
    print("criterion 8 PASS: the Petersen graph is never reported Hamiltonian, "
          "dense fallback solves K(7,3) and K(8,3) inside 60s")
