import hashlib
import random
import tracemalloc
from collections import Counter
from math import comb, gcd

import pytest
from hypothesis import given, settings

from conftest import vertices
from oracles import (
    _window,
    assemble_hamilton_table,
    box,
    connector_four_cycle,
    rewrite_by_strings,
    speed_multiset_recursive,
    tau_slow,
)

from kneser import bitstrings, dynamics, gluing
from kneser.bitstrings import (
    Cycle,
    CyclicBitstring,
    apply_f,
    cycle_factor,
    iter_bits,
    parenthesis_match,
    rotate_bits,
)
from kneser.dynamics import tau
from kneser.errors import InternalConsistencyError, ParameterError
from kneser.families import GraphSpec, verify_tour
from kneser.gliders import glider_partition, speed_partition
from kneser.gluing import (
    assemble_hamilton,
    build_gluing_plan,
    connector_partners,
    is_connector,
    match_rewrite,
    single_glider_vertex,
)

PLANNED = [(7, 2), (9, 3), (10, 3), (11, 4), (12, 4)]


def v(s: str) -> CyclicBitstring:
    return CyclicBitstring.from_string(s)


# -- connectors ----------------------------------------------------------------


@given(vertices(min_n=5))
def test_partner_count(x):
    m = parenthesis_match(x)
    ell = x.n - 2 * x.k
    partners = connector_partners(x)
    assert len(partners) == (m.visible & x.bits).bit_count() * (ell - 1)
    assert len(set(p.bits for p in partners)) == len(partners)


def test_partner_count_micro():
    # four visible pairs and l = 6 unmatched zeros give 4 * 5 = 20 partners
    x = v("10101010000000")
    assert len(connector_partners(x)) == 20


@given(vertices(min_n=5))
@settings(max_examples=60)
def test_partners_are_connectors_both_ways(x):
    for y in connector_partners(x):
        assert is_connector(x, y)
        assert is_connector(y, x)
        assert x.bits in {z.bits for z in connector_partners(y)}


@pytest.mark.parametrize("n,k", [(7, 2), (8, 3), (9, 3)])
def test_connector_relation_exhaustive(n, k):
    """is_connector agrees with membership in connector_partners everywhere."""
    verts = [CyclicBitstring(n, k, b) for b in iter_bits(n, k)]
    partner_sets = {x.bits: {y.bits for y in connector_partners(x)} for x in verts}
    for x in verts:
        for y in verts:
            assert is_connector(x, y) == (y.bits in partner_sets[x.bits])


def test_four_cycle_is_a_kneser_cycle():
    x = v("101000000")
    y = connector_partners(x)[0]
    quad = connector_four_cycle(x, y)
    assert (quad[0], quad[2]) == (x, y)
    ring = quad + (quad[0],)
    for a, b in zip(ring, ring[1:]):
        assert a.bits & b.bits == 0
    assert quad[1] == apply_f(x) and quad[3] == apply_f(y)


def test_four_cycle_rejects_non_connectors():
    with pytest.raises(ParameterError):
        connector_four_cycle(v("101000000"), v("101000000"))
    with pytest.raises(ParameterError):
        connector_four_cycle(v("101000000"), v("110000000"))


# -- single-glider vertices ------------------------------------------------------


@pytest.mark.parametrize("n,k", [(7, 2), (9, 3), (10, 4), (12, 4)])
def test_single_glider_orbit(n, k):
    for i in range(n):
        s = single_glider_vertex(n, k, i)
        assert apply_f(s) == single_glider_vertex(n, k, i + k)


@pytest.mark.parametrize("n,k", [(7, 2), (9, 3), (10, 4), (12, 4)])
def test_single_glider_cycles_count(n, k, factors):
    f = factors(n, k)
    keys = {f.cycles[f.locate(single_glider_vertex(n, k, i).bits)[0]].key for i in range(n)}
    assert len(keys) == gcd(n, k)


# -- rewrite rules ----------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(10, 3), (9, 3), (11, 4)])
def test_at_most_one_family_matches(n, k):
    # match_rewrite raises InternalConsistencyError when two rules claim a vertex
    for bits in iter_bits(n, k):
        match_rewrite(CyclicBitstring(n, k, bits), 0)


@pytest.mark.parametrize("n,k", [(9, 3), (11, 4)])
def test_rewrite_pairs_are_disjoint_connectors(n, k):
    seen: set[int] = set()
    for bits in iter_bits(n, k):
        m = match_rewrite(CyclicBitstring(n, k, bits), 0)
        if m is None:
            continue
        assert is_connector(m.x, m.image)
        assert m.x.bits not in seen and m.image.bits not in seen
        seen.update((m.x.bits, m.image.bits))


@pytest.mark.parametrize("n,k", [(9, 3), (11, 4), (12, 4)])
def test_partition_direction_per_family(n, k):
    """Each rewrite family moves the speed partition a known direction."""
    for bits in iter_bits(n, k):
        x = CyclicBitstring(n, k, bits)
        m = match_rewrite(x, 0)
        if m is None:
            continue
        px = glider_partition(x)
        src = speed_partition(px)
        dst = speed_partition(glider_partition(m.image))
        fam = m.family
        if fam == 2:
            assert min(px.speeds()) % 2 == 0
            assert dst == box(src, -1)
        elif fam == 4:
            vmin = min(px.speeds())
            assert vmin % 2 == 1
            assert dst == (box(src, -1) if vmin >= 3 else src)
        elif fam == 9:
            assert glider_partition(m.image).speeds() == px.speeds()
        elif fam in (6, 7, 8):
            assert dst > box(src, 1)
        else:  # 1, 3, 5 strictly increase the partition
            assert dst > src
            vs = px.speeds()
            if fam == 1 and len(vs) >= 3 and vs[2] > vs[1]:
                assert dst > box(src, 1)


def test_rule_seven_instance():
    m = match_rewrite(v("100110001110000"), 0)
    assert m is not None and m.family == 7
    src = speed_partition(glider_partition(m.x))
    dst = speed_partition(glider_partition(m.image))
    assert dst > box(src, 1)


def test_rewrites_cover_all_nine_families():
    seen: set[int] = set()
    for (n, k) in [(9, 3), (11, 4), (12, 4), (15, 6)]:
        for bits in iter_bits(n, k):
            m = match_rewrite(CyclicBitstring(n, k, bits), 0)
            if m is not None:
                seen.add(m.family)
    assert seen == set(range(1, 10))


def test_rule_census_at_every_anchor():
    """Pin every rule result at every anchor of K(n, k), 7 <= n <= 12, plus
    K(16, 6) at anchor 0, where all nine rules fire (rule 7 never does below)."""
    h = hashlib.sha256()
    seen: set[int] = set()
    jobs = [(n, k, p) for n in range(7, 13) for k in range(2, (n - 3) // 2 + 1)
            for p in range(n)]
    for n, k, p in jobs + [(16, 6, 0)]:
        for bits in iter_bits(n, k):
            m = match_rewrite(CyclicBitstring(n, k, bits), p)
            if m is None:
                h.update(b"-;")
            else:
                seen.add(m.family)
                h.update(f"{m.family},{m.image.bits},{m.branched};".encode())
    assert seen == set(range(1, 10))
    assert h.hexdigest() == "97080ee0722190faee092b8fa5b7d870741da829a88554a435469cf045a38444"


def test_mask_rules_match_string_rules():
    """The rules on masks give the family, the moved 1, its slot and the
    two-way branch of the rules on the annotated string: every vertex at
    every anchor up to n = 13, every vertex of K(15,6) at anchor 0, where
    rule 7 first fires, and a seeded sample up to n = 28."""
    rng = random.Random("mask rules")
    jobs = [(n, k, bits, range(n)) for n in range(5, 14) for k in range(1, (n - 3) // 2 + 1)
            for bits in iter_bits(n, k)]
    jobs += [(n, k, sum(1 << i for i in rng.sample(range(n), k)), [rng.randrange(n)])
             for n in range(14, 29) for k in range(1, (n - 3) // 2 + 1) for _ in range(60)]
    jobs += [(15, 6, bits, [0]) for bits in iter_bits(15, 6)]
    families: set[int] = set()
    branched: set[bool] = set()
    for n, k, bits, anchors in jobs:
        x = CyclicBitstring(n, k, bits)
        fx, sp = bitstrings._f_bits(bits, n), speed_multiset_recursive(x)
        for p in anchors:
            got = gluing._match_bits(bits, n, k, p, fx)
            assert got == rewrite_by_strings(x, p, sp), (str(x), p)
            families.add(got[0] if got else 0)
            branched.add(bool(got and got[3]))
    assert families == set(range(10)) and branched == {False, True}, families


def test_visible_one_reads_the_matching():
    """The rules read a 1^a 0^a block only when an unmatched 0 follows it, and
    then take the pair of its first 1 as visible, because no pair encloses an
    unmatched 0.  Check that against the matching at every such block."""
    blocks = 0
    for n in range(3, 15):
        for k in range(1, (n - 1) // 2 + 1):
            for bits in iter_bits(n, k):
                x = CyclicBitstring(n, k, bits)
                vis = parenthesis_match(x).visible
                w = _window(x, 0)
                for q in range(n):
                    for a in range(1, k + 1):
                        if w.startswith("1" * a + "0" * a + "-", q):
                            blocks += 1
                            assert vis >> q & 1, (str(x), q, a)
    assert blocks > 0


def test_plan_scans_each_vertex_at_most_twice(monkeypatch):
    """The rewrite pass reads f(x) off the factor cycle instead of scanning x
    again: K(17,7) made 2.89 scans per vertex with that rescan, 1.89 without."""
    calls = [0]
    scan = bitstrings._scan_match

    def counting(bits, n):
        calls[0] += 1
        return scan(bits, n)

    monkeypatch.setattr(bitstrings, "_scan_match", counting)
    monkeypatch.setattr(gluing, "_scan_match", counting, raising=False)
    build_gluing_plan(17, 7)
    assert calls[0] <= 2.0 * comb(17, 7), calls[0]


def test_plan_computes_speeds_once_per_cycle(monkeypatch):
    """V is constant along a factor cycle, so the plan computes it once per
    cycle and hands it to the rules and the potential alike."""
    seen: list[int] = []
    speeds = gluing.speed_multiset_direct

    def counting(x):
        seen.append(x.bits)
        return speeds(x)

    monkeypatch.setattr(gluing, "speed_multiset_direct", counting)
    plan = build_gluing_plan(17, 7)
    per_cycle = Counter(plan.factor.locate(b)[0] for b in seen)
    assert max(per_cycle.values()) == 1, len(seen)


def test_plan_stops_each_scan_at_its_parent(monkeypatch):
    """Each cycle's scan stops at its first downhill rewrite: K(17,7) applies
    the rules to about 12% of its vertices, where a full scan takes all."""
    calls = [0]
    rewrite = gluing._match_bits

    def counting(*args):
        calls[0] += 1
        return rewrite(*args)

    monkeypatch.setattr(gluing, "_match_bits", counting)
    build_gluing_plan(17, 7)
    assert calls[0] <= 0.2 * comb(17, 7), calls[0]


# -- the gluing plan ---------------------------------------------------------------


@pytest.mark.parametrize("n,k", PLANNED)
def test_plan_tree_spans_the_factor(n, k, plans):
    plan = plans(n, k)
    cycles = plan.factor.cycles
    assert len(plan.tree) + len(plan.rotation_pairs) + 1 == len(cycles)
    parent = list(range(len(cycles)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(u, w):
        ru, rw = find(u), find(w)
        assert ru != rw, "a splice may not close a cycle among cycles"
        parent[ru] = rw

    at = {b: i for i, c in enumerate(cycles) for b in c.vertices}
    for rm in plan.tree:
        union(at[rm.x.bits], at[rm.image.bits])
    for a, b in plan.rotation_pairs:
        union(at[a.bits], at[b.bits])
    assert len({find(i) for i in range(len(cycles))}) == 1


@pytest.mark.parametrize(
    "n,k,p",
    sorted({(n, k, 0) for n, k in PLANNED}
           | {(11, 4, p) for p in range(11)} | {(12, 4, p) for p in range(12)}),
)
def test_full_plan_picks_the_same_tree(n, k, p, plans):
    """Scanning every cycle to the end changes nothing but the rewrite list.
    K(11,4) at anchor 7 and K(12,4) at several anchors need the resumed scans."""
    part = build_gluing_plan(n, k, p)
    whole = plans(n, k) if p == 0 else build_gluing_plan(n, k, p, full=True)
    assert part.tree == whole.tree
    assert part.rotation_base == whole.rotation_base
    assert part.rotation_pairs == whole.rotation_pairs
    assert part.exceptions == whole.exceptions
    assert set(part.rewrites) <= set(whole.rewrites)
    assert verify_tour(GraphSpec("kneser", n, k), assemble_hamilton(part))


@pytest.mark.parametrize("n,k", PLANNED)
def test_plan_splice_edges_are_distinct(n, k, plans):
    plan = plans(n, k)
    removed: list[frozenset[int]] = []
    added: list[frozenset[int]] = []
    for rm in plan.tree:
        fx, fy = apply_f(rm.x).bits, apply_f(rm.image).bits
        removed += [frozenset((rm.x.bits, fx)), frozenset((rm.image.bits, fy))]
        added += [frozenset((rm.x.bits, fy)), frozenset((rm.image.bits, fx))]
    for a, b in plan.rotation_pairs:
        fa, fb = apply_f(a).bits, apply_f(b).bits
        removed += [frozenset((a.bits, fa)), frozenset((b.bits, fb))]
        added += [frozenset((a.bits, b.bits)), frozenset((fa, fb))]
    assert len(removed) == len(set(removed))
    assert len(added) == len(set(added))
    assert not set(removed) & set(added)


@pytest.mark.parametrize("n,k", PLANNED)
def test_rotation_pairs_use_fresh_vertices(n, k, plans):
    plan = plans(n, k)
    ends = {w for rm in plan.rewrites for w in (rm.x.bits, rm.image.bits)}
    singles = {single_glider_vertex(n, k, i).bits for i in range(n)}
    for a, b in plan.rotation_pairs:
        assert a.bits not in ends and b.bits not in ends
        assert a.bits in singles and b.bits in singles
        # chords of the rotation splice are Kneser edges
        assert a.bits & b.bits == 0
        assert apply_f(a).bits & apply_f(b).bits == 0


def test_branched_rewrites_occur(plans):
    plan = plans(12, 4)
    assert any(rm.branched for rm in plan.tree) or any(
        rm.branched for rm in plan.rewrites
    )


def test_two_way_probes_match_reference(monkeypatch):
    """Every tau probe the full plans make up to K(17,7) agrees with the
    reference that follows the glider through advance."""
    calls = []
    real_tau = gluing.tau

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real_tau(*args, **kwargs)

    monkeypatch.setattr(gluing, "tau", record)
    for n in range(5, 18):
        for k in range(1, (n - 3) // 2 + 1):
            build_gluing_plan(n, k, full=True)
    monkeypatch.undo()
    assert len(calls) == 539
    for args, kwargs in calls:
        x, g, bit, pos = args
        fast = tau(*args, **kwargs)
        slow = tau_slow(x, g, bit, pos)
        assert (fast.t, fast.z) == (slow.t, slow.z), (str(x), g.id, bit, pos)


# -- assembly -----------------------------------------------------------------------


@pytest.mark.parametrize("n,k", PLANNED)
def test_assembled_hamilton_cycle(n, k, hamiltons):
    ham = hamiltons(n, k)
    assert len(ham) == comb(n, k)
    assert len(set(ham)) == len(ham)
    ring = ham + (ham[0],)
    for a, b in zip(ring, ring[1:]):
        assert a & b == 0
        assert bin(a).count("1") == k


@pytest.mark.parametrize(
    "n,k,anchors",
    [(n, k, range(n)) for n in range(3, 15) for k in range(1, (n - 1) // 2 + 1)
     if k == 1 or n >= 2 * k + 3] + [(17, 7, [0]), (24, 4, [0])],
)
def test_walk_equals_table_walk(n, k, anchors):
    """The walk over the factor's own cycles gives the tour of the walk over
    a neighbour table of every vertex."""
    for p in anchors:
        plan = build_gluing_plan(n, k, p)
        assert assemble_hamilton(plan) == assemble_hamilton_table(plan), (n, k, p)


def test_corrupted_plans_raise():
    """A tree edge left out splits the tour, so the walk closes early; a tree
    edge given twice finds its factor edges already gone; a tree edge from x
    to f(x) would join f(x) to itself."""
    plan = build_gluing_plan(11, 4)
    assert len(plan.tree) > 1
    with pytest.raises(InternalConsistencyError, match="closes before"):
        assemble_hamilton(plan._replace(tree=plan.tree[1:]))
    with pytest.raises(InternalConsistencyError, match="splice edge is not present"):
        assemble_hamilton(plan._replace(tree=plan.tree + plan.tree[:1]))
    rm = plan.tree[0]
    bad = rm._replace(image=apply_f(rm.x))
    with pytest.raises(InternalConsistencyError, match="meeting sets"):
        assemble_hamilton(plan._replace(tree=(bad,) + plan.tree[1:]))


# -- always-on checks of the plan and the walk, each reached by one fault -------


def _misfile_a_root_cycle(monkeypatch):
    """locate files every vertex of s_0's cycle under s_1's, so the
    single-glider vertices meet one cycle fewer than gcd(n, k)."""
    locate = bitstrings.CycleFactor.locate

    def misfiled(self, x):
        ci, i = locate(self, x)
        first, second = (locate(self, single_glider_vertex(12, 4, j).bits)[0] for j in (0, 1))
        return (second if ci == first else ci), i

    monkeypatch.setattr(bitstrings.CycleFactor, "locate", misfiled)


def _change_images(monkeypatch, change):
    """The rewrite's image with change(image, the images before it) applied."""
    move, images = gluing._move_one, []

    def changed(bits, src, dst):
        image = change(move(bits, src, dst), images)
        images.append(image)
        return image

    monkeypatch.setattr(gluing, "_move_one", changed)


def _repeat_an_image(monkeypatch):
    """The second hit takes the first hit's image."""
    _change_images(monkeypatch, lambda image, images: images[0] if len(images) == 1 else image)


def _image_off_the_connectors(monkeypatch):
    """The first hit's image moves on to f(image): a vertex of the same
    cycle, but disjoint from the image, so no connector of x."""
    _change_images(monkeypatch, lambda image, images: (
        image if images else bitstrings._f_bits(image, 12)))


def _fold_single_glider_vertices(monkeypatch):
    """s_i is s_{i mod g}: still one on each root cycle, but only g distinct
    strings, where each rotation trial needs 2(g - 1) distinct ends."""
    sgv = gluing.single_glider_vertex
    monkeypatch.setattr(gluing, "single_glider_vertex",
                        lambda n, k, i: sgv(n, k, i % gcd(n, k)))


def _rewrite_at_two_anchors(monkeypatch):
    """Vertices with position 1 set read the rules at anchor 8: the rewrites
    are still connectors and share no endpoint, but their images take the
    single-glider vertices of two windows, and every rotation trial meets one."""
    rewrite = gluing._match_bits
    monkeypatch.setattr(gluing, "_match_bits", lambda bits, n, k, p, *rest: (
        rewrite(bits, n, k, (p + 8) % n if bits >> 1 & 1 else p, *rest)))


def _isolate_a_cycle(monkeypatch):
    """No rule matches on the last non-root cycle, nor lands there: that
    cycle has no connector at all, so no scan can join it to the tree."""
    factor = cycle_factor(12, 4)
    roots = {factor.locate(single_glider_vertex(12, 4, i).bits)[0] for i in range(12)}
    lonely = set(factor.cycles[max(set(range(len(factor.cycles))) - roots)])
    rewrite = gluing._match_bits

    def isolating(bits, *args):
        hit = rewrite(bits, *args)
        if bits in lonely or hit and bits ^ (1 << hit[1]) | (1 << hit[2]) in lonely:
            return None
        return hit

    monkeypatch.setattr(gluing, "_match_bits", isolating)


@pytest.mark.parametrize("fault,message,full", [
    (_misfile_a_root_cycle, "single-glider cycle count differs", False),
    (_repeat_an_image, "rewrite endpoints collide", False),
    (_image_off_the_connectors, "fails the connector test", False),
    (_fold_single_glider_vertices, "single-glider vertices repeat", False),
    (_rewrite_at_two_anchors, "no rotation offset avoids the rewrite endpoints", False),
    (_isolate_a_cycle, "the auxiliary cycle graph is disconnected", False),
    # the full plan scans on past the tree, but still refuses a cycle nothing joins
    (_isolate_a_cycle, "the auxiliary cycle graph is disconnected", True),
], ids=["locate", "collide", "connector", "rotation", "endpoints", "disconnected",
        "disconnected-full"])
def test_plan_rejects_a_faulty_kernel(fault, message, full, monkeypatch):
    fault(monkeypatch)
    with pytest.raises(InternalConsistencyError, match=message):
        build_gluing_plan(12, 4, full=full)


def _land_on_a_one(monkeypatch):
    """Each rule lands the 1 it moves on that 1 itself."""
    match = gluing._match_bits
    monkeypatch.setattr(gluing, "_match_bits", lambda *args: (
        (hit := match(*args)) and (hit[0], hit[1], hit[1], hit[3])))
    return lambda: build_gluing_plan(12, 4)


def _forge_the_speeds(monkeypatch):
    """V reads two gliders of speed 2 where x = 1000010010 has three of
    speed 1, and rules 5 and 9 both take x."""
    monkeypatch.setattr(gluing, "speed_multiset_direct", lambda x: (1, 2, 2))
    return lambda: match_rewrite(v("1000010010"), 0)


def _probe_of_the_plan(monkeypatch):
    """The first two-way probe of the plan of K(12,4), its arguments and
    the factor it steps along."""
    calls = []
    real_tau = gluing.tau
    monkeypatch.setattr(gluing, "tau", lambda *a, **kw: calls.append((a, kw)) or real_tau(*a, **kw))
    build_gluing_plan(12, 4)
    monkeypatch.undo()
    return calls[0]


def _forge_a_factor_cycle(monkeypatch):
    """The stored cycle of the shifted orbit holds f(x) where the shifted
    start belongs, so the two orbits agree at once."""
    args, kw = _probe_of_the_plan(monkeypatch)
    x, g = args[0], args[1]
    factor = kw["factor"]
    ci, i = factor.locate(x.bits)
    fx = factor.cycles[ci].vertices[(i + 1) % len(factor.cycles[ci])]
    cj, j = factor.locate(fx ^ (1 << (g.s1 + 1) % 12) ^ (1 << (g.s2 + 1) % 12))
    ws = list(factor.cycles[cj].vertices)
    ws[j] = fx
    cycles = factor.cycles[:cj] + (Cycle(tuple(ws)),) + factor.cycles[cj + 1:]
    return lambda: tau(*args, **{**kw, "factor": factor._replace(cycles=cycles)})


def _never_carry(monkeypatch):
    """The glider never carries the wanted bit, so tau steps through every
    pair of its two stored cycles."""
    args, kw = _probe_of_the_plan(monkeypatch)
    monkeypatch.setattr(dynamics, "_carries", lambda *a: False)
    return lambda: tau(*args, **kw)


def _lose_the_fresh_glider(monkeypatch):
    """The probe's partition of the image has no glider at any position."""
    partition = gluing.glider_partition
    monkeypatch.setattr(gluing, "glider_partition", lambda x: (
        partition(x)._replace(pos_class=(-1,) * x.n)))
    return lambda: build_gluing_plan(12, 4)


def _refuse_every_shift(monkeypatch):
    """tau refuses to track any glider."""
    def refuse(p, g):
        raise ParameterError("refused")

    monkeypatch.setattr(dynamics, "_require_shiftable", refuse)
    return lambda: build_gluing_plan(12, 4)


@pytest.mark.parametrize("fault,message", [
    (_land_on_a_one, "rewrite must move a 1 onto a 0"),
    (_forge_the_speeds, r"rules \[5, 9\] all claim 1000010010 at anchor 0"),
    (_forge_a_factor_cycle, "parallel orbits drifted apart"),
    (_never_carry, "first-visit search exceeded its cap"),
    (_lose_the_fresh_glider, "two-way rule expects a fresh speed-1 glider"),
    (_refuse_every_shift, "two-way rule probe is not trackable"),
], ids=["move", "conflict", "drift", "cap", "fresh", "untrackable"])
def test_rules_and_probe_reject_a_faulty_kernel(fault, message, monkeypatch):
    run = fault(monkeypatch)
    with pytest.raises(InternalConsistencyError, match=message):
        run()


def test_walk_rejects_a_factor_cycle_too_short_to_splice():
    plan = build_gluing_plan(12, 4)
    cycles = plan.factor.cycles
    short = plan.factor._replace(cycles=(Cycle(cycles[0].vertices[:2]),) + cycles[1:])
    with pytest.raises(InternalConsistencyError, match="too short to splice"):
        assemble_hamilton(plan._replace(factor=short))


class _Unwrapped(Cycle):
    """A factor cycle whose index -1 reads its second-to-last vertex."""

    __slots__ = ()

    def __getitem__(self, i):
        return Cycle.__getitem__(self, -2 if i == -1 else i)


def _unwrap_a_spliced_cycle(plan):
    """The cycle of a splice end at position 0 misreads index -1, so that
    end's slot holds a predecessor that is no neighbour of it on the cycle."""
    ci = min(ci for ci, i in plan.at.values() if i == 0)
    return ci, _Unwrapped(plan.factor.cycles[ci])


def _repeat_a_vertex(plan):
    """The last cycle lists its second vertex again at its end: the cycles
    hold C(n, k) + 1 vertices, so the walk is not back at its start after
    C(n, k) steps."""
    vs = plan.factor.cycles[-1]
    return len(plan.factor.cycles) - 1, Cycle(vs + (vs[1],))


@pytest.mark.parametrize("fault,message", [
    (_unwrap_a_spliced_cycle, "spliced neighbour has no slots"),
    (_repeat_a_vertex, "splice walk does not close into one cycle"),
], ids=["unwrapped", "repeat"])
def test_walk_rejects_a_faulty_factor_cycle(fault, message):
    plan = build_gluing_plan(12, 4)
    ci, cycle = fault(plan)
    cycles = plan.factor.cycles[:ci] + (cycle,) + plan.factor.cycles[ci + 1:]
    with pytest.raises(InternalConsistencyError, match=message):
        assemble_hamilton(plan._replace(factor=plan.factor._replace(cycles=cycles)))


def test_a_misplaced_splice_end_raises():
    """plan.at moved to any other position of the end's cycle makes the
    walk refuse the splice with its own error, never a KeyError: the ring
    meets itself, or the end has no slots and so no edge to trade."""
    plan = build_gluing_plan(12, 4)
    for rm in plan.tree[:4]:
        for u in (rm.x.bits, rm.image.bits):
            ci, i = plan.at[u]
            size = len(plan.factor.cycles[ci])
            for j in range(1, size):
                at = {**plan.at, u: (ci, (i + j) % size)}
                with pytest.raises(InternalConsistencyError, match="meeting sets|not present"):
                    assemble_hamilton(plan._replace(at=at))


def test_plan_and_walk_faults_are_caught_in_optimized_mode(optimized_cases):
    """The plan's and the walk's checks are no asserts: python -O still runs them."""
    optimized_cases("test_gluing.py::test_plan_rejects_a_faulty_kernel",
                    "test_gluing.py::test_rules_and_probe_reject_a_faulty_kernel",
                    "test_gluing.py::test_walk_rejects_a_factor_cycle_too_short_to_splice",
                    "test_gluing.py::test_walk_rejects_a_faulty_factor_cycle", passed=16)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_factor_memory_per_vertex():
    """The factor keeps nothing per vertex but its cycle tuples, about 40 B
    of int and pointer each, and a table entry per necklace: K(17,7) peaks
    at about 53 B per vertex and K(28,5) at about 51, against 72 and 115
    with a dict entry per vertex."""
    for n, k in [(17, 7), (28, 5)]:
        assert _traced_peak(cycle_factor, n, k) <= 56 * comb(n, k), (n, k)


def test_walk_memory_per_vertex():
    """The walk keeps slots only for splice endpoints: above the plan of
    K(17,7) it peaks at about 22 B per vertex, the tour included, against
    145 with a neighbour table of every vertex."""
    plan = build_gluing_plan(17, 7)
    assert _traced_peak(assemble_hamilton, plan) <= 40 * comb(17, 7)


def test_trivial_gluings():
    # k = 1 needs no splices: the factor is a single cycle already
    assert len(assemble_hamilton(build_gluing_plan(3, 1))) == 3
    assert len(assemble_hamilton(build_gluing_plan(6, 1))) == 6


def test_anchor_choice_is_free():
    for anchor in (0, 2, 7):
        ham = assemble_hamilton(build_gluing_plan(9, 3, anchor))
        assert len(ham) == comb(9, 3)


def test_plan_rejects_sparse_cases():
    with pytest.raises(ParameterError):
        build_gluing_plan(7, 3)  # n = 2k+1
    with pytest.raises(ParameterError):
        build_gluing_plan(8, 3)  # n = 2k+2
    with pytest.raises(ParameterError):
        build_gluing_plan(5, 0)


def test_rotation_window_avoids_rewrite_window(plans):
    """Single-glider images of the rewrites use s-indices p+2 .. p+l+1; the
    rotation pairs start at r = p+l+2 and never collide with them."""
    for (n, k) in [(9, 3), (12, 4)]:
        plan = plans(n, k)
        ell = n - 2 * k
        s_index = {rotate_bits((1 << k) - 1, n, i): i for i in range(n)}
        window = {(plan.anchor + 2 + j) % n for j in range(ell)}
        for rm in plan.rewrites:
            for w in (rm.x.bits, rm.image.bits):
                if w in s_index:
                    assert s_index[w] in window
        used = {s_index[a.bits] for a, _ in plan.rotation_pairs}
        used |= {s_index[b.bits] for _, b in plan.rotation_pairs}
        assert not used & window
