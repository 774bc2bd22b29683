"""Joining the cycles of the factor into one Hamilton cycle.

Two vertices whose parenthesis matchings agree except for a single visible
pair form a connector: the pair (x, f(x), y, f(y)) is then a 4-cycle of the
graph, and exchanging its factor edges for its chords merges the cycles
through x and y.  Nine local rewrite rules, each a pattern anchored at a
fixed position p, pick one partner vertex for every vertex they match, and
the resulting pairs never share an endpoint.  Vertices whose k 1s are
consecutive are handled separately: their cycles, the roots, are chained by
rotation pairs whose 4-cycles have a different chord shape.  A spanning tree
of the auxiliary graph (one node per remaining cycle, one node for the
roots) selects which connectors to splice; the symmetric difference of all
chosen 4-cycles with the factor is the Hamilton cycle.

The tree needs one connector per cycle, so the plan does not apply the rules
everywhere.  Each cycle has a potential P = (glider count, speeds in
non-increasing order, cycle key), constant along the cycle.  A cycle is
scanned in f-order only until a rewrite lands on a root or on a cycle of
smaller P; that rewrite is its parent edge.  P falls strictly along parent
edges, so they form a forest.  A cycle with no such rewrite, an exception,
is scanned fully, and its rewrites join the forest's components in cycle
order.  Should components remain, every scan resumes to the end and joins
them with the rest of the rewrites; only then is the auxiliary graph
disconnected.
"""

from collections import Counter
from collections.abc import Iterator
from itertools import chain
from math import comb, gcd
from typing import NamedTuple

from .bitstrings import (
    CycleFactor,
    CyclicBitstring,
    Matching,
    _f_bits,
    _repr_without,
    cycle_factor,
    parenthesis_match,
    rotate_bits,
    to_string,
)
from .dynamics import tau
from .errors import InternalConsistencyError, ParameterError
from .gliders import glider_partition, speed_multiset_direct

__all__ = [
    "is_connector",
    "connector_partners",
    "RewriteMatch",
    "match_rewrite",
    "single_glider_vertex",
    "GluingPlan",
    "build_gluing_plan",
    "assemble_hamilton",
    "iter_tour",
]


def _after_visible(m: Matching, i: int) -> int:
    """The next visible position after i: i's partner when i is a visible 1."""
    rest = rotate_bits(m.visible, m.n, -(i + 1))  # bit j is position i + 1 + j
    return (i + (rest & -rest).bit_length()) % m.n


def _is_visible_pair(m: Matching, ends: int) -> bool:
    one = ends & m.bits & m.visible
    return one.bit_count() == 1 and ends == one | 1 << _after_visible(m, one.bit_length() - 1)


def is_connector(x: CyclicBitstring, y: CyclicBitstring) -> bool:
    """True when the matchings of x and y differ by relocating one visible
    pair onto two positions that are unmatched in the other string.

    Removing a visible pair leaves the rest of a matching unchanged, so this
    holds exactly when x and y differ in two bits and, on each side, the
    positions matched only there form one visible pair."""
    if x.n != y.n or x.k != y.k or (x.bits ^ y.bits).bit_count() != 2:
        return False
    mx, my = parenthesis_match(x), parenthesis_match(y)
    only_x = ~mx.unmatched & my.unmatched
    only_y = ~my.unmatched & mx.unmatched
    return _is_visible_pair(mx, only_x) and _is_visible_pair(my, only_y)


def connector_partners(x: CyclicBitstring) -> tuple[CyclicBitstring, ...]:
    """All y with {x, y} a connector.

    Each visible pair may move next to any unmatched 0 except the one
    directly left of its own block, so a vertex with p visible pairs lies
    in exactly p*(l-1) connectors, l = n - 2k."""
    m = parenthesis_match(x)
    um = m.unmatched
    slots = [u for u in range(x.n) if um >> u & 1]
    out = []
    for one in range(x.n):
        if not (m.visible & x.bits) >> one & 1:
            continue
        before = um & ((1 << one) - 1)
        blocked = (before or um).bit_length() - 1
        for w in slots:
            if w != blocked:
                out.append(CyclicBitstring(x.n, x.k, x.bits ^ (1 << one) | (1 << w)))
    return tuple(out)


def single_glider_vertex(n: int, k: int, i: int) -> CyclicBitstring:
    """The vertex whose k 1s occupy positions i..i+k-1."""
    return CyclicBitstring(n, k, rotate_bits((1 << k) - 1, n, i % n))


# -- the nine rewrite rules ------------------------------------------------
#
# Each rule matches a pattern around the anchor position p and moves one 1,
# relocating one visible pair; the pairs produced over all vertices for a
# fixed p are pairwise endpoint-disjoint.  Rules 2 and 4 choose between two
# landing slots by probing where the freshly created speed-1 glider first
# returns to the anchor; this keeps later rewrites on the merged cycle from
# revisiting the same spot forever.
#
# A rule reads x's 1s (o), matched 0s (z, which is f(x)) and unmatched 0s
# (u) as masks rotated so that bit 0 is the anchor, and names positions
# relative to it, negative ones before it.  A run is the trailing 1s of a
# mask shifted to its start.  Every glyph occurs in x, so a run is shorter
# than n and wraps at most once: the masks are doubled, o | o << n, and read
# from the start mod n.  Inside 1^a 0^a the first 1 pairs with the last 0;
# the rules that read such a block require an unmatched 0 right after it,
# which no pair encloses, so that pair is visible.  speeds() gives V(x), the
# speeds of x's gliders in non-decreasing order, once a rule's pattern has
# held.  A hit is (family, src, dst, alt): the 1 moved, its landing slot
# and, for a two-way rule, its second slot.


def _run(m: int, n: int, r: int) -> int:
    """Length of the run of set bits of the doubled mask m from position r."""
    m >>= r % n
    return (m ^ (m + 1)).bit_length() - 1


def _block(o: int, z: int, n: int, r: int, b: int) -> bool:
    """1^b 0^b starts at r."""
    return _run(o, n, r) >= b and _run(z, n, r + b) >= b


def _closes_circle(u: int, n: int, r: int) -> bool:
    """Unmatched 0s run from r up to the last one before the anchor, a lap on."""
    return r + _run(u, n, r) == (u & (1 << n) - 1).bit_length()


def _rule1(n, k, o, z, u, speeds):
    ell = n - 2 * k
    if k < 2 or not (o >> 1 & z >> 2 & 1 and _run(u, n, 3) >= ell - 1):
        return None
    return 1, 1, ell + 1, None


def _tail_rule(n, k, o, z, u, speeds):
    """Rules 2 and 3, for the anchor on a run of matched 0s: that run is the
    tail of a 1^a 0^a at q, a even, and the gap of unmatched 0s after the
    block picks the family."""
    back = n - (~z & (1 << n) - 1).bit_length()
    a = back + _run(z, n, 0)
    q = -back - a
    gap = _run(u, n, q + 2 * a)
    if a % 2 or not gap or _run(o, n, q) < a or (sp := speeds())[0] != a:
        return None
    if gap <= 2:
        return 3, q, q + 2 * a + gap - 1, None
    return (2, q, q + 2 * a, q + 2 * a + 1) if len(sp) >= 2 else None


def _head_rule(n, k, o, z, u, speeds):
    """Rules 4 and 5, for the anchor on a run of 1s: that run q..q+a-1
    continues as a 1^a 0^a, a odd, and the gap of unmatched 0s after the
    block picks the family."""
    q = (~o & (1 << n) - 1).bit_length() - n
    a = _run(o, n, q)
    gap = _run(u, n, q + 2 * a)
    if a % 2 == 0 or not gap or _run(z, n, q + a) < a:
        return None
    if gap >= (n - 2 * k if a == 1 else 3):
        # rules 4 and 5 never both match: with a = 1 a gap of l = n - 2k
        # holds every unmatched 0, so the next block would wrap around into
        # the glider's own, which rule 5 refuses; a shorter gap leaves an
        # unmatched 0 to end that block, so rule 5 needs no wrap test here
        if len(sp := speeds()) < 2 or sp[0] != a:
            return None
        return 4, q, q + 2 * a, q + 2 * a + 1
    ws = q + 2 * a + gap
    if (sp := speeds())[0] != a:
        return None
    if a == 1 and len(sp) >= 3 and sp[1] < sp[2]:
        b = sp[1]
        if gap == 1 and u >> (q - 2 * b - 1) % n & 1 and _block(o, z, n, q - 2 * b, b):
            return None  # another rule covers the vertex from the left
        if _block(o, z, n, ws, b) and u >> (ws + 2 * b) % n & 1 and not (gap == 1 and b == 1):
            return None
    return 5, q, ws - 1, None


def _rule6(n, k, o, z, u, speeds):
    if not z >> 1 & u >> 2 & 1 or u >> 3 & 1 or len(sp := speeds()) < 3 or sp[1] >= sp[2]:
        return None
    b = sp[1]
    if not (u >> (-2 * b - 1) % n & 1 and _block(o, z, n, -2 * b, b)):
        return None
    return 6, -2 * b, 2, None


def _rule7(n, k, o, z, u, speeds):
    if not z >> 1 & u >> 2 & 1 or len(sp := speeds()) < 3 or not 2 <= sp[1] < sp[2]:
        return None
    b = sp[1]
    i = 2 + _run(u, n, 2)
    if not (_block(o, z, n, i, b) and u >> (i + 2 * b) % n & 1):
        return None
    j = i + 2 * b + _run(u, n, i + 2 * b)
    if j + _run(o | z, n, j) > n:
        return None  # that run is the anchor's own block coming back around
    return 7, 0, j - 1, None


def _rule8(n, k, o, z, u, speeds):
    if not z >> 1 & u >> 2 & 1 or u >> (n - 1) & 1:
        return None
    gap = _run(u, n, 2)
    if len(sp := speeds()) < 3 or sp[1] >= sp[2] or (sp[1] < 2 and gap != 2):
        return None
    b, i = sp[1], 2 + gap
    if not (_block(o, z, n, i, b) and _closes_circle(u, n, i + 2 * b)):
        return None
    return 8, i, (u & (1 << n) - 1).bit_length() - 1 - n, None


def _rule9(n, k, o, z, u, speeds):
    if not z >> 1 & u >> 2 & 1 or u >> (n - 1) & 1:
        return None
    gap = _run(u, n, 2)
    i = 2 + gap
    if gap < 3 or not (o >> i % n & z >> (i + 1) % n & 1) or not _closes_circle(u, n, i + 2):
        return None
    if len(sp := speeds()) < 3 or sp[2] <= 1:
        return None
    return 9, 0, gap - 1, None


# by the anchor's glyph: an unmatched 0, a 1 or a matched 0
_RULES = ((_rule1,), (_head_rule, _rule6, _rule7, _rule8, _rule9), (_tail_rule,))


def _masks(bits: int, fx: int, n: int, p: int) -> tuple[int, int, int]:
    """The rules' doubled masks o, z, u of x = bits at anchor p, fx = f(x)."""
    o, z = rotate_bits(bits, n, -p), rotate_bits(fx, n, -p)
    u = (1 << n) - 1 & ~(o | z)
    return o | o << n, z | z << n, u | u << n


class RewriteMatch(NamedTuple):
    """One vertex matched by a rewrite rule together with its partner."""

    family: int
    x: CyclicBitstring
    image: CyclicBitstring
    branched: bool = False  # a two-way rule took its second landing slot


def _move_one(bits: int, src: int, dst: int) -> int:
    if not bits >> src & 1 or bits >> dst & 1:
        raise InternalConsistencyError("rewrite must move a 1 onto a 0")
    return bits ^ (1 << src) | (1 << dst)


def _match_bits(bits: int, n: int, k: int, p: int, fx: int, vx: tuple[int, ...] | None = None,
                factor: CycleFactor | None = None) -> tuple[int, int, int, bool] | None:
    """The rewrite of x = bits at anchor p, 0 <= p < n, as (family, src,
    dst, branched): the position of the 1 the rule moves, the slot it lands
    on, and whether a two-way rule took its second slot.  fx is f(x), vx,
    if given, is V(x), and factor, if given, holds the orbits that a two-way
    rule's probe steps along."""

    def speeds() -> tuple[int, ...]:
        nonlocal vx
        if vx is None:
            vx = speed_multiset_direct(CyclicBitstring(n, k, bits))
        return vx

    o, z, u = _masks(bits, fx, n, p)
    hits = []
    for rule in _RULES[o & 1 | (z & 1) << 1]:
        if hit := rule(n, k, o, z, u, speeds):
            hits.append(hit)
    if not hits:
        return None
    if len(hits) > 1:
        raise InternalConsistencyError(
            f"rules {[h[0] for h in hits]} all claim {to_string(bits, n)} at anchor {p}"
        )
    family, src, dst, alt = hits[0]
    src, dst = (p + src) % n, (p + dst) % n
    if alt is None:
        return family, src, dst, False
    image = CyclicBitstring(n, k, bits ^ (1 << src) | (1 << dst))
    part = glider_partition(image)
    g = part.glider_at(dst)
    if g is None or g.speed != 1:
        raise InternalConsistencyError("two-way rule expects a fresh speed-1 glider")
    try:
        zb = tau(image, g, 1, p, partition=part, factor=factor).z.bits
    except ParameterError as exc:
        raise InternalConsistencyError("two-way rule probe is not trackable") from exc
    # z lies on the image's orbit, and V is constant along an orbit
    oz, zz, uz = _masks(zb, _f_bits(zb, n), n, p)
    if oz & 1 and (probe := _head_rule(n, k, oz, zz, uz, part.speeds)) and probe[0] == 4:
        return family, src, (p + alt) % n, True
    return family, src, dst, False


def match_rewrite(x: CyclicBitstring, p: int = 0) -> RewriteMatch | None:
    """Apply the one rewrite rule matching x at anchor p, if any."""
    if x.n - 2 * x.k < 3:
        raise ParameterError("the rewrite rules need n >= 2k+3")
    p %= x.n
    hit = _match_bits(x.bits, x.n, x.k, p, _f_bits(x.bits, x.n))
    if hit is None:
        return None
    family, src, dst, branched = hit
    return RewriteMatch(family, x, CyclicBitstring(x.n, x.k, _move_one(x.bits, src, dst)), branched)


# -- plan and assembly -----------------------------------------------------


class GluingPlan(NamedTuple):
    """Everything needed to splice the factor into one Hamilton cycle.

    rewrites holds the rewrites the plan's scans found, every rewrite at the
    anchor only when the plan was built with full=True; exceptions holds the
    keys of the cycles that have no rewrite leading downhill.  at maps each
    end of a tree edge to its (cycle, position) in the factor."""

    n: int
    k: int
    anchor: int
    factor: CycleFactor
    rewrites: tuple[RewriteMatch, ...]
    rotation_base: int
    rotation_pairs: tuple[tuple[CyclicBitstring, CyclicBitstring], ...]
    tree: tuple[RewriteMatch, ...]
    exceptions: tuple[int, ...]
    at: dict[int, tuple[int, int]]

    __repr__ = _repr_without("factor", "rewrites", "tree", "at")

    def family_counts(self) -> dict[int, int]:
        return dict(sorted(Counter(r.family for r in self.rewrites).items()))


def build_gluing_plan(n: int, k: int, anchor: int = 0, full: bool = False) -> GluingPlan:
    """The splices that glue the factor of K(n, k) at the given anchor.

    With full, every cycle is scanned to the end and rewrites lists every
    rewrite; the tree and the rotation pairs are chosen the same way."""
    if k < 1:
        raise ParameterError("k must be at least 1")
    if k >= 2 and n < 2 * k + 3:
        raise ParameterError("gluing needs n >= 2k+3 when k >= 2")
    factor = cycle_factor(n, k)
    cycles, locate = factor.cycles, factor.locate
    ell = n - 2 * k
    p = anchor % n

    g = gcd(n, k)
    svert = [single_glider_vertex(n, k, i) for i in range(n)]
    # a rotation trial's 2(g - 1) ends are svert at distinct offsets below 2k < n
    if len({s.bits for s in svert}) != n:
        raise InternalConsistencyError("single-glider vertices repeat")
    roots = {locate(s.bits)[0] for s in svert}
    if len(roots) != g:
        raise InternalConsistencyError("single-glider cycle count differs from gcd(n, k)")

    # V of each cycle, constant along it, and the cycle's potential P
    speeds = [speed_multiset_direct(CyclicBitstring(n, k, c.key)) for c in cycles]
    potential = [(len(v), v[::-1], c.key) for v, c in zip(speeds, cycles)]

    # union-find over cycles, with all roots as one node
    comp = list(range(len(cycles)))
    for r in roots:
        comp[r] = min(roots)
    tree: list[RewriteMatch] = []
    at: dict[int, tuple[int, int]] = {}
    spanning = len(cycles) - len(roots)  # tree edges that join every node

    def find(a: int) -> int:
        while comp[a] != a:
            comp[a] = comp[comp[a]]
            a = comp[a]
        return a

    def join(ci: int, rm: RewriteMatch, i: int, cj: int, j: int) -> None:
        a, b = find(ci), find(cj)
        if a != b:
            comp[a] = b
            tree.append(rm)
            at[rm.x.bits], at[rm.image.bits] = (ci, i), (cj, j)

    # the rewrites found on each cycle, each with x's position on it and the
    # image's cycle and position
    found: list[list[tuple[RewriteMatch, int, int, int]]] = [[] for _ in cycles]
    scanned = [0] * len(cycles)  # vertices of each cycle scanned so far

    def scan(ci: int, to_parent: bool) -> bool:
        """Go on with cycle ci's scan, to the end or, with to_parent, up to
        the first rewrite that leads downhill, to a root or a smaller
        potential: that parent edge joins the tree and makes the result True."""
        vs = cycles[ci].vertices  # in f-order, so f(x) is the next vertex
        for i in range(scanned[ci], len(vs)):
            hit = _match_bits(vs[i], n, k, p, vs[(i + 1) % len(vs)], speeds[ci], factor)
            if hit is not None:
                family, src, dst, branched = hit
                x, image = CyclicBitstring(n, k, vs[i]), _move_one(vs[i], src, dst)
                cj, j = locate(image)
                rm = RewriteMatch(family, x, CyclicBitstring(n, k, image), branched)
                found[ci].append((rm, i, cj, j))
                if to_parent and (cj in roots or potential[cj] < potential[ci]):
                    scanned[ci] = i + 1
                    join(ci, rm, i, cj, j)
                    return True
        scanned[ci] = len(vs)
        return False

    exceptions = []
    for ci in range(len(cycles)):
        if ci not in roots and not scan(ci, to_parent=True):
            exceptions.append(ci)
    # join the exceptions' rewrites, then resume the scans, until the tree
    # spans; full scans on to the end, but with k = 1 the factor is one cycle
    for ci in chain(exceptions, range(len(cycles))):
        if len(tree) == spanning and not (full and k >= 2):
            break
        scan(ci, to_parent=False)
        for hit in found[ci]:
            join(ci, *hit)
    if len(tree) != spanning:
        raise InternalConsistencyError("the auxiliary cycle graph is disconnected")
    rewrites = [hit[0] for lst in found for hit in lst]

    touched = {b for rm in rewrites for b in (rm.x.bits, rm.image.bits)}
    if len(touched) != 2 * len(rewrites):
        raise InternalConsistencyError("rewrite endpoints collide")
    if not all(is_connector(rm.x, rm.image) for rm in rewrites):
        raise InternalConsistencyError("a rewrite pair fails the connector test")

    for off in range(n):
        base = (p + ell + 2 + off) % n
        pairs = [
            (svert[(base + j) % n], svert[(base + j + k + 1) % n]) for j in range(g - 1)
        ]
        if not {s.bits for pair in pairs for s in pair} & touched:
            break
    else:
        raise InternalConsistencyError("no rotation offset avoids the rewrite endpoints")

    return GluingPlan(
        n=n,
        k=k,
        anchor=p,
        factor=factor,
        rewrites=tuple(rewrites),
        rotation_base=base,
        rotation_pairs=tuple(pairs),
        tree=tuple(tree),
        exceptions=tuple(cycles[ci].key for ci in exceptions),
        at=at,
    )


def assemble_hamilton(plan: GluingPlan) -> tuple[int, ...]:
    """The Hamilton cycle of iter_tour(plan) as the tuple of its vertex
    bitmasks in cycle order."""
    return tuple(iter_tour(plan))


def iter_tour(plan: GluingPlan) -> Iterator[int]:
    """Splice the selected 4-cycles into the factor and walk the result,
    yielding each vertex bitmask as it is reached.

    Only splice endpoints change neighbours, so only they get two neighbour
    slots, filled from their factor cycle; each splice swaps two edges in
    O(1).  Between endpoints the walk steps along the factor cycles' own
    vertex tuples.  Each splice must find its edges and join only disjoint
    sets, and the walk must first return to its start after C(n, k) steps:
    the spliced graph is 2-regular, so it is then one Hamilton cycle.  These
    checks raise as the walk reaches them, after the vertices before."""
    cycles = plan.factor.cycles
    if any(len(c) < 3 for c in cycles):
        raise InternalConsistencyError("factor cycle too short to splice")
    # endpoint -> [neighbour, neighbour, its cycle's vertices, its position]
    slots: dict[int, list] = {}

    def successor(u: int) -> int:
        """f(u), read off u's cycle; u and f(u) get their slots.  Only the
        rotation pairs' ends are looked up: the plan holds the tree's."""
        ci, i = plan.at.get(u) or plan.factor.locate(u)
        vs = cycles[ci].vertices
        for j in (i, (i + 1) % len(vs)):
            if vs[j] not in slots:
                slots[vs[j]] = [vs[j - 1], vs[(j + 1) % len(vs)], vs, j]
        return vs[(i + 1) % len(vs)]

    def swap(u: int, old: int, new: int) -> None:
        lst = slots.get(u, [])  # a splice end without slots has no edge here
        if old not in lst[:2]:
            raise InternalConsistencyError("splice edge is not present")
        lst[lst.index(old)] = new

    def splice(a: int, b: int, c: int, d: int) -> None:
        """Trade the ring a-b-c-d's factor edges a-b and c-d for its chords
        b-c and d-a."""
        ring = (a, b, c, d)
        if any(u & v for u, v in zip(ring, ring[1:] + ring[:1])):
            raise InternalConsistencyError("splice chord joins meeting sets")
        swap(a, b, d)
        swap(b, a, c)
        swap(c, d, b)
        swap(d, c, a)

    for rm in plan.tree:  # a connector's ring x, f(x), y, f(y)
        x, y = rm.x.bits, rm.image.bits
        splice(x, successor(x), y, successor(y))
    for a, b in plan.rotation_pairs:  # a rotation pair's ring x, f(x), f(y), y
        splice(a.bits, successor(a.bits), successor(b.bits), b.bits)

    vs, i, step = cycles[0].vertices, 0, -1  # slot 0 of a factor vertex is its predecessor
    start, size = vs[0], len(vs)
    yield start
    prev, cur = -1, start
    total = comb(plan.n, plan.k)
    for listed in range(1, total + 1):  # listed vertices have been yielded
        if cur not in slots:
            i = (i + step) % size
            nxt = vs[i]
        else:
            s = slots[cur]
            nxt = s[0] if s[0] != prev else s[1]
            if nxt not in slots:  # back onto cur's own factor cycle
                vs, i = s[2], s[3]
                size = len(vs)
                step = 1 if nxt == vs[(i + 1) % size] else -1
                i = (i + step) % size
                if vs[i] != nxt:
                    raise InternalConsistencyError("spliced neighbour has no slots")
        if nxt == start:
            break
        yield nxt
        prev, cur = cur, nxt
    else:
        raise InternalConsistencyError("splice walk does not close into one cycle")
    if listed != total:
        raise InternalConsistencyError("splice walk closes before visiting every vertex")
