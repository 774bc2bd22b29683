"""Joining the cycles of the factor into one Hamilton cycle.

Two vertices whose parenthesis matchings agree except for a single visible
pair form a connector: the pair (x, f(x), y, f(y)) is then a 4-cycle of the
graph, and exchanging its factor edges for its chords merges the cycles
through x and y.  Nine local rewrite rules, each a pattern anchored at a
fixed position p, pick one partner vertex for every vertex they match, and
the resulting pairs never share an endpoint.  Vertices whose k 1s are
consecutive are handled separately: their cycles are chained by rotation
pairs whose 4-cycles have a different chord shape.  A spanning tree of the
auxiliary graph (one node per remaining cycle, one node for the chained
ones) selects which connectors to splice; the symmetric difference of all
chosen 4-cycles with the factor is the Hamilton cycle.
"""

from collections import Counter, deque
from dataclasses import dataclass, field
from math import comb, gcd

from .bitstrings import (
    CycleFactor,
    CyclicBitstring,
    Matching,
    _f_bits,
    apply_f,
    cycle_factor,
    parenthesis_match,
    rotate_bits,
)
from .dynamics import tau
from .errors import InternalConsistencyError, ParameterError
from .gliders import glider_partition, speed_multiset_direct

__all__ = [
    "is_connector",
    "connector_partners",
    "connector_four_cycle",
    "RewriteMatch",
    "match_rewrite",
    "single_glider_vertex",
    "GluingPlan",
    "build_gluing_plan",
    "assemble_hamilton",
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


def connector_four_cycle(
    x: CyclicBitstring, y: CyclicBitstring
) -> tuple[CyclicBitstring, CyclicBitstring, CyclicBitstring, CyclicBitstring]:
    """The 4-cycle (x, f(x), y, f(y)) that a connector opens between the two
    factor cycles; its chords replace the factor edges when splicing."""
    if not is_connector(x, y):
        raise ParameterError("the two vertices do not form a connector")
    quad = (x, apply_f(x), y, apply_f(y))
    ring = quad + (quad[0],)
    for u, v in zip(ring, ring[1:]):
        if u.bits & v.bits:
            raise InternalConsistencyError("four-cycle chord joins meeting sets")
    return quad


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


class _Probe:
    """Lazy per-vertex context for the rule matchers: bit tests on the
    matching masks, positions taken mod n."""

    __slots__ = ("x", "n", "k", "ell", "m", "_unmatched", "_speeds")

    def __init__(self, x: CyclicBitstring):
        self.x = x
        self.n = x.n
        self.k = x.k
        self.ell = x.n - 2 * x.k
        self.m = parenthesis_match(x)
        self._unmatched = self.m.unmatched
        self._speeds: tuple[int, ...] | None = None

    def speeds(self) -> tuple[int, ...]:
        if self._speeds is None:
            self._speeds = speed_multiset_direct(self.x)
        return self._speeds

    def one(self, i: int) -> int:
        return self.x.bits >> (i % self.n) & 1

    def um(self, i: int) -> int:
        return self._unmatched >> (i % self.n) & 1

    def mzero(self, i: int) -> int:
        return self.m.matched_zeros >> (i % self.n) & 1

    def matched(self, i: int) -> bool:
        return not self.um(i)

    def vis(self, i: int, j: int) -> bool:
        """(i, j) is a visible pair; i is then a 1 and j its partner."""
        i, m = i % self.n, self.m
        return bool((m.visible & m.bits) >> i & 1) and _after_visible(m, i) == j % self.n


@dataclass(frozen=True)
class _Hit:
    family: int
    src: int
    dst: int
    alt: int | None = None  # second landing slot of a two-way rule
    probe: int | None = None  # 1-bit of the fresh glider that drives the choice


def _block_run(pr: _Probe, start: int) -> int:
    """Length of the maximal matched run beginning at start."""
    length = 1
    while not pr.um(start + length):
        length += 1
    return length


def _block_start(pr: _Probe, i: int) -> int:
    """Leftmost position of the maximal matched run containing i (plain
    integer, possibly below zero; congruent mod n)."""
    while pr.matched(i - 1):
        i -= 1
    return i


def _glider_tail(pr: _Probe, p: int) -> tuple[int, int] | None:
    """For p on a run of matched 0s: (q, a) when positions q..q+2a-1 hold a
    visibly paired block tail 1^a 0^a whose 0-run contains p."""
    e = p
    while pr.mzero(e + 1):
        e += 1
    rs = p
    while pr.mzero(rs - 1):
        rs -= 1
    a = e - rs + 1
    q = rs - a
    if any(not pr.one(q + i) for i in range(a)):
        return None
    if not pr.vis(q, e):
        return None
    return q, a


def _glider_head(pr: _Probe, p: int) -> tuple[int, int] | None:
    """For p on a run of 1s: (q, a) when the run q..q+a-1 continues as a
    visibly paired 1^a 0^a."""
    q = p
    while pr.one(q - 1):
        q -= 1
    e = p
    while pr.one(e + 1):
        e += 1
    a = e - q + 1
    if any(not pr.mzero(q + a + i) for i in range(a)):
        return None
    if not pr.vis(q, q + 2 * a - 1):
        return None
    return q, a


def _exact_block(pr: _Probe, start: int, b: int) -> bool:
    """The maximal matched run at start is exactly 1^b 0^b."""
    if any(not pr.one(start + i) for i in range(b)):
        return False
    if any(not pr.mzero(start + b + i) for i in range(b)):
        return False
    return pr.um(start + 2 * b)


def _match_rule1(pr: _Probe, p: int) -> _Hit | None:
    if pr.k < 2 or not pr.um(p):
        return None
    if not pr.one(p + 1):
        return None
    if not pr.vis(p + 1, p + 2):
        return None
    if any(not pr.um(p + i) for i in range(3, pr.ell + 2)):
        return None
    return _Hit(1, p + 1, p + pr.ell + 1)


def _match_rule2(pr: _Probe, p: int) -> _Hit | None:
    if not pr.mzero(p):
        return None
    tail = _glider_tail(pr, p)
    if tail is None:
        return None
    q, a = tail
    if a % 2:
        return None
    if not (pr.um(q + 2 * a) and pr.um(q + 2 * a + 1) and pr.um(q + 2 * a + 2)):
        return None
    sp = pr.speeds()
    if len(sp) < 2 or sp[0] != a:
        return None
    return _Hit(2, q, q + 2 * a, q + 2 * a + 1, q + 2 * a)


def _match_rule3(pr: _Probe, p: int) -> _Hit | None:
    if not pr.mzero(p):
        return None
    tail = _glider_tail(pr, p)
    if tail is None:
        return None
    q, a = tail
    if a % 2 or not pr.um(q + 2 * a):
        return None
    gap = 1
    while pr.um(q + 2 * a + gap):
        gap += 1
    if gap > 2:
        return None
    if pr.speeds()[0] != a:
        return None
    return _Hit(3, q, q + 2 * a + gap - 1)


def _match_rule4(pr: _Probe, p: int) -> _Hit | None:
    if not pr.one(p):
        return None
    head = _glider_head(pr, p)
    if head is None:
        return None
    q, a = head
    if a % 2 == 0:
        return None
    if not (pr.um(q + 2 * a) and pr.um(q + 2 * a + 1) and pr.um(q + 2 * a + 2)):
        return None
    if a == 1 and any(not pr.um(q + 2 + i) for i in range(pr.ell)):
        return None
    sp = pr.speeds()
    if len(sp) < 2 or sp[0] != a:
        return None
    return _Hit(4, q, q + 2 * a, q + 2 * a + 1, q + 2 * a)


def _match_rule5(pr: _Probe, p: int) -> _Hit | None:
    if not pr.one(p):
        return None
    head = _glider_head(pr, p)
    if head is None:
        return None
    q, a = head
    if a % 2 == 0 or not pr.um(q + 2 * a):
        return None
    gap = 1
    while pr.um(q + 2 * a + gap):
        gap += 1
    c = gap - 1
    if a != 1 and c not in (0, 1):
        return None
    ws = q + 2 * a + gap
    wlen = _block_run(pr, ws)
    if (q - ws) % pr.n < wlen:
        return None  # the next block wraps around into the glider's own
    sp = pr.speeds()
    if sp[0] != a:
        return None
    third = len(sp) >= 3 and sp[1] < sp[2]
    if third and a == 1:
        b = sp[1]
        bs = _block_start(pr, q)
        prefix_block = (
            q - bs == 2 * b
            and all(pr.one(bs + i) for i in range(b))
            and all(pr.mzero(bs + b + i) for i in range(b))
        )
        if c == 0 and prefix_block:
            return None  # another rule covers the vertex from the left
        if wlen == 2 * b and _exact_block(pr, ws, b):
            if not (c == 0 and b == 1):
                return None
    return _Hit(5, q, ws - 1)


def _match_rule6(pr: _Probe, p: int) -> _Hit | None:
    if not pr.one(p) or pr.one(p + 1):  # an adjacent 10 always pairs
        return None
    if not pr.um(p + 2) or not pr.matched(p + 3):
        return None
    sp = pr.speeds()
    if len(sp) < 3 or sp[1] >= sp[2]:
        return None
    b = sp[1]
    if any(not pr.mzero(p - 1 - i) for i in range(b)):
        return None
    if any(not pr.one(p - b - 1 - i) for i in range(b)):
        return None
    if not pr.vis(p - 2 * b, p - 1):
        return None
    if not pr.um(p - 2 * b - 1):
        return None
    return _Hit(6, p - 2 * b, p + 2)


def _match_rule7(pr: _Probe, p: int) -> _Hit | None:
    if not pr.vis(p, p + 1):
        return None
    if not pr.um(p + 2):
        return None
    sp = pr.speeds()
    if len(sp) < 3 or sp[1] >= sp[2] or sp[1] < 2:
        return None
    b = sp[1]
    i = p + 2
    while pr.um(i):
        i += 1
    if not _exact_block(pr, i, b):
        return None
    j = i + 2 * b
    while pr.um(j):
        j += 1
    wlen = _block_run(pr, j)
    if (p - j) % pr.n < wlen:
        return None  # that run is the anchor's own block coming back around
    return _Hit(7, p, j - 1)


def _match_rule8(pr: _Probe, p: int) -> _Hit | None:
    if not pr.vis(p, p + 1):
        return None
    if not pr.matched(p - 1):
        return None
    if not pr.um(p + 2):
        return None
    gap = 1
    while pr.um(p + 2 + gap):
        gap += 1
    c = gap - 1
    sp = pr.speeds()
    if len(sp) < 3 or sp[1] >= sp[2]:
        return None
    b = sp[1]
    if not (b >= 2 or c == 1):
        return None
    i = p + 2 + gap
    if any(not pr.one(i + t) for t in range(b)):
        return None
    if any(not pr.mzero(i + b + t) for t in range(b)):
        return None
    bs = _block_start(pr, p)
    span = (bs - 1 - (i + 2 * b)) % pr.n + 1
    if any(not pr.um(i + 2 * b + t) for t in range(span)):
        return None
    return _Hit(8, i, bs - 1)


def _match_rule9(pr: _Probe, p: int) -> _Hit | None:
    if not pr.vis(p, p + 1):
        return None
    if not pr.matched(p - 1):
        return None
    if not pr.um(p + 2):
        return None
    gap = 1
    while pr.um(p + 2 + gap):
        gap += 1
    if gap < 3:
        return None
    i = p + 2 + gap
    if not pr.one(i) or not pr.mzero(i + 1):
        return None
    bs = _block_start(pr, p)
    span = (bs - 1 - (i + 2)) % pr.n + 1
    if any(not pr.um(i + 2 + t) for t in range(span)):
        return None
    sp = pr.speeds()
    if len(sp) < 3 or sp[2] <= 1:
        return None
    return _Hit(9, p, p + gap - 1)


_RULES = (
    _match_rule1,
    _match_rule2,
    _match_rule3,
    _match_rule4,
    _match_rule5,
    _match_rule6,
    _match_rule7,
    _match_rule8,
    _match_rule9,
)


@dataclass(frozen=True)
class RewriteMatch:
    """One vertex matched by a rewrite rule together with its partner."""

    family: int
    x: CyclicBitstring
    image: CyclicBitstring
    branched: bool = False  # a two-way rule took its second landing slot


def _move_one(x: CyclicBitstring, src: int, dst: int) -> CyclicBitstring:
    src %= x.n
    dst %= x.n
    if not (x.bits >> src) & 1 or (x.bits >> dst) & 1:
        raise InternalConsistencyError("rewrite must move a 1 onto a 0")
    return CyclicBitstring(x.n, x.k, x.bits ^ (1 << src) | (1 << dst))


def match_rewrite(x: CyclicBitstring, p: int = 0) -> RewriteMatch | None:
    """Apply the one rewrite rule matching x at anchor p, if any."""
    if x.n - 2 * x.k < 3:
        raise ParameterError("the rewrite rules need n >= 2k+3")
    pr = _Probe(x)
    hits = [h for f in _RULES if (h := f(pr, p)) is not None]
    if not hits:
        return None
    if len(hits) > 1:
        raise InternalConsistencyError(
            f"rules {[h.family for h in hits]} all claim {x} at anchor {p}"
        )
    hit = hits[0]
    image = _move_one(x, hit.src, hit.dst)
    branched = False
    if hit.alt is not None:
        part = glider_partition(image)
        g = part.glider_at(hit.probe % x.n)
        if g is None or g.speed != 1:
            raise InternalConsistencyError("two-way rule expects a fresh speed-1 glider")
        try:
            z = tau(image, g, 1, p % x.n, partition=part).z
        except ParameterError as exc:
            raise InternalConsistencyError("two-way rule probe is not trackable") from exc
        if _match_rule4(_Probe(z), p) is not None:
            image = _move_one(x, hit.src, hit.alt)
            branched = True
    return RewriteMatch(hit.family, x, image, branched)


# -- plan and assembly -----------------------------------------------------


@dataclass(frozen=True)
class GluingPlan:
    """Everything needed to splice the factor into one Hamilton cycle."""

    n: int
    k: int
    anchor: int
    factor: CycleFactor = field(repr=False)
    rewrites: tuple[RewriteMatch, ...] = field(repr=False)
    rotation_base: int
    rotation_pairs: tuple[tuple[CyclicBitstring, CyclicBitstring], ...]
    single_glider_keys: frozenset[int]
    tree: tuple[RewriteMatch, ...] = field(repr=False)

    def family_counts(self) -> dict[int, int]:
        return dict(sorted(Counter(r.family for r in self.rewrites).items()))


def build_gluing_plan(
    n: int, k: int, anchor: int = 0, factor: CycleFactor | None = None
) -> GluingPlan:
    if k < 1:
        raise ParameterError("k must be at least 1")
    if k >= 2 and n < 2 * k + 3:
        raise ParameterError("gluing needs n >= 2k+3 when k >= 2")
    if factor is None:
        factor = cycle_factor(n, k)
    ell = n - 2 * k
    p = anchor % n

    rewrites: list[RewriteMatch] = []
    if k >= 2:
        for cyc in factor.cycles:
            for bits in cyc.vertices:
                rm = match_rewrite(CyclicBitstring(n, k, bits), p)
                if rm is not None:
                    rewrites.append(rm)

    touched: set[int] = set()
    for rm in rewrites:
        for b in (rm.x.bits, rm.image.bits):
            if b in touched:
                raise InternalConsistencyError("rewrite endpoints collide")
            touched.add(b)
    for rm in rewrites:
        if not is_connector(rm.x, rm.image):
            raise InternalConsistencyError("a rewrite pair fails the connector test")

    g = gcd(n, k)
    svert = [single_glider_vertex(n, k, i) for i in range(n)]
    d_keys = frozenset(factor.cycle_containing(s.bits).key for s in svert)
    if len(d_keys) != g:
        raise InternalConsistencyError("single-glider cycle count differs from gcd(n, k)")

    base = None
    pairs: list[tuple[CyclicBitstring, CyclicBitstring]] = []
    for off in range(n):
        cand = (p + ell + 2 + off) % n
        trial = [
            (svert[(cand + j) % n], svert[(cand + j + k + 1) % n]) for j in range(g - 1)
        ]
        ends = {s.bits for pair in trial for s in pair}
        if len(ends) == 2 * (g - 1) and not (ends & touched):
            base, pairs = cand, trial
            break
    if base is None:
        raise InternalConsistencyError("no rotation offset avoids the rewrite endpoints")

    def node_of(bits: int) -> int:
        key = factor.cycle_containing(bits).key
        return -1 if key in d_keys else key  # -1: all single-glider cycles as one node

    adjacency: dict[int, list[tuple[int, RewriteMatch]]] = {-1: []}
    for cyc in factor.cycles:
        if cyc.key not in d_keys:
            adjacency[cyc.key] = []
    for rm in rewrites:
        a, b = node_of(rm.x.bits), node_of(rm.image.bits)
        if a != b:
            adjacency[a].append((b, rm))
            adjacency[b].append((a, rm))
    for lst in adjacency.values():
        lst.sort(key=lambda e: (e[0], e[1].x.bits))

    seen = {-1}
    queue = deque([-1])
    tree: list[RewriteMatch] = []
    while queue:
        u = queue.popleft()
        for v, rm in adjacency[u]:
            if v not in seen:
                seen.add(v)
                tree.append(rm)
                queue.append(v)
    if len(seen) != len(adjacency):
        raise InternalConsistencyError("the auxiliary cycle graph is disconnected")

    return GluingPlan(
        n=n,
        k=k,
        anchor=p,
        factor=factor,
        rewrites=tuple(rewrites),
        rotation_base=base,
        rotation_pairs=tuple(pairs),
        single_glider_keys=d_keys,
        tree=tuple(tree),
    )


def assemble_hamilton(plan: GluingPlan) -> tuple[int, ...]:
    """Splice the selected 4-cycles into the factor and walk the result.

    The factor is kept as a 2-regular adjacency table; each splice swaps two
    edges in O(1).  The final walk must visit every vertex once and close;
    it is returned as the tuple of vertex bitmasks in cycle order."""
    n = plan.n
    adj: dict[int, list[int]] = {}
    for cyc in plan.factor.cycles:
        vs = cyc.vertices
        if len(vs) < 3:
            raise InternalConsistencyError("factor cycle too short to splice")
        for i, v in enumerate(vs):
            adj[v] = [vs[i - 1], vs[(i + 1) % len(vs)]]

    def swap(u: int, old: int, new: int) -> None:
        lst = adj[u]
        if lst[0] == old:
            lst[0] = new
        elif lst[1] == old:
            lst[1] = new
        else:
            raise InternalConsistencyError("splice edge is not present")

    def splice(xb: int, yb: int, cross: bool) -> None:
        fx, fy = _f_bits(xb, n), _f_bits(yb, n)
        if cross:  # connector chords x-f(y) and y-f(x)
            swap(xb, fx, fy)
            swap(fx, xb, yb)
            swap(yb, fy, fx)
            swap(fy, yb, xb)
        else:  # rotation chords x-y and f(x)-f(y)
            swap(xb, fx, yb)
            swap(fx, xb, fy)
            swap(yb, fy, xb)
            swap(fy, yb, fx)

    for rm in plan.tree:
        splice(rm.x.bits, rm.image.bits, cross=True)
    for a, b in plan.rotation_pairs:
        splice(a.bits, b.bits, cross=False)

    total = plan.factor.total_vertices()
    start = plan.factor.cycles[0].key
    out = [start]
    prev, cur = -1, start
    for _ in range(total - 1):
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        out.append(nxt)
        prev, cur = cur, nxt
    closing = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
    if closing != start:
        raise InternalConsistencyError("splice walk does not close into one cycle")
    if len(set(out)) != total or total != comb(n, plan.k):
        raise InternalConsistencyError("splice walk misses vertices")
    for u, v in zip(out, out[1:] + [start]):
        if u & v:
            raise InternalConsistencyError("walk contains a non-edge")
    return tuple(out)
