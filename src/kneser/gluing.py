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
from dataclasses import dataclass, field
from math import comb, gcd
from typing import NamedTuple

from .bitstrings import (
    CycleFactor,
    CyclicBitstring,
    Matching,
    _annotate,
    _f_bits,
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
# A rule reads one window w: x's annotated string ('1', '0' for a matched 0,
# '-' for an unmatched 0) rotated so that index n is the anchor, three copies
# long, so index i is position (i + p) mod n.  Patterns are literal strings
# compared at an index.  Three copies suffice: the leftmost read is the start
# of a block before the anchor, which lies after index 0, and every run that
# can complete a match starts at or before index 2n and is shorter than n.
# Inside 1^a 0^a the first 1 pairs with the last 0.  The rules that read such
# a block all require an unmatched 0 right after it, and no pair encloses an
# unmatched 0, so that pair is visible.  A rule also gets k and V(x), the
# speeds of x's gliders in non-decreasing order.


class _Hit(NamedTuple):
    """Window indices of the 1 a rule moves and of its landing slot; a two-way
    rule has a second slot alt, and its fresh speed-1 glider has its 1 at dst."""

    family: int
    src: int
    dst: int
    alt: int | None = None


def _run(w: str, i: int, chars: str) -> int:
    """Length of the run of chars that starts at index i."""
    rest = w[i:]
    return len(rest) - len(rest.lstrip(chars))


def _glider_tail(w: str) -> tuple[int, int] | None:
    """For the anchor on a run of matched 0s: (q, a) when that run is the
    tail of a 1^a 0^a at q."""
    n = len(w) // 3
    start = len(w[:n].rstrip("0"))
    a = n + _run(w, n, "0") - start
    q = start - a
    if not w.startswith("1" * a, q):
        return None
    return q, a


def _glider_head(w: str) -> tuple[int, int] | None:
    """For the anchor on a run of 1s: (q, a) when that run q..q+a-1 continues
    as a 1^a 0^a."""
    n = len(w) // 3
    q = len(w[:n].rstrip("1"))
    a = n + _run(w, n, "1") - q
    if not w.startswith("0" * a, q + a):
        return None
    return q, a


def _closes_circle(w: str, i: int) -> bool:
    """Unmatched 0s run from i up to the next copy of the anchor's block."""
    n = len(w) // 3
    return i + _run(w, i, "-") == w.rfind("-", 0, n) + 1 + n


def _match_rule1(w: str, k: int, sp: tuple[int, ...]) -> _Hit | None:
    n = len(w) // 3
    ell = n - 2 * k
    if k < 2 or not w.startswith("-10" + "-" * (ell - 1), n):
        return None
    return _Hit(1, n + 1, n + ell + 1)


def _match_rule2(w: str, k: int, sp: tuple[int, ...]) -> _Hit | None:
    tail = _glider_tail(w)
    if tail is None:
        return None
    q, a = tail
    if a % 2 or not w.startswith("---", q + 2 * a):
        return None
    if len(sp) < 2 or sp[0] != a:
        return None
    return _Hit(2, q, q + 2 * a, q + 2 * a + 1)


def _match_rule3(w: str, k: int, sp: tuple[int, ...]) -> _Hit | None:
    tail = _glider_tail(w)
    if tail is None:
        return None
    q, a = tail
    gap = _run(w, q + 2 * a, "-")
    if a % 2 or not 1 <= gap <= 2 or sp[0] != a:
        return None
    return _Hit(3, q, q + 2 * a + gap - 1)


def _match_rule4(w: str, k: int, sp: tuple[int, ...]) -> _Hit | None:
    head = _glider_head(w)
    if head is None:
        return None
    q, a = head
    ell = len(w) // 3 - 2 * k
    if a % 2 == 0 or not w.startswith("-" * (ell if a == 1 else 3), q + 2 * a):
        return None
    if len(sp) < 2 or sp[0] != a:
        return None
    return _Hit(4, q, q + 2 * a, q + 2 * a + 1)


def _match_rule5(w: str, k: int, sp: tuple[int, ...]) -> _Hit | None:
    head = _glider_head(w)
    if head is None:
        return None
    q, a = head
    gap = _run(w, q + 2 * a, "-")
    if a % 2 == 0 or gap == 0 or (a != 1 and gap > 2):
        return None
    ws = q + 2 * a + gap
    if ws + _run(w, ws, "10") > q + len(w) // 3:
        return None  # the next block wraps around into the glider's own
    if sp[0] != a:
        return None
    if a == 1 and len(sp) >= 3 and sp[1] < sp[2]:
        b = sp[1]
        block = "1" * b + "0" * b
        if gap == 1 and w.startswith("-" + block, q - 2 * b - 1):
            return None  # another rule covers the vertex from the left
        if w.startswith(block + "-", ws) and not (gap == 1 and b == 1):
            return None
    return _Hit(5, q, ws - 1)


def _match_rule6(w: str, k: int, sp: tuple[int, ...]) -> _Hit | None:
    n = len(w) // 3
    if not w.startswith("10-", n) or w[n + 3] == "-":
        return None
    if len(sp) < 3 or sp[1] >= sp[2]:
        return None
    b = sp[1]
    if not w.startswith("-" + "1" * b + "0" * b, n - 2 * b - 1):
        return None
    return _Hit(6, n - 2 * b, n + 2)


def _match_rule7(w: str, k: int, sp: tuple[int, ...]) -> _Hit | None:
    n = len(w) // 3
    if not w.startswith("10-", n):
        return None
    if len(sp) < 3 or sp[1] >= sp[2] or sp[1] < 2:
        return None
    b = sp[1]
    i = n + 2 + _run(w, n + 2, "-")
    if not w.startswith("1" * b + "0" * b + "-", i):
        return None
    j = i + 2 * b + _run(w, i + 2 * b, "-")
    if j + _run(w, j, "10") > 2 * n:
        return None  # that run is the anchor's own block coming back around
    return _Hit(7, n, j - 1)


def _match_rule8(w: str, k: int, sp: tuple[int, ...]) -> _Hit | None:
    n = len(w) // 3
    if not w.startswith("10-", n) or w[n - 1] == "-":
        return None
    gap = _run(w, n + 2, "-")
    if len(sp) < 3 or sp[1] >= sp[2]:
        return None
    b = sp[1]
    if b < 2 and gap != 2:
        return None
    i = n + 2 + gap
    if not w.startswith("1" * b + "0" * b, i) or not _closes_circle(w, i + 2 * b):
        return None
    return _Hit(8, i, w.rfind("-", 0, n))


def _match_rule9(w: str, k: int, sp: tuple[int, ...]) -> _Hit | None:
    n = len(w) // 3
    if not w.startswith("10-", n) or w[n - 1] == "-":
        return None
    gap = _run(w, n + 2, "-")
    i = n + 2 + gap
    if gap < 3 or not w.startswith("10", i) or not _closes_circle(w, i + 2):
        return None
    if len(sp) < 3 or sp[2] <= 1:
        return None
    return _Hit(9, n, n + gap - 1)


# the rules that can match, by the anchor's glyph
_RULES = {
    "-": (_match_rule1,),
    "0": (_match_rule2, _match_rule3),
    "1": (_match_rule4, _match_rule5, _match_rule6, _match_rule7, _match_rule8, _match_rule9),
}


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


def _window(x: CyclicBitstring, p: int, fx: int | None = None) -> str:
    """The rules' window of x at anchor p.  f(x) is x's matched-zero mask,
    so fx = f(x), when the caller has it, spares the matching scan."""
    s = _annotate(x.bits, _f_bits(x.bits, x.n) if fx is None else fx, x.n)
    return (s[p:] + s[:p]) * 3


def match_rewrite(
    x: CyclicBitstring, p: int = 0, fx: int | None = None, vx: tuple[int, ...] | None = None
) -> RewriteMatch | None:
    """Apply the one rewrite rule matching x at anchor p, if any; fx, if
    given, is f(x), and vx, if given, is V(x)."""
    if x.n - 2 * x.k < 3:
        raise ParameterError("the rewrite rules need n >= 2k+3")
    p %= x.n
    w = _window(x, p, fx)
    sp = speed_multiset_direct(x) if vx is None else vx
    hits = [h for rule in _RULES[w[x.n]] if (h := rule(w, x.k, sp)) is not None]
    if not hits:
        return None
    if len(hits) > 1:
        raise InternalConsistencyError(
            f"rules {[h.family for h in hits]} all claim {x} at anchor {p}"
        )
    hit = hits[0]
    image = _move_one(x, p + hit.src, p + hit.dst)
    branched = False
    if hit.alt is not None:
        part = glider_partition(image)
        g = part.glider_at(p + hit.dst)
        if g is None or g.speed != 1:
            raise InternalConsistencyError("two-way rule expects a fresh speed-1 glider")
        try:
            z = tau(image, g, 1, p, partition=part).z
        except ParameterError as exc:
            raise InternalConsistencyError("two-way rule probe is not trackable") from exc
        wz = _window(z, p)
        # z lies on the image's orbit, and V is constant along an orbit
        if wz[x.n] == "1" and _match_rule4(wz, z.k, part.speeds()):
            image = _move_one(x, p + hit.src, p + hit.alt)
            branched = True
    return RewriteMatch(hit.family, x, image, branched)


# -- plan and assembly -----------------------------------------------------


@dataclass(frozen=True)
class GluingPlan:
    """Everything needed to splice the factor into one Hamilton cycle.

    rewrites holds the rewrites the plan's scans found, every rewrite at the
    anchor only when the plan was built with full=True; exceptions holds the
    keys of the cycles that have no rewrite leading downhill."""

    n: int
    k: int
    anchor: int
    factor: CycleFactor = field(repr=False)
    rewrites: tuple[RewriteMatch, ...] = field(repr=False)
    rotation_base: int
    rotation_pairs: tuple[tuple[CyclicBitstring, CyclicBitstring], ...]
    tree: tuple[RewriteMatch, ...] = field(repr=False)
    exceptions: tuple[int, ...]

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

    # V of each cycle, constant along it
    speeds = [speed_multiset_direct(CyclicBitstring(n, k, c.key)) for c in cycles]

    def potential(ci: int) -> tuple:
        v = speeds[ci]
        return len(v), v[::-1], cycles[ci].key

    def downhill(ci: int, cj: int) -> bool:
        """Cycle cj is a root or has a smaller potential than cycle ci."""
        return cj in roots or potential(cj) < potential(ci)

    # the rewrites found on each cycle, each with its image's cycle; x's
    # cycle is the one scanned
    found: list[list[tuple[RewriteMatch, int]]] = [[] for _ in cycles]
    scanned = [0] * len(cycles)  # vertices of each cycle scanned so far

    def scan(ci: int, to_parent: bool) -> bool:
        """Go on with cycle ci's scan, to the end or, with to_parent, up to
        the first rewrite that leads downhill, which ends found[ci] and
        makes the result True."""
        vs = cycles[ci].vertices  # in f-order, so f(x) is the next vertex
        for i in range(scanned[ci], len(vs)):
            rm = match_rewrite(CyclicBitstring(n, k, vs[i]), p, vs[(i + 1) % len(vs)], speeds[ci])
            if rm is not None:
                cj = locate(rm.image.bits)[0]
                found[ci].append((rm, cj))
                if to_parent and downhill(ci, cj):
                    scanned[ci] = i + 1
                    return True
        scanned[ci] = len(vs)
        return False

    # union-find over cycles, with all roots as one node
    comp = list(range(len(cycles)))
    for r in roots:
        comp[r] = min(roots)
    tree: list[RewriteMatch] = []
    spanning = len(cycles) - len(roots)  # tree edges that join every node

    def find(a: int) -> int:
        while comp[a] != a:
            comp[a] = comp[comp[a]]
            a = comp[a]
        return a

    def join(ci: int, rm: RewriteMatch, cj: int) -> None:
        a, b = find(ci), find(cj)
        if a != b:
            comp[a] = b
            tree.append(rm)

    exceptions = []
    for ci in range(len(cycles)):
        if ci not in roots:
            if scan(ci, to_parent=True):
                join(ci, *found[ci][-1])
            else:
                exceptions.append(ci)
    for ci in exceptions:
        for rm, cj in found[ci]:
            join(ci, rm, cj)
    for ci in range(len(cycles)):
        if len(tree) == spanning:
            break
        scan(ci, to_parent=False)
        for rm, cj in found[ci]:
            join(ci, rm, cj)
    if len(tree) != spanning:
        raise InternalConsistencyError("the auxiliary cycle graph is disconnected")
    if full and k >= 2:  # with k = 1 the factor is one cycle, and the rules need k >= 2
        for ci in range(len(cycles)):
            scan(ci, to_parent=False)
    rewrites = [rm for lst in found for rm, _ in lst]

    touched: set[int] = set()
    for rm in rewrites:
        for b in (rm.x.bits, rm.image.bits):
            if b in touched:
                raise InternalConsistencyError("rewrite endpoints collide")
            touched.add(b)
    for rm in rewrites:
        if not is_connector(rm.x, rm.image):
            raise InternalConsistencyError("a rewrite pair fails the connector test")

    base = None
    pairs: list[tuple[CyclicBitstring, CyclicBitstring]] = []
    for off in range(n):
        cand = (p + ell + 2 + off) % n
        trial = [
            (svert[(cand + j) % n], svert[(cand + j + k + 1) % n]) for j in range(g - 1)
        ]
        if not {s.bits for pair in trial for s in pair} & touched:
            base, pairs = cand, trial
            break
    if base is None:
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
    )


def assemble_hamilton(plan: GluingPlan) -> tuple[int, ...]:
    """Splice the selected 4-cycles into the factor and walk the result.

    Only splice endpoints change neighbours, so only they get two neighbour
    slots, filled from their factor cycle; each splice swaps two edges in
    O(1).  Between endpoints the walk steps along the factor cycles' own
    vertex tuples.  Each splice must find its edges and join only disjoint
    sets, and the walk must first return to its start after C(n, k) steps:
    the spliced graph is 2-regular, so it is then one Hamilton cycle.  The
    tour is returned as the tuple of vertex bitmasks in cycle order."""
    cycles = plan.factor.cycles
    if any(len(c) < 3 for c in cycles):
        raise InternalConsistencyError("factor cycle too short to splice")
    # endpoint -> [neighbour, neighbour, its cycle's vertices, its position]
    slots: dict[int, list] = {}

    def successor(u: int) -> int:
        """f(u), read off u's cycle; u and f(u) get their slots."""
        ci, i = plan.factor.locate(u)
        vs = cycles[ci].vertices
        for j in (i, (i + 1) % len(vs)):
            if vs[j] not in slots:
                slots[vs[j]] = [vs[j - 1], vs[(j + 1) % len(vs)], vs, j]
        return vs[(i + 1) % len(vs)]

    def swap(u: int, old: int, new: int) -> None:
        lst = slots[u]
        if lst[0] == old:
            lst[0] = new
        elif lst[1] == old:
            lst[1] = new
        else:
            raise InternalConsistencyError("splice edge is not present")

    def splice(xb: int, yb: int, cross: bool) -> None:
        fx, fy = successor(xb), successor(yb)
        ring = (xb, fx, yb, fy) if cross else (xb, fx, fy, yb)
        if any(u & v for u, v in zip(ring, ring[1:] + ring[:1])):
            raise InternalConsistencyError("splice chord joins meeting sets")
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

    vs, i, step = cycles[0].vertices, 0, -1  # slot 0 of a factor vertex is its predecessor
    start, size = vs[0], len(vs)
    out = [start]
    prev, cur = -1, start
    total = comb(plan.n, plan.k)
    for _ in range(total):
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
        out.append(nxt)
        prev, cur = cur, nxt
    else:
        raise InternalConsistencyError("splice walk does not close into one cycle")
    if len(out) != total:
        raise InternalConsistencyError("splice walk closes before visiting every vertex")
    return tuple(out)
