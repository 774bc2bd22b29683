"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with different algorithms than the
package: the matcher contracts adjacent 10 pairs instead of running a stack,
the bit scan reads one position at a time where the package reads a byte,
the determinant does rational Gaussian elimination instead of fraction-free
elimination, the partition order is built by explicit enumeration, the
first-visit search follows a glider class through `advance` step by step
instead of reading two parallel orbits, the exhaustive search counts each
vertex's neighbours off the path in a dict where the package reads them
off one mask of the vertices off it, the dynamics trace runs `advance`
on every step where the package steps each string of the orbit once, the
glider shift finds its two bit
positions on the preimage f⁻¹(x) through `advance` where `tau` reads them
off the glider itself, the splice walk keeps a
neighbour table for every vertex instead of for the splice endpoints alone,
the rotation-extension search keeps a position map of its path instead
of searching the path, the glider partition recurses on lists of positions
(`decompose` and `arch`) and finds the trapping sets by walking up the
ancestors where the package reads one height walk, V recurses on
sub-words (`_w`) where the package makes one stack pass, the factor
scans every vertex where the package scans one glider period per rotation
class, the train composition walks each gap mod n per speed and cuts
the circle at its breaks where the package makes one pass in window order,
the tour check makes three passes over a list (count and repeats,
vertices, edges) where the package reads any iterable once, a chunk at a
time, and the rewrite rules compare literal patterns on a three-copy
annotated string where the package reads runs off rotated int masks.
The connector 4-cycle, the clean-glider test and the glider key are read by
tests alone.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb
from typing import Iterator, NamedTuple

from kneser.bitstrings import (
    Cycle,
    CyclicBitstring,
    _annotate,
    _f_bits,
    apply_f,
    descent_count,
    parenthesis_match,
    to_string,
)
from kneser.dynamics import MotionStep, MotionTrace, TauResult, _require_shiftable, advance
from kneser.errors import InternalConsistencyError, ParameterError
from kneser.gliders import (
    Glider,
    GliderPartition,
    TrainComposition,
    _least_rotation,
    glider_partition,
)
from kneser.gluing import is_connector


def naive_matching(bits: int, n: int) -> tuple[set[tuple[int, int]], set[int]]:
    """Cyclic parenthesis matching by repeated contraction.

    Scan the still-undecided positions cyclically; whenever a 1 is followed
    (among undecided positions) by a 0, match the two and drop them.  Repeat
    until a full pass finds nothing.  Returns (pairs as (one, zero), unmatched).
    """
    alive = list(range(n))
    pairs: set[tuple[int, int]] = set()
    changed = True
    while changed and len(alive) > 1:
        changed = False
        i = 0
        while i < len(alive) and len(alive) > 1:
            a = alive[i]
            b = alive[(i + 1) % len(alive)]
            if (bits >> a) & 1 and not (bits >> b) & 1:
                pairs.add((a, b))
                alive.remove(a)
                alive.remove(b)
                changed = True
                i = 0
            else:
                i += 1
    return pairs, set(alive)


def naive_scan_match(bits: int, n: int) -> tuple[int, int, int]:
    """(anchor, matched-zero mask, visible-end mask) with the linear pass taken
    one position at a time; the rest is the package's cyclic closing."""
    m0 = vis = depth = free = 0
    b = 1
    for _ in range(n):
        if bits & b:
            if not depth:
                vis |= b
            depth += 1
        elif depth:
            depth -= 1
            m0 |= b
            if not depth:
                vis |= b
        else:
            free |= b
        b <<= 1
    low = 0
    for _ in range(depth):
        low = free & -free
        m0 |= low
        free ^= low
    if not free:
        raise InternalConsistencyError("matching needs more zeros than ones")
    if low:
        vis = vis & -low | low
    return free.bit_length() - 1, m0, vis


def naive_f(bits: int, n: int) -> int:
    """Complement every matched position."""
    pairs, _ = naive_matching(bits, n)
    mask = 0
    for a, b in pairs:
        mask |= (1 << a) | (1 << b)
    return bits ^ mask


def reverse_bits(bits: int, n: int) -> int:
    """Exchange positions j and n-1-j."""
    return int(format(bits, f"0{n}b")[::-1], 2)


def naive_reverse_bits(bits: int, n: int) -> int:
    """Exchange positions j and n-1-j, one bit at a time."""
    out = 0
    for j in range(n):
        if (bits >> j) & 1:
            out |= 1 << (n - 1 - j)
    return out


def naive_partitions(k: int) -> list[tuple[int, ...]]:
    """All non-increasing partitions of k, sorted lexicographically."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, cap: int, acc: list[int]) -> None:
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, cap), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(k, k, [])
    out.sort()
    return out


def box(part: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The partition i places after part in lexicographic order (i may be
    negative).  Raises IndexError past either end."""
    plist = naive_partitions(sum(part))
    j = plist.index(part) + i
    if j < 0:
        raise IndexError("ran off the start of the partition order")
    return plist[j]


def det_fractions(mat: list[list[int]]) -> Fraction:
    """Determinant by plain Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in mat]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, size):
                    m[r][c] -= factor * m[col][c]
    return det


def cyclic_equal(a, b) -> bool:
    """True when the sequences are equal up to rotation (not reflection)."""
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    if not a:
        return True
    for s in range(len(a)):
        if a[s:] + a[:s] == b:
            return True
    return False


def connector_four_cycle(x, y):
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


def is_clean(g) -> bool:
    """No foreign steps interleaved: the glider occupies 2*speed consecutive
    positions."""
    return g.s2 - g.s0 + 1 == 2 * g.speed


def _open_clean_carries(p, g, bit: int, pos: int) -> bool:
    """g is upright, clean and open, and carries bit at pos."""
    n = p.x.n
    if g.inverted or not is_clean(g):
        return False
    if p.pos_class[(g.s2 + 1) % n] >= 0:
        return False  # not open: the position after the glider is matched
    q, a = g.s0 % n, g.speed
    if bit == 1:
        return (pos - q) % n < a
    return (pos - q - a) % n < a


def _window_blocks(x: CyclicBitstring) -> tuple[int, list[list[int]]]:
    """Anchor and the maximal matched runs, in window-absolute coordinates."""
    m = parenthesis_match(x)
    a, n = m.anchor, x.n
    matched = x.bits | m.matched_zeros
    blocks: list[list[int]] = []
    run: list[int] = []
    for j in range(a + 1, a + n + 1):
        if (matched >> (j % n)) & 1:
            run.append(j)
        elif run:
            blocks.append(run)
            run = []
    if run:
        raise InternalConsistencyError("the anchor must close the window unmatched")
    return a, blocks


def glider_partition_recursive(x: CyclicBitstring) -> GliderPartition:
    bits, n = x.bits, x.n
    a, blocks = _window_blocks(x)
    recs: list[dict] = []

    def up_at(j: int, flip: bool) -> bool:
        return bool((bits >> (j % n)) & 1) ^ flip

    def decompose(region: list[int], flip: bool, parent: int | None, via_dent: bool) -> None:
        # region is a balanced walk in effective steps; split at returns to 0
        h = 0
        start = 0
        for idx, j in enumerate(region):
            h += 1 if up_at(j, flip) else -1
            if h < 0:
                raise InternalConsistencyError("a region walk dips below zero")
            if h == 0:
                arch(region[start : idx + 1], flip, parent, via_dent)
                start = idx + 1
        if start != len(region):
            raise InternalConsistencyError("a region walk does not return to zero")

    def arch(region: list[int], flip: bool, parent: int | None, via_dent: bool) -> None:
        m = len(region)
        h = 0
        heights = []
        for j in region:
            h += 1 if up_at(j, flip) else -1
            heights.append(h)
        hmax = max(heights)
        peak = heights.index(hmax)
        # the glider takes the last crossing of each level on both flanks;
        # whatever it skips hangs off the staircase as a child region
        last_up: dict[int, int] = {}
        for i in range(peak + 1):
            if up_at(region[i], flip):
                last_up[heights[i]] = i
        a_idx = [last_up[lvl] for lvl in range(1, hmax + 1)]
        if a_idx[0] != 0 or a_idx[-1] != peak:
            raise InternalConsistencyError("a staircase must rise from the start to the peak")
        last_down: dict[int, int] = {}
        for i in range(peak + 1, m):
            if not up_at(region[i], flip):
                last_down[heights[i] + 1] = i
        b_idx = [last_down[lvl] for lvl in range(hmax, 0, -1)]
        if b_idx[-1] != m - 1 or any(b_idx[t] >= b_idx[t + 1] for t in range(hmax - 1)):
            raise InternalConsistencyError("a staircase must descend to the end")
        gid = len(recs)
        recs.append(
            {
                "A": tuple(region[i] for i in a_idx),
                "B": tuple(region[i] for i in b_idx),
                "parent": parent,
                "via_dent": via_dent,
                "flip": flip,
            }
        )
        for t in range(hmax - 1):
            inner = region[a_idx[t] + 1 : a_idx[t + 1]]
            if inner:
                decompose(inner, flip, gid, False)
        bounds = [peak] + b_idx
        for t in range(hmax):
            inner = region[bounds[t] + 1 : bounds[t + 1]]
            if inner:
                decompose(inner, not flip, gid, True)

    for blk in blocks:
        decompose(blk, False, None, False)

    trapped: list[frozenset[int]] = []
    for i, rec in enumerate(recs):
        tb: set[int] = set()
        cur: int | None = i
        while cur is not None:
            if recs[cur]["via_dent"]:
                tb.add(recs[cur]["parent"])
            cur = recs[cur]["parent"]
        trapped.append(frozenset(tb))
        if rec["flip"] != (len(tb) % 2 == 1):
            raise InternalConsistencyError("inversion disagrees with the trapping dents")

    gliders = tuple(
        Glider(i, r["A"], r["B"], r["parent"], r["via_dent"], r["flip"], trapped[i])
        for i, r in enumerate(recs)
    )
    pos_class = [-1] * n
    for g in gliders:
        for j in g.A + g.B:
            if pos_class[j % n] != -1:
                raise InternalConsistencyError("two gliders claim one position")
            pos_class[j % n] = g.id
    if sum(g.speed for g in gliders) != x.k:
        raise InternalConsistencyError(f"glider speeds do not sum to k for {x}")
    if len(gliders) != descent_count(bits, n):
        raise InternalConsistencyError(
            f"glider count {len(gliders)} != descent count for {x}"
        )
    return GliderPartition(x, a, _f_bits(bits, n), gliders, tuple(pos_class))


def _w(word: list[int]) -> list[int]:
    """Speed multiset of a balanced 1/0 word by structural recursion: an
    innermost pair contributes speed 1, and each enclosing pair rides on
    the fastest glider inside it."""
    out: list[int] = []
    h = 0
    start = 0
    for i, b in enumerate(word):
        h += 1 if b else -1
        if h == 0:
            inner = word[start + 1 : i]
            if inner:
                speeds = sorted(_w(inner))
                speeds[-1] += 1
                out.extend(speeds)
            else:
                out.append(1)
            start = i + 1
    return out


def speed_multiset_recursive(x: CyclicBitstring) -> tuple[int, ...]:
    """V(x) from the nesting structure alone, bypassing the partition."""
    _, blocks = _window_blocks(x)
    out: list[int] = []
    for blk in blocks:
        out.extend(_w([(x.bits >> (j % x.n)) & 1 for j in blk]))
    return tuple(sorted(out))


def apply_f_inverse(x):
    # f conjugated by position reversal is its own inverse
    n = x.n
    return CyclicBitstring(n, x.k, reverse_bits(_f_bits(reverse_bits(x.bits, n), n), n))


def glider_key(glider, n: int) -> tuple[frozenset[int], frozenset[int]]:
    """Window-independent identity, used to match gliders across strings."""
    return frozenset(a % n for a in glider.A), frozenset(b % n for b in glider.B)


def shift_glider(x, glider, partition=None):
    """Transpose the two bits just right of the peak and of the last step of
    the glider's preimage copy, nudging the glider one position forward
    without disturbing anything else.  f commutes with the shift, which is
    what makes parallel-orbit tracking work."""
    p = partition if partition is not None else glider_partition(x)
    _require_shiftable(p, glider)
    n = x.n
    y = apply_f_inverse(x)
    adv = advance(y)
    target = glider_key(glider, n)
    back = None
    for gid, nid in adv.bijection.items():
        if glider_key(adv.next_partition.gliders[nid], n) == target:
            back = adv.partition.gliders[gid]
            break
    if back is None:
        raise InternalConsistencyError("no preimage glider under f")
    i1 = (back.s1 + 1) % n
    i2 = (back.s2 + 1) % n
    b1 = (x.bits >> i1) & 1
    b2 = (x.bits >> i2) & 1
    if b1 == b2:
        raise InternalConsistencyError("shift positions carry equal bits")
    return CyclicBitstring(n, x.k, x.bits ^ (1 << i1) ^ (1 << i2))


def _iter_strings(n: int, k: int) -> Iterator[int]:
    """All k-element masks of width n in lexicographic order of their strings."""
    full = (1 << n) - 1
    v = full ^ (full >> k)  # 0^(n-k) 1^k
    while True:
        yield v
        top = v.bit_length()  # one past the last 1
        z = (v ^ ((1 << top) - 1)).bit_length() - 1  # the last 0 before it
        if z < 0:
            return
        # the 1 after z moves onto z, and the rest of its run to the end
        run = top - z - 2
        v = (v & ((1 << z) - 1)) | (1 << z) | (full ^ (full >> run))


@dataclass(frozen=True)
class PerVertexFactor:
    """A factor with a dict entry per vertex: index maps x to its cycle's
    position in cycles, place to its position in that cycle."""

    n: int
    k: int
    cycles: tuple[Cycle, ...]
    index: dict[int, int]
    place: dict[int, int]

    def locate(self, x: int) -> tuple[int, int]:
        return self.index[x], self.place[x]


def cycle_factor_per_vertex(n: int, k: int) -> PerVertexFactor:
    """Reference factor: one matching scan per vertex.  Strings are visited
    in lexicographic order, and each one not yet met starts a new orbit,
    which it keys; f is walked around the whole orbit."""
    cycles: list[Cycle] = []
    index: dict[int, int] = {}
    place: dict[int, int] = {}
    for v in _iter_strings(n, k):
        if v in index:
            continue
        orbit = [v]
        b = _f_bits(v, n)
        while b != v:
            orbit.append(b)
            b = _f_bits(b, n)
        index.update(zip(orbit, repeat(len(cycles))))
        place.update(zip(orbit, range(len(orbit))))
        cycles.append(Cycle(tuple(orbit)))
    return PerVertexFactor(n, k, tuple(cycles), index, place)


def train_composition_cyclic(p: GliderPartition) -> dict[int, TrainComposition]:
    """Reference train composition: per speed, walk every gap between
    cyclically consecutive gliders one position at a time mod n, then cut
    the circle of gliders at the broken gaps."""
    n = p.x.n
    out: dict[int, TrainComposition] = {}
    for v in sorted({g.speed for g in p.gliders}):
        ids = [g.id for g in p.gliders if g.speed == v]
        m = len(ids)
        breaks = []  # gap after ids[t] is broken
        for t in range(m):
            g1 = p.gliders[ids[t]]
            g2 = p.gliders[ids[(t + 1) % m]]
            j = (g1.s2 + 1) % n
            end = g2.s0 % n
            coupled = True
            while j != end:
                c = p.pos_class[j]
                if c < 0 or p.gliders[c].speed >= v:
                    coupled = False
                    break
                j = (j + 1) % n
            if not coupled:
                breaks.append(t)
        if not breaks:
            raise InternalConsistencyError("a flat step always breaks the circle")
        trains: list[tuple[int, ...]] = []
        prev = breaks[-1]
        for b in breaks:
            size = (b - prev) % m or m
            startidx = (prev + 1) % m
            trains.append(tuple(ids[(startidx + i) % m] for i in range(size)))
            prev = b
        out[v] = TrainComposition(
            v, tuple(trains), _least_rotation(tuple(len(t) for t in trains))
        )
    return out


def tau_slow(x, glider, bit: int, pos: int, cap: int | None = None) -> TauResult:
    """Reference implementation of tau: follow the class through advance."""
    if cap is None:
        cap = x.n * comb(x.n, x.k)
    p = glider_partition(x)
    gid = glider.id
    cur = x
    for t in range(cap + 1):
        g = p.gliders[gid]
        if _open_clean_carries(p, g, bit, pos):
            return TauResult(t, cur)
        adv = advance(cur, partition=p)
        gid = adv.bijection[gid]
        p = adv.next_partition
        cur = adv.fx
    raise InternalConsistencyError("first-visit search exceeded its cap")


def motion_trace_per_step(x: CyclicBitstring, steps: int) -> MotionTrace:
    """Reference trace: one advance per step, classes followed through each
    bijection, trap counters summed per pair."""
    p = glider_partition(x)
    speeds = tuple(g.speed for g in p.gliders)
    start2s = tuple(g.s1 + g.s2 for g in p.gliders)
    cls_of = {g.id: i for i, g in enumerate(p.gliders)}
    pos2 = list(start2s)
    counters2: dict[tuple[int, int], int] = {}
    out = []
    cur = x
    for t in range(steps):
        adv = advance(cur, partition=p)
        class_at = tuple(-1 if gid < 0 else cls_of[gid] for gid in p.pos_class)
        d2 = [0] * len(speeds)
        for gid, d in adv.delta2s.items():
            d2[cls_of[gid]] = d
        movers = tuple(sorted(cls_of[g] for g in adv.analysis.movers))
        traps = tuple(sorted((cls_of[a], cls_of[b]) for a, b in adv.trap_events))
        rels = tuple(sorted((cls_of[a], cls_of[b]) for a, b in adv.release_events))
        out.append(MotionStep(t, cur.bits, class_at, movers, tuple(d2), traps, rels))
        for c, d in enumerate(d2):
            pos2[c] += d
        for pair in traps + rels:
            counters2[pair] = counters2.get(pair, 0) + 1
        cls_of = {adv.bijection[gid]: c for gid, c in cls_of.items()}
        p = adv.next_partition
        cur = adv.fx
    return MotionTrace(x, speeds, start2s, out, pos2, counters2, cur)


def assemble_hamilton_table(plan) -> tuple[int, ...]:
    """Reference splice walk: a 2-regular adjacency table of every vertex,
    each splice swapping two edges, then a walk from the first cycle's key
    that starts along slot 0 and is checked against every vertex and edge."""
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

    total = sum(map(len, plan.factor.cycles))
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


def posa_tour_positions(verts, adjacency, deadline: float, rng) -> tuple[str | None, tuple | None]:
    """Reference rotation-extension search: the package's rng calls in the
    same order, with a dict from each path vertex to its position, rewritten
    for every moved vertex at each rotation."""
    n = len(verts)
    adjset = {v: frozenset(adjacency[v]) for v in verts}

    def reverse_suffix(path, pos, i: int) -> None:
        path[i:] = path[i:][::-1]
        for j in range(i, len(path)):
            pos[path[j]] = j

    best = None
    while time.monotonic() < deadline:
        path = [rng.choice(verts)]
        pos = {path[0]: 0}
        stalls = 0
        while len(path) < n and stalls < 64 * n:
            tip = path[-1]
            fresh = [w for w in adjacency[tip] if w not in pos]
            if fresh:
                w = fresh[rng.randrange(len(fresh))]
                pos[w] = len(path)
                path.append(w)
                stalls = 0
                continue
            nbrs = adjacency[tip]
            i = pos[nbrs[rng.randrange(len(nbrs))]]
            if i != len(path) - 2:  # rotating at the predecessor is a no-op
                reverse_suffix(path, pos, i + 1)
            stalls += 1
            if time.monotonic() > deadline:
                break
        if len(path) == n:
            for _ in range(64 * n):
                tip = path[-1]
                if path[0] in adjset[tip]:
                    return "cycle", tuple(path)
                if time.monotonic() > deadline:
                    break
                nbrs = adjacency[tip]
                i = pos[nbrs[rng.randrange(len(nbrs))]]
                if i != len(path) - 2:
                    reverse_suffix(path, pos, i + 1)
            best = tuple(path)
    return ("path", best) if best is not None else (None, None)


def fallback_backtracking_counts(
    vertices,
    adjacency,
    want_cycle: bool = True,
    deadline: float | None = None,
) -> tuple[str, tuple | None]:
    """Reference exhaustive search: the package's candidate order and
    expansion count, with a dict of each vertex's neighbours off the path
    that every step and every backtrack updates, and a neighbour set per
    vertex for the prune."""
    verts = list(vertices)
    if len(verts) < (3 if want_cycle else 2):
        return ("none", None)
    adjset = {v: frozenset(adjacency[v]) for v in verts}
    starts = verts[:1] if want_cycle else verts
    for start in starts:
        seq = _hamilton_dfs_counts(verts, adjacency, adjset, start, want_cycle, deadline)
        if seq == "timeout":
            return ("timeout", None)
        if seq is not None:
            return ("cycle" if want_cycle else "path", tuple(seq))
    return ("none", None)


def _hamilton_dfs_counts(verts, adjacency, adjset, start, want_cycle, deadline):
    n = len(verts)
    cnt = {v: len(adjacency[v]) for v in verts}
    visited = {start}
    for w in adjacency[start]:
        cnt[w] -= 1
    path = [start]
    # stack of candidate iterators, one per path position
    stack = [iter(sorted((v for v in adjacency[start]), key=lambda v: cnt[v]))]
    expansions = 0
    while stack:
        expansions += 1
        if deadline is not None and expansions % 1024 == 0:
            if time.monotonic() > deadline:
                return "timeout"
        tip = path[-1]
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            path.pop()
            visited.discard(tip)
            for w in adjacency[tip]:
                cnt[w] += 1
            continue
        if nxt in visited:
            continue
        if len(path) == n - 1:
            if want_cycle:
                if start in adjset[nxt]:
                    return path + [nxt]
                continue
            return path + [nxt]
        visited.add(nxt)
        for w in adjacency[nxt]:
            cnt[w] -= 1
        if _prune_counts(verts, visited, cnt, adjset, nxt, start, want_cycle):
            visited.discard(nxt)
            for w in adjacency[nxt]:
                cnt[w] += 1
            continue
        path.append(nxt)
        stack.append(iter(sorted((v for v in adjacency[nxt] if v not in visited),
                                 key=lambda v: cnt[v])))
    return None


def _prune_counts(verts, visited, cnt, adjset, tip, start, want_cycle) -> bool:
    slack = 0  # path search may leave one vertex with a single connection
    for v in verts:
        if v in visited:
            continue
        avail = cnt[v] + (v in adjset[tip])
        if want_cycle:
            if avail + (v in adjset[start]) < 2:
                return True
        elif avail == 0:
            return True
        elif avail == 1:
            slack += 1
            if slack > 1:
                return True
    return False


def tour_fault_passes(spec, vertices, closed: bool = True) -> str | None:
    """Reference tour check on a list: the count, then repeats by a set, then
    every vertex, then every edge in order, the closing pair of a cycle last."""
    want = spec.vertex_count()
    if len(vertices) != want:
        return f"{len(vertices)} vertices listed, the graph has {want}"
    if len(set(vertices)) != len(vertices):
        return "repeated vertex"
    for v in vertices:
        if not spec.valid_vertex(v):
            return f"{to_string(v, spec.n)} is not a vertex of this graph"
    edges = zip(vertices, vertices[1:] + vertices[:1]) if closed else zip(vertices, vertices[1:])
    for i, (u, v) in enumerate(edges):
        if not spec.adjacent(u, v):
            return (f"positions {i} and {i + 1}: "
                    f"{to_string(u, spec.n)} and {to_string(v, spec.n)} are not adjacent")
    return None


# -- the nine rewrite rules on the annotated string ------------------------
#
# A rule reads one window w: x's annotated string ('1', '0' for a matched 0,
# '-' for an unmatched 0) rotated so that index n is the anchor, three copies
# long, so index i is position (i + p) mod n.  Patterns are literal strings
# compared at an index.  Three copies suffice: the leftmost read is the start
# of a block before the anchor, which lies after index 0, and every run that
# can complete a match starts at or before index 2n and is shorter than n.
# A rule also gets k and V(x), the speeds of x's gliders in non-decreasing
# order.


def _window(x: CyclicBitstring, p: int, fx: int | None = None) -> str:
    """The rules' window of x at anchor p.  f(x) is x's matched-zero mask,
    so fx = f(x), when the caller has it, spares the matching scan."""
    s = _annotate(x.bits, _f_bits(x.bits, x.n) if fx is None else fx, x.n)
    return (s[p:] + s[:p]) * 3


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


def rewrite_by_strings(
    x: CyclicBitstring, p: int, sp: tuple[int, ...] | None = None
) -> tuple[int, int, int, bool] | None:
    """Reference rewrite at anchor p, 0 <= p < n, read off the annotated
    string: (family, src, dst, branched) as the package's _match_bits gives
    it.  sp is V(x), by default from the recursive reference, and the
    two-way probe follows the fresh glider through advance."""
    n = x.n
    w = _window(x, p)
    if sp is None:
        sp = speed_multiset_recursive(x)
    hits = [h for rule in _RULES[w[n]] if (h := rule(w, x.k, sp)) is not None]
    if not hits:
        return None
    if len(hits) > 1:
        raise InternalConsistencyError(
            f"rules {[h.family for h in hits]} all claim {x} at anchor {p}"
        )
    family, src, dst, alt = hits[0]
    src, dst = (p + src) % n, (p + dst) % n
    if alt is None:
        return family, src, dst, False
    image = CyclicBitstring(n, x.k, x.bits ^ (1 << src) | (1 << dst))
    part = glider_partition(image)
    z = tau_slow(image, part.glider_at(dst), 1, p).z
    wz = _window(z, p)
    if wz[n] == "1" and _match_rule4(wz, z.k, part.speeds()):
        return family, src, (p + alt) % n, True
    return family, src, dst, False
