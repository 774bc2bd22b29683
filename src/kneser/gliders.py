"""The glider partition of a cyclic bitstring.

Read from the position after the matching anchor, a bitstring's annotated
string ('1', '0' for a matched 0, '-' for an unmatched 0; see
``bitstrings.annotated``) is a walk: 1s step up, matched 0s step down,
unmatched 0s are flat.  There is no separate path type; the partition reads
the matching's masks.  The maximal non-flat excursions decompose
recursively into gliders: staircase patterns that move rigidly under the
flip map f, with a speed equal to their step count on each side.  The speed
multiset V(x) and the train composition Z(x) are invariants of the factor
cycle through x.

Coordinates inside a partition are window-absolute: position p of the
string appears as the unique j in [anchor+1, anchor+n] with j = p mod n,
so coordinates compare left to right within one matching window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bitstrings import CyclicBitstring, annotated, descent_count, parenthesis_match
from .errors import InternalConsistencyError

__all__ = [
    "Glider",
    "GliderPartition",
    "glider_partition",
    "speed_multiset_direct",
    "speed_partition",
    "TrainComposition",
    "train_composition",
    "render_gliders",
]


@dataclass(frozen=True)
class Glider:
    """One staircase of the partition.

    A holds the up-step coordinates and B the down-step coordinates, both
    ascending; speed = |A| = |B|.  Children occupy the slots between
    consecutive steps: bulges above the A side keep the parity, dents below
    the B side swap it.  For an inverted glider the roles of the bit values
    swap, so its A positions carry 0s.  A glider is trapped by every
    ancestor reached through a dent slot and free when that set is empty.
    """

    id: int
    A: tuple[int, ...]
    B: tuple[int, ...]
    parent: int | None
    via_dent: bool
    inverted: bool
    trapped_by: frozenset[int]

    @property
    def speed(self) -> int:
        return len(self.A)

    @property
    def s0(self) -> int:
        """First step."""
        return self.A[0]

    @property
    def s1(self) -> int:
        """Last up-step (the peak)."""
        return self.A[-1]

    @property
    def s2(self) -> int:
        """Last step."""
        return self.B[-1]

    @property
    def free(self) -> bool:
        return not self.trapped_by

    def key(self, n: int) -> tuple[frozenset[int], frozenset[int]]:
        """Window-independent identity, used to match gliders across strings."""
        return (frozenset(a % n for a in self.A), frozenset(b % n for b in self.B))


@dataclass(frozen=True)
class GliderPartition:
    x: CyclicBitstring
    anchor: int
    gliders: tuple[Glider, ...]
    pos_class: tuple[int, ...] = field(repr=False)  # position mod n -> glider id, -1 unmatched

    def glider_at(self, pos: int) -> Glider | None:
        gid = self.pos_class[pos % self.x.n]
        return None if gid < 0 else self.gliders[gid]

    def by_position(self) -> tuple[Glider, ...]:
        return tuple(sorted(self.gliders, key=lambda g: g.s0))

    def speeds(self) -> tuple[int, ...]:
        return tuple(sorted(g.speed for g in self.gliders))


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


def glider_partition(x: CyclicBitstring) -> GliderPartition:
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
    return GliderPartition(x, a, gliders, tuple(pos_class))


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


def speed_multiset_direct(x: CyclicBitstring) -> tuple[int, ...]:
    """V(x) from the nesting structure alone, bypassing the partition."""
    _, blocks = _window_blocks(x)
    out: list[int] = []
    for blk in blocks:
        out.extend(_w([(x.bits >> (j % x.n)) & 1 for j in blk]))
    return tuple(sorted(out))


def speed_partition(p: GliderPartition) -> tuple[int, ...]:
    """Speeds as a non-increasing partition of k."""
    return tuple(sorted((g.speed for g in p.gliders), reverse=True))


@dataclass(frozen=True)
class TrainComposition:
    """Coupled runs of same-speed gliders.

    Two cyclically consecutive gliders of one speed are coupled when every
    position strictly between them carries a step of a strictly slower
    glider.  The unmatched zero at the anchor breaks at least one gap, so
    trains are linear.  The composition lists train sizes in window order,
    canonicalized to the lexicographically least rotation.
    """

    speed: int
    trains: tuple[tuple[int, ...], ...]  # glider ids, window order
    composition: tuple[int, ...]


def _least_rotation(t: tuple[int, ...]) -> tuple[int, ...]:
    return min(t[i:] + t[:i] for i in range(len(t))) if t else t


def train_composition(p: GliderPartition) -> dict[int, TrainComposition]:
    n = p.x.n
    out: dict[int, TrainComposition] = {}
    for v in sorted({g.speed for g in p.gliders}):
        ids = [g.id for g in p.by_position() if g.speed == v]
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


_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_gliders(p: GliderPartition) -> str:
    """Two-line picture (string and glider ids) plus one legend line per glider."""
    n = p.x.n
    ids = "".join(
        "." if p.pos_class[i] < 0 else _GLYPHS[p.pos_class[i] % len(_GLYPHS)]
        for i in range(n)
    )
    lines = [annotated(p.x), ids]
    for g in p.gliders:
        tags = []
        if g.inverted:
            tags.append("inverted")
        tags.append(
            "free" if g.free else "trapped by " + ",".join(f"g{t}" for t in sorted(g.trapped_by))
        )
        lines.append(
            f"g{g.id}: speed {g.speed}, A={[a % n for a in g.A]}, "
            f"B={[b % n for b in g.B]}, {', '.join(tags)}"
        )
    return "\n".join(lines)
