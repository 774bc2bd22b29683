"""The glider partition of a cyclic bitstring.

Read from the position after the matching anchor, a bitstring's annotated
string ('1', '0' for a matched 0, '-' for an unmatched 0; see
``bitstrings._annotate``) is a walk: 1s step up, matched 0s step down,
unmatched 0s are flat.  The partition is read off this one height walk,
kept as a list of heights: each excursion is a glider, a staircase pattern
that moves rigidly under the flip map f, with a speed equal to its step
count on each side, and the stretches its staircase skips split the same
way, upside down below the staircase's down side.  The speed
multiset V(x) and the train composition Z(x) are invariants of the factor
cycle through x.

A partition also keeps f(x), the matched-zero mask of the matching it is
read off, so the dynamics step from x to f(x) with no second scan.

Coordinates inside a partition are window-absolute: position p of the
string appears as the unique j in [anchor+1, anchor+n] with j = p mod n,
so coordinates compare left to right within one matching window.
"""

from __future__ import annotations

from itertools import accumulate, pairwise
from typing import NamedTuple

from .bitstrings import CyclicBitstring, _annotate, _repr_without, descent_count, parenthesis_match
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


class Glider(NamedTuple):
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


class GliderPartition(NamedTuple):
    """The gliders of x in window order, each before the ones it skips, so
    they ascend by s0 and their ids count in that order."""

    x: CyclicBitstring
    anchor: int
    fx: int  # f(x), the matched-zero mask of the partition's own matching
    gliders: tuple[Glider, ...]
    pos_class: tuple[int, ...]  # position mod n -> glider id, -1 unmatched

    __repr__ = _repr_without("pos_class")

    def glider_at(self, pos: int) -> Glider | None:
        gid = self.pos_class[pos % self.x.n]
        return None if gid < 0 else self.gliders[gid]

    def speeds(self) -> tuple[int, ...]:
        return tuple(sorted(g.speed for g in self.gliders))


_STEP = {"1": 1, "0": -1, "-": 0}


def _window(x: CyclicBitstring) -> tuple[int, int, str]:
    """Anchor, f(x) and the annotated string read from the position after
    the anchor."""
    m = parenthesis_match(x)
    a = m.anchor
    s = _annotate(x.bits, m.matched_zeros, x.n)
    if s[a] != "-":
        raise InternalConsistencyError("the anchor must close the window unmatched")
    return a, m.matched_zeros, s[a + 1 :] + s[: a + 1]


def glider_partition(x: CyclicBitstring) -> GliderPartition:
    n = x.n
    a, fx, w = _window(x)
    h = list(accumulate(map(_STEP.__getitem__, w), initial=0))  # h[i]: height before step i
    if h[n]:
        raise InternalConsistencyError("the walk does not return to zero at the anchor")
    if min(h) < 0:
        raise InternalConsistencyError("the walk dips below zero")
    off = a + 1  # step i sits at coordinate off + i
    gliders: list[Glider] = []
    pos_class = [-1] * n

    def region(lo: int, hi: int, sign: int, parent: int | None, via_dent: bool,
               trapped: frozenset[int]) -> None:
        # steps lo..hi-1 leave h[lo] on the side of sign and return to it;
        # each excursion is one glider, whatever it skips hangs off as a child
        base = h[lo]
        while lo < hi:
            if h[lo + 1] == base:
                if base:
                    raise InternalConsistencyError("an unmatched zero inside an excursion")
                lo += 1
                continue
            end = h.index(base, lo + 1)
            top = (max if sign > 0 else min)(range(lo + 1, end), key=h.__getitem__)
            # A: the last step up to each level before the peak
            A, t = [], h[top]
            for j in range(top - 1, lo - 1, -1):
                if h[j] == t - sign:
                    A.append(j)
                    t -= sign
            # B: the last step down from each level after it
            B, t = [], base
            for j in range(end - 1, top - 1, -1):
                if h[j] == t + sign:
                    B.append(j)
                    t += sign
            A.reverse()
            B.reverse()
            gid = len(gliders)
            gliders.append(Glider(gid, tuple(off + j for j in A), tuple(off + j for j in B),
                                  parent, via_dent, sign < 0, trapped))
            for j in A + B:
                if pos_class[(off + j) % n] != -1:
                    raise InternalConsistencyError("two gliders claim one position")
                pos_class[(off + j) % n] = gid
            for u, v in pairwise(A):
                if v > u + 1:
                    region(u + 1, v, sign, gid, False, trapped)
            for u, v in pairwise([top - 1, *B]):
                if v > u + 1:
                    region(u + 1, v, -sign, gid, True, trapped | {gid})
            lo = end

    region(0, n, 1, None, False, frozenset())
    if sum(g.speed for g in gliders) != x.k:
        raise InternalConsistencyError(f"glider speeds do not sum to k for {x}")
    if len(gliders) != descent_count(x.bits, n):
        raise InternalConsistencyError(f"glider count {len(gliders)} != descent count for {x}")
    return GliderPartition(x, a, fx, tuple(gliders), tuple(pos_class))


# The plan needs V of every cycle for its potential, and this stack pass is
# several times cheaper than a partition, so the plan calls it; acceptance
# criterion 3 checks it against the partition's speeds.
def speed_multiset_direct(x: CyclicBitstring) -> tuple[int, ...]:
    """V(x) in one stack pass: each open 1 holds the fastest speed closed
    inside it so far.  A pair's glider rides on that speed plus one; it
    displaces its parent's entry if faster, and a speed that stops being the
    fastest in its pair is final."""
    _, _, w = _window(x)
    out: list[int] = []
    stack: list[int] = []
    for c in w:
        if c == "1":
            stack.append(0)
        elif c == "0":
            if not stack:
                raise InternalConsistencyError("the walk dips below zero")
            v = stack.pop() + 1
            if stack and v > stack[-1]:
                v, stack[-1] = stack[-1], v
            if v:
                out.append(v)
    if stack:
        raise InternalConsistencyError("the walk does not return to zero at the anchor")
    return tuple(sorted(out))


def speed_partition(p: GliderPartition) -> tuple[int, ...]:
    """Speeds as a non-increasing partition of k."""
    return tuple(sorted((g.speed for g in p.gliders), reverse=True))


class TrainComposition(NamedTuple):
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
    """One pass over the gliders in window order.  A child is slower than
    its parent, so gliders of one speed never nest and each gap runs from
    one's last step to the next one's first.  The window ends at the anchor,
    so the gap that closes the circle is always broken."""
    n = p.x.n
    off = p.anchor + 1  # window coordinate of index 0
    speed_at = [n] * n  # window index -> speed of the glider there; n when unmatched
    for g in p.gliders:
        for j in g.A + g.B:
            speed_at[j - off] = len(g.A)
    trains: dict[int, list[list[int]]] = {}
    last: dict[int, Glider] = {}  # speed -> the last glider of that speed so far
    for g in p.gliders:
        v = len(g.A)
        prev = last.get(v)
        last[v] = g
        if prev is not None and max(speed_at[prev.s2 + 1 - off:g.s0 - off], default=0) < v:
            trains[v][-1].append(g.id)
        else:
            trains.setdefault(v, []).append([g.id])
    return {v: TrainComposition(v, tuple(map(tuple, ts)), _least_rotation(tuple(map(len, ts))))
            for v, ts in sorted(trains.items())}


_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_gliders(p: GliderPartition) -> str:
    """Two-line picture (string and glider ids) plus one legend line per glider."""
    n = p.x.n
    ids = "".join(
        "." if p.pos_class[i] < 0 else _GLYPHS[p.pos_class[i] % len(_GLYPHS)]
        for i in range(n)
    )
    lines = [_annotate(p.x.bits, p.fx, n), ids]
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
