"""Cyclic bitstrings, cyclic parenthesis matching, and the flip-map cycle factor.

A k-subset of {0, ..., n-1} is stored as a Python int with bit i set iff
position i is in the set.  String forms always show position 0 first, so
``to_string`` / ``from_string`` reverse the usual binary notation.  All
positions are 0-based and arithmetic on them is mod n.

Matching interprets a bitstring cyclically as a parenthesis expression:
1s open, 0s close.  With k ones and n - k > k zeros every 1 is matched and
exactly n - 2k zeros stay unmatched.  The map f flips every matched bit;
iterating f partitions X(n, k) into disjoint cycles (the cycle factor).

A matching is kept as bit masks (``Matching``), and checks read those
masks.  Its per-position view is the annotated string that ``_annotate``
builds from x and f(x) for the glider partition's walk, the rewrite rules'
windows and display: '1' for a 1, '0' for a matched 0 and '-' for an
unmatched 0, position 0 first.  Read from the position after the anchor it
is a walk: 1s step up, matched 0s step down and unmatched 0s are flat.  The
walk never dips below zero and ends at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from math import comb, gcd
from typing import Iterator

from .errors import InternalConsistencyError, ParameterError

__all__ = [
    "rotate_bits",
    "to_string",
    "from_string",
    "descent_count",
    "iter_bits",
    "CyclicBitstring",
    "Matching",
    "parenthesis_match",
    "apply_f",
    "Cycle",
    "CycleFactor",
    "cycle_factor",
]


def rotate_bits(bits: int, n: int, i: int) -> int:
    """Cyclic left-to-right shift: bit j of the result is bit (j - i) mod n."""
    i %= n
    mask = (1 << n) - 1
    return ((bits << i) | (bits >> (n - i))) & mask if i else bits


def to_string(bits: int, n: int) -> str:
    """Position 0 first; plain 0/1 characters."""
    return format(bits, f"0{n}b")[::-1]


def from_string(s: str) -> int:
    """Inverse of to_string.  '-' is accepted as an unmatched-zero marker."""
    if set(s) - {"0", "1", "-"}:
        raise ParameterError(f"bad bitstring characters in {s!r}")
    return int(s.replace("-", "0")[::-1], 2) if s else 0


def descent_count(bits: int, n: int) -> int:
    """Number of cyclic occurrences of 10."""
    return (bits & ~rotate_bits(bits, n, n - 1)).bit_count()


def iter_bits(n: int, k: int) -> Iterator[int]:
    """All k-element masks of width n, ascending (colex order on supports)."""
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got n={n} k={k}")
    v = (1 << k) - 1
    last = v << (n - k)
    while True:
        yield v
        if v == last:
            return
        c = v & -v
        r = v + c
        v = r | (((v ^ r) >> 2) // c)


@dataclass(frozen=True)
class CyclicBitstring:
    """A vertex of X(n, k): k ones among n cyclic positions, n >= 2k + 1."""

    n: int
    k: int
    bits: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 2 * self.k + 1:
            raise ParameterError(f"need k >= 1 and n >= 2k+1, got n={self.n} k={self.k}")
        if not 0 <= self.bits < (1 << self.n):
            raise ParameterError(f"bits out of range for n={self.n}")
        if self.bits.bit_count() != self.k:
            raise ParameterError(
                f"popcount {self.bits.bit_count()} != k={self.k} for {to_string(self.bits, self.n)}"
            )

    @classmethod
    def from_string(cls, s: str) -> "CyclicBitstring":
        return cls(len(s), s.count("1"), from_string(s))

    def __str__(self) -> str:
        return to_string(self.bits, self.n)


def _scan_byte(byte: int) -> tuple[int, int, int]:
    """The linear pass over one byte from depth 0: (matched zeros, visible
    ends, change in depth).  Each 0 closes the nearest open 1; a 1 opened at
    depth 0 and the 0 that brings the depth back to 0 are visible ends."""
    m0 = vis = depth = 0
    b = 1
    for _ in range(8):
        if byte & b:
            if not depth:
                vis |= b
            depth += 1
        elif depth:
            depth -= 1
            m0 |= b
            if not depth:
                vis |= b
        b <<= 1
    return m0, vis, depth


def _byte_table() -> tuple[tuple[int, int, int], ...]:
    """The linear pass over every byte from open depths 0 to 9, at index
    depth << 8 | byte.

    Each row adds one open 1 to the row before.  It closes on the byte's
    first zero that closed nothing, which then ends the pair enclosing every
    end before it; with no such zero it stays open over the whole byte, which
    then has no visible end.  Entries a row leaves alone are shared."""
    row = [_scan_byte(byte) for byte in range(256)]
    table = row[:]
    for _ in range(9):
        for byte, (m0, vis, step) in enumerate(row):
            free = 255 & ~(byte | m0)
            low = free & -free
            if low:
                row[byte] = (m0 | low, vis & -low | low, step - 1)
            elif vis:
                row[byte] = (m0, 0, step)
        table += row
    return tuple(table)


_BYTE_SCAN = _byte_table()


def _scan_match(bits: int, n: int) -> tuple[int, int, int]:
    """(anchor, matched-zero mask, visible-end mask) in one pass.

    Read linearly from position 0, each 0 closes the nearest open 1.  The d
    1s still open at the end close cyclically on the first d zeros that
    found nothing to close, the last open 1 on the first such zero.  The
    anchor, the last zero left unmatched, closes nothing even cyclically.
    The visible ends are both ends of every pair that no other pair
    encloses; the outermost wrapping pair encloses every pair before its 0.

    The linear pass reads a byte at a time from _BYTE_SCAN.  Depth 9 stands
    for every larger depth: a byte holds at most eight 0s, so with nine or
    more 1s open each of its 0s closes one and none brings the depth to 0,
    and a 1 opened there is not at depth 0.  The byte's matched zeros and
    visible ends are then the same as from depth 9, and its change in depth
    is its 1s less its 0s.  The last byte is padded with 1s past position
    n - 1.  They come after every real position, so they change nothing
    before them; only their visible ends and their depth are taken back.
    """
    nbytes = (n + 7) >> 3
    mask = (1 << n) - 1
    m0 = vis = depth = shift = 0
    for byte in (bits | (1 << 8 * nbytes) - 1 - mask).to_bytes(nbytes, "little"):
        m, v, step = _BYTE_SCAN[(depth if depth < 9 else 9) << 8 | byte]
        m0 |= m << shift
        vis |= v << shift
        depth += step
        shift += 8
    depth -= 8 * nbytes - n
    vis &= mask
    free = mask & ~(bits | m0)
    low = 0
    for _ in range(depth):
        low = free & -free
        m0 |= low
        free ^= low
    if not free:  # zeros in the majority leave one unmatched
        raise InternalConsistencyError("matching needs more zeros than ones")
    if low:
        vis = vis & -low | low
    return free.bit_length() - 1, m0, vis


def _f_bits(bits: int, n: int) -> int:
    """f flips all matched bits; since all ones are matched, f(x) is exactly
    the matched-zero mask."""
    return _scan_match(bits, n)[1]


@dataclass(frozen=True)
class Matching:
    """Cyclic parenthesis matching of one bitstring, as bit masks.

    Every 1 is matched.  A pair is visible when no other pair encloses it;
    visible holds both ends of every visible pair, and a visible 1 pairs
    with the next visible position after it.  A 1 followed directly by a 0
    is always a pair.
    """

    n: int
    bits: int
    anchor: int
    matched_zeros: int
    visible: int

    @property
    def unmatched(self) -> int:
        return ((1 << self.n) - 1) & ~(self.bits | self.matched_zeros)


def parenthesis_match(x: CyclicBitstring) -> Matching:
    return Matching(x.n, x.bits, *_scan_match(x.bits, x.n))


def _annotate(bits: int, fx: int, n: int) -> str:
    """The annotated string of x from its bits and fx = f(x), which is x's
    matched-zero mask."""
    unmatched = ((1 << n) - 1) & ~(bits | fx)
    # each bit becomes a hex digit: 1 for a 1, 2 for an unmatched 0
    digits = int(format(bits, "b"), 16) + 2 * int(format(unmatched, "b"), 16)
    return format(digits, f"0{n}x")[::-1].replace("2", "-")


def apply_f(x: CyclicBitstring) -> CyclicBitstring:
    return CyclicBitstring(x.n, x.k, _f_bits(x.bits, x.n))


@dataclass(frozen=True)
class Cycle:
    """One orbit of f, listed in f-order starting from the canonical key
    (the lexicographically least string form in the orbit)."""

    n: int
    k: int
    vertices: tuple[int, ...]

    @property
    def key(self) -> int:
        return self.vertices[0]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class CycleFactor:
    """All orbits of f on X(n, k), sorted by canonical key."""

    n: int
    k: int
    cycles: tuple[Cycle, ...]
    index: dict[int, int] = field(repr=False)  # bits -> position in cycles

    def total_vertices(self) -> int:
        return sum(len(c) for c in self.cycles)


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


def cycle_factor(n: int, k: int) -> CycleFactor:
    """The orbits of f, from one glider period per rotation class.

    Strings are visited in lexicographic order, so the first vertex met on
    each new orbit is its key and the orbits come out sorted.  f commutes
    with rotation, so rot_i of an orbit is the orbit of rot_i of its vertex.
    A new key v is rotated one step at a time.  If some r = rot_j(v) is
    already in a cycle, v's orbit is that cycle read from r and rotated by
    n - j; the other vertices need not have v's period.  Otherwise v comes
    back, and f is walked from v up to its first rotation f^m(v) = rot_s(v);
    those m vertices are the period.  With d the least rotational period of
    v and s taken mod d, v's orbit is the period rotated by 0, s, 2s, ...
    (mod d) until it is back at v: a string with a rotational symmetry
    closes its orbit before n / gcd(s, n) copies.  The index doubles as the
    set of vertices already met.
    """
    if k < 1 or n < 2 * k + 1:
        raise ParameterError(f"need k >= 1 and n >= 2k+1, got n={n} k={k}")
    mask = (1 << n) - 1
    cycles: list[Cycle] = []
    index: dict[int, int] = {}
    for v in _iter_strings(n, k):
        if v in index:
            continue
        rots = {v: 0}  # rot_j(v) -> j, for 0 <= j < d
        r = rotate_bits(v, n, 1)
        while r != v and r not in index:
            rots[r] = len(rots)
            r = rotate_bits(r, n, 1)
        if r != v:  # r = rot_j(v) with j = len(rots)
            met = cycles[index[r]].vertices
            p = met.index(r)
            period, shifts = met[p:] + met[:p], [n - len(rots)]
        else:
            d = len(rots)
            period = [v]
            b = _f_bits(v, n)
            while b not in rots:
                period.append(b)
                b = _f_bits(b, n)
            s = rots[b]
            shifts = [t * s % d for t in range(d // gcd(s, d))]
        orbit = tuple([((b << i) | (b >> (n - i))) & mask for i in shifts for b in period])
        index.update(zip(orbit, repeat(len(cycles))))
        cycles.append(Cycle(n, k, orbit))
    if len(index) != comb(n, k):
        raise InternalConsistencyError("factor cycles do not cover X(n, k)")
    return CycleFactor(n, k, tuple(cycles), index)
