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

from math import comb, gcd
from typing import Iterator, NamedTuple

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


def _repr_without(*hidden: str):
    """A named tuple's __repr__ that leaves out the hidden fields."""

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self) if f not in hidden)
        return f"{type(self).__name__}({shown})"

    return __repr__


class CyclicBitstring(NamedTuple("CyclicBitstring", [("n", int), ("k", int), ("bits", int)])):
    """A vertex of X(n, k): k ones among n cyclic positions, n >= 2k + 1."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, bits: int) -> CyclicBitstring:
        if k < 1 or n < 2 * k + 1:
            raise ParameterError(f"need k >= 1 and n >= 2k+1, got n={n} k={k}")
        if not 0 <= bits < (1 << n):
            raise ParameterError(f"bits out of range for n={n}")
        if bits.bit_count() != k:
            raise ParameterError(f"popcount {bits.bit_count()} != k={k} for {to_string(bits, n)}")
        return tuple.__new__(cls, (n, k, bits))

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


class Matching(NamedTuple):
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


class Cycle(tuple):
    """One orbit of f, the tuple of its vertices in f-order starting from the
    canonical key (the lexicographically least string form in the orbit)."""

    __slots__ = ()

    @property
    def vertices(self) -> tuple[int, ...]:
        return self

    @property
    def key(self) -> int:
        return self[0]

    def _replace(self, *, vertices: tuple[int, ...]) -> Cycle:
        return Cycle(vertices)


class _Orbits(NamedTuple):
    """One rotation class of orbits, read off its glider period p_0, ...,
    p_{m-1}: the period vertices start, ..., start + m - 1.

    f^m(p_0) = rot_s(p_0), and every string of the class has least
    rotational period d.  With g = gcd(s, d), orbit j < g lists
    rot_{j+ts}(p_i) for t < d/g and i < m in f-order, and its cycle starts
    at the entry offsets[j] of that list.  inv is the inverse of s/g mod
    d/g, which takes a rotation back to its t."""

    start: int
    d: int
    m: int
    inv: int
    cycles: tuple[int, ...]  # orbit j -> its position in the factor's cycles
    offsets: tuple[int, ...]


class CycleFactor(NamedTuple):
    """All orbits of f on X(n, k), sorted by canonical key.

    The period vertices of all rotation classes are numbered in one
    sequence.  necklaces maps each fixed-density necklace, the least string
    among its rotations, to h * n + e when period vertex h is rot_e of it,
    and classes holds the rotation class of each period vertex.  Every
    vertex is a rotation of exactly one period vertex, so the two locate
    any x."""

    n: int
    k: int
    cycles: tuple[Cycle, ...]
    necklaces: dict[int, int]
    classes: tuple[_Orbits, ...]

    __repr__ = _repr_without("necklaces", "classes")

    def locate(self, x: int) -> tuple[int, int]:
        """(position of x's cycle in cycles, position of x in that cycle).

        x = rot_q(r) for its necklace r, and period vertex h = rot_e(r), so
        x = rot_u(h) with u = q - e (mod d).  That puts x on orbit u mod g,
        at the step t with j + ts = u (mod d)."""
        n = self.n
        if not (type(x) is int and 0 <= x < 1 << n and x.bit_count() == self.k):
            raise KeyError(x)
        r, q = _necklace_of(x, n)
        h, e = divmod(self.necklaces[r], n)
        start, d, m, inv, cycles, offsets = self.classes[h]
        g = len(cycles)
        j = (q - e) % g
        t = _step(q - e, g, d, inv)
        return cycles[j], (t * m + h - start - offsets[j]) % (m * d // g)


def _step(u: int, g: int, d: int, inv: int) -> int:
    """The t < d/g with j + ts = u (mod d), j = u mod g, where g = gcd(s, d)
    and inv is the inverse of s/g mod d/g."""
    return u % d // g * inv % (d // g)


def _necklaces(n: int, k: int) -> list[int]:
    """The k-element masks of width n that are least among their rotations,
    in lexicographic order of their strings.

    Such a string reads 0^a_1 1 0^a_2 1 ... 0^a_k 1, and it is least among
    its rotations exactly when its gaps a are greatest among theirs; a
    greater gap first makes a lesser string.  So the gaps are chosen as in
    the FKM algorithm with the order of gap lengths reversed: a_t repeats
    a_{t-p}, where p is the period of the gaps chosen so far, or falls
    below it and makes p = t.  The gaps sum to n - k and
    none exceeds a_1, which bounds each choice from both sides; p must
    divide k at the end."""
    out: list[int] = []
    gaps = [n - k] * (k + 1)  # gaps[t] for t = 1..k; gaps[0] caps a_1

    def extend(t: int, p: int, rest: int, bits: int, pos: int) -> None:
        top = gaps[t - p]
        if t == k:  # the last gap takes the rest, and the last 1 ends the string
            if rest < top or rest == top and k % p == 0:
                out.append(bits | 1 << (n - 1))
            return
        # the k - t later gaps hold at most a_1 each
        low = -(-rest // k) if t == 1 else max(0, rest - (k - t) * gaps[1])
        for a in range(min(top, rest), low - 1, -1):
            gaps[t] = a
            extend(t + 1, p if a == top else t, rest - a, bits | 1 << (pos + a), pos + a + 1)

    extend(1, 1, n - k, 0, 0)
    return out


def _necklace_of(bits: int, n: int) -> tuple[int, int]:
    """(r, q): the least string r among the rotations of bits, and q with
    bits = rot_q(r).

    r starts with a 0 and ends with a 1, or moving its last 0 to the front
    would make it less; so r is one of the rotations that bring a 1 of bits
    followed by a 0 to position n - 1.  Of two masks, the lesser string has
    a 0 at the lowest differing position."""
    mask = (1 << n) - 1
    twice = bits << n | bits  # bit i + j is bit (i + j) mod n for j < n
    best, low = mask, 0
    rest = bits & ~(twice >> 1)  # the 1s followed by a 0
    while rest:
        one = rest & -rest
        rest ^= one
        c = twice >> one.bit_length() & mask  # that 1 moved to position n - 1
        diff = c ^ best
        if best & diff & -diff:
            best, low = c, one
    return best, low.bit_length() % n


def cycle_factor(n: int, k: int) -> CycleFactor:
    """The orbits of f, from one glider period per rotation class, visiting
    only the fixed-density necklaces.

    f commutes with rotation, so rot_i of an orbit is the orbit of rot_i of
    its vertex.  The necklaces come in lexicographic order from a generator
    on the gap lengths in the manner of Sawada's necklaces with fixed
    content (TCS 2003).  A necklace v not marked yet starts a rotation
    class: f is walked from v up to its first rotation f^m(v) = rot_s(v),
    and those m vertices are its period.  No two of them are rotations of
    each other, so each marks its own necklace, its least rotation.  Booth's
    algorithm (1980) finds a least rotation in linear time; on a mask, only
    the <= k rotations that bring a 1 to the end can be least.  A period
    that meets a necklace already marked, or classes that do not cover
    C(n, k) strings, raise.

    With d the least rotational period of v, s taken mod d and
    g = gcd(s, d), the class holds g orbits: orbit j is the period rotated
    by j, j + s, j + 2s, ... (mod d).  Its key, its least string, is the
    least rotation on the orbit of a period vertex's necklace.  A class's
    necklaces are tried least first: the first one that lies on the orbit
    ends the search, and one before it is searched over its rotations on
    the orbit only while it is below the best key so far.  The orbits are
    sorted by key and listed in f-order from it.
    """
    if k < 1 or n < 2 * k + 1:
        raise ParameterError(f"need k >= 1 and n >= 2k+1, got n={n} k={k}")
    mask = (1 << n) - 1
    table: dict[int, int] = {}  # as CycleFactor.necklaces
    period: list[int] = []  # the period vertices of all classes, in order
    owner: list[int] = []  # each period vertex's class
    starts: list[int] = []  # each class's first period vertex
    shifts: list[tuple[int, int]] = []  # each class's d and s
    ranked: list[list[int]] = []  # each class's table entries, least necklace first
    for v in _necklaces(n, k):
        h = table.get(v)
        if h is not None:
            ranked[owner[h // n]].append(h)
            continue
        c = len(starts)
        starts.append(len(period))
        b, r, e = v, v, 0
        while True:
            table[r] = len(period) * n + e
            period.append(b)
            owner.append(c)
            b = _f_bits(b, n)
            r, e = _necklace_of(b, n)
            if r == v:
                break
            if r in table:
                raise InternalConsistencyError("a glider period meets a necklace already marked")
        d = next(d for d in range(1, n + 1) if ((v << d) | (v >> (n - d))) & mask == v)
        shifts.append((d, e % d))
        ranked.append([table[v]])
    starts.append(len(period))
    if sum((starts[c + 1] - starts[c]) * d for c, (d, s) in enumerate(shifts)) != comb(n, k):
        raise InternalConsistencyError("factor cycles do not cover X(n, k)")

    keyed = []  # (the key's string read as a binary numeral, class, orbit, offset)
    invs = []
    for c, (d, s) in enumerate(shifts):
        g = gcd(s, d)
        invs.append(inv := pow(s // g, -1, d // g))
        m = starts[c + 1] - starts[c]
        for j in range(g):
            best = mask  # above every string of weight k
            for entry in ranked[c]:
                h, e = divmod(entry, n)
                r = ((period[h] >> e) | (period[h] << (n - e))) & mask
                diff = r ^ best
                if not best & diff & -diff:
                    break  # r and its rotations are no less than best
                # rot_u(r) = rot_{u-e}(p_h) is on orbit j when u = j + e (mod g)
                first = (j + e) % g
                for u in range(first, d if first else 1, g):  # r itself when first is 0
                    rot = ((r << u) | (r >> (n - u))) & mask
                    diff = rot ^ best
                    if best & diff & -diff:
                        best, w = rot, _step(u - e, g, d, inv) * m + h - starts[c]
                if not first:
                    break
            keyed.append((int(to_string(best, n), 2), c, j, w))
    keyed.sort(reverse=True)  # popped least first, so each is freed as its cycle is built
    del ranked

    cycles: list[Cycle] = []
    placed = [([0] * gcd(s, d), [0] * gcd(s, d)) for d, s in shifts]  # orbit -> cycle, offset
    while keyed:
        _, c, j, w = keyed.pop()
        (d, s), first = shifts[c], starts[c]
        t0, i0 = divmod(w, starts[c + 1] - first)
        # the period from its i0-th vertex on, then round into the next rotation step
        head = period[first + i0:starts[c + 1]]
        head += [((b << s) | (b >> (n - s))) & mask for b in period[first:first + i0]]
        steps = [(j + (t0 + t) * s) % d for t in range(d // gcd(s, d))]
        placed[c][0][j], placed[c][1][j] = len(cycles), w
        # unrotated, the period vertices themselves go in, not copies
        cycles.append(Cycle(
            [((b << i) | (b >> (n - i))) & mask if i else b for i in steps for b in head]
        ))
    classes = [
        _Orbits(starts[c], d, starts[c + 1] - starts[c], inv, tuple(cyc), tuple(off))
        for c, ((d, s), inv, (cyc, off)) in enumerate(zip(shifts, invs, placed))
    ]
    return CycleFactor(n, k, tuple(cycles), table, tuple(classes[c] for c in owner))
