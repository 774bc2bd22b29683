"""Cyclic bitstrings, cyclic parenthesis matching, and the flip-map cycle factor.

A k-subset of {0, ..., n-1} is stored as a Python int with bit i set iff
position i is in the set.  String forms always show position 0 first, so
``to_string`` / ``from_string`` reverse the usual binary notation.  All
positions are 0-based and arithmetic on them is mod n.

Matching interprets a bitstring cyclically as a parenthesis expression:
1s open, 0s close.  With k ones and n - k > k zeros every 1 is matched and
exactly n - 2k zeros stay unmatched.  The map f flips every matched bit;
iterating f partitions X(n, k) into disjoint cycles (the cycle factor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterator

from .errors import InternalConsistencyError, ParameterError

__all__ = [
    "rotate_bits",
    "reverse_bits",
    "to_string",
    "from_string",
    "descent_count",
    "iter_bits",
    "CyclicBitstring",
    "Matching",
    "parenthesis_match",
    "unmatched_mask",
    "step_types",
    "annotated",
    "apply_f",
    "apply_f_inverse",
    "Cycle",
    "cycle_of",
    "CycleFactor",
    "cycle_factor",
]


def rotate_bits(bits: int, n: int, i: int) -> int:
    """Cyclic left-to-right shift: bit j of the result is bit (j - i) mod n."""
    i %= n
    mask = (1 << n) - 1
    return ((bits << i) | (bits >> (n - i))) & mask if i else bits


def reverse_bits(bits: int, n: int) -> int:
    """Exchange positions j and n-1-j."""
    out = 0
    for j in range(n):
        if (bits >> j) & 1:
            out |= 1 << (n - 1 - j)
    return out


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

    def rotate(self, i: int) -> "CyclicBitstring":
        return CyclicBitstring(self.n, self.k, rotate_bits(self.bits, self.n, i))

    def reverse(self) -> "CyclicBitstring":
        return CyclicBitstring(self.n, self.k, reverse_bits(self.bits, self.n))

    def bit(self, i: int) -> int:
        return (self.bits >> (i % self.n)) & 1


def _anchor(bits: int, n: int) -> int:
    """Index of the last strict minimum of the prefix walk (+1 per 1, -1 per 0).

    The zero there closes nothing even cyclically, so the matching of the
    whole cycle equals the plain linear matching of the n symbols that follow.
    Requires more zeros than ones, which guarantees the walk ends below 0.
    """
    h = 0
    best = 0
    anchor = -1
    for i in range(n):
        h += 1 if (bits >> i) & 1 else -1
        if h < best:
            best = h
            anchor = i
    if anchor < 0:
        raise InternalConsistencyError("matching needs more zeros than ones")
    return anchor


def _scan_match(bits: int, n: int) -> tuple[int, int]:
    """(anchor, matched-zero mask) without pair bookkeeping."""
    a = _anchor(bits, n)
    m0 = 0
    depth = 0
    for j in range(a + 1, a + n + 1):
        i = j if j < n else j - n
        if (bits >> i) & 1:
            depth += 1
        elif depth:
            depth -= 1
            m0 |= 1 << i
    if depth:  # every 1 is matched when zeros are in the majority
        raise InternalConsistencyError("a 1 is left unmatched")
    return a, m0


def _f_bits(bits: int, n: int) -> int:
    """f flips all matched bits; since all ones are matched, f(x) is exactly
    the matched-zero mask."""
    return _scan_match(bits, n)[1]


def _f_inv_bits(bits: int, n: int) -> int:
    # f conjugated by position reversal is its own inverse
    return reverse_bits(_f_bits(reverse_bits(bits, n), n), n)


def unmatched_mask(bits: int, n: int) -> int:
    return ((1 << n) - 1) & ~(bits | _scan_match(bits, n)[1])


def step_types(bits: int, n: int) -> tuple[str, ...]:
    """Per position: U for a 1, D for a matched 0, F for an unmatched 0."""
    _, m0 = _scan_match(bits, n)
    return tuple(
        "U" if (bits >> i) & 1 else "D" if (m0 >> i) & 1 else "F" for i in range(n)
    )


@dataclass(frozen=True)
class Matching:
    """Full cyclic parenthesis matching of one bitstring.

    partner maps each matched position to its mate (both directions).
    pairs lists (one_pos, zero_pos) in pop order of the anchor scan.
    A pair is visible when it is nested inside no other pair.
    """

    n: int
    anchor: int
    partner: dict[int, int] = field(repr=False)
    pairs: tuple[tuple[int, int], ...]
    visible: frozenset[tuple[int, int]]
    unmatched: frozenset[int]


def parenthesis_match(x: CyclicBitstring) -> Matching:
    bits, n = x.bits, x.n
    a = _anchor(bits, n)
    stack: list[int] = []
    partner: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    visible: list[tuple[int, int]] = []
    unmatched: list[int] = []
    for j in range(a + 1, a + n + 1):
        i = j % n
        if (bits >> i) & 1:
            stack.append(i)
        elif stack:
            o = stack.pop()
            partner[o] = i
            partner[i] = o
            pairs.append((o, i))
            if not stack:
                visible.append((o, i))
        else:
            unmatched.append(i)
    if stack or len(unmatched) != n - 2 * x.k:
        raise InternalConsistencyError(f"matching of {x} leaves a 1 open")
    return Matching(
        n=n,
        anchor=a,
        partner=partner,
        pairs=tuple(pairs),
        visible=frozenset(visible),
        unmatched=frozenset(unmatched),
    )


def annotated(x: CyclicBitstring) -> str:
    """String form with unmatched zeros shown as '-'."""
    um = unmatched_mask(x.bits, x.n)
    return "".join(
        "1" if (x.bits >> i) & 1 else "-" if (um >> i) & 1 else "0" for i in range(x.n)
    )


def apply_f(x: CyclicBitstring) -> CyclicBitstring:
    return CyclicBitstring(x.n, x.k, _f_bits(x.bits, x.n))


def apply_f_inverse(x: CyclicBitstring) -> CyclicBitstring:
    return CyclicBitstring(x.n, x.k, _f_inv_bits(x.bits, x.n))


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


def cycle_of(x: CyclicBitstring) -> Cycle:
    orbit = [x.bits]
    b = _f_bits(x.bits, x.n)
    while b != x.bits:
        orbit.append(b)
        b = _f_bits(b, x.n)
    # string lex order is integer order after position reversal
    start = min(range(len(orbit)), key=lambda i: reverse_bits(orbit[i], x.n))
    return Cycle(x.n, x.k, tuple(orbit[start:] + orbit[:start]))


@dataclass(frozen=True)
class CycleFactor:
    """All orbits of f on X(n, k), sorted by canonical key."""

    n: int
    k: int
    cycles: tuple[Cycle, ...]
    index: dict[int, tuple[int, int]] = field(repr=False)  # bits -> (cycle, offset)

    def cycle_containing(self, bits: int) -> Cycle:
        return self.cycles[self.index[bits][0]]

    def total_vertices(self) -> int:
        return sum(len(c) for c in self.cycles)


def cycle_factor(n: int, k: int) -> CycleFactor:
    if k < 1 or n < 2 * k + 1:
        raise ParameterError(f"need k >= 1 and n >= 2k+1, got n={n} k={k}")
    seen: set[int] = set()
    cycles: list[Cycle] = []
    for v in iter_bits(n, k):
        if v in seen:
            continue
        c = cycle_of(CyclicBitstring(n, k, v))
        seen.update(c.vertices)
        cycles.append(c)
    cycles.sort(key=lambda c: reverse_bits(c.key, n))
    index = {
        bits: (ci, off) for ci, c in enumerate(cycles) for off, bits in enumerate(c.vertices)
    }
    if len(index) != comb(n, k):
        raise InternalConsistencyError("factor cycles do not cover X(n, k)")
    return CycleFactor(n, k, tuple(cycles), index)
