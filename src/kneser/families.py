"""Hamilton cycles, paths, and infeasibility proofs for set graphs.

The gluing pipeline covers Kneser graphs K(n, k) with k = 1 or n >= 2k+3.
The two sparse families K(2k+1, k) and K(2k+2, k) fall back to exhaustive
search with degree pruning; an empty exhaustive run is a proof that no
cycle exists, which is how K(5, 2) gets its Hamilton path plus a verified
infeasibility verdict rather than a hardcoded answer.  Generalized Johnson
graphs J(n, k, s) reduce recursively on the last ground element, splicing
the two halves through an explicit 4-cycle; generalized Kneser graphs
reuse Johnson cycles edge for edge, and the bipartite containment graphs
H(n, k) interleave a Kneser cycle with elementwise complements.
"""

import random
import time
from functools import partial
from itertools import compress, filterfalse, islice, repeat
from math import comb, isnan
from operator import and_, getitem, or_, setitem
from typing import NamedTuple

from .bitstrings import iter_bits, to_string
from .errors import InternalConsistencyError, ParameterError
from .gluing import build_gluing_plan, iter_tour

__all__ = [
    "GraphSpec",
    "HamiltonResult",
    "fallback_backtracking",
    "hamilton_kneser",
    "hamilton_johnson",
    "hamilton_generalized_kneser",
    "hamilton_bipartite",
    "hamilton_tour",
    "tour_fault",
    "verify_tour",
]

DEFAULT_FALLBACK_CAP = 10_000
DEFAULT_FALLBACK_SECS = 60.0
EXHAUSTIVE_LIMIT = 64  # largest vertex count worth proving infeasibility on
_CHUNK = 2048  # masks per step of tour_fault


class GraphSpec(NamedTuple("GraphSpec", [("family", str), ("n", int), ("k", int), ("s", int)])):
    """A vertex-as-bitmask graph from one of the four set families.

    kneser:     k-subsets of [n], edges between disjoint sets (s stored as 0)
    johnson:    k-subsets, edges between sets meeting in exactly s elements
    gen-kneser: k-subsets, edges between sets meeting in at most s elements
    bipartite:  k-subsets and (n-k)-subsets, edges given by containment (s stored as 0)
    """

    __slots__ = ()

    def __new__(cls, family: str, n: int, k: int, s: int = 0) -> "GraphSpec":
        if family not in ("kneser", "johnson", "gen-kneser", "bipartite"):
            raise ParameterError(f"unknown graph family {family!r}")
        for name, value in (("n", n), ("k", k), ("s", s)):
            if type(value) is not int:  # a bool is an int subclass and is refused too
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if not 1 <= k <= n:
            raise ParameterError(f"need 1 <= k <= n, got n={n} k={k}")
        if s < 0:
            raise ParameterError("s must be nonnegative")
        if family in ("kneser", "bipartite"):
            s = 0  # their edges read no s, so one graph has one spec
        return tuple.__new__(cls, (family, n, k, s))

    def vertex_count(self) -> int:
        base = comb(self.n, self.k)
        return 2 * base if self.family == "bipartite" else base

    def vertices(self) -> list[int]:
        vs = list(iter_bits(self.n, self.k))
        if self.family == "bipartite":
            full = (1 << self.n) - 1
            vs += [full ^ v for v in vs]
        return vs

    def valid_vertex(self, v: int) -> bool:
        weights = (self.k, self.n - self.k) if self.family == "bipartite" else (self.k,)
        return v >= 0 and not v >> self.n and v.bit_count() in weights

    def adjacent(self, a: int, b: int) -> bool:
        if a == b:
            return False
        if self.family == "kneser":
            return a & b == 0
        if self.family == "johnson":
            return (a & b).bit_count() == self.s
        if self.family == "gen-kneser":
            return (a & b).bit_count() <= self.s
        if a.bit_count() > b.bit_count():
            a, b = b, a
        return a.bit_count() == self.k and a & b == a


class HamiltonResult(NamedTuple):
    """Outcome of a Hamilton tour search.

    status is one of cycle, path, none, timeout, unsupported.  cycle_exists
    reports what is actually known: True when a cycle was built, False when
    an exhaustive search ruled one out, None when the method used cannot
    tell."""

    spec: GraphSpec
    status: str
    vertices: tuple[int, ...] = ()
    cycle_exists: bool | None = None
    note: str = ""


def tour_fault(spec: GraphSpec, vertices, closed: bool = True) -> str | None:
    """Why the masks of vertices, any iterable, read once, are not a Hamilton
    cycle (or path) of spec's graph, or None when they are one.  One pass of
    C-level maps over _CHUNK masks at a time keeps the first fault of each
    kind, a position found only in a chunk that fails, and reports them in
    this order: the count, a repeat, a non-vertex, then the first pair that
    is not an edge, the closing pair of a cycle last.

    A repeat is fewer distinct masks than listed ones.  When 2^n is at most
    16 times the vertex count, the masks in 0..2^n - 1 are marked in a byte
    map of them, made once a chunk would take the listing to 2^n / 1024
    masks, so a short listing never pays for it; the masks before, the masks
    out of its range and every mask of a sparser graph go in a set."""
    n, k = spec.n, spec.k
    weights = {k, n - k} if spec.family == "bipartite" else {k}
    cut = _non_edges(spec)
    dense = n < (16 * spec.vertex_count()).bit_length()  # 2^n <= 16 * count, 2^n never made
    seen, marks, listed, first, prev, odd, gap = set(), None, 0, None, None, None, None
    it = iter(vertices)
    while chunk := list(islice(it, _CHUNK)):
        inside = min(chunk) >= 0 and not max(chunk) >> n
        if marks is None and dense and listed + len(chunk) >= 1 << n >> 10:
            marks = bytearray(1 << n)
            seen = _mark(marks, seen, n)
        if marks is None:
            seen.update(chunk)
        elif inside:
            any(map(setitem, repeat(marks), chunk, repeat(1)))
        else:
            seen |= _mark(marks, chunk, n)
        if odd is None and not (inside and sum(
                map(list(map(int.bit_count, chunk)).count, weights)) == len(chunk)):
            odd = next(filterfalse(spec.valid_vertex, chunk))
        pairs = chunk if prev is None else [prev, *chunk]  # pairs[0] at listed - 1
        if gap is None and any(cut(pairs, pairs[1:])):
            i = next(compress(range(len(pairs)), cut(pairs, pairs[1:])))
            gap = (listed - (prev is not None) + i, pairs[i], pairs[i + 1])
        first = chunk[0] if prev is None else first
        listed += len(chunk)
        prev = chunk[-1]
    if closed and listed and gap is None and not spec.adjacent(prev, first):
        gap = (listed - 1, prev, first)
    want = spec.vertex_count()
    if listed != want:
        return f"{listed} vertices listed, the graph has {want}"
    if len(seen) + (marks.count(1) if marks is not None else 0) != listed:
        return "repeated vertex"
    if odd is not None:
        return f"{to_string(odd, n)} is not a vertex of this graph"
    if gap is not None:
        i, u, v = gap
        return (f"positions {i} and {i + 1}: "
                f"{to_string(u, n)} and {to_string(v, n)} are not adjacent")
    return None


def _mark(marks: bytearray, masks, n: int) -> set[int]:
    """Mark the masks in 0..2^n - 1 in marks, and return the set of the others,
    which must not index it: a negative index reads from its end."""
    outside = {v for v in masks if v >> n}  # v >> n is -1 for a negative v
    any(map(setitem, repeat(marks), filterfalse(outside.__contains__, masks), repeat(1)))
    return outside


def _non_edges(spec: GraphSpec):
    """The function of two lists of masks a and b that maps each pair
    (a[i], b[i]) to a true value when it is no edge of spec's graph, in C
    from the popcounts of u & v (and of u | v for H(n, k)).  It is exact on
    pairs of distinct vertices, the only pairs a reported non-edge can hold,
    since a repeat or a non-vertex outranks it."""
    n, k, s = spec.n, spec.k, spec.s
    if spec.family == "kneser":
        return partial(map, and_)
    if spec.family == "johnson":
        return lambda a, b: map(s.__ne__, map(int.bit_count, map(and_, a, b)))
    if spec.family == "gen-kneser":
        return lambda a, b: map(s.__lt__, map(int.bit_count, map(and_, a, b)))
    return lambda a, b: map(or_, map(k.__ne__, map(int.bit_count, map(and_, a, b))),
                            map((n - k).__ne__, map(int.bit_count, map(or_, a, b))))


def verify_tour(spec: GraphSpec, vertices, closed: bool = True) -> bool:
    """Check that the masks of vertices, any iterable, read once, are a
    Hamilton cycle (or path) of spec's graph."""
    return tour_fault(spec, vertices, closed) is None


def _checked(result: HamiltonResult) -> HamiltonResult:
    """result, once tour_fault finds no fault in its tour or it is an empty path."""
    closed = result.status == "cycle"
    if (closed or result.vertices) and (fault := tour_fault(result.spec, result.vertices, closed)):
        raise InternalConsistencyError(
            f"constructed {result.status} fails verification: {result.spec}: {fault}")
    return result


def hamilton_tour(spec: GraphSpec,
                  fallback_cap: int = DEFAULT_FALLBACK_CAP,
                  fallback_secs: float = DEFAULT_FALLBACK_SECS) -> HamiltonResult:
    """Hamilton tour of spec's graph, or the strongest substitute available,
    found under a search cap and a time budget in seconds, and checked."""
    result = _tour(spec, fallback_cap, time.monotonic() + fallback_secs, {})
    return _checked(result._replace(vertices=tuple(result.vertices)))


def _tour(spec: GraphSpec, cap: int, deadline: float, memo: dict) -> HamiltonResult:
    """The tour of spec's graph, unchecked, for its consumer to check once: a
    glued Kneser cycle comes as iter_tour's walk, any other tour as a tuple.
    memo holds the pieces that a composite family has built in this call."""
    if isnan(deadline):
        raise ParameterError("the time budget is not a number")
    if spec.vertex_count() == 1:
        return HamiltonResult(spec, "path", ((1 << spec.k) - 1,), False,
                              "single vertex, nothing to tour")
    build = {"kneser": _kneser, "johnson": _johnson, "gen-kneser": _generalized_kneser,
             "bipartite": _bipartite}[spec.family]
    return build(spec, cap, deadline, memo)


def _piece(spec: GraphSpec, cap: int, deadline: float, memo: dict) -> HamiltonResult:
    """The checked tour of a piece that a composite family builds on, as a
    tuple, built once per call in memo: a timeout or an unsupported piece
    built again under what is left of the same budget and cap fares no better."""
    if spec not in memo:
        result = _tour(spec, cap, deadline, memo)
        memo[spec] = _checked(result._replace(vertices=tuple(result.vertices)))
    return memo[spec]


# -- exhaustive fallback -----------------------------------------------------


def fallback_backtracking(
    vertices,
    adjacency,
    want_cycle: bool = True,
    deadline: float | None = None,
) -> tuple[str, tuple | None]:
    """Depth-first Hamilton search with a degree-availability prune.

    Returns one of ("cycle", seq), ("path", seq), ("none", None) when the
    search space is exhausted, or ("timeout", None).  Exhaustion is sound:
    a cycle visits every vertex, so anchoring the start loses nothing, and
    the prune only discards prefixes that cannot extend (an unvisited
    vertex left with under two usable connections can never lie on the
    remaining cycle segment).  Path search re-anchors at every start."""
    verts = list(vertices)
    n = len(verts)
    if n < (3 if want_cycle else 2):
        return ("none", None)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    nbrs = {v: sum(map(bit.__getitem__, adjacency[v])) for v in verts}  # neighbour masks

    # v's neighbours off the path, the mask left, the fewest neighbours there first; the
    # walk draws them only when back at v, so each is still off the path then
    def candidates(v):
        return iter(sorted((w for w in adjacency[v] if bit[w] & left),
                           key=lambda w: (nbrs[w] & left).bit_count()))

    for start in verts[:1] if want_cycle else verts:
        left = (1 << n) - 1 ^ bit[start]
        home = bit[start] if want_cycle else 0  # a cycle's path must also reach back to start
        path, stack, expansions = [start], [candidates(start)], 0  # a candidate iterator a step
        while stack:
            expansions += 1
            if deadline is not None and expansions % 1024 == 0 and time.monotonic() > deadline:
                return ("timeout", None)
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                left |= bit[path.pop()]
                continue
            if len(path) == n - 1:
                if not want_cycle or nbrs[nxt] & home:
                    return ("cycle" if want_cycle else "path", (*path, nxt))
                continue
            left ^= bit[nxt]
            if _prune(verts, bit, nbrs, left, bit[nxt] | home, want_cycle):
                left |= bit[nxt]
                continue
            path.append(nxt)
            stack.append(candidates(nxt))
    return ("none", None)


def _prune(verts, bit, nbrs, left, ends, want_cycle) -> bool:
    """A vertex off the path can reach the path's ends and the vertices off it."""
    slack = 0  # path search may leave one vertex with a single connection
    for v in verts:
        if not bit[v] & left:
            continue
        avail = (nbrs[v] & (left | ends)).bit_count()
        if avail < 2:
            slack += 1
            if want_cycle or avail == 0 or slack > 1:
                return True
    return False


# -- Kneser ------------------------------------------------------------------


def hamilton_kneser(
    n: int,
    k: int,
    fallback_cap: int = DEFAULT_FALLBACK_CAP,
    fallback_secs: float = DEFAULT_FALLBACK_SECS,
) -> HamiltonResult:
    """Hamilton cycle of K(n, k), or the strongest substitute available."""
    return hamilton_tour(GraphSpec("kneser", n, k), fallback_cap, fallback_secs)


def _kneser(spec: GraphSpec, cap: int, deadline: float, memo: dict) -> HamiltonResult:
    n, k = spec.n, spec.k
    if n < 2 * k:
        return HamiltonResult(spec, "none", (), False,
                              "any two k-sets meet, the graph has no edges")
    if n == 2 * k == 2:
        return HamiltonResult(spec, "path", (1, 2), False, "a single edge has no cycle")
    if n == 2 * k:
        return HamiltonResult(spec, "none", (), False,
                              "complementation splits the graph into disjoint edges")
    if k == 1 or n >= 2 * k + 3:
        return HamiltonResult(spec, "cycle", iter_tour(build_gluing_plan(n, k)), True,
                              "cycle factor gluing")
    return _search_result(spec, cap, deadline, "sparse case below the gluing threshold")


def _search_result(spec: GraphSpec, cap: int, deadline: float, note: str) -> HamiltonResult:
    count = spec.vertex_count()
    if count > cap:
        return HamiltonResult(spec, "unsupported", (), None,
                              f"{count} vertices exceeds the search cap {cap}")
    verts = spec.vertices()
    adjacency = _adjacency(spec, verts, deadline)
    if adjacency is None:
        return HamiltonResult(spec, "timeout", (), None,
                              "search hit the time budget")
    if count > EXHAUSTIVE_LIMIT:
        if not all(adjacency.values()):
            return HamiltonResult(spec, "none", (), False,
                                  "a vertex without neighbours rules out any Hamilton path")
        # too big to exhaust; rotation-extension finds cycles without proofs
        rng = random.Random(f"{spec.family}:{spec.n}:{spec.k}:{spec.s}")
        status, seq = _posa_tour(verts, adjacency, deadline, rng)
        if status == "cycle":
            return HamiltonResult(spec, "cycle", seq, True, note + " (rotation-extension)")
        if status == "path":
            return HamiltonResult(spec, "path", seq, None,
                                  "spanning path found, cycle not closed in time")
        return HamiltonResult(spec, "timeout", (), None,
                              "heuristic search hit the time budget")
    status, seq = fallback_backtracking(verts, adjacency, True, deadline)
    if status == "cycle":
        return HamiltonResult(spec, "cycle", seq, True, note)
    if status == "timeout":
        return HamiltonResult(spec, "timeout", (), None,
                              "search hit the time budget")
    status, seq = fallback_backtracking(verts, adjacency, False, deadline)
    if status == "path":
        return HamiltonResult(spec, "path", seq, False,
                              "no Hamilton cycle: exhaustive search ran dry")
    if status == "timeout":
        return HamiltonResult(spec, "timeout", (), False,
                              "no cycle exists; path search hit the time budget")
    return HamiltonResult(spec, "none", (), False,
                          "exhaustive search: no Hamilton path either")


def _adjacency(spec: GraphSpec, verts: list[int],
               deadline: float) -> dict[int, tuple[int, ...]] | None:
    """Ascending neighbour tuples of every vertex, or None once the deadline
    passes.  Kneser neighbours are the k-subsets of the complement, found in
    O(degree) and stored as the int objects of verts; other families test
    all N vertices, so they read the clock at every vertex."""
    kneser = spec.family == "kneser"
    same = {v: v for v in verts} if kneser else {}
    picks = [_positions(c) for c in iter_bits(spec.n - spec.k, spec.k)] if kneser else []
    adjacency = {}
    for i, v in enumerate(verts):
        if (i % 256 == 0 or not kneser) and time.monotonic() > deadline:
            return None
        if kneser:
            bits = [1 << j for j in _positions(((1 << spec.n) - 1) ^ v)]
            adjacency[v] = tuple(same[sum(map(bits.__getitem__, pick))] for pick in picks)
        else:
            adjacency[v] = tuple(w for w in verts if spec.adjacent(v, w))
    return adjacency


def _id_codes(count: int) -> tuple[int, list[bytes]]:
    """The width w of ids below count and each id's code, its w little-endian bytes
    then the first w - 1 reversed: a byte palindrome, so a run of codes reversed
    byte by byte is its ids reversed, and its last w bytes big-endian its last id."""
    w = max(1, ((count - 1).bit_length() + 7) // 8)
    return w, [b + b[-2::-1] for b in (i.to_bytes(w, "little") for i in range(count))]


def _rotate(path: bytearray, code: bytes) -> None:
    """Reverse the codes in path after code's own, skipping hits that straddle two."""
    at = path.index(code)
    while at % len(code):
        at = path.index(code, at + 1)
    at += len(code)
    path[at:] = path[:at - 1:-1]


def _tip(path: bytearray, w: int) -> int:
    """The last id of path, a run of codes of ids w bytes wide."""
    return int.from_bytes(path[-w:], "big")


def _posa_tour(verts, adjacency, deadline: float, rng) -> tuple[str | None, tuple | None]:
    """Rotation-extension search: grow a path greedily, rotate when stuck.

    Returns ("cycle", seq), ("path", seq) for a spanning path that would
    not close, or (None, None).  Finds Hamilton cycles in sparse graphs far
    beyond exhaustive reach, but an empty answer proves nothing.  The path is
    a bytearray of _id_codes and a rotation one reversed slice (_rotate)."""
    n, best = len(verts), None
    w, codes = _id_codes(n)
    code = dict(zip(verts, codes))
    while time.monotonic() < deadline:
        start = rng.choice(verts)
        path, seen, stalls = bytearray(code[start]), {start}, 0
        while len(seen) < n and stalls < 64 * n:
            tip = verts[_tip(path, w)]
            fresh = [v for v in adjacency[tip] if v not in seen]
            if fresh:
                v = rng.choice(fresh)
                seen.add(v)
                path += code[v]
                stalls = 0
                continue
            # every neighbour of a stuck tip is on the path, so _rotate finds it
            _rotate(path, code[rng.choice(adjacency[tip])])
            stalls += 1
            if time.monotonic() > deadline:
                break
        if len(seen) == n:
            home = set(adjacency[start])  # adjacency is symmetric: a tip in home closes
            for _ in range(64 * n):
                tip = verts[_tip(path, w)]
                if tip in home or time.monotonic() > deadline:
                    break
                _rotate(path, code[rng.choice(adjacency[tip])])
            best = tuple(verts[int.from_bytes(path[j:j + w], "little")]
                         for j in range(0, len(path), 2 * w - 1))
            if tip in home:
                return "cycle", best
    return ("path", best) if best is not None else (None, None)


# -- generalized Johnson -----------------------------------------------------


def hamilton_johnson(
    n: int,
    k: int,
    s: int,
    fallback_cap: int = DEFAULT_FALLBACK_CAP,
    fallback_secs: float = DEFAULT_FALLBACK_SECS,
) -> HamiltonResult:
    """Hamilton cycle of J(n, k, s), built recursively on the last element."""
    return hamilton_tour(GraphSpec("johnson", n, k, s), fallback_cap, fallback_secs)


def _relabel_cycle(seq, n: int, edge: tuple[int, int]) -> list[int]:
    """Permute the ground set so the cycle's first edge becomes `edge`.

    Any bijection of [n] is an automorphism; one always exists mapping the
    first edge onto any equally-overlapping pair, built block by block with
    both sides sorted."""
    u, v = seq[0], seq[1]
    a, b = edge
    perm = [0] * n
    full = (1 << n) - 1
    blocks = [(u & v, a & b), (u & ~v, a & ~b), (v & ~u, b & ~a),
              (full & ~(u | v), full & ~(a | b))]
    for src, dst in blocks:
        ss, ds = _positions(src), _positions(dst)
        if len(ss) != len(ds):
            raise InternalConsistencyError("relabel blocks differ in size")
        for i, j in zip(ss, ds):
            perm[i] = j
    bit = [1 << j for j in perm]  # the mask of each position's image
    tables = []  # per byte of a mask, the image of each of its values
    for j in range(0, n, 8):
        table = [0]
        for b in bit[j:j + 8]:
            table += [v | b for v in table]
        tables.append(table)
    return [sum(map(getitem, tables, x.to_bytes(len(tables), "little"))) for x in seq]


def _positions(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _johnson(spec: GraphSpec, cap: int, deadline: float, memo: dict) -> HamiltonResult:
    n, k, s = spec.n, spec.k, spec.s
    if s >= k:
        return HamiltonResult(spec, "none", (), False,
                              "distinct k-sets cannot meet in k elements")
    if 2 * k > n:
        if n - 2 * k + s < 0:
            return HamiltonResult(spec, "none", (), False,
                                  "k-sets in a small ground set always meet in over s elements")
        inner = _piece(GraphSpec("johnson", n, n - k, n - 2 * k + s), cap, deadline, memo)
        flipped = tuple(map(((1 << n) - 1).__xor__, inner.vertices))
        return inner._replace(spec=spec, vertices=flipped, note="complemented: " + inner.note)
    if s == 0:
        return _tour(GraphSpec("kneser", n, k), cap, deadline, memo)._replace(spec=spec)
    if n <= 6:
        return _search_result(spec, cap, deadline, "small ground set, exhaustive search")

    halves = []  # a half that falls short ends the build before the next one
    for piece in (GraphSpec("johnson", n - 1, k - 1, s - 1), GraphSpec("johnson", n - 1, k, s)):
        halves.append(half := _piece(piece, cap, deadline, memo))
        if half.status != "cycle":
            return HamiltonResult(spec, half.status, (), half.cycle_exists,
                                  f"recursive piece {half.spec} fell short: {half.note}")
    half1, half0 = halves

    # joining 4-cycle: a, b contain element n-1; c, d avoid it; (1 << j) - (1 << i) is i..j-1
    top = 1 << (n - 1)
    a = (1 << (k - 1)) - 1 | top
    b = (1 << (s - 1)) - 1 | (1 << (2 * k - s - 1)) - (1 << (k - 1)) | top
    c = (1 << k) - 1
    d = (1 << s) - 1 | (1 << (2 * k - s)) - (1 << k)
    cyc1 = [x | top for x in _relabel_cycle(half1.vertices, n - 1, (a ^ top, b ^ top))]
    cyc0 = _relabel_cycle(half0.vertices, n - 1, (c, d))
    merged = cyc1[1:] + [cyc1[0]] + cyc0[1:] + [cyc0[0]]
    return HamiltonResult(spec, "cycle", tuple(merged), True,
                          "recursive split on the last element")


# -- generalized Kneser ------------------------------------------------------


def hamilton_generalized_kneser(
    n: int,
    k: int,
    s: int,
    fallback_cap: int = DEFAULT_FALLBACK_CAP,
    fallback_secs: float = DEFAULT_FALLBACK_SECS,
) -> HamiltonResult:
    """Hamilton cycle of K(n, k, s), reusing a fixed-overlap cycle when one
    exists: every J(n, k, t) edge with t <= s is a K(n, k, s) edge."""
    return hamilton_tour(GraphSpec("gen-kneser", n, k, s), fallback_cap, fallback_secs)


def _generalized_kneser(spec: GraphSpec, cap: int, deadline: float, memo: dict) -> HamiltonResult:
    n, k, s = spec.n, spec.k, spec.s
    if s >= k:
        if spec.vertex_count() == 2:
            return HamiltonResult(spec, "path", tuple(iter_bits(n, k)), False,
                                  "two vertices, one edge")
        return HamiltonResult(spec, "cycle", tuple(iter_bits(n, k)), True,
                              "all pairs adjacent, any order works")
    for t in range(s, -1, -1):  # every piece shares the one budget and memo
        inner = _piece(GraphSpec("johnson", n, k, t), cap, deadline, memo)
        if inner.status == "cycle":
            return HamiltonResult(spec, "cycle", inner.vertices, True,
                                  f"fixed-overlap cycle with t={t}")
    best = _piece(GraphSpec("johnson", n, k, s), cap, deadline, memo)  # from memo
    if s == 0:  # K(n, k, 0) is K(n, k), which the t = 0 piece already searched
        return best._replace(spec=spec)
    result = _search_result(spec, cap, deadline, "union graph search")
    if result.status in ("cycle", "path", "none"):
        return result
    return HamiltonResult(spec, result.status, (), None,
                          f"no fixed-overlap cycle found ({best.note}); {result.note}")


# -- bipartite containment graphs --------------------------------------------


def hamilton_bipartite(
    n: int,
    k: int,
    fallback_cap: int = DEFAULT_FALLBACK_CAP,
    fallback_secs: float = DEFAULT_FALLBACK_SECS,
) -> HamiltonResult:
    """Hamilton tour of H(n, k) from a Kneser cycle interleaved with
    complements: x and y are disjoint exactly when x is contained in the
    complement of y.  An odd Kneser cycle closes into one Hamilton cycle;
    an even one gives two interleavings joined into a Hamilton path at a
    same-parity chord."""
    return hamilton_tour(GraphSpec("bipartite", n, k), fallback_cap, fallback_secs)


def _bipartite(spec: GraphSpec, cap: int, deadline: float, memo: dict) -> HamiltonResult:
    n, k = spec.n, spec.k
    if n == 2 * k:
        return HamiltonResult(spec, "none", (), False,
                              "both sides are k-sets, containment gives no edges")
    if n < 2 * k:
        raise ParameterError("need n >= 2k for a bipartite containment graph")
    base = _piece(GraphSpec("kneser", n, k), cap, deadline, memo)
    if base.status != "cycle":
        return HamiltonResult(spec, "unsupported", (), None,
                              f"no Kneser cycle to lift: {base.note}")
    x = base.vertices
    big = len(x)
    full = (1 << n) - 1
    woven = [v if i % 2 == 0 else full ^ v for i, v in enumerate(x + x if big % 2 else x)]
    if big % 2 == 1:
        return HamiltonResult(spec, "cycle", tuple(woven), True,
                              "odd Kneser cycle interleaved with complements")
    chord = next(((i, j) for i in range(0, big, 2) for j in range(i + 2, big, 2)
                  if x[i] & x[j] == 0), None)
    if chord is None:
        raise InternalConsistencyError("even Kneser cycle without a same-parity chord")
    i, j = chord
    path_a = woven[i:] + woven[:i]  # starts at x[i]
    path_b = [full ^ v for v in woven[j:] + woven[:j]]  # the other interleaving, from comp(x[j])
    tour = path_a[::-1] + path_b  # joined across the edge x[i] -> comp(x[j])
    return HamiltonResult(spec, "path", tuple(tour), None,
                          "even Kneser cycle, two interleavings joined at a chord")
