"""Glider dynamics under the flip map f.

Per application of f a glider either stands still or jumps: its down-steps
become its up-steps, and it lands on a staircase of fresh down-steps found
by the capture walk beyond its last step.  Which gliders jump is decided by
comparing capture walks of all free gliders; a slower glider inside the
jump interval of a faster one is overrun and temporarily trapped.

All bookkeeping is exact integer arithmetic.  A glider's doubled position
is 2s = s1 + s2 (peak plus last step, window-absolute); doubling avoids
half-integers, and the trap counters are likewise stored doubled, one unit
per trap or release event.  The motion law checked at every step of a
trace is

    2s(t) = 2s(0) + 2vt + sum_c 2v(c) 2N(c trapped by this)
                        - sum_c 2v(this) 2N(this trapped by c).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, cycle, repeat
from math import comb, lcm
from typing import NamedTuple

from .bitstrings import CycleFactor, CyclicBitstring, _annotate, _f_bits, _repr_without, rotate_bits
from .errors import InternalConsistencyError, ParameterError
from .gliders import Glider, GliderPartition, glider_partition

__all__ = [
    "CapturedCopy",
    "CaptureAnalysis",
    "capture_analysis",
    "AdvanceResult",
    "advance",
    "MotionStep",
    "MotionTrace",
    "motion_trace",
    "OrbitPeriod",
    "find_period",
    "motion_matrix",
    "TauResult",
    "tau",
    "render_trace",
    "trace_svg",
]

def _capture_walk(
    m0: int, n: int, s2: int, v: int, cap: int
) -> tuple[int, list[int]]:
    """Walk right from s2+1 weighting 1s and unmatched 0s +1, matched 0s -1.
    Returns the first coordinate where the sum reaches v, plus the landing
    staircase: the last +1 coordinate attaining each level 1..v."""
    level = 0
    last_at: dict[int, int] = {}
    j = s2
    while j - s2 <= cap:
        j += 1
        r = j % n
        if (m0 >> r) & 1:
            level -= 1
        else:
            level += 1
            if level >= 1:
                last_at[level] = j
                if level == v:
                    return j, [last_at[t] for t in range(1, v + 1)]
    raise InternalConsistencyError("capture walk exceeded its cap")


class CapturedCopy(NamedTuple):
    """A free glider lying inside a faster glider's jump interval, possibly
    as a translate by a whole number of laps."""

    glider: int  # id within the partition
    shift: int  # translate by shift * n
    stratum: int  # landing steps strictly left of the copy


class CaptureAnalysis(NamedTuple):
    partition: GliderPartition
    s_plus: dict[int, int]  # free gid -> end of its jump interval
    landing: dict[int, tuple[int, ...]]  # free gid -> new down-step staircase
    movers: frozenset[int]
    captured: dict[int, tuple[CapturedCopy, ...]]  # mover gid -> overrun copies

    __repr__ = _repr_without("partition")


def capture_analysis(p: GliderPartition) -> CaptureAnalysis:
    x = p.x
    n, k = x.n, x.k
    m0 = p.fx  # f(x) is x's matched-zero mask
    cap = (k + 2) * n  # the walk gains at least n-2k >= 1 per lap
    s_plus: dict[int, int] = {}
    landing: dict[int, tuple[int, ...]] = {}
    free: list[tuple[int, int, int, int, int, int]] = []  # id, s0, s1, s2, s_plus, speed
    for g in p.gliders:
        if g.trapped_by:
            continue
        v, s2 = len(g.A), g.B[-1]
        sp, stair = _capture_walk(m0, n, s2, v, cap)
        if len(stair) != v or stair[-1] != sp or stair != sorted(set(stair)):
            raise InternalConsistencyError("landing staircase is not one step per level")
        # unmatched 0s first, then 1s, never a matched 0
        ones = [x.bits >> c % n & 1 for c in stair]
        if ones != sorted(ones) or any(m0 >> c % n & 1 for c in stair):
            raise InternalConsistencyError(f"landing steps {stair} are out of order")
        s_plus[g.id] = sp
        landing[g.id] = tuple(stair)
        free.append((g.id, g.A[0], g.A[-1], s2, sp, v))

    # gi moves when no free gj's jump, translated to start before gi's
    # peak, ends beyond gi's
    movers: set[int] = set()
    for gid, _, s1i, _, spi, _ in free:
        for _, _, s1j, _, spj, _ in free:
            if spj + (s1i - 1 - s1j) // n * n > spi:
                break
        else:
            movers.add(gid)

    captured: dict[int, tuple[CapturedCopy, ...]] = {}
    for gid, _, _, s2, hi, v in free:
        if gid not in movers:
            continue
        lo = s2 + 1
        copies: list[tuple[int, CapturedCopy]] = []
        for gj, s0j, _, _, spj, vj in free:
            if gj == gid:
                continue
            # translates with lo <= s0 + tn and s_plus + tn <= hi
            t_min = -((s0j - lo) // n)  # ceil((lo - s0) / n)
            t_max = (hi - spj) // n
            if t_min > t_max:
                continue
            if t_min != t_max:
                raise InternalConsistencyError("more than one translate of a class fits")
            t = t_min
            if spj + t * n >= hi:
                raise InternalConsistencyError("captured copy reaches its mover's end")
            stratum = bisect_left(landing[gid], s0j + t * n)
            if vj >= v - stratum:
                raise InternalConsistencyError("captured copy is not slower than its stratum")
            copies.append((s0j + t * n, CapturedCopy(gj, t, stratum)))
        captured[gid] = tuple(c for _, c in sorted(copies, key=lambda sc: sc[0]))
    return CaptureAnalysis(p, s_plus, landing, frozenset(movers), captured)


class AdvanceResult(NamedTuple):
    x: CyclicBitstring
    fx: CyclicBitstring
    partition: GliderPartition
    next_partition: GliderPartition
    analysis: CaptureAnalysis
    bijection: dict[int, int]  # glider id in x -> id in f(x)
    delta2s: dict[int, int]  # doubled position gain, per id in x
    trap_events: tuple[tuple[int, int], ...]  # (trapped, trapper), ids in x
    release_events: tuple[tuple[int, int], ...]

    __repr__ = _repr_without("partition", "next_partition", "analysis")


def advance(x: CyclicBitstring, partition: GliderPartition | None = None) -> AdvanceResult:
    """One application of f with the glider bijection across it.

    A mover's steps become (B, landing staircase); everything else keeps
    its steps.  f(x) is read off the partition of x, and f(f(x)) off the
    partition of f(x), which is built fresh.  Each glider continues as the
    glider of f(x) at its first new step, whose steps must be its new steps
    mod n; the full step-type image is checked against that partition too."""
    n, k = x.n, x.k
    p = partition if partition is not None else glider_partition(x)
    ana = capture_analysis(p)
    fx = CyclicBitstring(n, k, p.fx)
    q = glider_partition(fx)
    if len(q.gliders) != len(p.gliders):
        raise InternalConsistencyError("glider count changed across f")
    bij: dict[int, int] = {}
    for g in p.gliders:
        steps = g.B + ana.landing[g.id] if g.id in ana.movers else g.A + g.B
        h = q.glider_at(steps[0])
        if h is None or [c % n for c in h.A + h.B] != [c % n for c in steps]:
            raise InternalConsistencyError(
                f"glider g{g.id} of {x} has no continuation in {fx}"
            )
        bij[g.id] = h.id
    if len(set(bij.values())) != len(bij):
        raise InternalConsistencyError("glider continuation is not a bijection")

    delta2s = {
        g.id: (ana.s_plus[g.id] - g.s1 if g.id in ana.movers else 0)
        for g in p.gliders
    }
    if sum(delta2s.values()) != 2 * k:
        raise InternalConsistencyError("doubled position gains do not sum to 2k")

    inv = {v: u for u, v in bij.items()}
    old_rel = {(g.id, t) for g in p.gliders for t in g.trapped_by}
    new_rel = {(inv[g.id], inv[t]) for g in q.gliders for t in g.trapped_by}
    traps = tuple(sorted(new_rel - old_rel))
    releases = tuple(sorted(old_rel - new_rel))

    # outside the movers' jump intervals f(x) has only unmatched 0s; inside,
    # x's matched 0s become its 1s and the rest its matched 0s, so the
    # intervals are exactly f(x) | f(f(x))
    jumped = 0
    for gid in ana.movers:
        span, s1 = delta2s[gid], p.gliders[gid].s1  # the interval s1 + 1 .. s_plus
        interval = rotate_bits((1 << min(span, n)) - 1, n, s1 + 1)
        if span > n or jumped & interval:
            raise InternalConsistencyError("jump intervals overlap mod n")
        jumped |= interval
    if jumped != p.fx | q.fx:
        raise InternalConsistencyError(f"step-type image mismatch at {x}")
    return AdvanceResult(
        x, fx, p, q, ana, bij, delta2s, traps, releases
    )


class MotionStep(NamedTuple):
    t: int
    bits: int
    class_at: tuple[int, ...]  # per position: class index, -1 unmatched
    movers: tuple[int, ...]  # class indices
    delta2s: tuple[int, ...]  # per class
    traps: tuple[tuple[int, int], ...]  # (trapped, trapper) class indices
    releases: tuple[tuple[int, int], ...]


class MotionTrace(NamedTuple):
    """A run of the dynamics with per-class positions and trap counters.

    Classes are the gliders of the starting string, indexed in partition
    order and followed through the per-step bijections.  pos2 holds the
    accumulated doubled positions; counters2 the doubled trap counts,
    keyed (trapped class, trapper class)."""

    x0: CyclicBitstring
    speeds: tuple[int, ...]  # per class
    start2s: tuple[int, ...]
    steps: list[MotionStep]
    pos2: list[int]
    counters2: dict[tuple[int, int], int]
    final: CyclicBitstring


def motion_trace(x: CyclicBitstring, steps: int) -> MotionTrace:
    """Run the dynamics for steps applications of f, checking each step's
    step-type image and the motion law.

    The string orbit of x closes after L steps, but its gliders may need
    several laps to return to their own steps.  advance is a function of the
    string alone, so a trace steps each string of the orbit once: steps
    t < L keep what advance found, in glider ids, and every later step t
    reads step t mod L again.  When the orbit closes, the fresh partition
    of x must be the one the trace started from.  Only the class labels,
    positions, trap counters and the motion law run on every step, so a
    trace, and `kneser trace ... --steps T` with it, makes min(T, L) + 1
    matching scans."""
    if steps < 0:
        raise ParameterError(f"steps must be nonnegative, got {steps}")
    p = start = glider_partition(x)
    speeds = tuple(g.speed for g in p.gliders)
    start2s = tuple(g.s1 + g.s2 for g in p.gliders)
    nu = len(speeds)
    cls_of = list(range(nu))  # glider id -> class
    pos2 = list(start2s)
    law2 = [0] * nu  # per class: the motion law's trap terms so far
    counters2: dict[tuple[int, int], int] = {}
    out: list[MotionStep] = []
    lap: list[tuple] = []  # per string of the orbit, what advance found
    closed = False
    cur = x
    for t in range(steps):
        if not closed:
            adv = advance(cur, partition=p)
            p = adv.next_partition
            lap.append((cur.bits, adv.partition.pos_class, adv.analysis.movers, adv.delta2s,
                        adv.bijection, adv.trap_events, adv.release_events,
                        tuple(g.s1 + g.s2 for g in p.gliders), adv.fx))
            closed = adv.fx.bits == x.bits
            if closed and (p.anchor, p.fx, p.gliders, p.pos_class) != (
                    start.anchor, start.fx, start.gliders, start.pos_class):
                raise InternalConsistencyError(f"the orbit of {x} closed on another partition")
        bits, pos_class, movers, delta2s, bij, trap_ev, rel_ev, next2s, cur = lap[t % len(lap)]
        d2 = [0] * nu
        for gid, d in delta2s.items():
            d2[cls_of[gid]] = d
        traps = tuple(sorted((cls_of[a], cls_of[b]) for a, b in trap_ev))
        rels = tuple(sorted((cls_of[a], cls_of[b]) for a, b in rel_ev))
        lut = cls_of + [-1]  # an unmatched position, id -1, reads the last entry
        out.append(MotionStep(t, bits, tuple(map(lut.__getitem__, pos_class)),
                              tuple(sorted(cls_of[g] for g in movers)), tuple(d2), traps, rels))
        for a, b in traps + rels:
            counters2[a, b] = counters2.get((a, b), 0) + 1
            law2[b] += 2 * speeds[a]
            law2[a] -= 2 * speeds[a]
        # pos2 against the law's trap terms, then mod n against the string's gliders
        for c, d in enumerate(d2):
            pos2[c] += d
            if pos2[c] != start2s[c] + 2 * speeds[c] * (t + 1) + law2[c]:
                raise InternalConsistencyError(f"motion law violated for class {c} at step {t + 1}")
        relabel = [0] * nu
        for gid, nid in bij.items():
            relabel[nid] = cls_of[gid]
        cls_of = relabel
        for gid, c in enumerate(cls_of):
            if (pos2[c] - next2s[gid]) % x.n:
                raise InternalConsistencyError(
                    f"tracked position of class {c} drifted at step {t + 1}")
    return MotionTrace(x, speeds, start2s, out, pos2, counters2, cur)


class OrbitPeriod(NamedTuple):
    string_period: int  # length of the factor cycle through x
    glider_period: int  # steps until every class returns to its own steps
    class_cycles: tuple[tuple[int, ...], ...]  # permutation cycles on classes


def find_period(x: CyclicBitstring) -> OrbitPeriod:
    """String period L and glider period T = L * lcm of the class shuffle.

    The shuffle is read off a checked trace of L + 1 steps.  Record L is x
    again, with x's partition, and record 0 shows each glider's id as its
    class: where record L shows class c, record 0 shows the id of the glider
    that c has moved onto."""
    n = x.n
    length = 1
    b = _f_bits(x.bits, n)
    while b != x.bits:
        b = _f_bits(b, n)
        length += 1
    tr = motion_trace(x, length + 1)
    forward = {c: d for c, d in zip(tr.steps[length].class_at, tr.steps[0].class_at) if c >= 0}
    for c, d in forward.items():
        if tr.speeds[c] != tr.speeds[d]:
            raise InternalConsistencyError("a class moved onto a glider of another speed")
    seen: set[int] = set()
    cycles: list[tuple[int, ...]] = []
    for c in range(len(tr.speeds)):
        if c in seen:
            continue
        cyc = [c]
        seen.add(c)
        d = forward[c]
        while d != c:
            cyc.append(d)
            seen.add(d)
            d = forward[d]
        cycles.append(tuple(cyc))
    t = length * lcm(*(len(cyc) for cyc in cycles))
    return OrbitPeriod(length, t, tuple(cycles))


def _bareiss_det(m: list[list[int]]) -> int:
    m = [row[:] for row in m]
    size = len(m)
    sign = 1
    prev = 1
    for i in range(size - 1):
        if m[i][i] == 0:
            for r in range(i + 1, size):
                if m[r][i]:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, size):
            for c in range(i + 1, size):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]


def motion_matrix(n: int, speeds: tuple[int, ...]) -> tuple[list[list[int]], int]:
    """Interaction matrix of the average motion, with its determinant.

    speeds must be ascending.  Row 0 balances the fastest lap counts; row i
    couples class i to slower classes through overtakes.  The determinant
    has the closed form (-1)^(nu-1) v1 prod(n - V_i), nonzero whenever
    n > 2k, which makes the average speeds of the classes well defined."""
    if list(speeds) != sorted(speeds) or not speeds:
        raise ParameterError("speeds must be an ascending nonempty tuple")
    nu = len(speeds)
    v = list(speeds)

    def big_v(i: int) -> int:  # 1-indexed
        return sum(2 * v[min(i, j + 1) - 1] for j in range(nu))

    mat: list[list[int]] = []
    row0 = [v[0]] + [-2 * v[0]] * (nu - 1)
    mat.append(row0)
    for i in range(2, nu + 1):
        row = [v[i - 1]]
        for j in range(2, nu + 1):
            if j < i:
                row.append(-2 * v[j - 1])
            elif j == i:
                row.append(big_v(i) - 2 * v[i - 1] - n)
            else:
                row.append(-2 * v[i - 1])
        mat.append(row)
    det = _bareiss_det(mat)
    closed = (-1) ** (nu - 1) * v[0]
    for i in range(2, nu + 1):
        closed *= n - big_v(i)
    if det != closed or det == 0:
        raise InternalConsistencyError("motion matrix determinant mismatch")
    return mat, det


def _require_shiftable(p: GliderPartition, g: Glider) -> None:
    if not g.free:
        raise ParameterError("only a free glider can be shifted")
    vmin = min(h.speed for h in p.gliders)
    if g.speed != vmin:
        raise ParameterError("only a slowest glider can be shifted")
    # a train couples g to the next glider of its speed across slower steps
    # only; none is slower, so that glider must start at s2 + 1
    nxt = p.glider_at(g.s2 + 1)
    if nxt is not None and nxt.speed == vmin:
        raise ParameterError("the shifted glider must close its train")


class TauResult(NamedTuple):
    t: int
    z: CyclicBitstring  # f^t of the start


def _carries(n: int, a: int, q: int, bit: int, pos: int) -> bool:
    if bit == 1:
        return (pos - q) % n < a
    return (pos - q - a) % n < a


def tau(
    x: CyclicBitstring,
    glider: Glider,
    bit: int,
    pos: int,
    partition: GliderPartition | None = None,
    factor: CycleFactor | None = None,
) -> TauResult:
    """First t >= 0 at which the tracked glider sits cleanly on consecutive
    positions, is upright and open, and carries the wanted bit at pos.

    Runs two parallel orbits, the second with the glider shifted by one.
    The second starts at t = 1 from f(x) with bits s1 + 1 and s2 + 1 of
    the given glider flipped: that is f of x with the glider's preimage
    copy nudged one position forward.  The two orbits keep differing in
    exactly two bits, which reveal the previous step's peak and last-step
    coordinates, so each candidate t is tested one step late against the
    retained previous string; no partitions are recomputed along the way.

    Given factor, x's cycle factor, both orbits are read off its cycles C and
    C', where the pair repeats after lcm(|C|, |C'|) steps; else f runs twice."""
    n, k = x.n, x.k
    a = glider.speed
    p = partition if partition is not None else glider_partition(x)
    _require_shiftable(p, glider)
    prev = x.bits
    i1, i2 = (glider.s1 + 1) % n, (glider.s2 + 1) % n
    if not (p.fx >> i1 ^ p.fx >> i2) & 1:
        raise InternalConsistencyError("shift positions carry equal bits")
    shifted = p.fx ^ (1 << i1) ^ (1 << i2)  # the second orbit's start
    if factor is None:
        cap = n * comb(n, k) + 1
        # the f-orbits of f(x) and of the shifted start, f applied as _f_bits(b, n)
        pairs = zip(*(accumulate(repeat(n), _f_bits, initial=b) for b in (p.fx, shifted)))
    else:
        (ci, i), (cj, j) = factor.locate(prev), factor.locate(shifted)
        vs, ws = factor.cycles[ci].vertices, factor.cycles[cj].vertices
        cap = lcm(len(vs), len(ws))
        pairs = zip(cycle(vs[i + 1:] + vs[:i + 1]), cycle(ws[j:] + ws[:j]))
    runs = [rotate_bits((1 << a) - 1, n, q) for q in range(n)]  # a 1s from q
    for t, (cur, cur_shifted) in zip(range(1, cap + 1), pairs):
        diff = cur ^ cur_shifted
        if diff.bit_count() != 2:
            raise InternalConsistencyError("parallel orbits drifted apart")
        d1 = (diff & -diff).bit_length() - 1
        d2 = (diff & (diff - 1)).bit_length() - 1
        # at most one order can pass: both need d2 - d1 = a = n - a, and a <= k < n/2
        for u, w in ((d1, d2), (d2, d1)):
            if (u + a) % n != w:
                continue
            # u = peak+1, w = last+1 of the previous copy; clean, upright and
            # open is the rules' 1^a 0^a - at q: 1s from q, matched 0s from u
            # and an unmatched 0 at w
            q = (u - a) % n
            ones, zeros = runs[q], runs[u]
            if (
                prev & ones == ones
                and cur & zeros == zeros
                and not (prev | cur) >> w & 1
                and _carries(n, a, q, bit, pos)
            ):
                return TauResult(t - 1, CyclicBitstring(n, k, prev))
        prev = cur
    raise InternalConsistencyError("first-visit search exceeded its cap")


_HUES = [0, 210, 120, 30, 270, 180, 60, 330, 150, 240, 90, 300]


def render_trace(trace: MotionTrace) -> str:
    """Text table: step, string with unmatched shown as '-', class ids.

    Each record's f(x) is the next record's string, or the final string."""
    n = trace.x0.n
    lines = []
    width = len(str(len(trace.steps)))
    images = [st.bits for st in trace.steps[1:]] + [trace.final.bits]
    for st, fx in zip(trace.steps, images):
        s = _annotate(st.bits, fx, n)
        ids = "".join(
            "." if c < 0 else ("0123456789abcdefghijklmnopqrstuvwxyz"[c % 36])
            for c in st.class_at
        )
        note = ""
        if st.traps:
            note += " traps " + ",".join(f"{a}<{b}" for a, b in st.traps)
        if st.releases:
            note += " releases " + ",".join(f"{a}<{b}" for a, b in st.releases)
        lines.append(f"t={st.t:<{width}} {s}  {ids}{note}")
    return "\n".join(lines)


def trace_svg(trace: MotionTrace) -> str:
    """Time-space diagram: one row per step, one cell per position, colored
    by glider class."""
    n = trace.x0.n
    cell = 14
    rows = len(trace.steps)
    w = n * cell + 2
    h = rows * cell + 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for r, st in enumerate(trace.steps):
        for i in range(n):
            c = st.class_at[i]
            one = (st.bits >> i) & 1
            if c < 0:
                fill = "#eeeeee"
            else:
                hue = _HUES[c % len(_HUES)]
                fill = f"hsl({hue},70%,{45 if one else 75}%)"
            parts.append(
                f'<rect x="{1 + i * cell}" y="{1 + r * cell}" '
                f'width="{cell - 1}" height="{cell - 1}" fill="{fill}"/>'
            )
    parts.append("</svg>")
    return "".join(parts)
