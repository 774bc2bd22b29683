"""Command line interface.

Subcommands:
  gen     construct a Hamilton cycle (or the strongest substitute) and print it
  verify  recheck a printed tour from a file or stdin
  factor  print the parenthesis-matching cycle factor of K(n, k)
  trace   run the glider dynamics from a start vertex
  plan    show the gluing plan: rewrite pairs, rotation pairs, spanning tree

Exit codes: 0 success, 1 verification failure, 2 bad parameters,
3 provably infeasible, 4 timeout or unsupported.
"""

import argparse
import io
import json
import sys
import time
from collections import Counter
from collections.abc import Iterable
from contextlib import nullcontext
from itertools import chain, islice, repeat
from math import comb, gcd

from .bitstrings import CyclicBitstring, cycle_factor, from_string, to_string
from .dynamics import motion_trace, render_trace, trace_svg
from .errors import ParameterError
from .gliders import glider_partition, speed_partition, train_composition
from .families import (
    DEFAULT_FALLBACK_CAP,
    DEFAULT_FALLBACK_SECS,
    GraphSpec,
    HamiltonResult,
    _checked,
    _tour,
    tour_fault,
)
from .gluing import build_gluing_plan

__all__ = ["main"]


def _add_family_flags(p: argparse.ArgumentParser, required: bool) -> None:
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--kneser", nargs=2, type=int, metavar=("N", "K"),
                   help="Kneser graph K(N, K): disjoint K-sets")
    g.add_argument("--johnson", nargs=3, type=int, metavar=("N", "K", "S"),
                   help="generalized Johnson J(N, K, S): K-sets meeting in exactly S")
    g.add_argument("--gen-kneser", nargs=3, type=int, metavar=("N", "K", "S"),
                   dest="gen_kneser",
                   help="generalized Kneser K(N, K, S): K-sets meeting in at most S")
    g.add_argument("--bipartite", nargs=2, type=int, metavar=("N", "K"),
                   help="containment graph H(N, K): K-sets below (N-K)-sets")


def _spec_from_args(args) -> GraphSpec | None:
    for dest in ("kneser", "johnson", "gen_kneser", "bipartite"):
        values = getattr(args, dest)
        if values is not None:
            return GraphSpec(dest.replace("_", "-"), *values)
    return None


def _fmt_vertex(v: int, n: int, fmt: str) -> str:
    if fmt == "bits":
        return to_string(v, n)
    return ",".join(str(i + 1) for i in range(n) if v >> i & 1)


def _tour_header(spec: GraphSpec, status: str) -> str:
    head = f"{spec.n} {spec.k} {spec.family}"
    if spec.family in ("johnson", "gen-kneser"):
        head += f" {spec.s}"
    if status == "path":
        head += " path"
    return head


def _exit_code(spec: GraphSpec, r: HamiltonResult) -> int:
    if r.status == "path" and r.cycle_exists is not False:  # no proof that a cycle is missing
        return 0 if spec.family == "bipartite" else 4
    return {"cycle": 0, "path": 3, "none": 3}.get(r.status, 4)


def _cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    r = _tour(spec, args.fallback_cap, time.monotonic() + args.fallback_secs, {})
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
        if r.vertices:
            if args.format == "json":
                head = {
                    "n": spec.n, "k": spec.k, "family": spec.family,
                    "s": spec.s if spec.family in ("johnson", "gen-kneser") else None,
                    "status": r.status, "closed": r.status == "cycle",
                    "count": spec.vertex_count(), "note": r.note,  # a checked tour's length
                }
                out.write(json.dumps(head)[:-1] + ', "vertices": [')
            else:
                print(_tour_header(spec, r.status), file=out)
            _checked(r._replace(vertices=_written(out, r.vertices, spec.n, args.format)))
            if args.format == "json":
                out.write("]}\n")
        if r.status != "cycle":
            print(f"{r.status}: {r.note}", file=sys.stderr)
    return _exit_code(spec, r)


_CHUNK = 512  # tour lines per write; chunks of 4096 raised gen's peak RSS


def _written(out, verts, n: int, fmt: str) -> Iterable[int]:
    """verts, any iterable, read once and passed on as each chunk of _CHUNK is
    written: one line per vertex in the bits or sets format, or the JSON
    lists of their elements after the ones before.  The chunks pass through
    C-level maps, so the reader gets no Python frame per vertex, and the tour
    is never held."""
    width = f"0{n}b"
    sep = ""  # what goes before the next JSON chunk

    def write(chunk: list[int]) -> list[int]:
        nonlocal sep
        if fmt == "bits":  # to_string, inlined: the chunk reversed, each line reversed back
            out.write("\n".join(map(format, reversed(chunk), repeat(width)))[::-1] + "\n")
        elif fmt == "sets":
            out.write("\n".join([_fmt_vertex(v, n, fmt) for v in chunk]) + "\n")
        else:
            out.write(sep + ", ".join([
                "[" + ", ".join(str(i + 1) for i in range(n) if v >> i & 1) + "]" for v in chunk]))
            sep = ", "
        return chunk

    it = iter(verts)
    return chain.from_iterable(map(write, iter(lambda: list(islice(it, _CHUNK)), [])))


def _write_json(out, head: dict, key: str, items) -> None:
    """Write json.dumps of head with one more entry, key, a list given as the
    JSON texts of its items, one item at a time, and a newline."""
    out.write(json.dumps(head)[:-1] + f', "{key}": [')
    for j, text in enumerate(items):
        out.write(f", {text}" if j else text)
    out.write("]}\n")


def _set_bits(elems, n: int) -> int:
    """The mask of a vertex listed as 1-based set elements of [n]; a repeated
    element counts once."""
    mask = 0
    for e in elems:
        if type(e) is not int:  # a JSON true would pass as the int 1
            raise TypeError(f"set element {e!r} is not an integer")
        if not 1 <= e <= n:
            raise ParameterError(f"set element {e} is not a position 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def _tour_masks(fh, n: int) -> Iterable[int]:
    """The masks of the tour lines left in fh, read a chunk of lines at a time.
    A chunk of lines as gen writes them, n characters from 01 each, goes
    through int in one map; other chunks go line by line: a line of exactly n
    positions from 01- is a bitstring (so K(n, 1)'s sets 1 and 10 read as
    sets), any other line lists set elements."""
    while block := fh.read(1 << 15):
        if block[-1] != "\n":
            block += fh.readline()  # end the chunk on a whole line
        rows = len(block) // (n + 1)
        ends = "\n" * rows  # a line end after every n characters and nowhere else
        if (len(block) == rows * (n + 1) and block[n::n + 1] == ends and block.isascii()
                and block.encode().translate(None, b"01") == ends.encode()):
            # read backwards, the chunk lists each line reversed, last line first
            yield from map(int, reversed(block[::-1].split()), repeat(2))
            continue
        for line in map(str.strip, block.splitlines()):
            if len(line) == n and set(line) <= {"0", "1", "-"}:
                yield from_string(line)
            elif line:
                yield _set_bits([int(tok) for tok in line.split(",")], n)


def _read_tour(fh) -> tuple[GraphSpec, Iterable[int], bool]:
    """The graph, the vertex masks and whether the tour is closed.  A JSON
    tour is read whole; a text tour's masks are read as they are consumed."""
    for row in fh:
        if lines := row.strip().splitlines():
            break
    else:
        raise ParameterError("empty tour input")
    head, *rest = lines
    if head.startswith("{"):
        payload = json.loads(row + fh.read())
        try:
            s = payload.get("s")
            spec = GraphSpec(payload["family"], payload["n"], payload["k"], 0 if s is None else s)
            verts = [_set_bits(elems, spec.n) for elems in payload["vertices"]]
            closed = payload.get("closed", True)
            if type(closed) is not bool:
                raise TypeError(f"closed must be a JSON boolean, got {closed!r}")
        except (KeyError, TypeError) as exc:  # an entry missing or of the wrong JSON type
            raise ParameterError(f"malformed JSON tour: {exc!r}") from None
        return spec, verts, closed
    if rest:  # line breaks other than newlines: read on from the text after the header
        fh = io.StringIO("\n".join(rest + [fh.read()]))
    words = head.split()
    if len(words) < 3:
        raise ParameterError(f"bad tour header {head.strip()!r}")
    closed = words[-1] != "path"
    s = words[3:len(words) - (not closed)]  # n k family [s] [path]
    spec = GraphSpec(words[2], int(words[0]), int(words[1]), int(s[0]) if s else 0)
    return spec, _tour_masks(fh, spec.n), closed


def _cmd_verify(args) -> int:
    with open(args.file) if args.file else nullcontext(sys.stdin) as fh:
        spec, verts, closed = _read_tour(fh)
        declared = _spec_from_args(args)
        if declared is not None and declared != spec:
            print(f"declared {declared} but the input describes {spec}", file=sys.stderr)
            return 2
        fault = tour_fault(spec, verts, closed)
    if fault is None:
        kind = "cycle" if closed else "path"
        print(f"ok: Hamilton {kind} of {spec.family} n={spec.n} k={spec.k}"
              + (f" s={spec.s}" if spec.family in ("johnson", "gen-kneser") else "")
              + f", {spec.vertex_count()} vertices")
        return 0
    print(f"fail: {fault}", file=sys.stderr)
    return 1


def _resolve_nk(args) -> tuple[int, int]:
    flagged = getattr(args, "kneser", None)
    if flagged is not None:
        if args.n is not None:
            raise ParameterError("give n and k either positionally or via --kneser, not both")
        return flagged[0], flagged[1]
    if args.n is None or args.k is None:
        raise ParameterError("n and k are required (positionally or via --kneser n k)")
    return args.n, args.k


def _cycle_invariants(c, n: int, k: int) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    p = glider_partition(CyclicBitstring(n, k, c.key))
    comp = {v: tc.composition for v, tc in train_composition(p).items()}
    return speed_partition(p), comp


def _fmt_trains(comp: dict[int, tuple[int, ...]]) -> str:
    return ";".join(
        f"{v}^({','.join(map(str, comp[v]))})" for v in sorted(comp, reverse=True)
    )


def _cmd_factor(args) -> int:
    n, k = _resolve_nk(args)
    f = cycle_factor(n, k)
    hist = Counter(len(c) for c in f.cycles)
    if args.format == "json":
        head = {
            "n": f.n, "k": f.k, "cycle_count": len(f.cycles),
            "vertex_count": comb(n, k),
            "length_histogram": {str(length): hist[length] for length in sorted(hist)},
        }

        def cycles():
            for c in f.cycles:
                part, comp = _cycle_invariants(c, f.n, f.k)
                yield json.dumps({
                    "key": to_string(c.key, f.n), "length": len(c),
                    "V": list(part),
                    "Z": {str(v): list(comp[v]) for v in sorted(comp, reverse=True)},
                    "vertices": [to_string(v, f.n) for v in c.vertices],
                })

        _write_json(sys.stdout, head, "cycles", cycles())
        return 0
    print(f"n={f.n} k={f.k} cycles={len(f.cycles)} vertices={comb(n, k)}")
    print("lengths: " + ", ".join(
        f"{hist[length]} cycles x length {length}" for length in sorted(hist)))
    for i, c in enumerate(f.cycles):
        part, comp = _cycle_invariants(c, f.n, f.k)
        body = " ".join(_fmt_vertex(v, f.n, args.format) for v in c.vertices)
        v_str = ",".join(map(str, part))
        print(f"cycle {i} len {len(c)} V=({v_str}) Z={_fmt_trains(comp)}: {body}")
    return 0


def _cmd_trace(args) -> int:
    bits = from_string(args.start)
    if len(args.start) != args.n:
        raise ParameterError(f"start string has {len(args.start)} positions, n={args.n}")
    k = args.start.count("1")
    if k != args.k:
        raise ParameterError(f"start string has {k} ones, k={args.k}")
    x = CyclicBitstring(args.n, args.k, bits)
    tr = motion_trace(x, args.n if args.steps is None else args.steps)
    print(render_trace(tr))
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(trace_svg(tr))
        print(f"wrote {args.svg}", file=sys.stderr)
    return 0


def _cmd_plan(args) -> int:
    plan = build_gluing_plan(args.n, args.k, args.anchor, full=True)
    n, k = plan.n, plan.k
    print(f"K({n},{k}): anchor p={plan.anchor}, factor cycles={len(plan.factor.cycles)}, "
          f"vertices={comb(n, k)}")
    print(f"single-glider cycles merged: {gcd(n, k)}")
    print(f"rotation base r={plan.rotation_base}, rotation pairs: {len(plan.rotation_pairs)}")
    for a, b in plan.rotation_pairs:
        print(f"  rotate {a} <-> {b}")
    counts = plan.family_counts()
    print(f"rewrite matches: {sum(counts.values())} " +
          " ".join(f"rule{fam}:{c}" for fam, c in counts.items()))
    print(f"spanning tree: {len(plan.tree)} connectors, "
          f"{len(plan.exceptions)} exceptions (cycles with no downhill rewrite)")
    shown = plan.rewrites if args.full else plan.tree
    label = "connector" if args.full else "tree edge"
    for rm in shown:
        star = "*" if rm.branched else ""
        print(f"  {label} rule{rm.family}{star}: {rm.x} <-> {rm.image}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kneser", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct a Hamilton tour")
    _add_family_flags(gen, required=True)
    gen.add_argument("--format", choices=("bits", "sets", "json"), default="bits")
    gen.add_argument("--fallback-cap", type=int, default=DEFAULT_FALLBACK_CAP,
                     help="largest vertex count attempted by fallback search")
    gen.add_argument("--fallback-secs", type=float, default=DEFAULT_FALLBACK_SECS,
                     help="time budget for fallback search")
    gen.add_argument("-o", "--output", help="write the tour here instead of stdout")
    gen.set_defaults(func=_cmd_gen)

    ver = sub.add_parser("verify", help="recheck a tour printed by gen")
    ver.add_argument("file", nargs="?", help="tour file, stdin when omitted")
    _add_family_flags(ver, required=False)
    ver.set_defaults(func=_cmd_verify)

    fac = sub.add_parser("factor", help="print the cycle factor of K(n, k)")
    fac.add_argument("n", type=int, nargs="?", default=None)
    fac.add_argument("k", type=int, nargs="?", default=None)
    fac.add_argument("--kneser", nargs=2, type=int, metavar=("N", "K"),
                     help="alternative to the positional n k")
    fac.add_argument("--format", choices=("bits", "sets", "json"), default="bits")
    fac.set_defaults(func=_cmd_factor)

    tra = sub.add_parser("trace", help="run the glider dynamics")
    tra.add_argument("n", type=int)
    tra.add_argument("k", type=int)
    tra.add_argument("--start", required=True,
                     help="start vertex as a bitstring, position 0 first")
    tra.add_argument("--steps", type=int, default=None,
                     help="steps to run (default n)")
    tra.add_argument("--svg", help="also write a time-space diagram here")
    tra.set_defaults(func=_cmd_trace)

    pla = sub.add_parser("plan", help="show the gluing plan for K(n, k)")
    pla.add_argument("n", type=int)
    pla.add_argument("k", type=int)
    pla.add_argument("--anchor", type=int, default=0)
    pla.add_argument("--full", action="store_true",
                     help="list every connector, not just the spanning tree")
    pla.set_defaults(func=_cmd_plan)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
