"""Watch gliders overtake each other under repeated application of f.

The script runs the dynamics from a start vertex for one full glider period,
prints the annotated time-space diagram, and then compares each class's
nominal speed with its measured average speed.  Fast gliders temporarily
absorb slower ones they run over, which is visible in the diagram and in the
overtake counters.

Usage:
  python3 scripts/overtaking_demo.py
  python3 scripts/overtaking_demo.py --start 1101000000 --svg demo.svg
"""

import argparse
from fractions import Fraction

from kneser.bitstrings import CyclicBitstring
from kneser.dynamics import find_period, motion_trace, render_trace, trace_svg
from kneser.errors import ParameterError
from kneser.gliders import glider_partition, render_gliders


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--start", default="110101000000",
                    help="start vertex as a bitstring, position 0 first")
    ap.add_argument("--steps", type=int, default=None,
                    help="steps to run (default: one full glider period)")
    ap.add_argument("--svg", help="also write the diagram as SVG")
    args = ap.parse_args()
    if args.steps is not None and args.steps < 0:
        ap.error(f"--steps must be nonnegative, got {args.steps}")
    try:
        x = CyclicBitstring.from_string(args.start)
    except ParameterError as exc:
        ap.error(f"--start {args.start}: {exc}")

    p = glider_partition(x)
    print(f"start {args.start}  (n={x.n}, k={x.k}, {len(p.gliders)} gliders)")
    print(render_gliders(p))

    per = find_period(x)
    steps = args.steps if args.steps is not None else per.glider_period
    print(f"string period {per.string_period}, glider period "
          f"{per.glider_period}, running {steps} steps")
    tr = motion_trace(x, steps)
    print()
    print(render_trace(tr))

    print()
    print("class  speed  net positions  avg speed")
    for c, speed in enumerate(tr.speeds):
        net2 = tr.pos2[c] - tr.start2s[c]
        avg = Fraction(net2, 2 * steps)
        print(f"{c:5d}  {speed:5d}  {net2 / 2:13g}  {avg} = {float(avg):.3f}")

    if tr.counters2:
        print()
        print("overtakes (half-step counters):")
        for (slow, fast), c2 in sorted(tr.counters2.items()):
            print(f"  class {fast} over class {slow}: {c2 / 2:g}")

    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(trace_svg(tr))
        print(f"\nwrote {args.svg}")


if __name__ == "__main__":
    main()
