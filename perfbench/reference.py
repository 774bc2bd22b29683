#!/usr/bin/env python3
"""One-off reference record of K(21,9) stage times, set against the ROADMAP baseline.

usage: python3 perfbench/reference.py    (from the repository root, about 4 minutes)

Not a workload: it runs `kneser gen --kneser 21 9` RUNS times untraced, for
wall time and peak RSS, and RUNS times under trace_child.py, for stage
times, through the same launcher as run.py.  Stages are span totals: factor
is cycle_factor, plan is build_gluing_plan without the cycle_factor inside it,
assemble is assemble_hamilton, verify is the verify_tour that gen runs on
its own tour.  Writes perfbench/reference/k21_9.json with the medians, as
measured and at the reference speed.  The verdict judges the measured
medians, wall time as the baseline was taken, against fixed tolerances.
"""

import json
import platform
import statistics
import sys
import tempfile
from pathlib import Path

import run

BASELINE = {"end_to_end_s": 13.7, "factor_s": 2.7, "plan_s": 10.4, "assemble_s": 0.44,
            "verify_s": 0.14, "peak_rss_mb": 110.0}
BASELINE_NOTE = ("ROADMAP North star: K(21,9), 293,930 vertices, Python 3.11, 2 cores, "
                 "median of 2 runs")
RUNS = 5
# The host's speed drifts by 20% and more over tens of seconds (perfbench/README.md),
# so a time agrees when its measured median is within this share of the baseline.
TIME_NOISE = 0.25
RSS_NOISE = 0.05


def _stages(spans: dict) -> dict:
    total = {name: agg[1] for name, agg in spans["spans"].items()}
    factor = total.get("bitstrings.cycle_factor", 0.0)
    return {"factor_s": factor,
            "plan_s": total.get("gluing.build_gluing_plan", 0.0) - factor,
            "assemble_s": total.get("gluing.assemble_hamilton", 0.0),
            "verify_s": total.get("families.verify_tour", 0.0)}


def main() -> int:
    measured: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}

    def add(key, value, speed=None):
        measured.setdefault(key, []).append(value)
        if speed is not None:
            scaled.setdefault(key, []).append(value * speed)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        work = Path(tmp)
        tour, spans_file = str(work / "k21_9.txt"), str(work / "spans.json")
        cli = ["gen", "--kneser", "21", "9", "-o", tour]
        launcher = run.Launcher()

        def launch(child_args):
            child = launcher.spawn(child_args, work / "stdout.txt", work / "stderr.txt", 600)
            if child.exit_code != 0:
                raise SystemExit(f"gen failed: {(work / 'stderr.txt').read_text()}")
            return child

        try:
            for _ in range(RUNS):
                child = launch(["-m", "kneser.cli", *cli])
                add("end_to_end_s", child.wall_s, child.speed)
                add("peak_rss_mb", child.rss_mb)
                child = launch([str(run.HERE / "trace_child.py"), spans_file, *cli])
                for key, value in _stages(json.loads(Path(spans_file).read_text())).items():
                    add(key, value, child.speed)
        finally:
            launcher.close()

    record = {"instance": "K(21,9)", "vertices": 293930, "runs": RUNS,
              "python": platform.python_version(), "machine": platform.machine(),
              "baseline": BASELINE, "baseline_source": BASELINE_NOTE,
              "noise_basis": (f"the host's speed drifts by 20% and more within minutes "
                              f"(perfbench/README.md); a stage agrees when its measured "
                              f"median is within {TIME_NOISE:.0%} of the baseline for a "
                              f"time and {RSS_NOISE:.0%} for RSS; at_reference_speed and "
                              f"its ratio are shown, not judged"),
              "stages": {}}
    for key, base in BASELINE.items():
        values = measured[key]
        med = statistics.median(values)
        noise = RSS_NOISE if key == "peak_rss_mb" else TIME_NOISE
        stage = record["stages"][key] = {
            "measured": med, "runs": values, "baseline": base, "ratio": med / base,
            "agrees_within_noise": abs(med / base - 1) <= noise, "noise": noise,
        }
        if key in scaled:
            stage["at_reference_speed"] = statistics.median(scaled[key])
            stage["ratio_at_reference_speed"] = stage["at_reference_speed"] / base
    agree = [k for k, v in record["stages"].items() if v["agrees_within_noise"]]
    differ = [k for k in BASELINE if k not in agree]
    record["verdict"] = (f"measured medians agree within the noise: {', '.join(agree) or 'none'}; "
                         f"differ: {', '.join(differ) or 'none'}")
    out = run.HERE / "reference" / "k21_9.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(record["verdict"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
