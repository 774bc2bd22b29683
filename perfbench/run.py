#!/usr/bin/env python3
"""Benchmark of the kneser CLI: a closed loop with one client, one request in flight.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every request is a fresh
`python -m kneser.cli ...` process with PYTHONPATH=src, so the library's
module-level caches never carry work from one request to the next.  A pass
sends every request of the workload once; passes repeat until one of the
median pass length would end after S seconds.  The checker (checker.py) judges each output
against the graph definitions and each exit code against the workload's
table; any mismatch is a failed request.  Every time reported is a wall
time scaled by the host's speed while the child ran, as launcher.py gauges
it, to seconds at the reference speed REF_PROBE_S.

With --trace 0 the last line of stdout is the end-to-end metrics, medians
over passes.  With --trace 1 traced passes (each request run under
trace_child.py) alternate with untraced ones, after a kernel timing on the
workload's kernel instance (kernels.py), and the last line is the per-layer
metrics.  The line before it is a record of the run: every pass, the sample
counts and the SHA-256 digest of every tour.  The metric names and units
come from BENCHMARK.json.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_LAUNCHES = 11
RSS_LAUNCHES = 3
RUN_LIMIT_S = 170.0  # a run ends, or gives up, within this
# The launcher's probe loop takes this long on the reference host (2-core
# x86-64 VM, Python 3.11) at its usual speed; times are scaled to it.
REF_PROBE_S = 0.0027


class Timeout(Exception):
    pass


@dataclass
class Child:
    wall_s: float  # as measured
    rss_mb: float
    exit_code: int
    speed: float  # REF_PROBE_S over the probe time around the child

    @property
    def time_s(self) -> float:
        """Wall time at the reference speed: the time every metric reports."""
        return self.wall_s * self.speed


class Launcher:
    """Client of launcher.py, which spawns every child process of a run."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))

    def spawn(self, args: list[str], stdout: Path, stderr: Path, timeout: float) -> Child:
        """Run the interpreter on args; its wall time, peak RSS and exit code."""
        print(json.dumps([args, str(stdout), str(stderr), timeout]), file=self.proc.stdin,
              flush=True)
        wall, maxrss_kb, code, probe_s = json.loads(self.proc.stdout.readline())
        if code is None:
            raise Timeout
        return Child(wall, maxrss_kb / 1024, code, REF_PROBE_S / probe_s)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


@dataclass
class Outcome:
    request: workloads.Request
    child: Child
    errors: list[str]
    units: int  # vertices a gen or factor printed, steps a trace printed
    digest: str | None = None
    spans: dict | None = None  # the trace_child summary of a traced request


def judge(req: workloads.Request, exit_code: int, stdout: str, stderr: str,
          work: Path) -> tuple[list[str], int, str | None]:
    """Defects of one request's answer, the units it produced and its tour digest."""
    errors = []
    if exit_code != req.expect_exit:
        errors.append(f"exit {exit_code}, expected {req.expect_exit}: {stderr.strip()[-200:]}")
    if req.kind == "gen":
        path = work / req.file_name
        text = path.read_text() if path.exists() else ""
        errors += checker.tour_errors(text, req.spec, req.closed)
        return errors, req.spec.vertex_count(), checker.digest(text)
    if req.kind == "verify":
        errors += checker.verify_errors(stdout, stderr, exit_code, req.spec, req.closed)
        return errors, 0, None
    if req.kind == "factor":
        errors += checker.factor_errors(stdout, req.spec)
        return errors, req.spec.vertex_count(), None
    errors += checker.trace_errors(stdout, req.spec, req.start, req.steps)
    return errors, req.steps, None


class Runner:
    """Sends the requests of a run, each to a fresh child, and judges the answers."""

    def __init__(self, work: Path, launcher: Launcher):
        self.work = work
        self.launcher = launcher
        self.started = time.monotonic()
        self.out = work / "stdout.txt"
        self.err = work / "stderr.txt"

    def launch(self, args: list[str]) -> Child:
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        return self.launcher.spawn(args, self.out, self.err, left)

    def request(self, req: workloads.Request, traced: bool) -> Outcome:
        cli = [a.replace(workloads.FILE, str(self.work / req.file_name)) for a in req.args]
        spans_file = self.work / "spans.json"
        if traced:
            spans_file.unlink(missing_ok=True)
            child = self.launch([str(HERE / "trace_child.py"), str(spans_file), *cli])
        else:
            child = self.launch(["-m", "kneser.cli", *cli])
        errors, units, digest = judge(req, child.exit_code, self.out.read_text(),
                                      self.err.read_text(), self.work)
        spans = None
        if traced:
            if spans_file.exists():
                spans = json.loads(spans_file.read_text())
            else:
                errors.append("the traced child wrote no span summary")
        return Outcome(req, child, errors, units, digest, spans)

    def kernels(self, spec: workloads.Spec) -> dict:
        out = self.work / "kernels.json"
        child = self.launch([str(HERE / "kernels.py"), str(out), str(spec.n), str(spec.k)])
        if child.exit_code != 0:
            raise RuntimeError(f"kernel timing failed: {self.err.read_text()[-500:]}")
        return {key: value * child.speed if key.endswith("_us") else value
                for key, value in json.loads(out.read_text()).items()}


def pass_metrics(outcomes: list[Outcome], bare_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics of one untraced pass."""
    build = [o for o in outcomes if o.request.kind != "verify"]
    listing = [o for o in build if o.request.kind in ("gen", "factor")]
    traces = [o for o in build if o.request.kind == "trace"]
    run_s = sum(o.child.time_s for o in build)
    per_vertex = 1e6 * sum(o.child.time_s for o in listing) / sum(o.units for o in listing)
    largest = max(listing, key=lambda o: o.units)
    return {
        "run_s": run_s,
        "verify_s": sum(o.child.time_s for o in outcomes if o.request.kind == "verify"),
        "us_per_vertex": per_vertex,
        # without trace requests a step is one application of f, one per tour vertex
        "us_per_step": (1e6 * sum(o.child.time_s for o in traces) / sum(o.units for o in traces)
                        if traces else per_vertex),
        "peak_rss_mb": max(o.child.rss_mb for o in outcomes),
        "bytes_per_vertex": (largest.child.rss_mb - bare_rss_mb) * 2**20 / largest.units,
        # for the record only
        "measured_run_s": sum(o.child.wall_s for o in build),
        "speed": statistics.median(o.child.speed for o in outcomes),
    }


def layer_metrics(outcomes: list[Outcome], kernel: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass; self time unless named otherwise."""
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    cli_self: Counter = Counter()
    notes: Counter = Counter()
    rss = {"cycle_factor_rss_mb": 0.0, "plan_rss_mb": 0.0}
    spans = 0
    for o in outcomes:
        s = o.spans or {"spans": {}, "notes": {}, "span_count": 0}
        speed = o.child.speed
        spans += s["span_count"]
        for name, (c, tot, own) in s["spans"].items():
            calls[name] += c
            total[name] += tot * speed
            self_s[name] += own * speed
        cli_self[o.request.kind] += s["spans"].get("cli.main", [0, 0, 0])[2] * speed
        for key, value in s["notes"].items():
            if key in rss:
                rss[key] = max(rss[key], value)
            else:
                notes[key] += value
    rewrite_calls = calls["gluing.match_rewrite"]
    return {
        "bitstrings.cycle_factor_s": self_s["bitstrings.cycle_factor"],
        "bitstrings.cycle_factor_rss_mb": rss["cycle_factor_rss_mb"],
        "bitstrings.factor_cycles": notes["factor_cycles"],
        "bitstrings.apply_f_us": kernel["apply_f_us"],
        "bitstrings.parenthesis_match_us": kernel["parenthesis_match_us"],
        "gluing.match_rewrite_s": self_s["gluing.match_rewrite"],
        "gluing.match_rewrite_calls": rewrite_calls,
        "gluing.match_rewrite_us": kernel["match_rewrite_us"],
        "gluing.is_connector_s": self_s["gluing.is_connector"],
        "gluing.plan_s": self_s["gluing.build_gluing_plan"],
        "gluing.assemble_s": self_s["gluing.assemble_hamilton"],
        "gluing.plan_rss_mb": rss["plan_rss_mb"],
        "gluing.rewrites": notes["rewrites"],
        "gluing.rewrite_hit_rate": notes["rewrites"] / rewrite_calls if rewrite_calls else 0.0,
        "gluing.tree_edges": notes["tree_edges"],
        "gluing.tree_per_rewrite": (notes["tree_edges"] / notes["rewrites"]
                                    if notes["rewrites"] else 0.0),
        "gluing.branched": notes["branched"],
        "gluing.rotation_pairs": notes["rotation_pairs"],
        "dynamics.tau_s": self_s["dynamics.tau"],
        "dynamics.tau_calls": calls["dynamics.tau"],
        "dynamics.tau_us": kernel["tau_us"],
        "dynamics.advance_us": (1e6 * total["dynamics.advance"] / calls["dynamics.advance"]
                                if calls["dynamics.advance"] else 0.0),
        "dynamics.motion_trace_s": self_s["dynamics.motion_trace"],
        "dynamics.render_trace_s": self_s["dynamics.render_trace"],
        "gliders.glider_partition_s": self_s["gliders.glider_partition"],
        "gliders.glider_partition_calls": calls["gliders.glider_partition"],
        "gliders.glider_partition_us": kernel["glider_partition_us"],
        "gliders.train_composition_s": self_s["gliders.train_composition"],
        "families.fallback_s": self_s["families.hamilton_kneser"],
        "families.fallback_backtracking_s": self_s["families.fallback_backtracking"],
        "families.reduction_s": sum(self_s[f"families.hamilton_{f}"] for f in
                                    ("johnson", "generalized_kneser", "bipartite")),
        "families.verify_tour_s": self_s["families.verify_tour"],
        "families.verify_ns_per_vertex": (1e9 * total["families.verify_tour"]
                                          / notes["verify_vertices"]
                                          if notes["verify_vertices"] else 0.0),
        "cli.gen_self_s": cli_self["gen"],
        "cli.verify_self_s": cli_self["verify"],
        "cli.factor_self_s": cli_self["factor"],
        "trace.spans": spans,
    }


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        tiny: bool = False) -> dict:
    """One benchmark run; returns the result object, with the run record under "record"."""
    wl = workloads.build(name, seed, tiny)
    for file_name, text in wl.fixtures:
        (work / file_name).write_text(text)
    launcher = Launcher()
    try:
        return _run(Runner(work, launcher), wl, seed, seconds, trace)
    finally:
        launcher.close()


def _run(runner: Runner, wl: workloads.Workload, seed: int, seconds: float,
         trace: bool) -> dict:
    setup = [runner.launch(["-c", "import kneser.cli"]) for _ in range(SETUP_LAUNCHES)]
    bare = [runner.launch(["-c", "import kneser"]) for _ in range(RSS_LAUNCHES)]
    if any(c.exit_code for c in setup + bare):
        raise RuntimeError(f"importing kneser failed: {runner.err.read_text()[-500:]}")
    bare_rss_mb = statistics.median(c.rss_mb for c in bare)

    t0 = time.monotonic()
    kernel = runner.kernels(wl.kernel_spec) if trace else None
    rng = random.Random(f"order/{wl.name}/{seed}")
    modes = [True, False] if trace else [False]
    passes: list[tuple[bool, list[Outcome]]] = []
    durations: list[float] = []
    while True:
        traced = modes[len(passes) % len(modes)]
        p0 = time.monotonic()
        passes.append((traced, [runner.request(r, traced) for r in wl.pass_order(rng)]))
        durations.append(time.monotonic() - p0)
        # stop when a pass of the median length would end after `seconds`
        if (len(passes) >= len(modes)
                and time.monotonic() - t0 + statistics.median(durations) > seconds):
            break

    plain = [pass_metrics(o, bare_rss_mb) for t, o in passes if not t]
    e2e = _medians(plain)
    e2e["setup_s"] = statistics.median(c.time_s for c in setup)
    if trace:
        metrics = _medians([layer_metrics(o, kernel) for t, o in passes if t])
        traced_run_s = statistics.median(
            sum(x.child.time_s for x in o if x.request.kind != "verify") for t, o in passes if t)
        metrics["trace.run_s"] = traced_run_s
        metrics["trace.overhead_s"] = traced_run_s - e2e["run_s"]
    else:
        metrics = e2e

    outcomes = [x for _, done in passes for x in done]
    failures = [f"{o.request.kind} {o.request.label}: {e}" for o in outcomes for e in o.errors]
    failed = sum(bool(o.errors) for o in outcomes)
    digests = {o.request.label: o.digest for o in outcomes if o.digest}
    reference = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    findings = [f"tour of {label} changed: {d} (reference {reference[label]})"
                for label, d in sorted(digests.items())
                if label in reference and reference[label] != d]
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(passes), "untraced_passes": len(plain),
        "requests_per_pass": len(passes[0][1]), "setup_launches": len(setup),
        "bare_import_rss_mb": bare_rss_mb, "kernel": kernel,
        "per_pass": plain, "end_to_end": e2e,
        "fail_frac": failed / len(outcomes), "failures": failures[:20],
        "digests": digests, "findings": findings,
    }
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": metrics, "record": record}


def metric_table(trace: bool) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kneser" / "cli.py").is_file():
        print(f"perfbench: no kneser sources under {SRC}", file=sys.stderr)
        return 2
    table = metric_table(bool(args.trace))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Timeout:
        print(f"perfbench: gave up after {RUN_LIMIT_S:g} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = result.pop("record")
    for line in record["findings"] + record["failures"]:
        print(line)
    print(json.dumps(record))
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                         for m in table}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
