"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import checker
import run
import workloads


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_every_workload_on_tiny_instances(tmp_path, name, trace):
    result = run.run(name, seed=7, seconds=0, trace=trace, work=tmp_path, tiny=True)
    record = result.pop("record")
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] == record["requests_per_pass"] * (
        2 if trace else 1)
    wanted = {m["name"] for m in run.metric_table(trace)}
    assert set(result["metrics"]) >= wanted
    if not trace:
        assert all(result["metrics"][m] > 0 for m in wanted - {"bytes_per_vertex"})
    gens = [r for g in workloads.build(name, 7, tiny=True).groups for r in g if r.kind == "gen"]
    assert set(record["digests"]) == {r.label for r in gens}


def test_seed_sets_order_and_trace_starts():
    def order(seed):
        wl = workloads.build("analysis", seed)
        return [r.args for r in wl.pass_order(random.Random(seed))]

    assert order(3) == order(3)
    assert order(3) != order(4)


def _gen(tmp_path, spec: workloads.Spec) -> tuple[workloads.Request, str]:
    req = workloads._gen(spec)[0]
    path = tmp_path / req.file_name
    subprocess.run([sys.executable, "-m", "kneser.cli", "gen", *spec.flag_args(),
                    "-o", str(path)], check=True, env={"PYTHONPATH": str(run.SRC)})
    return req, path.read_text()


def test_checker_counts_each_corrupted_tour_as_a_failure(tmp_path):
    req, text = _gen(tmp_path, workloads.Spec("kneser", 9, 3))
    head, *rows = text.splitlines()
    assert checker.tour_errors(text, req.spec, True) == []

    swapped = rows[:]
    swapped[1], swapped[len(rows) // 2] = swapped[len(rows) // 2], swapped[1]
    dropped = rows[:-1]
    repeated = rows[:-1] + [rows[0]]
    failed = 0
    for bad in (swapped, dropped, repeated):
        (tmp_path / req.file_name).write_text("\n".join([head, *bad]) + "\n")
        errors, _, _ = run.judge(req, 0, "", "", tmp_path)
        assert errors
        failed += bool(errors)
    assert failed == 3


def test_checker_judges_exit_codes_and_other_families(tmp_path):
    req, text = _gen(tmp_path, workloads.Spec("bipartite", 9, 3))
    assert checker.tour_errors(text, req.spec, closed=False) == []
    assert checker.tour_errors(text, req.spec, closed=True)  # the header says path
    errors, _, _ = run.judge(req, 3, "", "", tmp_path)
    assert errors and errors[0].startswith("exit 3, expected 0")
    colex = workloads.build("analysis", 1, tiny=True).fixtures[0][1]
    assert checker.tour_errors(colex, workloads.Spec("kneser", 9, 3), True)


def test_benchmark_json_matches_the_workloads_and_bounds():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gen-tight",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
