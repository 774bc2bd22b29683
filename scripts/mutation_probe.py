r"""Seed one-token mutants into named functions and count those a test file kills.

Every site in the named functions of one kneser module gives one mutant: a
comparison operator becomes its neighbour (< and <=, > and >=, == and !=, is
and is not, in and not in), an arithmetic or bit operator its pair (+ and -,
* and //, << and >>, & and |; ^ becomes | and % becomes //), or an int
constant grows by 1.  Functions nested in a named one are mutated with it.

The probe copies the checkout's src/, tests/, scripts/, perfbench/,
pyproject.toml and README.md into a temporary directory once, writes each
mutant's module there, never into the checkout, and runs the test file on
it with pytest -x; --tests also takes a pytest node id, file::test.  The
unmutated module, written the same way, must pass first.  A mutant is killed
when the run fails, errs or outlives 5 times the unmutated run (at least
30 s).  The probe prints one line per survivor as it finds it, then the kill
counts per function.

Usage:
  python3 scripts/mutation_probe.py gluing build_gluing_plan iter_tour --tests tests/test_gluing.py
  python3 scripts/mutation_probe.py families vertex_count \
      --tests tests/test_families.py::test_verify_tour_rejections
"""

import argparse
import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml", "README.md")
MEMORY_LIMIT = 2 << 30  # address space of a test run, so a mutant cannot take the host's memory

NEIGHBOUR = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
PAIR = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.BitXor: ast.BitOr, ast.Mod: ast.FloorDiv,
}


def _symbol(op: type) -> str:
    a, b = ast.Name("a"), ast.Name("b")
    node = ast.Compare(a, [op()], [b]) if op in NEIGHBOUR else ast.BinOp(a, op(), b)
    return ast.unparse(node)[2:-2]


def sites(tree: ast.Module, names: list[str]) -> list[tuple[str, ast.AST, int]]:
    """(function, node, operand index) of every site, in a fixed order, so
    that a fresh parse of the same source lists the same sites."""
    out, seen = [], set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name not in names:
            continue
        for node in ast.walk(fn):
            if id(node) in seen:
                continue  # a named function nested in another is mutated once
            seen.add(id(node))
            if isinstance(node, ast.Compare):
                out += [(fn.name, node, j) for j, op in enumerate(node.ops) if type(op) in NEIGHBOUR]
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in PAIR:
                out.append((fn.name, node, 0))
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                out.append((fn.name, node, 0))
    return out


def mutate(node: ast.AST, j: int) -> str:
    """Apply the site's mutation in place and describe it."""
    if isinstance(node, ast.Compare):
        old = type(node.ops[j])
        node.ops[j] = NEIGHBOUR[old]()
        new = type(node.ops[j])
    elif isinstance(node, ast.Constant):
        node.value += 1
        return f"{node.value - 1} -> {node.value}"
    else:
        old = type(node.op)
        node.op = PAIR[old]()
        new = type(node.op)
    return f"{_symbol(old)} -> {_symbol(new)}"


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(copy: Path, tests: str, timeout: float) -> bool:
    """True when the test file passes on the copy within the timeout."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests]
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(cmd, cwd=copy, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True, preexec_fn=_limit_memory)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the run and any process its tests started
        proc.wait()
        return False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", help="a module of the kneser package, such as gluing")
    ap.add_argument("functions", nargs="+", help="names of the functions to mutate")
    ap.add_argument("--tests", required=True,
                    help="test file relative to the checkout, or a node id file::test in it")
    args = ap.parse_args()
    module = ROOT / "src" / "kneser" / f"{args.module.removeprefix('kneser.')}.py"
    if not module.is_file():
        ap.error(f"no module {args.module} in src/kneser")
    if not (ROOT / args.tests.split("::")[0]).is_file():
        ap.error(f"no test file {args.tests.split('::')[0]}")
    source = module.read_text()
    tree = ast.parse(source)
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    if missing := [name for name in args.functions if name not in defined]:
        ap.error(f"no function {', '.join(missing)} in {module.name}")
    where = sites(tree, args.functions)
    lines = source.splitlines()

    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            elif src.is_file():
                shutil.copy2(src, copy / name)
        target = copy / module.relative_to(ROOT)
        target.write_text(ast.unparse(tree))
        t0 = time.monotonic()
        if not run_tests(copy, args.tests, float("inf")):
            print(f"{args.tests} fails on the unmutated {module.name}; no mutant was run")
            return 1
        base = time.monotonic() - t0
        timeout = max(30.0, 5 * base)
        print(f"{module.name}: {len(where)} mutants in {', '.join(args.functions)}; "
              f"unmutated run {base:.1f} s", flush=True)

        total, killed = Counter(), Counter()
        for i, (fn, node, _) in enumerate(where):
            mutant = ast.parse(source)
            _, site, j = sites(mutant, args.functions)[i]
            change = mutate(site, j)
            target.write_text(ast.unparse(mutant))
            total[fn] += 1
            if run_tests(copy, args.tests, timeout):
                code = lines[node.lineno - 1].strip()
                print(f"survived {module.name}:{node.lineno}:{node.col_offset} {fn}: "
                      f"{change} in `{code}`", flush=True)
            else:
                killed[fn] += 1
    for fn in args.functions:
        print(f"{fn}: killed {killed[fn]} of {total[fn]}")
    print(f"total: killed {sum(killed.values())} of {sum(total.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
