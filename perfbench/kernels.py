"""Per-call timings of the construction's kernels on a seeded vertex sample.

usage: PYTHONPATH=src python kernels.py OUT.json N K

Times apply_f, parenthesis_match, glider_partition and match_rewrite (anchor
0) on the same sample of K(N, K) vertices, and tau on the calls match_rewrite
makes for its two-way rules, collected from a second sample.  Both samples
are seeded by the instance alone, so every run and every version of the code
times the same vertices.  Each kernel runs REPEATS times over its inputs; the
median per-call time goes to OUT.json in microseconds.
"""

import json
import random
import statistics
import sys
from itertools import combinations
from time import perf_counter

import kneser.gluing as gluing
from kneser.bitstrings import CyclicBitstring, apply_f, parenthesis_match
from kneser.gliders import glider_partition

SAMPLE = 2000
TAU_CALLS = 30
TAU_SEARCH = 20000
REPEATS = 3


def _per_call_us(fn, inputs) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for args in inputs:
            fn(*args)
        times.append(perf_counter() - t0)
    return 1e6 * statistics.median(times) / len(inputs)


def _tau_calls(xs) -> list:
    calls = []
    real_tau = gluing.tau

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real_tau(*args, **kwargs)

    gluing.tau = record
    try:
        for x in xs:
            gluing.match_rewrite(x, 0)
            if len(calls) >= TAU_CALLS:
                break
    finally:
        gluing.tau = real_tau
    return calls


def main() -> int:
    out, n, k = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    rng = random.Random(f"kernels/{n}/{k}")
    verts = [sum(1 << i for i in c) for c in combinations(range(n), k)]
    sample = [(CyclicBitstring(n, k, b),) for b in rng.sample(verts, min(SAMPLE, len(verts)))]
    search = [CyclicBitstring(n, k, b) for b in rng.sample(verts, min(TAU_SEARCH, len(verts)))]
    tau_calls = _tau_calls(search)
    result = {
        "apply_f_us": _per_call_us(apply_f, sample),
        "parenthesis_match_us": _per_call_us(parenthesis_match, sample),
        "glider_partition_us": _per_call_us(glider_partition, sample),
        "match_rewrite_us": _per_call_us(gluing.match_rewrite, sample),
        "tau_us": _per_call_us(lambda a, kw: gluing.tau(*a, **kw), tau_calls)
        if tau_calls else 0.0,
        "sample": len(sample),
        "tau_sample": len(tau_calls),
    }
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
