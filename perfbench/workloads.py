"""The benchmark's workloads: the CLI requests of one pass and what each must return.

A workload is a list of request groups.  A pass sends every group once, in
an order drawn from the workload seed; the requests inside a group (a `gen`
and the `verify` of its output) keep their order.  Each request carries the
exit code the CLI must return and what the checker needs to judge its output.
"""

import random
import re
from dataclasses import dataclass
from itertools import combinations
from math import comb

FILE = "{file}"  # stands for the request's file in the work directory
TRACE_STEPS = 1000
NAMES = ("gen-tight", "gen-wide", "families", "analysis")


@dataclass(frozen=True)
class Spec:
    """A graph of one of the four set families, as the CLI names it."""

    family: str  # kneser, johnson, gen-kneser or bipartite
    n: int
    k: int
    s: int = 0

    @property
    def params(self) -> list[int]:
        return [self.n, self.k] + ([self.s] if self.family in ("johnson", "gen-kneser") else [])

    @property
    def label(self) -> str:
        letter = {"kneser": "K", "johnson": "J", "gen-kneser": "K", "bipartite": "H"}
        return f"{letter[self.family]}({','.join(map(str, self.params))})"

    def flag_args(self) -> tuple[str, ...]:
        return (f"--{self.family}", *map(str, self.params))

    def vertex_count(self) -> int:
        return comb(self.n, self.k) * (2 if self.family == "bipartite" else 1)


@dataclass(frozen=True)
class Request:
    """One CLI invocation: `python -m kneser.cli <args>`."""

    kind: str  # gen, verify, factor or trace
    label: str  # the instance; also names the file the request writes or reads
    args: tuple[str, ...]  # FILE is replaced by the request's file
    expect_exit: int
    spec: Spec
    closed: bool = True  # gen, verify: a cycle is expected, else a path
    start: str = ""  # trace: the start vertex
    steps: int = 0  # trace: the steps asked for

    @property
    def file_name(self) -> str:
        return re.sub(r"\W", "_", self.label) + ".txt"


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[tuple[Request, ...], ...]
    kernel_spec: Spec  # the instance the traced run times the kernels on
    fixtures: tuple[tuple[str, str], ...] = ()  # (file name, text) written before timing

    def pass_order(self, rng: random.Random) -> list[Request]:
        groups = list(self.groups)
        rng.shuffle(groups)
        return [r for g in groups for r in g]


def _gen(spec: Spec, expect_exit: int = 0, closed: bool = True) -> tuple[Request, ...]:
    gen = Request("gen", spec.label, ("gen", *spec.flag_args(), "-o", FILE),
                  expect_exit, spec, closed)
    return gen, Request("verify", spec.label, ("verify", FILE), 0, spec, closed)


def _k(n: int, k: int) -> Spec:
    return Spec("kneser", n, k)


def _random_vertex(rng: random.Random, n: int, k: int) -> str:
    ones = set(rng.sample(range(n), k))
    return "".join("1" if i in ones else "0" for i in range(n))


def _colex_listing(spec: Spec) -> str:
    """Every vertex once, in colex order: no tour, its first two vertices meet."""
    rows = ["".join("1" if i in c else "0" for i in range(spec.n))
            for c in combinations(range(spec.n), spec.k)]
    return "\n".join([f"{spec.n} {spec.k} kneser", *rows]) + "\n"


def _analysis(rng: random.Random, factor: Spec, trace_graphs, per_graph: int,
              steps: int) -> Workload:
    """The trace starts are random k-sets drawn once, each turned by a rotation
    drawn from the seed.  f commutes with rotation, so every seed asks for the
    same work on different inputs; the cost of a step depends on the start's
    gliders, and fresh random starts per seed would move us_per_step by 10%."""
    fac = Request("factor", f"F({factor.n},{factor.k})",
                  ("factor", str(factor.n), str(factor.k), "--format", "json"), 0, factor)
    bogus = Request("verify", f"colex-{factor.label}", ("verify", FILE), 1, factor)
    shapes = random.Random("analysis-starts")
    traces = []
    for n, k in trace_graphs:
        for i in range(per_graph):
            shape = _random_vertex(shapes, n, k)
            turn = rng.randrange(n)
            start = shape[turn:] + shape[:turn]
            traces.append(Request("trace", f"T{len(traces)}-{_k(n, k).label}",
                                  ("trace", str(n), str(k), "--start", start,
                                   "--steps", str(steps)),
                                  0, _k(n, k), start=start, steps=steps))
    groups = [(fac,), (bogus,)] + [(t,) for t in traces]
    return Workload("analysis", tuple(groups), factor,
                    ((bogus.file_name, _colex_listing(factor)),))


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload `name`; tiny swaps in small instances for self-tests."""
    rng = random.Random(f"{name}/{seed}")
    if name == "gen-tight":
        specs = [_k(9, 3)] if tiny else [_k(15, 6), _k(17, 7), _k(19, 8)]
        return Workload(name, tuple(_gen(s) for s in specs), specs[-1])
    if name == "gen-wide":
        specs = [_k(12, 4)] if tiny else [_k(24, 4), _k(28, 5)]
        return Workload(name, tuple(_gen(s) for s in specs), specs[-1])
    if name == "families":
        # K(5,2) is the Petersen graph: the CLI prints a path and exits 3.
        # K(7,3) goes to exhaustive search, K(13,6) and K(15,7) to
        # rotation-extension search.  H(n,k) is a cycle when C(n,k) is odd
        # and a path when it is even.
        groups = [_gen(_k(5, 2), expect_exit=3, closed=False), _gen(_k(7, 3))]
        if tiny:
            groups += [_gen(Spec("johnson", 9, 3, 1)), _gen(Spec("gen-kneser", 9, 3, 1)),
                       _gen(Spec("bipartite", 7, 2)),
                       _gen(Spec("bipartite", 9, 3), closed=False)]
            return Workload(name, tuple(groups), _k(9, 3))
        groups += [_gen(_k(13, 6)), _gen(_k(15, 7)),
                   _gen(Spec("johnson", 17, 7, 3)), _gen(Spec("gen-kneser", 15, 6, 1)),
                   _gen(Spec("bipartite", 15, 6)),
                   _gen(Spec("bipartite", 16, 5), closed=False)]
        return Workload(name, tuple(groups), _k(15, 6))
    if name == "analysis":
        if tiny:
            return _analysis(rng, _k(9, 3), [(9, 3), (11, 4)], 1, 20)
        return _analysis(rng, _k(17, 7), [(14, 5), (15, 6), (16, 5)], 4, TRACE_STEPS)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
