"""Run one kneser CLI command with spans around the library's layer functions.

usage: PYTHONPATH=src python trace_child.py SUMMARY.json CLI-ARG...

Each traced function is replaced, in every kneser module namespace that
binds it, by a wrapper that records a span: name, parent span, start and
end.  The spans stay in memory; when the command ends their per-name call
count, total time and self time (total minus child spans) go to SUMMARY.json,
with a few counts read off the returned values.  The exit code is the CLI's.
"""

import json
import resource
import sys
from array import array
from time import perf_counter

import kneser.cli

TRACED = {
    "bitstrings": ("cycle_factor",),
    "gluing": ("build_gluing_plan", "match_rewrite", "is_connector", "assemble_hamilton"),
    "dynamics": ("tau", "advance", "motion_trace", "render_trace"),
    "gliders": ("glider_partition", "train_composition"),
    "families": ("hamilton_kneser", "hamilton_johnson", "hamilton_generalized_kneser",
                 "hamilton_bipartite", "fallback_backtracking", "verify_tour"),
}


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans of one process: name, parent span, start and end, in arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.notes = {"factor_cycles": 0, "cycle_factor_rss_mb": 0.0, "plan_rss_mb": 0.0,
                      "rewrites": 0, "tree_edges": 0, "branched": 0, "rotation_pairs": 0,
                      "verify_vertices": 0}
        # counts read off a traced function's arguments and result
        self.note_for = {"bitstrings.cycle_factor": self._note_factor,
                         "gluing.build_gluing_plan": self._note_plan,
                         "families.verify_tour": self._note_verify}

    def _note_factor(self, args, factor, rss_before):
        self.notes["factor_cycles"] += len(factor.cycles)
        self.notes["cycle_factor_rss_mb"] = max(self.notes["cycle_factor_rss_mb"],
                                                _peak_mb() - rss_before)

    def _note_plan(self, args, plan, rss_before):
        self.notes["plan_rss_mb"] = max(self.notes["plan_rss_mb"], _peak_mb() - rss_before)
        self.notes["rewrites"] += len(plan.rewrites)
        self.notes["tree_edges"] += len(plan.tree)
        self.notes["branched"] += sum(rm.branched for rm in plan.rewrites)
        self.notes["rotation_pairs"] += len(plan.rotation_pairs)

    def _note_verify(self, args, ok, rss_before):
        self.notes["verify_vertices"] += len(args[1])

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        note = self.note_for.get(name)
        # locals, not attributes, keep the cost per span down
        span_name, span_parent, span_start, span_end = self.name, self.parent, self.start, self.end
        stack = self.stack

        def traced(*args, **kwargs):
            rss_before = _rss_mb() if note else 0.0
            i = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(i)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[i] = perf_counter()
                stack.pop()
            if note:
                note(args, result, rss_before)
            return result

        return traced

    def install(self) -> None:
        """Replace each TRACED function in every kneser module that binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "kneser" or key.startswith("kneser.")]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"kneser.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def summary(self) -> dict:
        """Per name: [calls, total seconds, self seconds]; plus the notes."""
        child = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        spans: dict[str, list] = {}
        for i, nid in enumerate(self.name):
            dur = self.end[i] - self.start[i]
            agg = spans.setdefault(self.names[nid], [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child[i]
        return {"spans": spans, "span_count": len(self.start), "notes": self.notes}


def main() -> int:
    out, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap("cli.main", kneser.cli.main)(cli_args)
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
