"""Hamilton cycles in Kneser graphs and their relatives.

Vertices of K(n, k) are k-subsets of an n-element ground set, adjacent when
disjoint.  The construction works on the central vertex class X(n, k) of
cyclic bitstrings: a cycle factor generated by a parenthesis-flip map, an
analysis of its cycles through gliders and their interactions, and a gluing
step that joins all factor cycles into one Hamilton cycle through short
connector 4-cycles.  Reductions extend the result to generalized Johnson,
generalized Kneser, and bipartite Kneser graphs.

The package exports the public API that README.md lists; the submodules hold
the rest of each stage.
"""

from .bitstrings import CyclicBitstring, apply_f, cycle_factor, parenthesis_match
from .dynamics import advance, find_period, motion_matrix, motion_trace
from .errors import InternalConsistencyError, ParameterError
from .families import GraphSpec, HamiltonResult, hamilton_kneser, hamilton_tour, verify_tour
from .gliders import glider_partition, speed_partition, train_composition
from .gluing import assemble_hamilton, build_gluing_plan, connector_partners, match_rewrite

__all__ = [
    "CyclicBitstring",
    "GraphSpec",
    "HamiltonResult",
    "InternalConsistencyError",
    "ParameterError",
    "advance",
    "apply_f",
    "assemble_hamilton",
    "build_gluing_plan",
    "connector_partners",
    "cycle_factor",
    "find_period",
    "glider_partition",
    "hamilton_kneser",
    "hamilton_tour",
    "match_rewrite",
    "motion_matrix",
    "motion_trace",
    "parenthesis_match",
    "speed_partition",
    "train_composition",
    "verify_tour",
]
