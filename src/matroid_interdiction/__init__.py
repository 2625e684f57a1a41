"""Exact solver for the parametric matroid one-interdiction problem.

For every parameter value in an interval, find the element whose removal
maximizes the weight of a minimum-weight basis, and report the piecewise
linear optimal interdiction value function with its changepoints.  All
arithmetic is exact rational.
"""

from .matroid import (
    ColoopError,
    ComponentPartition,
    DoubledMatroid,
    GraphicMatroid,
    MatroidView,
    UniformMatroid,
)
from .oracle import ComparisonReport, compare, interdict_at, solve_bruteforce
from .parametric import (
    BasisSchedule,
    CoincidentEqualityPointsWarning,
    MatroidInstance,
    all_equality_points,
    parametric_min_basis,
)
from .interdiction import (
    CandidateEntry,
    CandidateSet,
    doubled_graphic_instance,
    doubled_instance,
    find_candidates,
    removal_gains,
    removal_value_functions,
    solve_intervals,
    solve_naive,
)
from .pwl import (
    EqualityPoint,
    LinearFn,
    PWLFunction,
    envelope_of_lines,
    envelope_of_pwl,
    equality_point,
    pwl_equal,
    pwl_sum,
)
from .rationals import (
    NEG_INF,
    POS_INF,
    ExtendedRational,
    ParamInterval,
    rational,
)
from .solution import Segment, Solution

__version__ = "0.1.0"

__all__ = [
    "BasisSchedule",
    "CandidateEntry",
    "CandidateSet",
    "CoincidentEqualityPointsWarning",
    "ColoopError",
    "ComparisonReport",
    "ComponentPartition",
    "DoubledMatroid",
    "EqualityPoint",
    "ExtendedRational",
    "GraphicMatroid",
    "LinearFn",
    "MatroidInstance",
    "MatroidView",
    "NEG_INF",
    "POS_INF",
    "PWLFunction",
    "ParamInterval",
    "Segment",
    "Solution",
    "UniformMatroid",
    "all_equality_points",
    "compare",
    "doubled_graphic_instance",
    "doubled_instance",
    "envelope_of_lines",
    "envelope_of_pwl",
    "equality_point",
    "find_candidates",
    "interdict_at",
    "parametric_min_basis",
    "pwl_equal",
    "pwl_sum",
    "rational",
    "removal_gains",
    "removal_value_functions",
    "solve_bruteforce",
    "solve_intervals",
    "solve_naive",
]
