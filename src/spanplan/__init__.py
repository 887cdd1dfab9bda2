"""spanplan: join-order planning as search over ordered spanning trees.

A query's join graph (tables = vertices, equi-join predicates = edges) is
planned by picking an ordered sequence of |V|-1 edges whose join costs,
which change as intermediate results grow, sum to a minimum.  The package
ships an exhaustive subset-DP planner, component-growing and cheapest-pair
greedy planners adapted to changing edge weights, an ensemble strategy
that reruns both greedies from every edge, a greedy-operator-ordering
baseline, a brute-force oracle over the full arrangement space, and a
benchmark harness.

The benchmark harness (``bench``) and the brute-force oracle (``oracle``)
and their names are imported on first access (PEP 562), so a process that
only plans a query never loads them.
"""
import importlib

from . import _kernels
from ._kernels import HAVE_COMPILED
from .cost import (
    CardinalityCatalog,
    CostContext,
    CostParams,
    OperatorChoice,
    SelectivityModel,
    choose_operator,
    lookup_cardinality,
)
from .enumerators import (
    ALGORITHMS,
    este,
    exhaustive,
    goo,
    kruskal,
    prim,
    run_algorithm,
)
from .errors import (
    DisconnectedGraphError,
    GraphFormatError,
    LimitExceededError,
    MissingCardinalityError,
    OptimizeTimeout,
    PlanValidationError,
    SelfLoopError,
    SpanPlanError,
    UnknownTableError,
)
from .graph import (
    JoinEdge,
    JoinGraph,
    TableInfo,
    TopologyKind,
    connected_subsets,
    gen_topology,
    graph_to_json,
    load_document,
    parse_join_graph,
)
from .plan import (
    EnumStats,
    Plan,
    PlanStep,
    canonical_encoding,
    plan_to_json,
    reevaluate_plan,
    validate_plan,
)

__version__ = "0.1.0"

# Public names resolved on first access, by the submodule that defines them.
_LAZY = {
    "bench": "bench",
    "BenchRecord": "bench",
    "WorkloadQuery": "bench",
    "aggregate": "bench",
    "complexity_group": "bench",
    "run_workload": "bench",
    "topology_sweep": "bench",
    "oracle": "oracle",
    "TreeCounts": "oracle",
    "arrangement_bound": "oracle",
    "binary_tree_space_size": "oracle",
    "brute_force_optimal": "oracle",
    "enumerate_ordered_trees": "oracle",
}


def __getattr__(name: str):
    if name == "DEFAULT_BACKEND":  # the backend "auto" resolves to
        return _kernels.DEFAULT_BACKEND
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value
