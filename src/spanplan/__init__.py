"""spanplan: join-order planning as search over ordered spanning trees.

A query's join graph (tables = vertices, equi-join predicates = edges) is
planned by picking an ordered sequence of |V|-1 edges whose join costs,
which change as intermediate results grow, sum to a minimum.  The package
ships an exhaustive subset-DP planner, component-growing and heap-driven
greedy planners adapted to changing edge weights, an ensemble strategy that
reruns both greedies from every edge, a greedy-operator-ordering baseline,
a brute-force oracle over the full arrangement space, and a benchmark
harness.
"""
from ._kernels import DEFAULT_BACKEND, HAVE_COMPILED
from .bench import (
    BenchRecord,
    WorkloadQuery,
    aggregate,
    complexity_group,
    run_workload,
    topology_sweep,
)
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
from .oracle import (
    TreeCounts,
    arrangement_bound,
    binary_tree_space_size,
    brute_force_optimal,
    enumerate_ordered_trees,
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
