"""Query plans as ordered spanning-tree edge sequences.

A plan is a sequence of |V|-1 join steps plus the leftover cyclic edges,
which are applied as filters.  Steps carry the operator decision, the output
cardinality, and the cost increment the step adds on top of its two child
subtrees.
"""
from __future__ import annotations

import math
import time
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from . import _kernels
from .cost import INL, CostContext, OperatorChoice
from .errors import LimitExceededError, OptimizeTimeout, PlanValidationError, SpanPlanError
from .graph import JoinGraph, iter_bits

LINEAR = "linear"
BUSHY = "bushy"


class PlanStep(NamedTuple):
    """One join: the graph edge that triggered it plus the costed decision."""

    edge: int
    operator: str          # "HJ" | "INL"
    side: str              # hash-build side (HJ) or index-lookup side (INL)
    left_mask: int
    right_mask: int
    out_card: float
    step_cost: float

    @property
    def resulting_mask(self) -> int:
        return self.left_mask | self.right_mask

    def side_mask(self) -> int:
        return self.left_mask if self.side == "left" else self.right_mask


class Plan(NamedTuple):
    algorithm: str
    steps: tuple[PlanStep, ...]
    filters: tuple[int, ...]
    internal_cost: float
    total_cost: float
    shape: str


class EnumStats:
    """Search-effort counters for one enumeration run."""

    def __init__(self, subplans_reached: int = 0, join_costs_computed: int = 0,
                 plans_enumerated: int = 0, evaluations: int = 0, elapsed: float = 0.0):
        self.subplans_reached = subplans_reached
        self.join_costs_computed = join_costs_computed
        self.plans_enumerated = plans_enumerated
        self.evaluations = evaluations
        self.elapsed = elapsed


class PlanBuilder:
    """The one code that turns joins into a Plan, for ``replay``,
    ``validate_plan`` and ``reevaluate_plan``.

    ``add_step`` joins two components, priced by the context.  ``build``
    sums the subtree costs, and every edge that is not a step becomes a
    filter, in edge-id order.
    """

    def __init__(self, graph: JoinGraph, ctx: CostContext, algorithm: str):
        self.graph = graph
        self.ctx = ctx
        self.algorithm = algorithm
        self.steps: list[PlanStep] = []
        self._cost: dict[int, float] = {1 << v: 0.0 for v in range(graph.n_vertices)}

    def add_step(self, edge_id: int, l_mask: int, r_mask: int,
                 op: OperatorChoice | None = None) -> None:
        """Join two components; the context chooses the operator unless
        ``op`` forces one."""
        if op is None:
            res = self.ctx.merge(l_mask, r_mask)
        else:
            res = self.ctx.join_cost(l_mask, r_mask, op)
        step_cost, (operator, side), out_card = res
        subtree = self._cost
        subtree[l_mask | r_mask] = step_cost + subtree.pop(l_mask) + subtree.pop(r_mask)
        self.steps.append(PlanStep(edge_id, operator, side, l_mask, r_mask, out_card, step_cost))

    def build(self) -> Plan:
        graph = self.graph
        if len(self._cost) != 1:
            raise PlanValidationError("plan does not merge the graph into one component")
        (root_mask, internal) = next(iter(self._cost.items()))
        if root_mask != graph.full_mask:
            raise PlanValidationError("plan does not span all tables")
        total = internal
        for step in self.steps:
            if step.operator == INL:
                inner = step.side_mask()
                if inner & (inner - 1) == 0:
                    total = total + self.ctx.scan_cost(inner.bit_length() - 1)
        step_edges = {step.edge for step in self.steps}
        return Plan(
            algorithm=self.algorithm,
            steps=tuple(self.steps),
            filters=tuple(e for e in range(graph.n_edges) if e not in step_edges),
            internal_cost=internal,
            total_cost=total,
            shape=classify_shape(self.steps),
        )


def replay(graph: JoinGraph, ctx: CostContext, algorithm: str, joins, cost: float) -> Plan:
    """The plan of a search's joins, (edge, left mask, right mask, out
    card) in order.  Each out card seeds the context's cardinality of
    its join's union, so the context need not compute it again.  Raises
    SpanPlanError when the context already holds another cardinality of a
    union, or unless the plan costs what the search reported."""
    builder = PlanBuilder(graph, ctx, algorithm)
    for edge_id, l_mask, r_mask, out in joins:
        held = ctx.cards.setdefault(l_mask | r_mask, out)
        if held != out:
            raise SpanPlanError(f"kernel cardinality {out!r} of"
                                f" {{{graph.subset_key(l_mask | r_mask)}}} does not match"
                                f" the context's {held!r}")
        builder.add_step(edge_id, l_mask, r_mask)
    plan = builder.build()
    if plan.internal_cost != cost:
        raise SpanPlanError("kernel cost does not match the replayed plan")
    return plan


def _run_search(name: str, what: str, graph: JoinGraph, source, params, timeout: float | None,
                search) -> tuple[Plan, EnumStats]:
    """The one driver of every search, which ``search(ctx, deadline)``
    runs to give (cost, joins, subplans, splits, evaluations, plans).
    ``source`` may be a CostContext to reuse.  A kernel's KeyError(mask)
    becomes the source's own error, a timeout is named ``what``'s, and the
    joins are replayed as algorithm ``name``'s plan; returns (plan, stats)."""
    ctx = source if isinstance(source, CostContext) else CostContext(graph, source, params)
    t0 = time.perf_counter()
    deadline = _kernels.deadline(t0, timeout)
    try:
        cost, joins, subplans, splits, evals, plans = search(ctx, deadline)
    except KeyError as exc:
        ctx.source.lookup(graph, exc.args[0])  # raises the source's own error
        raise
    except OptimizeTimeout:
        raise OptimizeTimeout(f"{what} ran past its deadline") from None
    plan = replay(graph, ctx, name, joins, cost)
    return plan, EnumStats(subplans, splits, plans, evals, time.perf_counter() - t0)


def classify_shape(steps) -> str:
    for step in steps:
        if step.left_mask & (step.left_mask - 1) and step.right_mask & (step.right_mask - 1):
            return BUSHY
    return LINEAR


def canonical_encoding(plan: Plan) -> tuple:
    """Order-insensitive encoding of the physical plan tree.

    Steps are keyed by their resulting subset with children normalized, so
    two runs that build the same operator-annotated tree in different edge
    orders encode identically.
    """
    items = []
    for s in plan.steps:
        lo, hi = sorted((s.left_mask, s.right_mask))
        items.append((s.resulting_mask, lo, hi, s.edge, s.operator, s.side_mask()))
    return tuple(sorted(items))


def validate_plan(graph: JoinGraph, plan: Plan, ctx: CostContext | None = None) -> None:
    """Check spanning/acyclicity/edge-partition invariants; with a context,
    also recompute every step cost.  Raises PlanValidationError."""
    n = graph.n_vertices
    if len(plan.steps) != n - 1:
        raise PlanValidationError(f"expected {n - 1} steps, found {len(plan.steps)}")
    step_edges = [s.edge for s in plan.steps]
    all_ids = sorted(step_edges) + sorted(plan.filters)
    if sorted(all_ids) != list(range(graph.n_edges)):
        raise PlanValidationError("steps + filters do not partition the edge set")

    owner = {v: 1 << v for v in range(n)}
    edge_u, edge_v = graph.edge_u, graph.edge_v
    for s in plan.steps:
        cl, cr = owner[edge_u[s.edge]], owner[edge_v[s.edge]]
        if cl == cr:
            raise PlanValidationError(f"step edge {s.edge} closes a cycle")
        if {cl, cr} != {s.left_mask, s.right_mask}:
            raise PlanValidationError(f"step over edge {s.edge} records wrong components")
        merged = cl | cr
        for v in iter_bits(merged):
            owner[v] = merged
    full = graph.full_mask
    if owner[0] != full:
        raise PlanValidationError("steps do not span all tables")
    for f in plan.filters:
        if owner[edge_u[f]] != owner[edge_v[f]]:
            raise PlanValidationError(f"filter edge {f} does not close a cycle")
    if classify_shape(plan.steps) != plan.shape:
        raise PlanValidationError("shape label disagrees with the step structure")

    if ctx is not None:
        rebuilt = PlanBuilder(graph, ctx, plan.algorithm)
        for s in plan.steps:
            rebuilt.add_step(s.edge, s.left_mask, s.right_mask)
            got = rebuilt.steps[-1]
            if got.step_cost != s.step_cost or got.operator != s.operator or got.side != s.side:
                raise PlanValidationError(f"step over edge {s.edge} does not recompute")
        again = rebuilt.build()
        if again.internal_cost != plan.internal_cost or again.total_cost != plan.total_cost:
            raise PlanValidationError("plan costs do not recompute")


def reevaluate_plan(plan: Plan, graph: JoinGraph, eval_ctx: CostContext) -> Plan:
    """Re-cost a fixed physical plan under a different cardinality source.

    Join order, operators, and build/inner sides stay as selected; output
    cardinalities and costs are recomputed from the evaluation source.
    """
    builder = PlanBuilder(graph, eval_ctx, plan.algorithm)
    for s in plan.steps:
        builder.add_step(s.edge, s.left_mask, s.right_mask, OperatorChoice(s.operator, s.side))
    return builder.build()


def _num(x: float):
    """Emit integral floats as JSON integers for stable, readable output."""
    if x == int(x) and abs(x) < 2**53:
        return int(x)
    return x


def si_display(x: float) -> str:
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if abs(x) >= scale:
            return f"{x / scale:.1f}{suffix}"
    return f"{x:.1f}"


def _array(items: list[str]) -> str:
    """A top-level field's array of items already written as JSON, laid out
    as ``json.dumps(..., indent=2)`` lays it out."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def plan_to_json(plan: Plan, graph: JoinGraph, stats: EnumStats | None = None,
                 timing: bool = False) -> str:
    """The plan as JSON text, written in one pass in the layout of
    ``json.dumps(..., indent=2)`` (ASCII only, two-space indents) plus a
    final newline.  Costs print as integers when integral, and each subset
    lists its table names in sorted order.  With ``timing``, the stats also
    carry real elapsed time, the kernel backend and the evaluation count."""
    # The step costs sum to internal_cost <= total_cost, so they are finite too.
    if not math.isfinite(plan.total_cost):
        raise LimitExceededError(f"the {plan.algorithm} plan's cost overflows a float")
    names = graph.names
    # Sort the raw names: escaping changes the order of some characters.
    order = sorted(range(len(names)), key=names.__getitem__)
    quoted = [_quote(names[v]) for v in order]
    # Each component's tables as ranks in that order: a step joins two
    # earlier components, so one merge of sorted lists per step finds all.
    ranks_of = {1 << v: [r] for r, v in enumerate(order)}
    steps = []
    sep = ",\n        "
    for edge, operator, side, l_mask, r_mask, out_card, step_cost in plan.steps:
        left, right = (ranks_of.get(m) or [r for r, v in enumerate(order) if m >> v & 1]
                       for m in (l_mask, r_mask))
        if not l_mask & r_mask:
            ranks_of[l_mask | r_mask] = sorted(left + right)
        steps.append(f'''{{
      "edge": {edge!r},
      "left_subset": [
        {sep.join(map(quoted.__getitem__, left))}
      ],
      "right_subset": [
        {sep.join(map(quoted.__getitem__, right))}
      ],
      "operator": {_quote(operator)},
      "build_side": {_quote(side)},
      "out_card": {_num(out_card)!r},
      "step_cost": {_num(step_cost)!r}
    }}''')
    text = f'''{{
  "algorithm": {_quote(plan.algorithm)},
  "internal_cost": {_num(plan.internal_cost)!r},
  "internal_cost_display": {_quote(si_display(plan.internal_cost))},
  "total_cost": {_num(plan.total_cost)!r},
  "shape": {_quote(plan.shape)},
  "steps": {_array(steps)},
  "filters": {_array(list(map(repr, plan.filters)))}'''
    if stats is not None:
        elapsed_ms = round(stats.elapsed * 1000.0, 3) if timing else 0.0
        text += f''',
  "stats": {{
    "subplans": {stats.subplans_reached!r},
    "join_costs": {stats.join_costs_computed!r},
    "plans": {stats.plans_enumerated!r},
    "elapsed_ms": {elapsed_ms!r}'''
        if timing:
            # Which kernels ran and the raw evaluation count differ across
            # builds and releases, so default output leaves them out.
            text += f''',
    "backend": {_quote(_kernels.DEFAULT_BACKEND)},
    "evaluations": {stats.evaluations!r}'''
        text += "\n  }"
    return text + "\n}\n"
