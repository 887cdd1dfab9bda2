"""The benchmark's workloads: inputs made from the seed, the request each
slot of a pass issues, and the check of its output against the pins.

A pass issues every slot once, in a seeded order; the runner repeats whole
passes.  The sorted samples of a run are then blocks, one per slot.  A
percentile that falls on the edge between two blocks of very different
times reads the slowest sample of one block, which is noisy.  So the
exact, cli_short and oracle passes hold 25, 15 and 5 requests (5 mod 10), which
puts p50 and p90 in the middle of one block, whatever the number of passes.
The greedy pass holds one slot per (graph, algorithm) pair, 24 in all; its
graphs are chosen so that the requests next to its p50 edge (goo on the
20-table chain and cycle, prim and kruskal on the cliques) take about the
same time, and its p90 falls 0.3 of the way into the joint block of este on
two clique-14 graphs (este on clique-15 is the slowest block, and este on
the others is far faster).

Graphs come from ``gen_topology`` with a generator seed drawn from a pinned
pool of POOL seeds per (topology, size) class; the benchmark seed picks
which ones a run uses and the request order.  The program is handed only
JSON text (or, for the CLI, JSON files).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import spanplan  # noqa: E402
from spanplan import cli, cost, enumerators, graph, oracle, plan  # noqa: E402

if Path(spanplan.__file__).resolve().parent != SRC / "spanplan":
    raise ImportError(f"spanplan was imported from {spanplan.__file__}, not from {SRC}")

Q2A = "data/query_2a.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
POOL = 6
ALGORITHMS = ("exhaustive", "prim", "kruskal", "goo", "este")
CLI_ENTRY = "import sys; from spanplan.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 30.0

# Values the project's ROADMAP pins for the bundled query.
Q2A_PINS = {"cost": 1617001.0, "edges": [0, 3, 4, 1], "unpruned_subplans": 14,
            "unpruned_join_costs": 32, "counts": [120, 72, 48, 36, 36]}

PROFILES = {
    "full": {
        # 8 classes x 3 graphs + q2a = 25 requests.
        "exact": [("chain", 15), ("chain", 16), ("cycle", 13), ("cycle", 14),
                  ("star", 11), ("star", 12), ("clique", 11), ("clique", 12)],
        # 6 graphs (two clique-14) x (este, prim, kruskal, goo) = 24 requests.
        "greedy": [("clique", 14), ("clique", 14), ("clique", 15), ("star", 22), ("cycle", 20),
                   ("chain", 20)],
        # q2a x 5 algorithms, count, bench, and 4 graphs x 2 algorithms = 15.
        "cli_short": [("chain", 6), ("cycle", 6), ("star", 6), ("clique", 5)],
        # 4 graphs + q2a = 5 requests.
        "oracle": [("clique", 5), ("cycle", 7), ("star", 8), ("cycle", 8)],
    },
    "tiny": {
        "exact": [("chain", 5), ("cycle", 5), ("star", 5), ("clique", 4)],
        "greedy": [("clique", 5)],
        "cli_short": [("chain", 4)],
        "oracle": [("chain", 4), ("cycle", 4), ("star", 4), ("clique", 4)],
    },
}
EXACT_COPIES = {"full": 3, "tiny": 1}


@dataclass(frozen=True)
class Slot:
    key: str            # reference entry, e.g. "exact/chain-15-3"
    text: str = ""      # graph JSON handed to the in-process workloads
    algo: str = ""
    argv: tuple = ()    # CLI arguments (cli_short)


def graph_text(kind: str, n: int, gen_seed: int, embed_catalog: bool = False) -> str:
    """Generated graph JSON with its selectivity model, or with the full
    catalog of connected-subset cardinalities that model implies."""
    g, model = graph.gen_topology(kind, n, gen_seed)
    if not embed_catalog:
        return graph.graph_to_json(g, model)
    entries = {m: model.lookup(g, m) for m in graph.connected_subset_masks(g)}
    return graph.graph_to_json(g, cost.CardinalityCatalog(entries=entries))


def make_slots(workload: str, profile: str, seed: int, workdir: Path | None = None,
               everything: bool = False) -> list[Slot]:
    """The requests of one pass.  everything=True returns every slot any
    seed can produce (used to record the pins)."""
    rng = random.Random(f"{workload}:{profile}:{seed}")
    classes = PROFILES[profile][workload]

    def pick(k: int = 1):
        return range(POOL) if everything else rng.sample(range(POOL), k)

    q2a_text = (ROOT / Q2A).read_text()
    slots: list[Slot] = []
    if workload == "exact":
        for kind, n in classes:
            for s in pick(EXACT_COPIES[profile]):
                slots.append(Slot(f"exact/{kind}-{n}-{s}", graph_text(kind, n, s)))
        slots.append(Slot("exact/q2a", q2a_text))
    elif workload == "greedy":
        algos = ("este", "prim", "kruskal", "goo")
        for (kind, n), copies in Counter(classes).items():
            for s in pick(copies):
                text = graph_text(kind, n, s)
                slots.extend(Slot(f"greedy/{kind}-{n}-{s}/{a}", text, a) for a in algos)
    elif workload == "oracle":
        for kind, n in classes:
            for s in pick():
                slots.append(Slot(f"oracle/{kind}-{n}-{s}", graph_text(kind, n, s)))
        slots.append(Slot("oracle/q2a", q2a_text))
    elif workload == "cli_short":
        workdir.mkdir(parents=True, exist_ok=True)
        for a in ALGORITHMS:
            slots.append(Slot(f"cli/optimize/q2a/{a}", argv=("optimize", "--graph", Q2A, "--algo", a)))
        slots.append(Slot("cli/count/q2a", argv=("count", "--graph", Q2A)))
        slots.append(Slot("cli/bench/q2a", argv=("bench", "--graph", Q2A)))
        for kind, n in classes:
            for s in pick():
                name = f"{kind}-{n}-{s}"
                path = workdir / f"{name}.json"
                path.write_text(graph_text(kind, n, s, embed_catalog=True))
                for a in ALGORITHMS if everything else rng.sample(ALGORITHMS, 2):
                    slots.append(Slot(f"cli/optimize/{name}/{a}",
                                      argv=("optimize", "--graph", os.path.relpath(path, ROOT), "--algo", a)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return slots


# --- requests ---------------------------------------------------------------
# Each resolves the program's functions through their modules at call time,
# so the traced run sees the calls.

def run_exact(slot: Slot):
    g, source = graph.load_document(slot.text)
    p, stats = enumerators.exhaustive(g, source)
    return g, source, p, plan.plan_to_json(p, g, stats)


def run_greedy(slot: Slot):
    g, source = graph.load_document(slot.text)
    p, stats = enumerators.run_algorithm(slot.algo, g, source)
    return g, source, p, plan.plan_to_json(p, g, stats)


def run_oracle(slot: Slot):
    g, source = graph.load_document(slot.text)
    p, _stats = oracle.brute_force_optimal(g, source)
    return g, source, p, oracle.enumerate_ordered_trees(g)


def run_cli_process(slot: Slot):
    """One `spanplan` process, as the installed console script runs it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *slot.argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_cli_inprocess(slot: Slot):
    """cli.main in this process (for the traced run), stdout captured.
    Paths in argv are relative to ROOT, which must be the working directory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(slot.argv))
    return code, buf.getvalue().encode()


REQUESTS = {"exact": run_exact, "greedy": run_greedy, "oracle": run_oracle,
            "cli_short": run_cli_process}


# --- pins and checks --------------------------------------------------------

def plan_digest(p) -> str:
    enc = json.dumps(plan.canonical_encoding(p), separators=(",", ":"))
    return hashlib.sha256(enc.encode()).hexdigest()[:16]


def pin_entry(workload: str, output) -> dict:
    """The reference entry for one request's output."""
    if workload == "cli_short":
        code, stdout = output
        if code != 0:
            raise RuntimeError(f"CLI exited {code}")
        return {"stdout": hashlib.sha256(stdout).hexdigest(), "cost": cli_cost(stdout)}
    _g, _source, p, extra = output
    entry = {"cost": p.internal_cost, "edges": [s.edge for s in p.steps], "plan": plan_digest(p)}
    if workload == "oracle":
        entry["counts"] = [extra.bound, extra.valid, extra.invalid, extra.linear, extra.bushy]
    return entry


def cli_cost(stdout: bytes):
    """Plan cost in a CLI output: optimize's internal_cost, or the sum of
    bench's internal_cost column; None for outputs without a plan."""
    text = stdout.decode()
    if text.startswith("{"):
        doc = json.loads(text)
        return float(doc["internal_cost"]) if "internal_cost" in doc else None
    if text.startswith("query_id,"):
        rows = [line.split(",") for line in text.splitlines()]
        col = rows[0].index("internal_cost")
        return sum(float(r[col]) for r in rows[1:] if r[col])
    return None


def check(workload: str, slot: Slot, output, reference: dict):
    """Compare one output with its pin.  Returns (problem or None, cost,
    reference cost); the costs feed cost_ratio and are None without a plan."""
    want = reference[slot.key]
    if workload == "cli_short":
        code, stdout = output
        try:
            got_cost = cli_cost(stdout)
        except (ValueError, KeyError, IndexError, UnicodeDecodeError):
            got_cost = None
        if code != 0:
            return f"exit code {code}", got_cost, want["cost"]
        if hashlib.sha256(stdout).hexdigest() != want["stdout"]:
            return "stdout differs from the pinned bytes", got_cost, want["cost"]
        return None, got_cost, want["cost"]

    g, source, p, extra = output
    problem = None
    try:
        plan.validate_plan(g, p, cost.CostContext(g, source))
    except spanplan.PlanValidationError as exc:
        problem = f"validate_plan: {exc}"
    got = pin_entry(workload, output)
    if workload in ("exact", "greedy"):
        doc = json.loads(extra)
        if doc["internal_cost"] != p.internal_cost:
            problem = problem or "plan JSON cost differs from the plan"
    for field in ("cost", "edges", "plan", "counts"):
        if field in want and got.get(field) != want[field]:
            problem = problem or f"{field} {got.get(field)!r} != pinned {want[field]!r}"
    return problem, p.internal_cost, want["cost"]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["entries"]
