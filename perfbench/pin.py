#!/usr/bin/env python3
"""Record perfbench/reference.json: the expected output of every request
any seed can issue, taken from the current code.

    python3 perfbench/pin.py

Run it once, on the commit whose outputs are the reference; the benchmark
then counts any request whose output differs as failed.  Before writing,
it checks the values the ROADMAP pins for data/query_2a.json and has the
brute-force oracle certify every optimum it can reach (arrangement bound
up to CERTIFY_LIMIT).
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from workloads import Q2A_PINS, ROOT, graph, oracle

CERTIFY_LIMIT = 10**6


def certify(text: str, cost: float) -> bool:
    """True when the oracle reaches the graph and agrees on the optimum;
    False when the graph is beyond its reach."""
    g, source = graph.load_document(text)
    if oracle.arrangement_bound(g.n_vertices, g.n_edges) > CERTIFY_LIMIT:
        return False
    brute, _stats = oracle.brute_force_optimal(g, source)
    if brute.internal_cost != cost:
        raise SystemExit(f"oracle optimum {brute.internal_cost} != exhaustive {cost}")
    return True


def main() -> int:
    os.chdir(ROOT)
    workdir = Path(workloads.__file__).resolve().parent / "_work" / "pin-inputs"
    reference = {}
    certified = 0
    try:
        for profile in workloads.PROFILES:
            for workload in workloads.PROFILES[profile]:
                request = workloads.REQUESTS[workload]
                for slot in workloads.make_slots(workload, profile, 0, workdir, everything=True):
                    if slot.key in reference:
                        continue
                    output = request(slot)
                    reference[slot.key] = workloads.pin_entry(workload, output)
                    if workload == "exact":
                        certified += certify(slot.text, output[2].internal_cost)
                    elif workload == "oracle":
                        g, source, brute, _counts = output
                        best, _stats = workloads.enumerators.exhaustive(g, source)
                        if best.internal_cost != brute.internal_cost:
                            raise SystemExit(f"{slot.key}: exhaustive != oracle optimum")
                        certified += 1
                    elif workload == "cli_short" and slot.argv[0] == "optimize" \
                            and slot.argv[-1] == "exhaustive":
                        certified += certify((ROOT / slot.argv[2]).read_text(),
                                             reference[slot.key]["cost"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    q2a = reference["exact/q2a"]
    g, source = graph.load_document((ROOT / workloads.Q2A).read_text())
    _plan, unpruned = workloads.enumerators.exhaustive(g, source, prune=False)
    got = {"cost": q2a["cost"], "edges": q2a["edges"],
           "unpruned_subplans": unpruned.subplans_reached,
           "unpruned_join_costs": unpruned.join_costs_computed,
           "counts": reference["oracle/q2a"]["counts"]}
    if got != Q2A_PINS:
        raise SystemExit(f"q2a outputs {got} differ from the ROADMAP pins {Q2A_PINS}")

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    head = {"recorded_at": commit, "pool": workloads.POOL, "oracle_certified": certified}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(reference.items())]
    workloads.REFERENCE.write_text(json.dumps(head)[:-1] + ', "entries": {\n'
                                   + ",\n".join(lines) + "\n}}\n")
    print(f"{len(reference)} entries, {certified} optima certified by the oracle", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
