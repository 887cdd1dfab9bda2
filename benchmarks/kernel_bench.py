#!/usr/bin/env python3
"""Compare the pure-Python and compiled search kernels.

Runs the subset DP, the brute-force tree search, and the arrangement
counter on seeded graphs with both backends, checks the results agree,
and prints a timing table.  The compiled backend is kernels.c, built in
place by ``python3 setup.py build_ext --inplace``.

Usage: python benchmarks/kernel_bench.py [--repeat N]
"""
from __future__ import annotations

import argparse
import time

import spanplan as sp
from spanplan import _kernels
from spanplan.cost import CostContext
from spanplan.graph import connected_subset_masks

CASES = [
    ("chain", 10),
    ("cycle", 9),
    ("star", 10),
    ("clique", 6),
    ("clique", 7),
]


def _instance(graph, model):
    ctx = CostContext(graph, model)
    ctx.ensure_cards(connected_subset_masks(graph))
    return ctx.instance


def _time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if not _kernels.HAVE_COMPILED:
        print("compiled kernels unavailable; timing the pure backend only")
    backends = ["pure"] + (["compiled"] if _kernels.HAVE_COMPILED else [])

    header = f"{'kernel':<12} {'graph':<12} " + " ".join(f"{b:>12}" for b in backends)
    if len(backends) == 2:
        header += f" {'speedup':>9}"
    print(header)
    print("-" * len(header))

    for kind, n in CASES:
        graph, model = sp.gen_topology(kind, n, seed=0)
        inst = _instance(graph, model)
        edge_u = [e.v1 for e in graph.edges]
        edge_v = [e.v2 for e in graph.edges]
        brute_ok = sp.arrangement_bound(graph.n_vertices, graph.n_edges) <= 2_000_000

        jobs = [("dp_search", lambda k: k.dp_search(inst))]
        if brute_ok:
            jobs.append(("brute_search", lambda k: k.brute_search(inst)))
            jobs.append(("count_trees", lambda k: k.count_trees(graph.n_vertices, edge_u, edge_v)))

        for label, call in jobs:
            results = {}
            times = {}
            for b in backends:
                kern = _kernels.get_backend(b)
                results[b] = call(kern)
                times[b] = _time(lambda: call(kern), args.repeat)
            if len(backends) == 2 and results["pure"] != results["compiled"]:
                print(f"MISMATCH on {label} {kind}-{n}")
                return 1
            row = f"{label:<12} {kind + '-' + str(n):<12} "
            row += " ".join(f"{times[b] * 1000:>10.2f}ms" for b in backends)
            if len(backends) == 2 and times["compiled"] > 0:
                row += f" {times['pure'] / times['compiled']:>8.1f}x"
            print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
