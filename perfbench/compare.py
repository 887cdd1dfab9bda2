#!/usr/bin/env python3
"""Compare two records saved by ``run.py --out``.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric of both records and the relative change.  Refuses (exit
2) when the records differ in kernel backend, workload, profile or trace
mode, because their numbers then do not measure the same thing.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

MUST_MATCH = ("backend", "workload", "profile", "trace")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before, after = (json.loads(Path(p).read_text()) for p in (args.before, args.after))
    for key in MUST_MATCH:
        if before["stamp"][key] != after["stamp"][key]:
            print(f"refusing to compare: {key} is {before['stamp'][key]!r} "
                  f"before and {after['stamp'][key]!r} after")
            return 2
    print(f"{'metric':34s} {'before':>14s} {'after':>14s} {'change':>8s}")
    for name, old in before["result"]["metrics"].items():
        a, b = old["value"], after["result"]["metrics"][name]["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"{name:34s} {a:14.6g} {b:14.6g} {change:>8s} {old['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
