"""Compare two sets of benchmark results: ``compare.py A.json... -- B.json...``.

Each file is a result document written by ``run.py --out``.  For every
workload and end-to-end metric of ``BENCHMARK.json`` this prints each
side's median and quartiles, the change of B's median against A's, the
share of (A, B) run pairs that B wins (ties count for neither side), and a
verdict under the metric's bound:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — either side's spread (quartile distance over median) is
  wider than the bound, unless every B run is better than every A run.

Runs made with the same seed must also agree exactly on the result digest
and on every simulated-clock outcome.  Exits 1 unless every verdict is
``ok`` and every digest agrees.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any

from run import load_spec, read_document


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a: float, b: float, direction: str) -> bool:
    """True when ``b`` reads strictly better than ``a``."""
    return b < a if direction == "lower" else b > a


def verdict(a: list[float], b: list[float], metric: dict[str, Any]) -> dict[str, Any]:
    """Median change, win fraction and verdict of B against A."""
    direction, bound = metric["better"], metric["bound"]
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    worse = change if direction == "lower" else -change
    spread = max(
        (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0,
        (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0,
    )
    wins = sum(better(x, y, direction) for x in a for y in b)
    if spread > bound and wins < len(a) * len(b):
        result = "unresolved"
    elif worse > bound:
        result = "regressed"
    else:
        result = "ok"
    return {"a": qa, "b": qb, "change": change, "spread": spread,
            "win": wins / (len(a) * len(b)), "verdict": result}


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.split("\n", 1)[0], file=sys.stderr)
        return 2
    cut = argv.index("--")
    sides = [[read_document(p) for p in argv[:cut]], [read_document(p) for p in argv[cut + 1:]]]
    if not sides[0] or not sides[1]:
        print("need at least one result file on each side of --", file=sys.stderr)
        return 2
    spec = load_spec()
    status = 0
    print(f"{'workload':<16} {'metric':<18} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'change':>8} {'bound':>6} {'B wins':>7}  verdict")
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = [[d["workloads"][name] for d in side if name in d["workloads"]] for side in sides]
        if not runs[0] or not runs[1]:
            continue
        for metric in spec["end_to_end"]:
            values = [[r["metrics"][metric["name"]]["value"] for r in side] for side in runs]
            row = verdict(values[0], values[1], metric)
            status |= row["verdict"] != "ok"
            cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (row["a"], row["b"])]
            print(f"{name:<16} {metric['name']:<18} {cells[0]:<30} {cells[1]:<30} "
                  f"{100 * row['change']:>+7.2f}% {metric['bound']:>6} "
                  f"{100 * row['win']:>6.0f}%  {row['verdict']}")
        by_seed: dict[int, list[dict[str, Any]]] = {}
        for doc in sides[0] + sides[1]:
            if name in doc["workloads"]:
                by_seed.setdefault(doc["seed"], []).append(doc["workloads"][name])
        for seed, same in sorted(by_seed.items()):
            digests = {r["digest"] for r in same}
            outcomes = {json.dumps(r["outcomes"], sort_keys=True) for r in same}
            agree = len(digests) == 1 and len(outcomes) == 1
            status |= not agree
            print(f"{name:<16} seed {seed}: {len(same)} runs, result digests and simulated "
                  f"outcomes {'identical' if agree else 'DIFFER'}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
