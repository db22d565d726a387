"""Compare two sets of benchmark results: a report, not a gate.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that `bench/run.py --out FILE` appends.  For
every workload and metric found in both sets it prints each side's median
and quartiles (statistics.quantiles, n=4), the spread (interquartile
distance over median) and the ratio of the medians, NEW over BASE.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str):
    """{(workload, trace): {metric: [values]}}, units and fingerprints."""
    values: dict = defaultdict(lambda: defaultdict(list))
    units: dict = {}
    prints: dict = defaultdict(set)
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            stamp = record["stamp"]
            key = (stamp["workload"], stamp["trace"])
            prints[key].add((stamp["seed"], stamp["fingerprint"]))
            for name, metric in record["metrics"].items():
                values[key][name].append(metric["value"])
                units[name] = metric["unit"]
    return values, units, prints


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, base_units, base_prints = load(argv[0])
    new, new_units, new_prints = load(argv[1])
    units = {**base_units, **new_units}
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n{workload} (trace {trace}): base n={len(next(iter(base[key].values())))}, "
              f"new n={len(next(iter(new[key].values())))}")
        same_seeds = dict(base_prints[key]).keys() & dict(new_prints[key]).keys()
        drifted = [s for s in sorted(same_seeds)
                   if dict(base_prints[key])[s] != dict(new_prints[key])[s]]
        if drifted:
            print(f"  inputs differ for seeds {drifted}: generator drift")
        print(f"  {'metric':<32} {'base median':>12} {'q1':>12} {'q3':>12}"
              f" {'new median':>12} {'q1':>12} {'q3':>12} {'new/base':>9} {'spread b/n':>12}")
        for name in base[key]:
            if name not in new[key]:
                continue
            b1, b2, b3 = quartiles(base[key][name])
            n1, n2, n3 = quartiles(new[key][name])
            ratio = f"{n2 / b2:9.4f}" if b2 else f"{'n/a':>9}"
            spread = "/".join(f"{(q3 - q1) / m:.3f}" if m else "n/a"
                              for q1, m, q3 in ((b1, b2, b3), (n1, n2, n3)))
            print(f"  {name:<32} {b2:>12.5g} {b1:>12.5g} {b3:>12.5g}"
                  f" {n2:>12.5g} {n1:>12.5g} {n3:>12.5g} {ratio} {spread:>12}  {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
