"""Self-test of the benchmark: exact counts repeat and tracing changes nothing.

    python3 bench/selftest.py

For each workload, on its short inputs, runs an untraced and a traced pass
twice.  Fails unless every op matches its reference, every traced result
equals the untraced one (score and tree), and parsing.entries,
parsing.c_max, normalize.gcnf_rules and domains.relation_calls repeat
exactly between the two traced passes.  Also checks that BENCHMARK.json
names the workloads and metrics that run.py reports.
"""

from __future__ import annotations

import json
import sys

from harness import SpeedProbe
from layers import METRICS
from run import END_TO_END, ROOT, SRC, measure, scratch_dir
from workloads import WORKLOADS

SEED = 1
REPEATED = ("parsing.entries", "parsing.c_max", "normalize.gcnf_rules", "domains.relation_calls")


def config_problems() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != list(METRICS):
        problems.append("BENCHMARK.json per_layer differs from layers.METRICS")
    return problems


def main() -> int:
    if not (SRC / "aog" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC / 'aog'}", file=sys.stderr)
        return 2
    problems = config_problems()
    for w in WORKLOADS.values():
        with scratch_dir(f"selftest-{w.name}") as workdir, SpeedProbe() as probe:
            # seconds only bounds the run here; passes fixes its length
            run = measure(w, SEED, 600.0, True, workdir, probe, short=True, passes=2)
        book = run["book"]
        if book.failed:
            problems.append(
                f"{w.name}: {book.failed} of {book.attempted} ops failed, first: {book.first_failure}"
            )
        first, second = run["per_pass"]
        for name in REPEATED:
            if first[name] != second[name]:
                problems.append(f"{w.name}: {name} {first[name]} then {second[name]}")
            elif first[name] <= 0:
                problems.append(f"{w.name}: {name} was not counted")
        counts = ", ".join(f"{name} {first[name]:g}" for name in REPEATED)
        print(f"{w.name}: {book.attempted} ops, {book.failed} failed; {counts}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
