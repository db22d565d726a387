"""The benchmark harness runs on this checkout: bench/selftest.py, which
replays every workload's short inputs traced and untraced, exits 0.  A
change to the chart API that breaks the benchmark's traced path fails here.
The benchmark's copies of the test generators draw what the tests draw."""

import functools
import importlib.util
import random
import subprocess
import sys
from pathlib import Path

import pytest

from aog import Cnf3Sat, IndicatorNode, ProductNode, Spn, SumNode
from helpers import random_3sat, random_spn

ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def bench_inputs():
    """bench/inputs.py, loaded by path: bench is not a package."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [*range(40), *range(44000, 44020)])
def test_bench_formulas_are_the_tests_formulas(seed):
    n_vars, clauses = bench_inputs().random_3sat(random.Random(seed))
    assert Cnf3Sat(n_vars, clauses) == random_3sat(random.Random(seed))


@pytest.mark.parametrize(
    "seed, n_vars", [*((s, 1 + s % 10) for s in range(40)), (43000, 10), (43001, 10)]
)
def test_bench_networks_are_the_tests_networks(seed, n_vars):
    plain, root = bench_inputs().random_spn(random.Random(seed), n_vars)
    kinds = {"ind": IndicatorNode, "sum": SumNode, "prod": ProductNode}
    nodes = {name: kinds[kind](*fields) for name, (kind, *fields) in plain.items()}
    assert Spn(nodes, root) == random_spn(random.Random(seed), n_vars)


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("selftest PASS")
