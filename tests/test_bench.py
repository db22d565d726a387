"""The benchmark harness runs on this checkout: bench/selftest.py, which
replays every workload's short inputs traced and untraced, exits 0.  A
change to the chart API that breaks the benchmark's traced path fails here.
The tests draw with the benchmark's own generators; its workloads build
from each draw the engine objects that the tests build."""

import random
import subprocess
import sys

import pytest

import aog
from helpers import BENCH, bench_module, random_3sat, random_spn


@pytest.mark.parametrize("seed", [*range(40), *range(44000, 44020)])
def test_bench_formulas_are_the_tests_formulas(seed):
    formula = bench_module("inputs").random_3sat(random.Random(seed))
    inputs = {"formulas": [formula], "ops": []}
    state = bench_module("workloads").Sat().setup(aog, inputs, None, None)
    assert state.formulas[0][0] == random_3sat(random.Random(seed))


@pytest.mark.parametrize(
    "seed, n_vars", [*((s, 1 + s % 10) for s in range(40)), (43000, 10), (43001, 10)]
)
def test_bench_networks_are_the_tests_networks(seed, n_vars):
    network = bench_module("inputs").random_spn(random.Random(seed), n_vars)
    inputs = {"networks": [network], "ops": []}
    state = bench_module("workloads").Spn().setup(aog, inputs, None, None)
    assert state.networks[0][0] == random_spn(random.Random(seed), n_vars)


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("selftest PASS")
