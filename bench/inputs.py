"""Seeded input generators and fixtures for the benchmark workloads.

Everything here is plain Python data (tuples, lists, dicts, strings) and
imports nothing from aog: the workloads turn it into engine objects during
set-up, so the engine only ever receives the generated inputs.

random_3sat and random_spn are copies of the generators in tests/helpers.py
(same random draws in the same order, so seed 44000 gives the formula that
acceptance 4 uses and seed 43000 the network of acceptance 3), returning
plain data instead of aog objects.
"""

from __future__ import annotations

import hashlib
import json
import random

# acceptance 6 and 9: every span of a×n is a composition of X
ALL_SPANS_SCFG = """
X -> X X [0.4]
X -> a [0.6]
"""

# one parse of a×n, a left-branching chain of depth n
LEFT_BRANCHING_SCFG = """
S -> S A [0.5]
S -> a [0.5]
A -> a [1.0]
"""

# The running example of the tests: dot figures on the grid.  And-rules are
# (head, children, relation key, relation config, function key, function
# config); Or-rules are (head, child, prob).
LINE_DRAWING = {
    "domain": "grid",
    "terminals": ["dot"],
    "start": "figure",
    "and_rules": [
        ("hline", ["point", "point", "point"], "offset", {"offsets": [[1, 0], [2, 0]]},
         "anchor", {"anchor": [0, 0]}),
        ("vpair", ["point", "point"], "offset", {"offsets": [[0, 1]]},
         "anchor", {"anchor": [0, 0]}),
    ],
    "or_rules": [
        ("figure", "hline", 0.5),
        ("figure", "vpair", 0.3),
        ("figure", "dot", 0.2),
        ("point", "dot", 1.0),
    ],
}

# String grammar with arity-4 and arity-5 rules and an Or-to-Or chain; not in
# normal form, so every normalization step runs.
WIDE_STRING = {
    "domain": "string_span",
    "terminals": ["a", "b"],
    "start": "top",
    "and_rules": [
        ("quad", ["item"] * 4, "adjacent", {}, "concat", {}),
        ("quint", ["item"] * 5, "adjacent", {}, "concat", {}),
    ],
    "or_rules": [
        ("top", "quad", 0.45),
        ("top", "quint", 0.35),
        ("top", "letter", 0.2),
        ("item", "letter", 0.6),
        ("item", "b", 0.4),
        ("letter", "a", 1.0),
    ],
}


def random_3sat(rng: random.Random, max_vars: int = 12, max_clauses: int = 20):
    """(n_vars, clauses) of a random 3SAT instance, as in tests/helpers.py."""
    if rng.random() < 0.4:
        n = rng.randint(1, 3)
        k = rng.randint(4, 10)
    else:
        n = rng.randint(1, max_vars)
        k = rng.randint(1, max_clauses)
    budget = 26 - k
    clauses = []
    for _ in range(k):
        width = rng.randint(1, min(3, n, 1 + max(0, budget)))
        budget -= width - 1
        variables = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return n, tuple(clauses)


def random_spn(rng: random.Random, n_vars: int):
    """(nodes, root) of a random complete, decomposable SPN, as in
    tests/helpers.py.  A node is ("ind", var, positive), ("sum", children,
    weights) or ("prod", children)."""
    nodes: dict[str, tuple] = {}

    def add(node: tuple) -> str:
        name = f"n{len(nodes)}"
        nodes[name] = node
        return name

    def leaf(var: int) -> str:
        if rng.random() < 0.25:
            return add(("ind", var, rng.random() < 0.5))
        pos = add(("ind", var, True))
        neg = add(("ind", var, False))
        return add(("sum", (pos, neg), (rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))))

    def build(scope: tuple[int, ...], want_sum: bool) -> str:
        if len(scope) == 1:
            return leaf(scope[0])
        if want_sum:
            children = tuple(build(scope, False) for _ in range(rng.randint(2, 3)))
            weights = tuple(rng.uniform(0.2, 2.0) for _ in children)
            return add(("sum", children, weights))
        cut = rng.randint(1, len(scope) - 1)
        return add(("prod", (build(scope[:cut], True), build(scope[cut:], True))))

    scope = tuple(range(1, n_vars + 1))
    root = build(scope, want_sum=len(scope) > 1)
    return nodes, root


def fingerprint(data) -> str:
    """Short stable hash of generated plain data, recorded with every result
    so that a drifting generator shows."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
