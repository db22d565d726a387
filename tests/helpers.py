"""Random fixture generators and small numeric helpers shared by the tests."""

from __future__ import annotations

import hashlib
import math
import random

from aog import (
    AndRule,
    Cnf3Sat,
    FunctionRef,
    Grammar,
    IndicatorNode,
    OrRule,
    ProductNode,
    RelationRef,
    Scfg,
    ScfgRule,
    Spn,
    SumNode,
    grid_domain,
    interval_domain,
    null_domain,
    string_span_domain,
)

NEG_INF = float("-inf")


def logsumexp(values) -> float:
    values = [v for v in values if v != NEG_INF]
    if not values:
        return NEG_INF
    top = max(values)
    return top + math.log(sum(math.exp(v - top) for v in values))


def flat_back(cell):
    """How a chart cell got its score as one flat tuple: None for a marginal
    cell, (or rule, instance id) at size 1, and above (and rule, left param,
    left mask, right param, right mask, or rule)."""
    if len(cell) == 1:
        return None
    if len(cell) == 3:
        return cell[1:]
    _, and_idx, (lparam, lmask), (rparam, rmask), or_idx = cell
    return (and_idx, lparam, lmask, rparam, rmask, or_idx)


def chart_fingerprint(table) -> str:
    """sha256 over every stored cell of a chart in insertion order, each as
    (size, node, param, mask, score.hex(), flat_back(cell)): equal
    fingerprints mean the same cells, order, scores and backpointers."""
    digest = hashlib.sha256()
    for size, stratum in enumerate(table.scores):
        for node, cells in stratum.items():
            for (param, mask), cell in cells.items():
                back = flat_back(cell)
                digest.update(repr((size, node, param, mask, cell[0].hex(), back)).encode())
    return digest.hexdigest()


def normalized(rng: random.Random, count: int) -> list[float]:
    weights = [rng.uniform(0.1, 1.0) for _ in range(count)]
    total = sum(weights)
    return [w / total for w in weights]


def random_aog(
    rng: random.Random,
    max_nodes: int = 12,
    allow_or_chains: bool = False,
    kind: str | None = None,
) -> Grammar:
    """Random valid acyclic grammar over a domain of the given kind.

    Nodes are created bottom-up so every child already exists, which keeps
    the grammar acyclic and every nonterminal productive.  By default Or
    nodes only choose among terminals and And nodes; with allow_or_chains
    they may also point at other Or nodes, producing unit chains that the
    normal form merges.  kind is "string", "grid", "null" or "interval";
    when omitted, one of the first three is drawn from rng.
    """
    if kind is None:
        kind = rng.choice(("string", "grid", "null"))
    domain = {
        "string": string_span_domain,
        "grid": grid_domain,
        "null": null_domain,
        "interval": interval_domain,
    }[kind]()
    n_terminals = rng.randint(1, 3)
    terminals = [f"t{i}" for i in range(n_terminals)]
    pool: list[str] = list(terminals)
    and_nodes: list[str] = []
    or_nodes: list[str] = []
    and_rules: list[AndRule] = []
    or_rules: list[OrRule] = []
    n_nonterminals = rng.randint(2, max_nodes - n_terminals)
    for idx in range(n_nonterminals):
        last = idx == n_nonterminals - 1
        make_or = last or rng.random() < 0.55
        if make_or:
            name = f"o{idx}"
            or_nodes.append(name)
            choices = pool if allow_or_chains else [c for c in pool if c not in or_nodes]
            if not choices:
                choices = list(terminals)
            children = rng.sample(choices, k=min(len(choices), rng.randint(1, 3)))
            for child, prob in zip(children, normalized(rng, len(children))):
                or_rules.append(OrRule(name, child, prob))
        else:
            name = f"a{idx}"
            and_nodes.append(name)
            arity = rng.randint(2, 4)
            children = tuple(rng.choice(pool) for _ in range(arity))
            if kind == "string":
                relation = RelationRef("adjacent")
                function = FunctionRef("concat")
            elif kind == "grid":
                offsets = [[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(arity - 1)]
                relation = RelationRef("offset", {"offsets": offsets})
                function = FunctionRef(
                    "anchor", {"anchor": [rng.randint(-1, 1), rng.randint(-1, 1)]}
                )
            elif kind == "interval":
                relation = RelationRef(rng.choice(("meets", "equals")))
                function = FunctionRef("hull")
            else:
                relation = RelationRef("true")
                function = FunctionRef("null")
            and_rules.append(AndRule(name, children, relation, function))
        pool.append(name)
    start = pool[-1]
    return Grammar(
        domain=domain,
        terminals=frozenset(terminals),
        and_nodes=frozenset(and_nodes),
        or_nodes=frozenset(or_nodes),
        start=start,
        and_rules=tuple(and_rules),
        or_rules=tuple(or_rules),
    )


def random_cnf_pcfg(rng: random.Random, max_nonterminals: int = 8) -> Scfg:
    """Random CNF PCFG over the alphabet {a, b}; recursion is allowed.

    Every nonterminal keeps at least one lexical rule so the grammar is
    productive and short strings have parses reasonably often.
    """
    n = rng.randint(1, max_nonterminals)
    heads = [f"N{i}" for i in range(n)]
    rules: list[ScfgRule] = []
    for head in heads:
        bodies: list[tuple[str, ...]] = [(rng.choice("ab"),)]
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.7:
                bodies.append((rng.choice(heads), rng.choice(heads)))
            else:
                bodies.append((rng.choice("ab"),))
        seen: set[tuple[str, ...]] = set()
        bodies = [b for b in bodies if not (b in seen or seen.add(b))]
        for body, prob in zip(bodies, normalized(rng, len(bodies))):
            rules.append(ScfgRule(head, body, prob))
    return Scfg(heads[0], tuple(rules))


def random_spn(rng: random.Random, n_vars: int) -> Spn:
    """Random complete and decomposable SPN over variables 1..n_vars."""
    nodes: dict[str, object] = {}
    counter = 0

    def add(node) -> str:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        nodes[name] = node
        return name

    def leaf(var: int) -> str:
        if rng.random() < 0.25:
            return add(IndicatorNode(var, rng.random() < 0.5))
        pos = add(IndicatorNode(var, True))
        neg = add(IndicatorNode(var, False))
        return add(SumNode((pos, neg), (rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))))

    def build(scope: tuple[int, ...], want_sum: bool) -> str:
        if len(scope) == 1:
            return leaf(scope[0])
        if want_sum:
            children = tuple(build(scope, False) for _ in range(rng.randint(2, 3)))
            weights = tuple(rng.uniform(0.2, 2.0) for _ in children)
            return add(SumNode(children, weights))
        cut = rng.randint(1, len(scope) - 1)
        left, right = scope[:cut], scope[cut:]
        return add(ProductNode((build(left, True), build(right, True))))

    scope = tuple(range(1, n_vars + 1))
    root = build(scope, want_sum=len(scope) > 1)
    return Spn(nodes, root)


def random_3sat(rng: random.Random, max_vars: int = 12, max_clauses: int = 20) -> Cnf3Sat:
    """Random 3SAT instance; dense instances are drawn often enough that a
    healthy share of the output is unsatisfiable.

    Total literal occurrences are capped: chart size for these grammars
    grows with the number of ways clauses can be credited to literals,
    so unbounded occurrence counts make worst cases explode.
    """
    if rng.random() < 0.4:
        n = rng.randint(1, 3)
        k = rng.randint(4, 10)
    else:
        n = rng.randint(1, max_vars)
        k = rng.randint(1, max_clauses)
    budget = 26 - k  # extra literals beyond the mandatory one per clause
    clauses = []
    for i in range(k):
        width = rng.randint(1, min(3, n, 1 + max(0, budget)))
        budget -= width - 1
        variables = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return Cnf3Sat(n, tuple(clauses))
