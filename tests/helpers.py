"""Random fixture generators and small numeric helpers shared by the tests."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import math
import random
import sys
from pathlib import Path

from aog import (
    AndRule,
    Cnf3Sat,
    CompositionKey,
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
    backtrack,
    build_table,
    grid_domain,
    interval_domain,
    null_domain,
    string_span_domain,
)
from aog.parsing import log_add

NEG_INF = float("-inf")

BENCH = Path(__file__).resolve().parent.parent / "bench"


@functools.cache
def bench_module(name: str):
    """bench/<name>.py.  bench is not a package and its modules import each
    other by bare name, so its directory goes last on sys.path."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    return importlib.import_module(name)


def logsumexp(values) -> float:
    values = [v for v in values if v != NEG_INF]
    if not values:
        return NEG_INF
    top = max(values)
    return top + math.log(sum(math.exp(v - top) for v in values))


def flat_back(table, node, key):
    """How a chart cell got its score as one flat tuple: None in a marginal
    chart, (or rule, instance id) at size 1, and above (and rule, left param,
    left mask, right param, right mask, or rule)."""
    if table.mode == "marginal":
        return None
    cell = table.derivation(CompositionKey(node, *key))
    if len(cell) == 3:
        return cell[1:]
    _, and_idx, (lparam, lmask), (rparam, rmask), or_idx = cell
    return (and_idx, lparam, lmask, rparam, rmask, or_idx)


def full_chart_parse(g: Grammar, x, mode: str = "viterbi"):
    """(score, tree, stats) of parsing x on the full chart, as parse reports
    them: build_table, then root_entries, then backtrack of the best root."""
    table = build_table(g, x, mode)
    roots = table.root_entries()
    score, tree = NEG_INF, None
    if mode == "marginal":
        for _, entry in roots:
            score = log_add(score, entry.score)
    elif roots:
        key, entry = max(roots, key=lambda kv: kv[1].score)
        score, tree = entry.score, backtrack(table, key)
    return score, tree, table.stats


def chart_fingerprint(table) -> str:
    """sha256 over every stored cell of a chart in insertion order, each as
    (size, node, param, mask, score.hex(), flat_back(...)): equal
    fingerprints mean the same cells, order, scores and derivations."""
    digest = hashlib.sha256()
    for size, stratum in enumerate(table.scores):
        for node, cells in stratum.items():
            for (param, mask), score in cells.items():
                back = flat_back(table, node, (param, mask))
                digest.update(repr((size, node, param, mask, score.hex(), back)).encode())
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


def packed(g: Grammar) -> Grammar:
    """g over a copy of its domain that declares no fold, so to_gcnf binarizes
    each wide rule through the tuple domain, as it did before folds."""
    return dataclasses.replace(g, domain=dataclasses.replace(g.domain, folds={}))


def calling_every_relation(g: Grammar, calls: list | None = None) -> Grammar:
    """g over a copy of its domain whose relation factories are wrapped, as
    bench/harness.py wraps them to count calls.  A wrapped factory carries no
    mark of a relation its join decides, so the parser calls every relation;
    each call appends its arguments to calls when a list is given."""

    def wrapped(factory):
        def make(config, arity):
            rel = factory(config, arity)

            def call(*params):
                if calls is not None:
                    calls.append(params)
                return rel(*params)

            return call

        return make

    relations = {key: wrapped(factory) for key, factory in g.domain.relations.items()}
    return dataclasses.replace(g, domain=dataclasses.replace(g.domain, relations=relations))


def over_intervals(g: Grammar) -> Grammar:
    """g over intervals, each And-rule as meets/hull, which declare no fold: on
    string_sample's spans it derives what g does with adjacent/concat, and its
    normal form packs each wide rule's children in the tuple domain."""
    meets, hull = RelationRef("meets"), FunctionRef("hull")
    rules = tuple(dataclasses.replace(r, relation=meets, function=hull) for r in g.and_rules)
    return dataclasses.replace(g, domain=interval_domain(), and_rules=rules)


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
    """Random complete and decomposable SPN over variables 1..n_vars: the
    benchmark's generator, built into engine nodes."""
    plain, root = bench_module("inputs").random_spn(rng, n_vars)
    kinds = {"ind": IndicatorNode, "sum": SumNode, "prod": ProductNode}
    return Spn({name: kinds[kind](*fields) for name, (kind, *fields) in plain.items()}, root)


def random_3sat(rng: random.Random) -> Cnf3Sat:
    """Random 3SAT instance: the benchmark's generator, as a Cnf3Sat.  Dense
    instances come often enough that a healthy share is unsatisfiable, and
    total literal occurrences are capped, because chart size grows with the
    ways clauses can be credited to literals."""
    return Cnf3Sat(*bench_module("inputs").random_3sat(rng))
