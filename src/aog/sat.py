"""3SAT frontend.

A formula becomes a grammar over the null domain whose language, on the
sample carrying one marker instance per clause, is non-empty exactly
when the formula is satisfiable: each variable is an Or-node choosing a
polarity, each chosen literal is an And-node over the clauses it
appears in, and each clause gate chooses between emitting the clause
marker and staying silent.

The silent option is an empty derivation, which the grammar model
itself cannot express, so construction happens on an internal
representation that allows empty children and is then conditioned on
producing at least one marker: every node's rules are reweighted by its
children's non-empty mass, and binary And-nodes with nullable children
become choices between both-children, left-only and right-only
variants.  The rewrite preserves the set of non-empty derivations, so
parse existence is untouched; derivation scores are those of the
conditioned grammar.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .domains import FunctionRef, RelationRef, null_domain
from .errors import FormatError, UnsupportedGrammar
from .grammar import AndRule, DataSample, Grammar, OrRule, TerminalInstance

_EPS = "#eps"


@dataclass
class Cnf3Sat:
    """CNF with at most 3 distinct literals per clause; variables are 1..n_vars."""

    n_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n_vars < 1:
            raise ValueError("need at least one variable")
        normalized = []
        for idx, clause in enumerate(self.clauses, 1):
            for lit in clause:
                if not isinstance(lit, int) or lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"clause {idx}: bad literal {lit!r}")
            distinct = tuple(sorted(set(clause), key=lambda l: (abs(l), l < 0)))
            if len(distinct) > 3:
                raise ValueError(f"clause {idx} has {len(distinct)} distinct literals")
            normalized.append(distinct)
        self.clauses = tuple(normalized)


def parse_dimacs(text: str) -> Cnf3Sat:
    """Read DIMACS CNF; clauses may span lines and end at 0, and a "%" line ends the file."""
    n_vars = None
    declared = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("%"):  # SATLIB's end marker, followed by a stray "0"
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf" or n_vars is not None:
                raise FormatError(f"line {lineno}: bad problem line")
            try:
                n_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(f"line {lineno}: bad problem line") from None
            continue
        if n_vars is None:
            raise FormatError(f"line {lineno}: clause before problem line")
        try:
            tokens.extend(int(tok) for tok in line.split())
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer token") from None
    if n_vars is None:
        raise FormatError("missing problem line")
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(tok)
    if current:
        raise FormatError("last clause is not terminated by 0")
    if len(clauses) != declared:
        raise FormatError(f"declared {declared} clauses, found {len(clauses)}")
    try:
        return Cnf3Sat(n_vars, tuple(clauses))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_dimacs(f: Cnf3Sat) -> str:
    lines = [f"p cnf {f.n_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def assignment_satisfies(f: Cnf3Sat, assignment: dict[int, bool]) -> bool:
    return all(
        any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in f.clauses
    )


def brute_force_satisfiable(f: Cnf3Sat) -> bool:
    """Truth-table check; the reference the conversion is tested against."""
    variables = list(range(1, f.n_vars + 1))
    for bits in itertools.product((False, True), repeat=f.n_vars):
        if assignment_satisfies(f, dict(zip(variables, bits))):
            return True
    return False


def sat_to_aog(f: Cnf3Sat) -> tuple[Grammar, DataSample]:
    """Compile a formula; the returned sample has one instance per clause.

    The sample parses under the grammar iff the formula is satisfiable.
    """
    if not f.clauses:
        raise ValueError("formula has no clauses")
    k = len(f.clauses)

    # every node once, in creation order: its children, its Or-edge
    # probabilities (None for an And-node) and the chance it derives nothing,
    # known when it is made because its children are made before it
    table: dict[str, tuple[list[str], list[float] | None, float]] = {_EPS: ([], None, 1.0)}

    def make(node: str, children: list[str], probs: list[float] | None = None) -> str:
        if probs is None:
            eps = 1.0
            for child in children:
                eps *= table[child][2]
        else:
            eps = sum(p * table[child][2] for child, p in zip(children, probs))
        table[node] = children, probs, eps
        return node

    for j in range(1, k + 1):
        table[f"c{j}"] = [], None, 0.0
    for j in range(1, k + 1):
        make(f"b{j}", [f"c{j}", _EPS], [0.5, 0.5])
    occurs: dict[int, list[int]] = {}
    for j, clause in enumerate(f.clauses, 1):
        for lit in clause:
            occurs.setdefault(lit, []).append(j)
    for i in range(1, f.n_vars + 1):
        for suffix, lit in (("+", i), ("-", -i)):
            make(f"v{i}{suffix}", [f"b{j}" for j in occurs.get(lit, [])])
        make(f"v{i}", [f"v{i}+", f"v{i}-"], [0.5, 0.5])
    make("S", [f"v{i}" for i in range(1, f.n_vars + 1)])

    # binarize before eliminating silence, to keep the rewrite polynomial;
    # a head keeps its mass, the product its chain takes in the same order
    for head, (children, probs, eps) in list(table.items()):
        if probs is None and len(children) > 2:
            prev = children[0]
            for m, child in enumerate(children[1:-1], 1):
                prev = make(f"{head}#b{m}", [prev, child])
            table[head] = [prev, children[-1]], None, eps

    def live(node: str) -> bool:
        return table[node][2] < 1.0

    if not live("S"):
        raise UnsupportedGrammar("no clause marker can ever be produced")

    true_rel = RelationRef("true")
    null_fn = FunctionRef("null")
    terminals = frozenset(f"c{j}" for j in range(1, k + 1))
    and_rules: list[AndRule] = []
    or_rules: list[OrRule] = []

    for node, (children, probs, eps) in table.items():
        if not children or not live(node):  # leaves, and nodes that only stay silent
            continue
        if probs is not None:
            for child, p in zip(children, probs):
                if live(child):
                    or_rules.append(OrRule(node, child, p * (1 - table[child][2]) / (1 - eps)))
            continue
        if len(children) == 1:
            or_rules.append(OrRule(node, children[0], 1.0))
            continue
        left, right = children
        eps_left, eps_right = table[left][2], table[right][2]
        # one side may stay silent: condition on at least one speaking
        denom = 1.0 - eps_left * eps_right
        both = (1.0 - eps_left) * (1.0 - eps_right) / denom
        left_only = (1.0 - eps_left) * eps_right / denom
        right_only = eps_left * (1.0 - eps_right) / denom
        if both > 0.0:
            pair = f"{node}#pair"
            and_rules.append(AndRule(pair, (left, right), true_rel, null_fn))
            or_rules.append(OrRule(node, pair, both))
        if left_only > 0.0:
            or_rules.append(OrRule(node, left, left_only))
        if right_only > 0.0:
            or_rules.append(OrRule(node, right, right_only))

    grammar = Grammar.from_rules(null_domain(), terminals, "S", and_rules, or_rules)
    sample = DataSample(
        tuple(TerminalInstance(f"i{j}", f"c{j}", None) for j in range(1, k + 1))
    )
    return grammar, sample
