"""Stochastic context-free grammar frontend.

Reads a line-oriented rule listing, rewrites the grammar so every
nonterminal is either a choice between single symbols or a single
fixed sequence (the shape an And-Or grammar wants), and compiles that
onto the string-span domain: sequences become And-nodes constrained to
adjacent spans, choices become Or-nodes with the original rule
probabilities.

cyk and string_distribution are self-contained references used to check
the compiled grammar against the source one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .domains import FunctionRef, RelationRef, string_span_domain
from .errors import DepthExceeded, FormatError
from .grammar import (
    DataSample,
    Grammar,
    NodeKind,
    OrRule,
    AndRule,
    PROB_TOL,
    TerminalInstance,
    ValidationReport,
    fresh_name,
)

NEG_INF = float("-inf")


@dataclass(frozen=True)
class ScfgRule:
    head: str
    body: tuple[str, ...]
    prob: float


@dataclass(frozen=True)
class Scfg:
    start: str
    rules: tuple[ScfgRule, ...]

    @cached_property
    def heads(self) -> frozenset[str]:
        return frozenset(rule.head for rule in self.rules)

    @cached_property
    def terminals(self) -> frozenset[str]:
        return frozenset(
            sym for rule in self.rules for sym in rule.body if sym not in self.heads
        )

    @cached_property
    def rules_of(self) -> dict[str, tuple[ScfgRule, ...]]:
        grouped: dict[str, list[ScfgRule]] = {}
        for rule in self.rules:
            grouped.setdefault(rule.head, []).append(rule)
        return {head: tuple(rules) for head, rules in grouped.items()}


def parse_scfg(text: str) -> Scfg:
    """Parse lines of the form `HEAD -> sym sym ... [prob]`.

    `#` starts a comment, blank lines are skipped, and the first rule's
    head is the start symbol.  Empty bodies are rejected: the engine has
    no epsilon.
    """
    rules = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise FormatError(f"line {lineno}: expected `head -> body [prob]`")
        head, rest = line.split("->", 1)
        head = head.strip()
        rest = rest.strip()
        if not head or " " in head:
            raise FormatError(f"line {lineno}: bad head {head!r}")
        if not rest.endswith("]") or "[" not in rest:
            raise FormatError(f"line {lineno}: missing [prob]")
        body_text, prob_text = rest[:-1].rsplit("[", 1)
        try:
            prob = float(prob_text)
        except ValueError:
            raise FormatError(f"line {lineno}: bad probability {prob_text!r}") from None
        body = tuple(body_text.split())
        if not body:
            raise FormatError(f"line {lineno}: empty rule bodies are not supported")
        rules.append(ScfgRule(head, body, prob))
    if not rules:
        raise FormatError("no rules found")
    return Scfg(rules[0].head, tuple(rules))


def format_scfg(g: Scfg) -> str:
    lines = [f"{r.head} -> {' '.join(r.body)} [{r.prob!r}]" for r in g.rules]
    return "\n".join(lines) + "\n"


def validate_scfg(g: Scfg) -> ValidationReport:
    report = ValidationReport()
    if g.start not in g.heads:
        report.add("start", f"start symbol {g.start!r} has no rules")
    totals: dict[str, float] = {}
    for rule in g.rules:
        if not (rule.prob > 0.0) or rule.prob > 1.0 + PROB_TOL:
            report.add("prob", f"rule {rule.head} -> {' '.join(rule.body)} has prob {rule.prob}")
        totals[rule.head] = totals.get(rule.head, 0.0) + rule.prob
    for head in sorted(totals):
        if abs(totals[head] - 1.0) > PROB_TOL:
            report.add("sum", f"rules of {head!r} sum to {totals[head]!r}")
    return report


def _head_kind(rules: tuple[ScfgRule, ...]) -> NodeKind | None:
    """AND for a single fixed sequence, OR for a choice of single symbols,
    None for any other rules of one head."""
    if len(rules) == 1 and len(rules[0].body) >= 2:
        return NodeKind.AND
    if all(len(rule.body) == 1 for rule in rules):
        return NodeKind.OR
    return None


def is_and_or_form(g: Scfg) -> bool:
    """True when every head is either a single fixed sequence or a set of
    single-symbol alternatives."""
    return all(_head_kind(rules) is not None for rules in g.rules_of.values())


def and_or_form(g: Scfg) -> Scfg:
    """Split multi-symbol alternatives through fresh intermediate symbols.

    Each offending rule A -> s1 .. sn [p] becomes A -> B [p] plus
    B -> s1 .. sn [1.0].  Heads already in the target shape are left
    alone, so the rewrite is idempotent and preserves the string
    distribution rule-for-rule.
    """
    if is_and_or_form(g):
        return g
    taken = set(g.heads) | set(g.terminals)
    out: list[ScfgRule] = []
    for head, rules in g.rules_of.items():
        if _head_kind(rules) is not None:
            out.extend(rules)
            continue
        for idx, rule in enumerate(rules, 1):
            if len(rule.body) == 1:
                out.append(rule)
            else:
                name = fresh_name(f"{head}.{idx}", taken)
                out.append(ScfgRule(head, (name,), rule.prob))
                out.append(ScfgRule(name, rule.body, 1.0))
    return Scfg(g.start, tuple(out))


def scfg_to_aog(g: Scfg) -> Grammar:
    """Compile onto the string-span domain (adjacent children, concatenated spans)."""
    report = validate_scfg(g)
    if not report.ok:
        raise ValueError(f"invalid grammar:\n{report}")
    shaped = and_or_form(g)
    and_nodes: set[str] = set()
    or_nodes: set[str] = set()
    and_rules: list[AndRule] = []
    or_rules: list[OrRule] = []
    for head, rules in shaped.rules_of.items():
        if _head_kind(rules) is NodeKind.AND:
            and_nodes.add(head)
            and_rules.append(
                AndRule(head, rules[0].body, RelationRef("adjacent"), FunctionRef("concat"))
            )
        else:
            or_nodes.add(head)
            for rule in rules:
                or_rules.append(OrRule(head, rule.body[0], rule.prob))
    return Grammar(
        domain=string_span_domain(),
        terminals=shaped.terminals,
        and_nodes=frozenset(and_nodes),
        or_nodes=frozenset(or_nodes),
        start=shaped.start,
        and_rules=tuple(and_rules),
        or_rules=tuple(or_rules),
    )


def string_sample(tokens) -> DataSample:
    """Sample for the string-span domain: token i occupies span (i, i+1)."""
    return DataSample(
        tuple(
            TerminalInstance(f"w{i}", tok, (i, i + 1)) for i, tok in enumerate(tokens)
        )
    )


# ------------------------------------------------------------------- references


def cyk(g: Scfg, tokens, mode: str = "viterbi") -> float:
    """Chart parse a binary-normal-form grammar directly; returns log prob.

    Rules must be A -> terminal or A -> B C with B, C nonterminals.
    Serves as an independent check of the compiled grammar's parser scores,
    so it shares no code with parsing.build_table.  A span (i, j) tries, per
    rule A -> B C, the split points k of the shorter index: B-spans (i, k)
    or C-spans (k, j).
    """
    if mode not in ("viterbi", "marginal"):
        raise ValueError(f"unknown mode {mode!r}")
    lexical: dict[str, list[tuple[str, float]]] = {}
    binary: list[tuple[str, str, str, float]] = []
    for rule in g.rules:
        if len(rule.body) == 1 and rule.body[0] not in g.heads:
            lexical.setdefault(rule.body[0], []).append((rule.head, math.log(rule.prob)))
        elif len(rule.body) == 2 and all(s in g.heads for s in rule.body):
            binary.append((rule.head, rule.body[0], rule.body[1], math.log(rule.prob)))
        else:
            raise ValueError(f"rule {rule.head} -> {' '.join(rule.body)} is not binary normal form")
    n = len(tokens)
    if n == 0:
        raise ValueError("empty token list")
    chart: dict[tuple[int, int], dict[str, float]] = {}
    # (start, nonterminal) -> ends, (end, nonterminal) -> starts of its spans
    ends_from: dict[tuple[int, str], list[int]] = {}
    starts_to: dict[tuple[int, str], list[int]] = {}

    def fold(cell: dict[str, float], head: str, score: float) -> None:
        cur = cell.get(head)
        if cur is None:
            cell[head] = score
        elif mode == "viterbi":
            cell[head] = max(cur, score)
        else:
            big, small = (cur, score) if cur >= score else (score, cur)
            cell[head] = big + math.log1p(math.exp(small - big))

    for length in range(1, n + 1):
        for i in range(0, n - length + 1):
            j = i + length
            cell: dict[str, float] = {}
            if length == 1:
                for head, logp in lexical.get(tokens[i], ()):
                    fold(cell, head, logp)
            for head, b, c, logp in binary:
                lefts = ends_from.get((i, b), ())
                rights = starts_to.get((j, c), ())
                for k in lefts if len(lefts) <= len(rights) else rights:
                    left = chart[(i, k)].get(b)
                    right = chart[(k, j)].get(c)
                    if left is not None and right is not None:
                        fold(cell, head, logp + left + right)
            chart[(i, j)] = cell
            for head in cell:
                ends_from.setdefault((i, head), []).append(j)
                starts_to.setdefault((j, head), []).append(i)
    return chart[(0, n)].get(g.start, NEG_INF)


def string_distribution(g: Scfg, max_len: int, max_steps: int = 200_000) -> dict[tuple, float]:
    """Exact probability of every derivable string up to max_len tokens.

    Expands sentential forms leftmost-first, pruning forms that are already
    longer than max_len (sound because rules never shrink).  Raises
    DepthExceeded if expansion does not settle within max_steps, which
    catches unary cycles.
    """
    out: dict[tuple, float] = {}
    stack: list[tuple[tuple[str, ...], float]] = [((g.start,), 1.0)]
    steps = 0
    while stack:
        symbols, prob = stack.pop()
        steps += 1
        if steps > max_steps:
            raise DepthExceeded(f"string enumeration did not settle in {max_steps} steps")
        for i, sym in enumerate(symbols):
            if sym in g.heads:
                for rule in g.rules_of[sym]:
                    new = symbols[:i] + rule.body + symbols[i + 1 :]
                    if len(new) <= max_len:
                        stack.append((new, prob * rule.prob))
                break
        else:
            out[symbols] = out.get(symbols, 0.0) + prob
    return out
