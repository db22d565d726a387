"""Render a grammar as probabilistic-logic text.

Two dialects: a first-order theory in which And-rules become
part-decomposition implications with an uninterpreted parameter-relation
atom and Or-rules become weighted implications plus mutual-exclusion
and coverage constraints, and a stochastic logic program in which
And-rules become clauses threading yield lists and parameters through
domain-defined predicates.  Both emitters are deterministic: nodes are
ordered by name, names are sanitized stably, and numbers are rendered
with repr.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .grammar import Grammar, fresh_name

_IDENT = re.compile(r"[^0-9a-zA-Z]+")


@dataclass(frozen=True)
class LogicDocument:
    dialect: str
    lines: tuple[str, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def clause_lines(self) -> list[str]:
        comment = "#" if self.dialect == "fol" else "%"
        return [l for l in self.lines if l and not l.startswith(comment)]


def _symbol_table(g: Grammar) -> dict[str, str]:
    table: dict[str, str] = {}
    used: set[str] = set()
    # terminals first: a yield token keeps its own name, a clashing node is numbered
    for name in [*sorted(g.terminals), *sorted(g.and_nodes | g.or_nodes)]:
        base = _IDENT.sub("_", name).strip("_").lower() or "n"
        # digits cannot lead a predicate, and the export's own names are taken
        if base[0].isdigit() or base in ("append", "theta") or base.startswith(("r_", "part_")):
            base = "n" + base
        table[name] = fresh_name(base, used)
    return table


def _config_note(g: Grammar, head: str) -> str:
    rule = g.and_rule_of[head]
    rel_cfg = json.dumps(rule.relation.config, sort_keys=True)
    fn_cfg = json.dumps(rule.function.config, sort_keys=True)
    return (
        f"domain {g.domain.name!r}, relation {rule.relation.key!r} {rel_cfg}, "
        f"function {rule.function.key!r} {fn_cfg}"
    )


def emit_fol(g: Grammar) -> LogicDocument:
    """First-order rendering with weighted Or implications.

    Each And-rule asserts the existence of one part per child, linked by
    part_i_<head> relations, with r_theta_<head> constraining the parameter
    terms.  Each Or-node gets one weighted implication per rule, pairwise
    not-both constraints, and one coverage disjunction.
    """
    sym = _symbol_table(g)
    lines = [
        f"# first-order theory of an and-or grammar over the {g.domain.name!r} domain",
        f"# start symbol: {sym[g.start]}",
        "# assumed but not emitted: a unique root object satisfies the start",
        "# predicate, part links are injective per level, and parameter terms",
        "# obey the domain interpretation referenced in the r_theta comments",
        "",
    ]

    and_heads = sorted(g.and_nodes)
    if and_heads:
        lines.append("# composition axioms")
    for head in and_heads:
        rule = g.and_rule_of[head]
        h = sym[head]
        ys = [f"y{i}" for i in range(1, len(rule.children) + 1)]
        parts = []
        for i, (child, y) in enumerate(zip(rule.children, ys), 1):
            parts.append(f"({sym[child]}({y}) & part_{i}_{h}(x, {y}))")
        theta_args = ", ".join(["theta(x)"] + [f"theta({y})" for y in ys])
        body = " & ".join(parts + [f"r_theta_{h}({theta_args})"])
        lines.append(f"forall x: {h}(x) -> exists {', '.join(ys)}: {body}")
        lines.append(f"# r_theta_{h}: {_config_note(g, head)}")
    if and_heads:
        lines.append("")

    or_heads = sorted(g.or_nodes)
    if or_heads:
        lines.append("# choice axioms")
    for head in or_heads:
        h = sym[head]
        rules = g.or_rules_of.get(head, ())
        for rule in rules:
            lines.append(f"forall x: {h}(x) -> {sym[rule.child]}(x) : {rule.prob!r}")
        children = [sym[rule.child] for rule in rules]
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                lines.append(
                    f"forall x: {h}(x) -> ~({children[i]}(x) & {children[j]}(x))"
                )
        lines.append(f"forall x: {h}(x) -> {' v '.join(f'{c}(x)' for c in children)}")
    return LogicDocument("fol", tuple(lines))


def emit_slp(g: Grammar) -> LogicDocument:
    """Stochastic-logic-program rendering.

    Nonterminal predicates carry (Yield, Param); And clauses concatenate
    child yields and delegate parameter composition to domain-defined
    predicates, which are listed as stubs in trailing comments.  A
    terminal child of an And-rule gets the fact `1.0: t([t], [_]).`
    (`[null]` on the null domain), so every goal is defined.
    """
    sym = _symbol_table(g)
    lines = [
        f"% stochastic logic program of an and-or grammar over the {g.domain.name!r} domain",
        "",
    ]

    and_heads = sorted(g.and_nodes)
    for head in and_heads:
        rule = g.and_rule_of[head]
        h = sym[head]
        n = len(rule.children)
        goals = [
            f"{sym[child]}(X{i}, P{i})"
            for i, child in enumerate(rule.children, start=1)
        ]
        goals.append(f"append([{', '.join(f'X{i}' for i in range(1, n + 1))}], X)")
        goals.extend(f"r_{i}_{h}(X, X{i})" for i in range(1, n + 1))
        goals.append(f"r_theta_{h}(P, {', '.join(f'P{i}' for i in range(1, n + 1))})")
        lines.append(f"1.0: {h}(X, P) :- {', '.join(goals)}.")

    param_term = "[null]" if g.domain.name == "null" else "[_]"
    for head in sorted(g.or_nodes):
        h = sym[head]
        for rule in g.or_rules_of.get(head, ()):
            if rule.child in g.terminals:
                lines.append(f"{rule.prob!r}: {h}([{sym[rule.child]}], {param_term}).")
            else:
                lines.append(f"{rule.prob!r}: {h}(X, P) :- {sym[rule.child]}(X, P).")
    leaves = {child for rule in g.and_rules for child in rule.children if child in g.terminals}
    lines.extend(f"1.0: {sym[t]}([{sym[t]}], {param_term})." for t in sorted(leaves))

    lines.append("")
    lines.append(f":- {sym[g.start]}(X, P).")
    if and_heads:
        lines.append("")
        lines.append("% domain-defined predicate stubs:")
        for head in and_heads:
            rule = g.and_rule_of[head]
            h = sym[head]
            n = len(rule.children)
            for i in range(1, n + 1):
                lines.append(f"%   r_{i}_{h}/2: part link {i} of {h}")
            lines.append(f"%   r_theta_{h}/{n + 1}: {_config_note(g, head)}")
    return LogicDocument("slp", tuple(lines))
