"""Sum-product network frontend.

Accepts complete, decomposable SPNs over binary variables and compiles
them onto the null parameter domain: product nodes become And-nodes,
sum nodes become Or-nodes, indicator leaves become shared terminals
(one per variable and polarity).  Sum weights need not be normalized;
each Or-rule gets weight * child-mass / node-mass, so the compiled
grammar's distribution equals the network's distribution after dividing
by its partition constant, which is returned alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Union

from .domains import FunctionRef, RelationRef, null_domain
from .errors import FormatError, InvalidSpn
from .grammar import (
    AndRule,
    DataSample,
    Grammar,
    OrRule,
    TerminalInstance,
    ValidationReport,
    fresh_name,
    postorder,
)


@dataclass(frozen=True)
class SumNode:
    children: tuple[str, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class ProductNode:
    children: tuple[str, ...]


@dataclass(frozen=True)
class IndicatorNode:
    var: int
    positive: bool


SpnNode = Union[SumNode, ProductNode, IndicatorNode]


@dataclass
class Spn:
    nodes: dict[str, SpnNode]
    root: str

    @cached_property
    def variables(self) -> tuple[int, ...]:
        return tuple(
            sorted({n.var for n in self.nodes.values() if isinstance(n, IndicatorNode)})
        )


def parse_spn_listing(text: str) -> Spn:
    """Parse lines `id ind var +|-`, `id sum child w ...`, `id prod child ...`.

    The root is the unique node no other node references.
    """
    nodes: dict[str, SpnNode] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 3:
            raise FormatError(f"line {lineno}: too few fields")
        name, kind, rest = parts[0], parts[1], parts[2:]
        if name in nodes:
            raise FormatError(f"line {lineno}: duplicate node {name!r}")
        if kind == "ind":
            if len(rest) != 2 or rest[1] not in ("+", "-"):
                raise FormatError(f"line {lineno}: expected `ind var +|-`")
            try:
                var = int(rest[0])
            except ValueError:
                raise FormatError(f"line {lineno}: bad variable {rest[0]!r}") from None
            nodes[name] = IndicatorNode(var, rest[1] == "+")
        elif kind == "sum":
            if len(rest) % 2 != 0:
                raise FormatError(f"line {lineno}: sum needs child/weight pairs")
            children = tuple(rest[0::2])
            try:
                weights = tuple(float(w) for w in rest[1::2])
            except ValueError:
                raise FormatError(f"line {lineno}: bad weight") from None
            nodes[name] = SumNode(children, weights)
        elif kind == "prod":
            nodes[name] = ProductNode(tuple(rest))
        else:
            raise FormatError(f"line {lineno}: unknown node kind {kind!r}")
    if not nodes:
        raise FormatError("no nodes found")
    referenced = {
        child
        for node in nodes.values()
        if isinstance(node, (SumNode, ProductNode))
        for child in node.children
    }
    roots = [name for name in nodes if name not in referenced]
    if len(roots) != 1:
        raise FormatError(f"expected exactly one root, found {sorted(roots)}")
    return Spn(nodes, roots[0])


def format_spn_listing(s: Spn) -> str:
    lines = []
    for name, node in s.nodes.items():
        if isinstance(node, IndicatorNode):
            lines.append(f"{name} ind {node.var} {'+' if node.positive else '-'}")
        elif isinstance(node, SumNode):
            pairs = " ".join(f"{c} {w!r}" for c, w in zip(node.children, node.weights))
            lines.append(f"{name} sum {pairs}")
        else:
            lines.append(f"{name} prod {' '.join(node.children)}")
    return "\n".join(lines) + "\n"


def _children(node: SpnNode) -> tuple[str, ...]:
    return () if isinstance(node, IndicatorNode) else node.children


def spn_scopes(s: Spn) -> dict[str, frozenset[int]]:
    """Variable scope of every node, keyed in post-order from the root on (the keys
    up to the root are the nodes it reaches); raises InvalidSpn on cycles or misses."""

    def children(name: str) -> tuple[str, ...]:
        node = s.nodes.get(name)
        if node is None:
            raise InvalidSpn(f"undefined node {name!r}")
        return _children(node)

    try:
        order = postorder([s.root, *s.nodes], children)
    except ValueError as exc:
        raise InvalidSpn(f"cycle through node {exc.args[0]!r}") from None
    scopes: dict[str, frozenset[int]] = {}
    for name in order:
        node = s.nodes[name]
        if isinstance(node, IndicatorNode):
            scopes[name] = frozenset((node.var,))
        else:
            scopes[name] = frozenset().union(*(scopes[child] for child in node.children))
    return scopes


def validate_spn(s: Spn) -> ValidationReport:
    """Check structure, completeness of sums, decomposability of products."""
    return _validated_scopes(s)[0]


def _validated_scopes(s: Spn) -> tuple[ValidationReport, dict[str, frozenset[int]]]:
    report = ValidationReport()
    try:
        scopes = spn_scopes(s)
    except InvalidSpn as exc:
        report.add("structure", str(exc))
        return report, {}
    for name, node in s.nodes.items():
        if isinstance(node, IndicatorNode):
            continue
        if not node.children:
            report.add("children", f"node {name!r} has no children")
            continue
        if isinstance(node, SumNode):
            if len(node.children) != len(node.weights):
                report.add("weights", f"sum {name!r} weight count mismatch")
                continue
            if any(not 0.0 < w < math.inf for w in node.weights):
                report.add("weights", f"sum {name!r} has a weight that is not positive and finite")
            first = scopes[node.children[0]]
            for child in node.children[1:]:
                if scopes[child] != first:
                    report.add("complete", f"sum {name!r} children differ in scope")
                    break
        else:
            seen: set[int] = set()
            for child in node.children:
                if scopes[child] & seen:
                    report.add("decomposable", f"product {name!r} children share scope")
                    break
                seen |= scopes[child]
    return report, scopes


def _network_value(s: Spn, indicator: Callable[[IndicatorNode], float]) -> float:
    """Value of the network bottom-up, each indicator leaf valued by `indicator`."""
    values: dict[str, float] = {}
    for name in postorder([s.root], lambda name: _children(s.nodes[name])):
        node = s.nodes[name]
        if isinstance(node, IndicatorNode):
            out = indicator(node)
        elif isinstance(node, SumNode):
            out = sum(w * values[c] for c, w in zip(node.children, node.weights))
        else:
            out = 1.0
            for child in node.children:
                out *= values[child]
        values[name] = out
    return values[s.root]


def evaluate(s: Spn, assignment: Mapping[int, int]) -> float:
    """Value of the network on a complete assignment (linear scale)."""

    def indicator(node: IndicatorNode) -> float:
        bit = assignment.get(node.var)
        if bit is None:
            raise ValueError(f"assignment misses variable {node.var}")
        return 1.0 if bool(bit) == node.positive else 0.0

    return _network_value(s, indicator)


def partition(s: Spn) -> float:
    """Network mass: every indicator clamped to 1."""
    return _network_value(s, lambda node: 1.0)


@dataclass
class SpnAog:
    grammar: Grammar
    partition: float
    # (variable, bit) -> terminal name
    literals: dict[tuple[int, int], str] = field(default_factory=dict)


def spn_to_aog(s: Spn) -> SpnAog:
    """Compile a complete, decomposable SPN to a grammar on the null domain.
    Raises InvalidSpn on an invalid network and when the mass of a node the
    root reaches underflows to 0 or overflows, leaving no Or-rule probability."""
    report, scopes = _validated_scopes(s)
    if not report.ok:
        raise InvalidSpn(str(report))

    taken = set(s.nodes)
    literals: dict[tuple[int, int], str] = {}
    for var in sorted(scopes[s.root]):
        literals[(var, 1)] = fresh_name(f"x{var}", taken)
        literals[(var, 0)] = fresh_name(f"x{var}_neg", taken)

    # each node's mass, and the grammar node it compiles to, contracting
    # single-child products; nodes the root does not reach are left out
    masses: dict[str, float] = {}
    mapped: dict[str, str] = {}
    order = list(scopes)
    for name in order[: order.index(s.root) + 1]:
        node = s.nodes[name]
        if isinstance(node, IndicatorNode):
            masses[name] = 1.0
            mapped[name] = literals[(node.var, 1 if node.positive else 0)]
        elif isinstance(node, SumNode):
            masses[name] = sum(w * masses[c] for c, w in zip(node.children, node.weights))
            mapped[name] = name
        else:
            out = 1.0
            for child in node.children:
                out *= masses[child]
            masses[name] = out
            mapped[name] = mapped[node.children[0]] if len(node.children) == 1 else name
        if not 0.0 < masses[name] < math.inf:
            raise InvalidSpn(f"node {name!r} has mass {masses[name]}, outside float range")

    and_rules: list[AndRule] = []
    or_rules: list[OrRule] = []
    for name, node in s.nodes.items():
        if mapped.get(name) != name:
            continue
        if isinstance(node, SumNode):
            merged: dict[str, float] = {}
            for child, weight in zip(node.children, node.weights):
                prob = weight * masses[child] / masses[name]
                child_node = mapped[child]
                merged[child_node] = merged.get(child_node, 0.0) + prob
            for child_node, prob in merged.items():
                or_rules.append(OrRule(name, child_node, prob))
        elif isinstance(node, ProductNode):
            and_rules.append(
                AndRule(
                    name,
                    tuple(mapped[c] for c in node.children),
                    RelationRef("true"),
                    FunctionRef("null"),
                )
            )

    start = mapped[s.root]
    if start in literals.values():
        wrapper = fresh_name("S", taken)  # taken holds the literal names too
        or_rules.append(OrRule(wrapper, start, 1.0))
        start = wrapper

    grammar = Grammar.from_rules(null_domain(), literals.values(), start, and_rules, or_rules)
    return SpnAog(grammar, masses[s.root], literals)


def assignment_sample(conv: SpnAog, assignment: Mapping[int, int]) -> DataSample:
    """One terminal instance per variable, per the assignment's polarity."""
    instances = []
    for var, bit in sorted(assignment.items()):
        terminal = conv.literals.get((var, 1 if bit else 0))
        if terminal is None:
            raise ValueError(f"variable {var} is not part of the compiled network")
        instances.append(TerminalInstance(f"v{var}", terminal, None))
    return DataSample(tuple(instances))
