"""Core And-Or grammar representation.

A grammar is a set of terminal and nonterminal nodes over a parameter
domain.  Every And-node has exactly one And-rule naming an ordered child
list, a relation constraining the children's parameters, and a function
computing the parent parameter from them.  Or-nodes carry probability-
weighted unary rules whose probabilities sum to one.  Data samples are
sets of parameterized terminal instances; parse trees tie instances back
to a derivation.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from .domains import DomainBinding, FunctionRef, ParamTuple, RelationRef
from .errors import AogError, DepthExceeded, DomainError, InvalidTree

if TYPE_CHECKING:
    from .parsing import CompiledGrammar

PROB_TOL = 1e-9


class NodeKind(enum.Enum):
    TERMINAL = "terminal"
    AND = "and"
    OR = "or"


_TERMINAL, _AND, _OR = NodeKind.TERMINAL, NodeKind.AND, NodeKind.OR  # an Enum read is slow


def _differs(param: Any, other: Any) -> bool:
    """param != other, where a ParamTuple also differs from the plain tuple it equals."""
    return param != other or isinstance(param, ParamTuple) is not isinstance(other, ParamTuple)


@dataclass(frozen=True)
class AndRule:
    """head -> ordered children, constrained by relation, parameterized by function."""

    head: str
    children: tuple[str, ...]
    relation: RelationRef
    function: FunctionRef


@dataclass(frozen=True)
class OrRule:
    """head -> child with selection probability (linear, not log)."""

    head: str
    child: str
    prob: float


@dataclass(frozen=True)
class Grammar:
    domain: DomainBinding
    terminals: frozenset[str]
    and_nodes: frozenset[str]
    or_nodes: frozenset[str]
    start: str
    and_rules: tuple[AndRule, ...]
    or_rules: tuple[OrRule, ...]

    @classmethod
    def from_rules(
        cls,
        domain: DomainBinding,
        terminals: Iterable[str],
        start: str,
        and_rules: Iterable[AndRule],
        or_rules: Iterable[OrRule],
    ) -> Grammar:
        """The grammar whose And-nodes and Or-nodes are the heads of its rules,
        as in every valid grammar; the frontends and to_gcnf build with it."""
        and_rules, or_rules = tuple(and_rules), tuple(or_rules)
        and_nodes = frozenset(rule.head for rule in and_rules)
        or_nodes = frozenset(rule.head for rule in or_rules)
        return cls(domain, frozenset(terminals), and_nodes, or_nodes, start, and_rules, or_rules)

    def kind(self, node: str) -> NodeKind:
        if node in self.terminals:
            return _TERMINAL
        if node in self.and_nodes:
            return _AND
        if node in self.or_nodes:
            return _OR
        raise KeyError(node)

    @cached_property
    def and_rule_of(self) -> dict[str, AndRule]:
        out: dict[str, AndRule] = {}
        for rule in self.and_rules:
            out.setdefault(rule.head, rule)
        return out

    @cached_property
    def or_rules_of(self) -> dict[str, tuple[OrRule, ...]]:
        """Or-rules grouped by head, in authoring order."""
        grouped: dict[str, list[OrRule]] = {}
        for rule in self.or_rules:
            grouped.setdefault(rule.head, []).append(rule)
        return {head: tuple(rules) for head, rules in grouped.items()}

    @cached_property
    def compiled(self) -> CompiledGrammar:
        """The parser's compiled form of this normal-form grammar, built on
        first use and shared by every parse; see parsing.compile_grammar."""
        from .parsing import compile_grammar  # parsing imports this module

        return compile_grammar(self)


def postorder(roots: Iterable[str], children: Callable[[str], Iterable[str]]) -> list[str]:
    """Every node reachable from roots, once each, children before parents.

    A depth-first walk without recursion: roots in the given order, each
    node's children in the order `children(node)` gives them, so nodes come
    out in the order a memoized recursive walk would finish them.  A cycle
    raises ValueError whose args are its path, from the node met again
    through to that node repeated.
    """
    finished: dict[str, bool] = {}  # False while the node is on the current path
    order: list[str] = []
    for root in roots:
        if root in finished:
            continue
        finished[root] = False
        path, todo = [root], [iter(children(root))]
        while todo:
            for child in todo[-1]:
                if child not in finished:
                    finished[child] = False
                    path.append(child)
                    todo.append(iter(children(child)))
                    break
                if not finished[child]:
                    raise ValueError(*path[path.index(child) :], child)
            else:
                todo.pop()
                order.append(path.pop())
                finished[order[-1]] = True
    return order


def fresh_name(base: str, taken: set[str]) -> str:
    """The first of base, base2, base3, ... not in taken, which it joins."""
    name = base
    bump = 2
    while name in taken:
        name = f"{base}{bump}"
        bump += 1
    taken.add(name)
    return name


@dataclass(frozen=True)
class TerminalInstance:
    """One parameterized occurrence of a terminal in a data sample."""

    instance_id: str
    terminal: str
    param: Any


@dataclass(frozen=True)
class DataSample:
    """A set of terminal instances; instance ids must be unique."""

    instances: tuple[TerminalInstance, ...]

    def __post_init__(self) -> None:
        ids = [inst.instance_id for inst in self.instances]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate instance ids in sample")

    def __len__(self) -> int:
        return len(self.instances)

    @cached_property
    def ids(self) -> frozenset[str]:
        return frozenset(inst.instance_id for inst in self.instances)


@dataclass
class TreeNode:
    node: str
    param: Any
    children: tuple["TreeNode", ...] = ()
    instance: str | None = None  # set on terminal leaves only

    def walk(self) -> Iterator["TreeNode"]:
        """Every node of the subtree in pre-order: a node before its
        children, children left to right.  Iterative, so the depth of the
        tree is not bounded by the recursion limit."""
        todo = [self]
        while todo:
            node = todo.pop()
            yield node
            todo.extend(reversed(node.children))

    def postorder(self) -> list["TreeNode"]:
        """Every node of the subtree after its children, children left to
        right: the order a recursive fold finishes them.  Iterative, like walk."""
        order, todo = [], [self]
        while todo:  # pre-order taking children right to left, then reversed
            node = todo.pop()
            order.append(node)
            todo.extend(node.children)
        order.reverse()
        return order


@dataclass
class ParseTree:
    root: TreeNode
    log_prob: float

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.root.walk() if not n.children]


@dataclass(frozen=True)
class Issue:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass
class ValidationReport:
    issues: list[Issue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, code: str, message: str) -> None:
        self.issues.append(Issue(code, message))

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(issue) for issue in self.issues)


def validate_grammar(g: Grammar) -> ValidationReport:
    """Structural validation; every defect is reported, nothing raises."""
    report = ValidationReport()
    names = [g.terminals, g.and_nodes, g.or_nodes]
    for i, left in enumerate(names):
        for right in names[i + 1 :]:
            for node in sorted(left & right):
                report.add("node-overlap", f"node {node!r} declared with two kinds")
    known = g.terminals | g.and_nodes | g.or_nodes
    if g.start not in known:
        report.add("start-missing", f"start node {g.start!r} is not declared")
    elif g.start in g.terminals:
        report.add("start-terminal", f"start node {g.start!r} is a terminal")

    seen_and_heads: set[str] = set()
    for rule in g.and_rules:
        if rule.head not in g.and_nodes:
            report.add("and-head", f"And-rule head {rule.head!r} is not an And-node")
        if rule.head in seen_and_heads:
            report.add("and-multiple", f"And-node {rule.head!r} has more than one rule")
        seen_and_heads.add(rule.head)
        if len(rule.children) < 2:
            report.add("and-arity", f"And-rule for {rule.head!r} needs at least 2 children")
        for child in rule.children:
            if child not in known:
                report.add("and-child", f"And-rule for {rule.head!r} uses unknown node {child!r}")
        try:
            g.domain.relation(rule.relation, len(rule.children))
            g.domain.function(rule.function, len(rule.children))
        except AogError as exc:
            report.add("and-binding", f"And-rule for {rule.head!r}: {exc}")
    for node in sorted(g.and_nodes - seen_and_heads):
        report.add("and-missing", f"And-node {node!r} has no rule")

    totals: dict[str, float] = {}
    seen_edges: set[tuple[str, str]] = set()
    for rule in g.or_rules:
        if rule.head not in g.or_nodes:
            report.add("or-head", f"Or-rule head {rule.head!r} is not an Or-node")
        if rule.child not in known:
            report.add("or-child", f"Or-rule for {rule.head!r} uses unknown node {rule.child!r}")
        if not (rule.prob > 0.0) or rule.prob > 1.0 + PROB_TOL:
            report.add("or-prob", f"Or-rule {rule.head!r} -> {rule.child!r} has prob {rule.prob}")
        if (rule.head, rule.child) in seen_edges:
            report.add("or-duplicate", f"duplicate Or-rule {rule.head!r} -> {rule.child!r}")
        seen_edges.add((rule.head, rule.child))
        totals[rule.head] = totals.get(rule.head, 0.0) + rule.prob
    for node in sorted(g.or_nodes):
        total = totals.get(node)
        if total is None:
            report.add("or-missing", f"Or-node {node!r} has no rules")
        elif abs(total - 1.0) > PROB_TOL:
            report.add("or-sum", f"Or-node {node!r} rules sum to {total!r}, not 1")
    return report


# --------------------------------------------------------------------- sampling


def sample(
    g: Grammar,
    seed: int,
    max_depth: int = 64,
    root_param: Any | None = None,
) -> tuple[ParseTree, DataSample]:
    """Draw one derivation from the grammar's distribution.

    One pre-order pass picks each Or-rule by cumulative probability in
    authoring order and numbers the leaves t0, t1, ... left to right.  A
    domain with leaf_param pins the leaves and folds parameters upward in
    one post-order pass after, and refuses a root_param with DomainError
    before drawing; any other domain splits root_param (or its
    root_default) at each And-node before its children.  Raises
    DepthExceeded past max_depth and DomainError when the domain cannot
    realize the parameters, the first fault in pre-order (at a node, depth
    before split).  log_prob is tree_probability's, which also checks it.
    """
    rng = random.Random(seed)
    domain = g.domain
    leaf_param, split = domain.leaf_param, domain.realize_children
    if leaf_param is not None and root_param is not None:
        raise DomainError(f"domain {domain.name!r} pins its leaves and takes no root_param")
    if leaf_param is None and root_param is None:
        if domain.root_default is None:
            raise DomainError(f"domain {domain.name!r} has no default root parameter")
        root_param = domain.root_default()
    root = TreeNode(g.start, root_param)
    instances: list[TerminalInstance] = []
    todo = [(root, 0)]
    while todo:  # pre-order: Or-nodes draw from rng, and leaves are met, in derivation order
        tree, depth = todo.pop()
        if depth > max_depth:
            raise DepthExceeded(f"sampling exceeded depth {max_depth} at node {tree.node!r}")
        kind = g.kind(tree.node)
        if kind is _TERMINAL:
            tree.instance = f"t{len(instances)}"
            if leaf_param is not None:
                tree.param = leaf_param(len(instances))
            instances.append(TerminalInstance(tree.instance, tree.node, tree.param))
            continue
        if kind is _AND:
            rule = g.and_rule_of[tree.node]
            tree.children = tuple(TreeNode(child, None) for child in rule.children)
            if leaf_param is None:
                if split is None:
                    raise DomainError(f"domain {domain.name!r} cannot split a parameter")
                child_params = split(rule.relation, rule.function, tree.param, len(rule.children))
                for child, child_param in zip(tree.children, child_params):
                    child.param = child_param
        else:
            rules = g.or_rules_of.get(tree.node, ())
            if not rules:
                raise ValueError(f"Or-node {tree.node!r} has no rules")
            pick = rng.random()
            acc = 0.0
            chosen = rules[-1]
            for rule in rules:
                acc += rule.prob
                if pick < acc:
                    chosen = rule
                    break
            tree.children = (TreeNode(chosen.child, tree.param),)
        todo.extend((child, depth + 1) for child in reversed(tree.children))
    if leaf_param is not None:
        for tree in root.postorder():  # the leaves are pinned; fold their parameters up
            kind = g.kind(tree.node)
            if kind is _OR:
                tree.param = tree.children[0].param
            elif kind is _AND:
                params = tuple(child.param for child in tree.children)
                rule = g.and_rule_of[tree.node]
                if not domain.relation(rule.relation, len(params))(*params):
                    raise DomainError(
                        f"sampled children of {tree.node!r} violate {rule.relation.key!r}"
                    )
                tree.param = domain.function(rule.function, len(params))(*params)
    drawn = ParseTree(root, 0.0)
    drawn.log_prob = tree_probability(g, drawn)
    return drawn, DataSample(tuple(instances))


# ----------------------------------------------------------- tree verification


def tree_probability(g: Grammar, tree: ParseTree) -> float:
    """Log probability of a parse tree, verifying it against the grammar.

    Checks node kinds, rule membership, relation satisfaction, function
    consistency of parameters, and leaf instance uniqueness.  Raises
    InvalidTree on the first mismatch; nodes are checked children before
    parents, left to right, so on a tree with several faults the one
    raised is the first that order meets.
    """
    if tree.root.node != g.start:
        raise InvalidTree(f"root is {tree.root.node!r}, expected start {g.start!r}")
    seen_instances: set[str] = set()
    or_rule_prob: dict[tuple[str, str], float] = {}
    for rule in g.or_rules:
        key = (rule.head, rule.child)
        # on (invalid) duplicate edges keep the most probable reading
        if key not in or_rule_prob or rule.prob > or_rule_prob[key]:
            or_rule_prob[key] = rule.prob

    values: list[float] = []  # log probabilities of the subtrees not yet folded
    for node in tree.root.postorder():
        try:
            kind = g.kind(node.node)
        except KeyError:
            raise InvalidTree(f"unknown node {node.node!r}") from None
        if kind is _TERMINAL:
            if node.children:
                raise InvalidTree(f"terminal {node.node!r} has children")
            if node.instance is None or node.instance in seen_instances:
                raise InvalidTree(f"terminal {node.node!r} lacks a fresh instance id")
            seen_instances.add(node.instance)
            values.append(0.0)
        elif kind is _AND:
            rule = g.and_rule_of.get(node.node)
            if rule is None or tuple(c.node for c in node.children) != rule.children:
                raise InvalidTree(f"And-node {node.node!r} children do not match its rule")
            params = tuple(child.param for child in node.children)
            if not g.domain.relation(rule.relation, len(params))(*params):
                raise InvalidTree(f"children of {node.node!r} violate {rule.relation.key!r}")
            expected = g.domain.function(rule.function, len(params))(*params)
            if _differs(node.param, expected):
                raise InvalidTree(
                    f"{node.node!r} parameter {node.param!r} differs from computed {expected!r}"
                )
            first = len(values) - len(params)
            values[first:] = [sum(values[first:])]
        else:
            if len(node.children) != 1:
                raise InvalidTree(f"Or-node {node.node!r} must have exactly one child")
            child = node.children[0]
            prob = or_rule_prob.get((node.node, child.node))
            if prob is None:
                raise InvalidTree(f"no Or-rule {node.node!r} -> {child.node!r}")
            if _differs(child.param, node.param):
                raise InvalidTree(f"Or-node {node.node!r} parameter differs from its child")
            values.append(math.log(prob) + values.pop())
    return values[0]


def tree_sample(g: Grammar, tree: ParseTree) -> DataSample:
    """Collect the terminal instances at a tree's leaves."""
    instances = []
    for node in tree.root.walk():
        if node.node in g.terminals:
            if node.instance is None:
                raise InvalidTree(f"terminal {node.node!r} has no instance id")
            instances.append(TerminalInstance(node.instance, node.node, node.param))
    return DataSample(tuple(instances))
