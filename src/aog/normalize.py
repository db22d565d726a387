"""Normal-form conversion.

The parser's dynamic program wants grammars in a binary normal form:
every And-node has exactly two Or-node children, Or-rules never point at
Or-nodes, and the start node is an Or-node.  to_gcnf rewrites any valid
grammar into that shape in four steps (fresh start wrapper, Or-chain
elimination, binarization of wide And-rules, Or-wrapping of And/terminal
children) and returns a NodeMap that project_parse uses to translate
parse trees back onto the original grammar.

Binarization takes a wide And-rule left to right.  Where the domain
declares a fold for its relation and function (DomainBinding.folds), each
step is an ordinary rule of the domain, whose parameter is the state of
the children so far.  Any other wide rule threads its child parameters
through as a flat tuple: intermediate And-nodes pack/extend it under a
trivially true relation, and the final pair applies the original relation
and function to the unpacked tuple, in a tuple domain that wraps the
grammar's; normal forms already written in it still load and parse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .domains import packed_steps, tuple_domain
from .errors import MapMismatch, UnitCycleError
from .grammar import (
    AndRule,
    Grammar,
    NodeKind,
    OrRule,
    ParseTree,
    TreeNode,
    fresh_name,
    postorder,
    tree_probability,
    validate_grammar,
)


def gcnf_violations(g: Grammar) -> list[str]:
    """Empty list iff the grammar is in normal form."""
    out = []
    if g.start not in g.or_nodes:
        out.append(f"start {g.start!r} is not an Or-node")
    for rule in g.and_rules:
        if len(rule.children) != 2:
            out.append(f"And-rule for {rule.head!r} has {len(rule.children)} children")
        for child in rule.children:
            if child not in g.or_nodes:
                out.append(f"And-rule child {child!r} of {rule.head!r} is not an Or-node")
    for rule in g.or_rules:
        if rule.child in g.or_nodes:
            out.append(f"Or-rule {rule.head!r} -> {rule.child!r} points at an Or-node")
    return out


@dataclass
class UnitChain:
    """One eliminated Or-node path head -> ... -> child with its probability."""

    prob: float
    nodes: list[str]


@dataclass
class NodeMap:
    """Record of what to_gcnf synthesized, keyed for tree projection."""

    original_start: str
    start_node: str | None = None  # added start wrapper, if any
    alt_nodes: dict[str, str] = field(default_factory=dict)  # alt Or-node -> wrapped node
    bin_nodes: dict[str, str] = field(default_factory=dict)  # chain And-node -> original head
    unit_chains: dict[tuple[str, str], list[UnitChain]] = field(default_factory=dict)


def to_gcnf(g: Grammar) -> tuple[Grammar, NodeMap]:
    """Convert a valid grammar to normal form; probabilities are preserved
    per derivation, with parallel Or-chains merged by probability summation.
    A wide rule folds in its domain's own steps where the domain declares a
    fold, else it packs its children in the tuple domain (module docstring)."""
    report = validate_grammar(g)
    if not report.ok:
        raise ValueError(f"cannot normalize an invalid grammar:\n{report}")

    and_rules = list(g.and_rules)
    or_rules = list(g.or_rules)
    start = g.start
    node_map = NodeMap(original_start=g.start)
    existing = {*g.terminals, *g.and_nodes, *g.or_nodes}  # fresh names join it

    # start wrapper: the parser's root entries live at an Or-node
    if start in g.and_nodes:
        wrapper = fresh_name(f"{start}#start", existing)
        or_rules.append(OrRule(wrapper, start, 1.0))
        node_map.start_node = wrapper
        start = wrapper

    # unit elimination: collapse Or -> Or chains onto their non-Or endpoints
    unit_edges: dict[str, list[str]] = {}
    for rule in or_rules:
        if rule.child in g.or_nodes:
            unit_edges.setdefault(rule.head, []).append(rule.child)
    if unit_edges:
        try:  # Or-nodes ordered so every unit child precedes its heads
            order = postorder(sorted(unit_edges), lambda node: unit_edges.get(node, ()))
        except ValueError as exc:
            raise UnitCycleError("Or-rule cycle: " + " -> ".join(exc.args)) from None
        rank = {node: i for i, node in enumerate(order)}
        # head -> child -> chains merged into that edge, children before heads
        chains_of: dict[str, dict[str, list[UnitChain]]] = {}
        grouped: dict[str, list[OrRule]] = {}
        for rule in or_rules:
            grouped.setdefault(rule.head, []).append(rule)
        or_rules = []
        for head in sorted(grouped, key=lambda h: (rank.get(h, -1), h)):
            merged: dict[str, list[UnitChain]] = {}
            for rule in grouped[head]:
                if rule.child in g.or_nodes:
                    for target, chains in chains_of[rule.child].items():
                        merged.setdefault(target, []).extend(
                            UnitChain(rule.prob * chain.prob, [head] + chain.nodes)
                            for chain in chains
                        )
                else:
                    merged.setdefault(rule.child, []).append(
                        UnitChain(rule.prob, [head, rule.child])
                    )
            chains_of[head] = merged
            for child, chains in merged.items():
                prob = 0.0  # summed in chain order, not by sum(), which compensates
                for chain in chains:
                    prob += chain.prob
                or_rules.append(OrRule(head, child, prob))
                if len(chains) > 1 or len(chains[0].nodes) > 2:
                    node_map.unit_chains[(head, child)] = chains

    # binarize: left-leaning chains, folded in the domain's own relation where
    # it declares a fold for the rule, else carrying packed child parameters
    domain = g.domain
    wide = [rule for rule in and_rules if len(rule.children) > 2]
    and_rules = [rule for rule in and_rules if len(rule.children) == 2]
    for rule in wide:
        arity = len(rule.children)
        fold = g.domain.folds.get((rule.relation.key, rule.function.key))
        if fold is None:
            domain, fold = tuple_domain(g.domain), packed_steps
        steps = fold(rule.relation, rule.function, arity)
        prev = rule.children[0]
        for i, (relation, function) in enumerate(steps[:-1], 1):
            node = fresh_name(f"{rule.head}#bin{i}", existing)
            node_map.bin_nodes[node] = rule.head
            and_rules.append(AndRule(node, (prev, rule.children[i]), relation, function))
            prev = node
        and_rules.append(AndRule(rule.head, (prev, rule.children[-1]), *steps[-1]))

    # alternate wrappers: And-rule children must be Or-nodes
    alt_of: dict[str, str] = {}
    rewritten = []
    for rule in and_rules:
        children = []
        for child in rule.children:
            if child in g.or_nodes:
                children.append(child)
                continue
            alt = alt_of.get(child)
            if alt is None:
                alt = fresh_name(f"{child}#alt", existing)
                alt_of[child] = alt
                or_rules.append(OrRule(alt, child, 1.0))
                node_map.alt_nodes[alt] = child
            children.append(alt)
        rewritten.append(AndRule(rule.head, tuple(children), rule.relation, rule.function))
    and_rules = rewritten

    return Grammar.from_rules(domain, g.terminals, start, and_rules, or_rules), node_map


def project_parse(tree: ParseTree, node_map: NodeMap, original: Grammar) -> ParseTree:
    """Translate a normal-form parse tree back onto the original grammar.

    Synthesized start/alternate wrappers are spliced out, binarization
    chains are flattened back to wide And-rules (dropping the parameters of
    their steps), and merged unit chains are re-expanded along their most
    probable recorded path.  One fold over the tree, children before
    parents, so a tree with several faults raises the first that order
    meets.  The result is re-scored against the original grammar, which
    also verifies it.
    """
    original_edges = {(rule.head, rule.child) for rule in original.or_rules}

    def known_kind(name: str) -> NodeKind:
        try:
            return original.kind(name)
        except KeyError:
            raise MapMismatch(f"tree node {name!r} is not in the original grammar") from None

    def one_child(node: TreeNode) -> None:  # for a wrapper or an Or-node
        if len(node.children) != 1:
            raise MapMismatch(f"tree node {node.node!r} must have exactly one child")

    root = tree.root
    if node_map.start_node is not None:
        if root.node != node_map.start_node:
            raise MapMismatch(f"tree root {root.node!r} is not the recorded start wrapper")
        one_child(root)
        root = root.children[0]
    built: list[TreeNode] = []  # projected subtrees not yet placed under a parent
    TERMINAL, AND = NodeKind.TERMINAL, NodeKind.AND  # an Enum read is slow
    for node in root.postorder():
        first = len(built) - len(node.children)
        children = built[first:]
        del built[first:]
        if node.node in node_map.alt_nodes:  # a wrapper passes its child through
            one_child(node)
            built.append(children[0])
            continue
        # a binarization chain node packs the original children of its head
        kind = AND if node.node in node_map.bin_nodes else known_kind(node.node)
        if kind is AND:
            parts: list[TreeNode] = []
            for child in children:
                parts += child.children if child.node in node_map.bin_nodes else (child,)
            built.append(TreeNode(node.node, node.param, tuple(parts)))
        elif kind is TERMINAL:  # children kept for the re-score to reject
            built.append(TreeNode(node.node, node.param, tuple(children), node.instance))
        else:
            one_child(node)
            edge = (node.node, node.children[0].node)
            chains = node_map.unit_chains.get(edge)
            if not chains and edge not in original_edges:
                raise MapMismatch(f"no original Or-rule or recorded chain for {edge}")
            child = children[0]
            if chains:
                best = max(chains, key=lambda c: (c.prob, c.nodes))
                for inner in reversed(best.nodes[1:-1]):
                    known_kind(inner)
                    child = TreeNode(inner, node.param, (child,))
            built.append(TreeNode(node.node, node.param, (child,)))
    projected = built[0]
    if projected.node != original.start:
        raise MapMismatch(f"projected root {projected.node!r} is not the original start")
    out = ParseTree(projected, 0.0)
    out.log_prob = tree_probability(original, out)
    return out
