"""Normal-form conversion.

The parser's dynamic program wants grammars in a binary normal form:
every And-node has exactly two Or-node children, Or-rules never point at
Or-nodes, and the start node is an Or-node.  to_gcnf rewrites any valid
grammar into that shape in four steps (fresh start wrapper, Or-chain
elimination, binarization of wide And-rules, Or-wrapping of And/terminal
children) and returns a NodeMap that project_parse uses to translate
parse trees back onto the original grammar.

Binarization threads the already-combined child parameters through as a
flat tuple: intermediate And-nodes pack/extend the tuple under a
trivially true relation, and the final pair applies the original
relation and function to the unpacked tuple.  The grammar's domain is
wrapped in a tuple domain exactly when that happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .domains import FunctionRef, RelationRef, tuple_domain
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

    def to_json_dict(self) -> dict:
        return {
            "original_start": self.original_start,
            "start_node": self.start_node,
            "alt_nodes": dict(sorted(self.alt_nodes.items())),
            "bin_nodes": dict(sorted(self.bin_nodes.items())),
            "unit_chains": [
                {
                    "head": head,
                    "child": child,
                    "chains": [{"prob": c.prob, "nodes": list(c.nodes)} for c in chains],
                }
                for (head, child), chains in sorted(self.unit_chains.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, raw: dict) -> "NodeMap":
        chains = {
            (entry["head"], entry["child"]): [
                UnitChain(c["prob"], list(c["nodes"])) for c in entry["chains"]
            ]
            for entry in raw.get("unit_chains", [])
        }
        return cls(
            original_start=raw["original_start"],
            start_node=raw.get("start_node"),
            alt_nodes=dict(raw.get("alt_nodes", {})),
            bin_nodes=dict(raw.get("bin_nodes", {})),
            unit_chains=chains,
        )


def to_gcnf(g: Grammar) -> tuple[Grammar, NodeMap]:
    """Convert a valid grammar to normal form; probabilities are preserved
    per derivation, with parallel Or-chains merged by probability summation."""
    report = validate_grammar(g)
    if not report.ok:
        raise ValueError(f"cannot normalize an invalid grammar:\n{report}")

    terminals = set(g.terminals)
    and_nodes = set(g.and_nodes)
    or_nodes = set(g.or_nodes)
    and_rules = list(g.and_rules)
    or_rules = list(g.or_rules)
    start = g.start
    node_map = NodeMap(original_start=g.start)
    existing = terminals | and_nodes | or_nodes

    # start wrapper: the parser's root entries live at an Or-node
    if start in and_nodes:
        wrapper = fresh_name(f"{start}#start", existing)
        or_nodes.add(wrapper)
        or_rules.append(OrRule(wrapper, start, 1.0))
        node_map.start_node = wrapper
        start = wrapper

    # unit elimination: collapse Or -> Or chains onto their non-Or endpoints
    unit_edges: dict[str, list[str]] = {}
    for rule in or_rules:
        if rule.child in or_nodes:
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
                if rule.child in or_nodes:
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

    # binarize: left-leaning chains carrying packed child parameters
    domain = g.domain
    wide = [rule for rule in and_rules if len(rule.children) > 2]
    if wide:
        domain = tuple_domain(g.domain)
        and_rules = [rule for rule in and_rules if len(rule.children) == 2]
        for rule in wide:
            arity = len(rule.children)
            true_rel = RelationRef("true", {})
            prev = fresh_name(f"{rule.head}#bin1", existing)
            and_nodes.add(prev)
            node_map.bin_nodes[prev] = rule.head
            and_rules.append(
                AndRule(prev, rule.children[:2], true_rel, FunctionRef("pack", {}))
            )
            for i in range(2, arity - 1):
                node = fresh_name(f"{rule.head}#bin{i}", existing)
                and_nodes.add(node)
                node_map.bin_nodes[node] = rule.head
                and_rules.append(
                    AndRule(node, (prev, rule.children[i]), true_rel, FunctionRef("extend", {}))
                )
                prev = node
            applied = {"arity": arity}
            and_rules.append(
                AndRule(
                    rule.head,
                    (prev, rule.children[-1]),
                    RelationRef(
                        "apply_packed",
                        {"key": rule.relation.key, "config": dict(rule.relation.config), **applied},
                    ),
                    FunctionRef(
                        "apply_packed",
                        {"key": rule.function.key, "config": dict(rule.function.config), **applied},
                    ),
                )
            )

    # alternate wrappers: And-rule children must be Or-nodes
    alt_of: dict[str, str] = {}
    rewritten = []
    for rule in and_rules:
        children = []
        for child in rule.children:
            if child in or_nodes:
                children.append(child)
                continue
            alt = alt_of.get(child)
            if alt is None:
                alt = fresh_name(f"{child}#alt", existing)
                alt_of[child] = alt
                or_nodes.add(alt)
                or_rules.append(OrRule(alt, child, 1.0))
                node_map.alt_nodes[alt] = child
            children.append(alt)
        rewritten.append(replace(rule, children=tuple(children)))
    and_rules = rewritten

    out = Grammar(
        domain=domain,
        terminals=frozenset(terminals),
        and_nodes=frozenset(and_nodes),
        or_nodes=frozenset(or_nodes),
        start=start,
        and_rules=tuple(and_rules),
        or_rules=tuple(or_rules),
    )
    check = validate_grammar(out)
    if not check.ok:
        raise AssertionError(f"normalization produced an invalid grammar:\n{check}")
    return out, node_map


def project_parse(tree: ParseTree, node_map: NodeMap, original: Grammar) -> ParseTree:
    """Translate a normal-form parse tree back onto the original grammar.

    Synthesized start/alternate wrappers are spliced out, binarization
    chains are flattened back to wide And-rules (dropping the packed tuple
    parameters), and merged unit chains are re-expanded along their most
    probable recorded path.  The result is re-scored against the original
    grammar, which also verifies it.
    """
    known = original.terminals | original.and_nodes | original.or_nodes
    original_edges = {(rule.head, rule.child) for rule in original.or_rules}

    def check_known(name: str) -> None:
        if name not in known:
            raise MapMismatch(f"tree node {name!r} is not in the original grammar")

    root = tree.root
    if node_map.start_node is not None:
        if root.node != node_map.start_node:
            raise MapMismatch(
                f"tree root {root.node!r} is not the recorded start wrapper"
            )
        root = root.children[0]
    built: list[TreeNode] = []  # projected subtrees, left to right
    todo: list = [root]  # nodes to project, then (node, child count, chain) to assemble
    while todo:
        node = todo.pop()
        if isinstance(node, tuple):  # the node's projected children end `built`
            node, count, chain = node
            first = len(built) - count
            children = tuple(built[first:])
            del built[first:]
            for inner in chain:
                check_known(inner)
                children = (TreeNode(inner, node.param, children),)
            built.append(TreeNode(node.node, node.param, children))
            continue
        while node.node in node_map.alt_nodes:
            node = node.children[0]
        check_known(node.node)
        kind = original.kind(node.node)
        if kind is NodeKind.TERMINAL:
            built.append(TreeNode(node.node, node.param, instance=node.instance))
        elif kind is NodeKind.AND:
            # a binarization chain hangs off the left child: collect the
            # wide rule's children right to left, so the leftmost pops first
            parts, pair = [], node
            while True:
                left, right = pair.children
                parts.append(right)
                inner = left.children[0] if left.node in node_map.alt_nodes else None
                if inner is None or inner.node not in node_map.bin_nodes:
                    break
                pair = inner
            parts.append(left)
            todo.append((node, len(parts), ()))
            todo.extend(parts)
        else:
            child = node.children[0]
            edge = (node.node, child.node)
            chains = node_map.unit_chains.get(edge)
            if chains is None:
                if edge not in original_edges:
                    raise MapMismatch(f"no original Or-rule or recorded chain for {edge}")
                chain = ()
            else:
                best = max(chains, key=lambda c: (c.prob, c.nodes))
                chain = reversed(best.nodes[1:-1])
            todo.append((node, 1, chain))
            todo.append(child)
    projected = built[0]
    if projected.node != original.start:
        raise MapMismatch(f"projected root {projected.node!r} is not the original start")
    out = ParseTree(projected, 0.0)
    out.log_prob = tree_probability(original, out)
    return out
