"""Walks over parse trees and node graphs never recurse.

Parse trees grow with the sample and node graphs with the input, so every
walk in the package is a loop; the deep inputs below each pass a thousand
levels, past the interpreter's default recursion limit.
"""

import ast
import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import aog
from aog import (
    Cnf3Sat,
    FunctionRef,
    Grammar,
    IndicatorNode,
    OrRule,
    ParseTree,
    ProductNode,
    RelationRef,
    Spn,
    SumNode,
    TreeNode,
    evaluate,
    format_dimacs,
    format_spn_listing,
    null_domain,
    parse,
    parse_scfg,
    partition,
    project_parse,
    sample,
    sat_to_aog,
    save_grammar,
    scfg_to_aog,
    spn_to_aog,
    to_gcnf,
    tree_probability,
    tree_sample,
    validate_grammar,
    validate_spn,
)
from aog.cli import main, tree_to_dot
from aog.serialize import tree_to_json_dict

# recursions over parameter values, whose depth a grammar file fixes, and
# the brute-force parse enumerator, which only runs on small inputs
ALLOWED_RECURSIONS = {
    "parsing.enumerate_parses.derive",
    "domains.param_order_key",
    "domains.tuple_domain.encode",
    "domains.tuple_domain.decode",
    "domains.domain_from_config",
}


def self_calling_functions(package: Path = Path(aog.__file__).parent) -> set[str]:
    """Qualified names of the package's functions that call their own name."""
    found = set()
    for path in sorted(package.glob("*.py")):
        todo = [(ast.parse(path.read_text()), path.stem)]
        while todo:
            node, scope = todo.pop()
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}"
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    called = {
                        call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                        for call in ast.walk(child)
                        if isinstance(call, ast.Call)
                        and isinstance(call.func, (ast.Name, ast.Attribute))
                    }
                    if child.name in called:
                        found.add(inner)
                todo.append((child, inner))
    return found


def test_no_function_recurses_over_trees_or_graphs():
    assert self_calling_functions() - ALLOWED_RECURSIONS == set()


def test_recursion_guard_sees_methods_and_nested_functions(tmp_path):
    (tmp_path / "mod.py").write_text(
        textwrap.dedent(
            """
            class Node:
                def walk(self):
                    for child in self.children:
                        yield from child.walk()

            def outer(x):
                def inner(y):
                    return inner(y - 1) if y else 0
                return inner(x)
            """
        )
    )
    assert self_calling_functions(tmp_path) == {"mod.Node.walk", "mod.outer.inner"}


# ------------------------------------------------------------------ parse trees


def left_branching_tree(n: int) -> ParseTree:
    """The parse of a x n under S -> S A | a, A -> a: two levels per token."""
    node = TreeNode("S", (0, 1), (TreeNode("a", (0, 1), instance="t0"),))
    for i in range(1, n):
        token = TreeNode("A", (i, i + 1), (TreeNode("a", (i, i + 1), instance=f"t{i}"),))
        node = TreeNode("S", (0, i + 1), (TreeNode("S.1", (0, i + 1), (node, token)),))
    return ParseTree(node, n * math.log(0.5))


LEFT_BRANCHING = "S -> S A [0.5]\nS -> a [0.5]\nA -> a [1.0]"


def test_deep_tree_walks():
    g = scfg_to_aog(parse_scfg(LEFT_BRANCHING))
    tree = left_branching_tree(750)  # 1500 levels
    nodes = list(tree.root.walk())
    assert len(nodes) == 4 * 750 - 2
    assert nodes[0] is tree.root
    folded = tree.root.postorder()
    assert len(folded) == len(nodes)
    assert folded[0].instance == "t0" and folded[-1] is tree.root
    assert [leaf.instance for leaf in tree.leaves()] == [f"t{i}" for i in range(750)]
    assert tree_sample(g, tree).ids == frozenset(f"t{i}" for i in range(750))
    assert tree_probability(g, tree) == pytest.approx(tree.log_prob, rel=1e-12)

    encoded = tree_to_json_dict(tree, g.domain)
    depth, node = 1, encoded["root"]
    while "children" in node:
        node, depth = node["children"][0], depth + 1
    assert depth == 1500
    assert node == {"node": "a", "param": [0, 1], "instance": "t0"}

    dot = tree_to_dot(tree).splitlines()
    assert len(dot) == 3 + len(nodes) + (len(nodes) - 1)
    assert dot[2] == '  n0 [label="S\\n(0, 750)"];'


def test_deep_normal_form_tree_projects_without_recursion():
    # the a x 60 tree is about 120 levels deep; projected and re-scored
    # under a recursion limit of 50 it must equal the projection at the
    # default limit
    code = textwrap.dedent(
        f"""
        import sys
        from aog import parse, parse_scfg, project_parse, scfg_to_aog, string_sample
        from aog import to_gcnf, tree_probability

        g = scfg_to_aog(parse_scfg({LEFT_BRANCHING!r}))
        gcnf, node_map = to_gcnf(g)
        tree = parse(gcnf, string_sample(["a"] * 60)).tree
        expected = project_parse(tree, node_map, g)
        sys.setrecursionlimit(50)
        projected = project_parse(tree, node_map, g)
        log_prob = tree_probability(g, projected)
        sys.setrecursionlimit(1000)
        assert projected == expected
        assert log_prob == expected.log_prob
        """
    )
    src = str(Path(aog.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def long_recursion_grammar(domain: str) -> Grammar:
    """S -> A [0.999] | a [0.001], A -> S T, T -> a: a draw repeats
    S -> A -> S about a thousand times, two levels each, before it stops."""
    text = "S -> A [0.999]\nS -> a [0.001]\nA -> S T [1.0]\nT -> a [1.0]"
    g = scfg_to_aog(parse_scfg(text))
    if domain == "null":  # parameters filled top-down instead of from the leaves
        null_rules = tuple(
            replace(rule, relation=RelationRef("true"), function=FunctionRef("null"))
            for rule in g.and_rules
        )
        g = replace(g, domain=null_domain(), and_rules=null_rules)
    return g


@pytest.mark.parametrize("domain", ["string_span", "null"])
@pytest.mark.parametrize("seed", [1, 2])
def test_deep_sample(domain, seed):
    g = long_recursion_grammar(domain)
    assert validate_grammar(g).ok
    tree, x = sample(g, seed, max_depth=10**6)
    assert len(x) > 400
    assert tree_sample(g, tree) == x
    assert tree_probability(g, tree) == pytest.approx(tree.log_prob, rel=1e-12)
    if domain == "string_span":
        assert [inst.param for inst in x.instances] == [(i, i + 1) for i in range(len(x))]
        assert tree.root.param == (0, len(x))


# ------------------------------------------------------------------ node graphs


def many_variable_formula(n_vars: int) -> Cnf3Sat:
    return Cnf3Sat(n_vars, ((1, -2, 3), (-1, n_vars), (2, -n_vars)))


def test_sat_conversion_of_many_variables(tmp_path, capsys):
    g, x = sat_to_aog(many_variable_formula(1500))
    assert validate_grammar(g).ok
    assert len(x) == 3
    path = tmp_path / "f.cnf"
    path.write_text(format_dimacs(many_variable_formula(1500)))
    assert main(["convert", "sat", str(path), "-o", str(tmp_path / "g.json")]) == 0
    assert json.loads(capsys.readouterr().out)["variables"] == 1500


def or_chain(length: int) -> Grammar:
    """O0 -> O1 -> ... -> O{length-1} -> t, every rule with probability 1."""
    names = [f"O{i}" for i in range(length)]
    return Grammar(
        domain=null_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset(),
        or_nodes=frozenset(names),
        start="O0",
        and_rules=(),
        or_rules=tuple(OrRule(head, child, 1.0) for head, child in zip(names, names[1:] + ["t"])),
    )


def test_long_or_chain_normalizes(tmp_path, capsys):
    g = or_chain(1200)
    gcnf, node_map = to_gcnf(g)
    assert OrRule("O0", "t", 1.0) in gcnf.or_rules
    assert node_map.unit_chains[("O0", "t")][0].nodes == [f"O{i}" for i in range(1200)] + ["t"]
    # the parse re-expands the whole chain
    result = parse(gcnf, aog.DataSample((aog.TerminalInstance("i", "t", None),)))
    projected = project_parse(result.tree, node_map, g)
    assert len(list(projected.root.walk())) == 1201
    assert projected.log_prob == 0.0

    path = tmp_path / "chain.json"
    save_grammar(g, path)
    out = str(tmp_path / "out.json")
    assert main(["normalize", str(path), "-o", out, "--map", str(tmp_path / "map.json")]) == 0
    assert json.loads(capsys.readouterr().out)["output"]["or_rules"] == 1200


def deep_spn(depth: int) -> Spn:
    """A chain of products, each over one variable's weighted indicator
    pair and the rest of the chain; the last product has a single child."""
    nodes = {}
    for i in range(depth):
        nodes[f"p{i}"] = IndicatorNode(i, True)
        nodes[f"n{i}"] = IndicatorNode(i, False)
        nodes[f"l{i}"] = SumNode((f"p{i}", f"n{i}"), (1.0, 0.5))
        rest = (f"c{i + 1}",) if i + 1 < depth else ()
        nodes[f"c{i}"] = ProductNode((f"l{i}",) + rest)
    return Spn(nodes, "c0")


def test_deep_spn(tmp_path, capsys):
    s = deep_spn(1200)
    assert validate_spn(s).ok
    ones = {i: 1 for i in range(1200)}
    assert evaluate(s, ones) == 1.0
    assert evaluate(s, {**ones, 7: 0}) == 0.5
    assert partition(s) == pytest.approx(1.5**1200)
    conv = spn_to_aog(s)
    assert validate_grammar(conv.grammar).ok
    assert conv.partition == partition(s)
    assert "c1199" not in conv.grammar.and_nodes  # single-child product contracted

    path = tmp_path / "deep.spn"
    path.write_text(format_spn_listing(s))
    assert main(["convert", "spn", str(path), "-o", str(tmp_path / "g.json")]) == 0
    assert json.loads(capsys.readouterr().out)["source_nodes"] == 4 * 1200
