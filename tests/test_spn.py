"""Sum-product network frontend: listings, validity, evaluation, compilation."""

import itertools
import json
import math
import random

import pytest

import aog.spn
from aog import (
    FormatError,
    IndicatorNode,
    InvalidSpn,
    ProductNode,
    Spn,
    SumNode,
    assignment_sample,
    evaluate,
    format_spn_listing,
    parse,
    parse_spn_listing,
    partition,
    spn_scopes,
    spn_to_aog,
    to_gcnf,
    validate_grammar,
    validate_spn,
)
from aog.cli import main
from aog.grammar import postorder
from helpers import NEG_INF, random_spn

# mass 3; value 2 on (1,1), 1 on (0,0), 0 elsewhere
TWO_MODE = """
r sum p1 2.0 p2 1.0
p1 prod a1 b1
p2 prod a0 b0
a1 ind 0 +
a0 ind 0 -
b1 ind 1 +
b0 ind 1 -
"""

# shared sum child under both products; mass 4
SHARED_CHILD = """
r sum p1 1.0 p2 3.0
p1 prod x0p s1
p2 prod x0n s1
s1 sum x1p 0.5 x1n 0.5
x0p ind 0 +
x0n ind 0 -
x1p ind 1 +
x1n ind 1 -
"""


def test_parse_listing_and_roundtrip():
    s = parse_spn_listing(TWO_MODE)
    assert s.root == "r"
    assert s.nodes["r"] == SumNode(("p1", "p2"), (2.0, 1.0))
    assert s.nodes["a0"] == IndicatorNode(0, False)
    assert s.variables == (0, 1)
    assert parse_spn_listing(format_spn_listing(s)).nodes == s.nodes


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "r ind 0 ?",
        "r ind zero +",
        "r sum a 1.0 b",
        "r sum a x",
        "r blob a b",
        "r prod a b\nr prod b a",
        # two roots
        "r1 prod a b\nr2 prod a b\na ind 0 +\nb ind 1 +",
    ],
)
def test_parse_listing_rejects_malformed(bad):
    with pytest.raises(FormatError):
        parse_spn_listing(bad)


def test_scopes_and_cycles():
    s = parse_spn_listing(SHARED_CHILD)
    scopes = spn_scopes(s)
    assert scopes["r"] == frozenset({0, 1})
    assert scopes["s1"] == frozenset({1})
    cyclic = Spn({"a": ProductNode(("b", "i")), "b": ProductNode(("a", "i")), "i": IndicatorNode(0, True)}, "a")
    with pytest.raises(InvalidSpn):
        spn_scopes(cyclic)
    dangling = Spn({"a": ProductNode(("ghost", "i")), "i": IndicatorNode(0, True)}, "a")
    with pytest.raises(InvalidSpn):
        spn_scopes(dangling)


def test_validate_flags_incomplete_sum():
    s = Spn(
        {
            "r": SumNode(("i0", "i1"), (0.5, 0.5)),
            "i0": IndicatorNode(0, True),
            "i1": IndicatorNode(1, True),
        },
        "r",
    )
    report = validate_spn(s)
    assert any(issue.code == "complete" for issue in report.issues)


@pytest.mark.parametrize(
    "root, message",
    [
        (ProductNode(()), "children: node 'r' has no children"),
        (SumNode((), ()), "children: node 'r' has no children"),
        (SumNode(("i0",), (0.5, 0.5)), "weights: sum 'r' weight count mismatch"),
    ],
    ids=["product", "sum", "weights"],
)
def test_validate_flags_a_node_without_children_or_with_extra_weights(root, message):
    # every sum and product has a child, so every scope holds a variable
    s = Spn({"r": root, "i0": IndicatorNode(0, True)}, "r")
    assert [str(issue) for issue in validate_spn(s).issues] == [message]
    with pytest.raises(InvalidSpn, match=f"^{message}$"):
        spn_to_aog(s)


def test_validate_flags_overlapping_product():
    s = Spn(
        {
            "r": ProductNode(("i0", "i0neg")),
            "i0": IndicatorNode(0, True),
            "i0neg": IndicatorNode(0, False),
        },
        "r",
    )
    report = validate_spn(s)
    assert any(issue.code == "decomposable" for issue in report.issues)
    with pytest.raises(InvalidSpn):
        spn_to_aog(s)


def test_evaluate_and_partition_hand_values():
    s = parse_spn_listing(TWO_MODE)
    assert evaluate(s, {0: 1, 1: 1}) == 2.0
    assert evaluate(s, {0: 0, 1: 0}) == 1.0
    assert evaluate(s, {0: 1, 1: 0}) == 0.0
    assert evaluate(s, {0: 0, 1: 1}) == 0.0
    assert partition(s) == 3.0
    with pytest.raises(ValueError):
        evaluate(s, {0: 1})


def test_shared_child_hand_values():
    s = parse_spn_listing(SHARED_CHILD)
    assert partition(s) == 4.0
    assert evaluate(s, {0: 1, 1: 1}) == 0.5
    assert evaluate(s, {0: 1, 1: 0}) == 0.5
    assert evaluate(s, {0: 0, 1: 1}) == 1.5
    assert evaluate(s, {0: 0, 1: 0}) == 1.5


def test_compiled_grammar_matches_network():
    s = parse_spn_listing(TWO_MODE)
    conv = spn_to_aog(s)
    assert conv.partition == 3.0
    g = conv.grammar
    assert validate_grammar(g).ok
    gcnf, _ = to_gcnf(g)
    assert parse(gcnf, assignment_sample(conv, {0: 1, 1: 1}), "marginal").score == pytest.approx(
        math.log(2.0 / 3.0)
    )
    assert parse(gcnf, assignment_sample(conv, {0: 0, 1: 0}), "marginal").score == pytest.approx(
        math.log(1.0 / 3.0)
    )
    assert parse(gcnf, assignment_sample(conv, {0: 1, 1: 0}), "marginal").score == NEG_INF


def test_shared_child_compiles_to_shared_node():
    s = parse_spn_listing(SHARED_CHILD)
    conv = spn_to_aog(s)
    g = conv.grammar
    # s1 appears once as an Or node, referenced from both products
    assert "s1" in g.or_nodes
    referencing = [r.head for r in g.and_rules if "s1" in r.children]
    assert sorted(referencing) == ["p1", "p2"]
    gcnf, _ = to_gcnf(g)
    expected = {
        (1, 1): 0.125,
        (1, 0): 0.125,
        (0, 1): 0.375,
        (0, 0): 0.375,
    }
    for (b0, b1), p in expected.items():
        got = parse(gcnf, assignment_sample(conv, {0: b0, 1: b1}), "marginal").score
        assert got == pytest.approx(math.log(p), rel=1e-12)


def test_unary_product_contracted():
    s = parse_spn_listing(
        """
        r sum q 1.0
        q prod s
        s sum x0p 0.7 x0n 0.3
        x0p ind 0 +
        x0n ind 0 -
        """
    )
    conv = spn_to_aog(s)
    g = conv.grammar
    assert "q" not in g.and_nodes and "q" not in g.or_nodes
    gcnf, _ = to_gcnf(g)
    assert parse(gcnf, assignment_sample(conv, {0: 1}), "marginal").score == pytest.approx(
        math.log(0.7)
    )


def test_literal_names_avoid_collisions():
    s = parse_spn_listing(
        """
        r sum x0 0.5 x0_neg 0.5
        x0 ind 0 +
        x0_neg ind 0 -
        """
    )
    conv = spn_to_aog(s)
    assert conv.literals[(0, 1)] not in s.nodes
    assert conv.literals[(0, 0)] not in s.nodes
    gcnf, _ = to_gcnf(conv.grammar)
    assert parse(gcnf, assignment_sample(conv, {0: 0}), "marginal").score == pytest.approx(
        math.log(0.5)
    )


def test_unreachable_node_outside_root_scope_is_left_out(capsys, tmp_path):
    # validate_spn accepts a node the root does not reach; its variable 5
    # has no literal, and the converter once raised KeyError: (5, 1)
    s = Spn(
        {
            "r": ProductNode(("i0", "i1")),
            "i0": IndicatorNode(0, True),
            "i1": IndicatorNode(1, False),
            "u": IndicatorNode(5, True),
        },
        "r",
    )
    assert validate_spn(s).ok
    conv = spn_to_aog(s)
    assert validate_grammar(conv.grammar).ok
    assert conv.partition == partition(s)
    gcnf, _ = to_gcnf(conv.grammar)
    for bits in itertools.product((0, 1), repeat=2):
        assignment = dict(zip((0, 1), bits))
        expected = evaluate(s, assignment) / conv.partition
        score = parse(gcnf, assignment_sample(conv, assignment), "marginal").score
        assert score == (math.log(expected) if expected else NEG_INF)
    # a listing's root is its one unreferenced node, so a listing cannot
    # hold such a node: `aog convert spn` rejects it as malformed
    src = tmp_path / "net.spn"
    src.write_text(format_spn_listing(s))
    assert main(["convert", "spn", str(src), "-o", str(tmp_path / "g.json")]) == 2
    assert "expected exactly one root, found ['r', 'u']" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [3, 43000])
def test_conversion_walks_the_network_once(monkeypatch, seed):
    # validation's walk from the root and then every node also orders the
    # compilation: its prefix up to the root is the walk from the root alone
    walks = []

    def counted(roots, children):
        walks.append(roots)
        return postorder(roots, children)

    monkeypatch.setattr(aog.spn, "postorder", counted)
    s = random_spn(random.Random(seed), 10)
    conv = spn_to_aog(s)
    assert len(walks) == 1
    order = list(spn_scopes(s))
    reached = postorder([s.root], lambda name: getattr(s.nodes[name], "children", ()))
    assert order[: order.index(s.root) + 1] == reached
    assert conv.partition == partition(s)


def test_only_the_nodes_the_root_reaches_are_range_checked():
    # u's mass is 2e308, which overflows to inf; it counts only under the root
    nodes = {
        "u": SumNode(("a", "b"), (1e308, 1e308)),
        "a": IndicatorNode(0, True),
        "b": IndicatorNode(0, False),
        "c": IndicatorNode(1, True),
        "r": ProductNode(("a", "c")),
    }
    assert spn_to_aog(Spn(nodes, "r")).partition == 1.0
    nodes["r"] = ProductNode(("u", "c"))
    with pytest.raises(InvalidSpn, match="^node 'u' has mass inf, outside float range$"):
        spn_to_aog(Spn(nodes, "r"))


# networks whose weights or masses leave float range
INF_WEIGHT = """
r sum a inf b 1.0
a ind 1 +
b ind 1 -
"""

# each product's mass is (2e-200)**2, which underflows to 0.0
MASS_UNDERFLOW = """
r sum p 1.0 q 1.0
p prod s1 s2
q prod s3 s4
s1 sum x1 1e-200 y1 1e-200
s2 sum x2 1e-200 y2 1e-200
s3 sum x1 1e-200 y1 1e-200
s4 sum x2 1e-200 y2 1e-200
x1 ind 1 +
y1 ind 1 -
x2 ind 2 +
y2 ind 2 -
"""

# the root's mass is (2e200)**2, which overflows to inf
MASS_OVERFLOW = """
r prod s t
s sum x1 1e200 y1 1e200
t sum x2 1e200 y2 1e200
x1 ind 1 +
y1 ind 1 -
x2 ind 2 +
y2 ind 2 -
"""


@pytest.mark.parametrize(
    "listing, named",
    [
        (INF_WEIGHT, "sum 'r' has a weight that is not positive and finite"),
        (MASS_UNDERFLOW, "node 'p' has mass 0.0"),
        (MASS_OVERFLOW, "node 'r' has mass inf"),
    ],
    ids=["inf-weight", "mass-underflow", "mass-overflow"],
)
def test_network_outside_float_range_is_rejected(capsys, tmp_path, listing, named):
    # once: the infinite weight validated and converted to a grammar with
    # prob nan, the underflow raised a bare ZeroDivisionError, and the
    # overflow converted with partition inf
    with pytest.raises(InvalidSpn, match=named):
        spn_to_aog(parse_spn_listing(listing))
    src, out = tmp_path / "net.spn", tmp_path / "g.json"
    src.write_text(listing)
    assert main(["convert", "spn", str(src), "-o", str(out)]) == 2
    printed = capsys.readouterr().out
    assert "error" in json.loads(printed) and named in printed
    assert not out.exists()


def test_assignment_sample_rejects_foreign_variable():
    conv = spn_to_aog(parse_spn_listing(TWO_MODE))
    with pytest.raises(ValueError):
        assignment_sample(conv, {7: 1})


@pytest.mark.parametrize("trial", range(10))
def test_random_networks_agree_on_every_assignment(trial):
    rng = random.Random(400 + trial)
    n_vars = rng.randint(2, 6)
    s = random_spn(rng, n_vars)
    assert validate_spn(s).ok
    conv = spn_to_aog(s)
    z = conv.partition
    assert z == pytest.approx(partition(s))
    gcnf, _ = to_gcnf(conv.grammar)
    variables = spn_scopes(s)[s.root]
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(variables)):
        assignment = dict(zip(sorted(variables), bits))
        value = evaluate(s, assignment)
        score = parse(gcnf, assignment_sample(conv, assignment), "marginal").score
        if value == 0.0:
            assert score == NEG_INF
        else:
            assert score == pytest.approx(math.log(value / z), rel=1e-9, abs=1e-9)
            total += math.exp(score)
    assert total == pytest.approx(1.0, abs=1e-9)
