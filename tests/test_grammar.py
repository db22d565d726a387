"""Grammar validation, sampling, and tree scoring."""

import math
import random
from dataclasses import replace

import pytest

from aog import (
    AndRule,
    DataSample,
    DepthExceeded,
    DomainError,
    FunctionRef,
    Grammar,
    InvalidTree,
    OrRule,
    ParseTree,
    RelationRef,
    TerminalInstance,
    TreeNode,
    grid_domain,
    interval_domain,
    null_domain,
    parse,
    parse_scfg,
    sample,
    scfg_to_aog,
    string_sample,
    string_span_domain,
    to_gcnf,
    tree_probability,
    tree_sample,
    validate_grammar,
)
from aog.serialize import canonical_dumps, tree_to_json_dict
from helpers import packed, random_aog


def issue_codes(report):
    return {issue.code for issue in report.issues}


def test_line_drawing_is_valid(line_drawing):
    report = validate_grammar(line_drawing)
    assert report.ok
    assert str(report) == "ok"


def test_from_rules_reads_node_kinds_from_rule_heads(line_drawing):
    g = line_drawing
    # lists and a generator, in place of the tuples and frozensets
    built = Grammar.from_rules(
        g.domain, iter(["dot"]), g.start, list(g.and_rules), list(g.or_rules)
    )
    assert built == g


def test_validation_catches_unknown_start(line_drawing):
    broken = replace(line_drawing, start="nope")
    assert "start-missing" in issue_codes(validate_grammar(broken))


def test_validation_catches_bad_or_sums(line_drawing):
    rules = tuple(
        replace(r, prob=0.4) if r.head == "figure" and r.child == "hline" else r
        for r in line_drawing.or_rules
    )
    report = validate_grammar(replace(line_drawing, or_rules=rules))
    assert "or-sum" in issue_codes(report)
    assert any("figure" in issue.message for issue in report.issues)


def test_validation_catches_duplicate_or_edges(line_drawing):
    rules = line_drawing.or_rules + (OrRule("figure", "hline", 0.0),)
    codes = issue_codes(validate_grammar(replace(line_drawing, or_rules=rules)))
    assert "or-duplicate" in codes
    assert "or-prob" in codes  # zero probability is rejected too


def test_validation_catches_missing_and_rule(line_drawing):
    broken = replace(line_drawing, and_rules=line_drawing.and_rules[:1])
    assert "and-missing" in issue_codes(validate_grammar(broken))


def test_validation_catches_arity_one_and_rule():
    g = Grammar(
        domain=null_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset({"A"}),
        or_nodes=frozenset({"S"}),
        start="S",
        and_rules=(AndRule("A", ("t",), RelationRef("true"), FunctionRef("null")),),
        or_rules=(OrRule("S", "A", 1.0),),
    )
    assert "and-arity" in issue_codes(validate_grammar(g))


def test_validation_catches_bad_relation_config():
    g = Grammar(
        domain=grid_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset({"A"}),
        or_nodes=frozenset({"S"}),
        start="S",
        and_rules=(
            AndRule("A", ("t", "t"), RelationRef("offset", {"offsets": []}), FunctionRef("anchor")),
        ),
        or_rules=(OrRule("S", "A", 1.0),),
    )
    assert "and-binding" in issue_codes(validate_grammar(g))


def test_validation_catches_node_kind_overlap(line_drawing):
    broken = replace(line_drawing, or_nodes=line_drawing.or_nodes | {"dot"})
    assert "node-overlap" in issue_codes(validate_grammar(broken))


@pytest.mark.parametrize(
    "fault, code",
    [
        (lambda g: replace(g, start="dot"), "start-terminal"),
        (lambda g: replace(g, and_nodes=g.and_nodes - {"hline"}), "and-head"),
        (lambda g: replace(g, and_rules=g.and_rules + g.and_rules[:1]), "and-multiple"),
    ],
    ids=["start-terminal", "and-head", "and-multiple"],
)
def test_validation_catches_start_and_and_rule_faults(line_drawing, fault, code):
    assert code in issue_codes(validate_grammar(fault(line_drawing)))


def test_sample_is_deterministic_per_seed(line_drawing):
    tree_a, x_a = sample(line_drawing, seed=11)
    tree_b, x_b = sample(line_drawing, seed=11)
    assert x_a == x_b
    assert tree_a.log_prob == tree_b.log_prob
    # different seeds eventually choose different figures
    sizes = {len(sample(line_drawing, seed=s)[1]) for s in range(40)}
    assert sizes == {1, 2, 3}


def test_sample_parameters_follow_grid_relations(line_drawing):
    for seed in range(25):
        tree, x = sample(line_drawing, seed=seed)
        # every sampled tree re-scores to its own log probability
        assert tree_probability(line_drawing, tree) == pytest.approx(tree.log_prob, abs=0)
        assert tree_sample(line_drawing, tree) == x
        if len(x) == 3:
            params = sorted(inst.param for inst in x.instances)
            base = params[0]
            assert params == [base, (base[0] + 1, base[1]), (base[0] + 2, base[1])]


def test_sample_root_param_override(line_drawing):
    tree, x = sample(line_drawing, seed=4, root_param=(7, 7))
    assert tree.root.param == (7, 7)


@pytest.mark.parametrize("normal", [False, True], ids=["scfg", "gcnf"])
@pytest.mark.parametrize("rules, root", [("S -> a b [1.0]", (0, 2)), ("S -> a b c [1.0]", (0, 3))])
def test_sample_refuses_a_root_param_where_the_leaves_pin_it(rules, root, normal):
    # a leaf-order domain folds the root's parameter up from the leaves, so
    # a given one would be dropped; the normal form of the wide rule has a
    # tuple domain, which inherits leaf_param
    g = scfg_to_aog(parse_scfg(rules))
    if normal:
        g = to_gcnf(g)[0]
    with pytest.raises(DomainError, match=f"^domain {g.domain.name!r} pins its leaves and takes"):
        sample(g, seed=1, root_param=(5, 9))
    assert sample(g, seed=1)[0].root.param == root


def test_sample_string_domain_pins_leaves(wide_string_grammar):
    tree, x = sample(wide_string_grammar, seed=2)
    assert [inst.param for inst in x.instances] == [(i, i + 1) for i in range(len(x))]
    assert tree.root.param == (0, len(x))


def test_sample_depth_guard():
    # an Or-node that feeds itself through an And-rule recurses forever
    g = Grammar(
        domain=null_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset({"A"}),
        or_nodes=frozenset({"S"}),
        start="S",
        and_rules=(AndRule("A", ("S", "S"), RelationRef("true"), FunctionRef("null")),),
        or_rules=(OrRule("S", "A", 0.9), OrRule("S", "t", 0.1)),
    )
    with pytest.raises(DepthExceeded):
        sample(g, seed=0, max_depth=5)


def test_sample_without_a_child_split_is_a_domain_error():
    # a top-down domain (root_default, no leaf_param) that cannot split a
    # parameter among an And-node's children
    g = Grammar(
        domain=replace(null_domain(), realize_children=None),
        terminals=frozenset({"t"}),
        and_nodes=frozenset({"A"}),
        or_nodes=frozenset({"S"}),
        start="S",
        and_rules=(AndRule("A", ("t", "t"), RelationRef("true"), FunctionRef("null")),),
        or_rules=(OrRule("S", "A", 1.0),),
    )
    with pytest.raises(DomainError, match="'null' cannot split a parameter"):
        sample(g, seed=0)


def test_sample_leaf_order_relation_refusal_is_a_domain_error(wide_string_grammar):
    # a leaf-order domain (leaf_param) whose relation refuses every pinned span
    refusing = {"adjacent": lambda config, arity: lambda *params: False}
    domain = replace(string_span_domain(), relations=refusing)
    g = replace(wide_string_grammar, domain=domain)
    with pytest.raises(DomainError, match="sampled children of 'quad' violate 'adjacent'"):
        sample(g, seed=1)


def test_sample_at_an_or_node_without_rules_is_a_value_error():
    g = Grammar.from_rules(null_domain(), ["t"], "S", [], [])
    g = replace(g, or_nodes=frozenset({"S"}))
    with pytest.raises(ValueError, match="^Or-node 'S' has no rules$"):
        sample(g, seed=0)


def test_sample_without_a_root_parameter_is_a_domain_error():
    # neither leaf_param nor root_default: nothing to pin and nothing to split
    g = Grammar.from_rules(
        replace(null_domain(), root_default=None),
        ["t"],
        "S",
        [AndRule("S", ("t", "t"), RelationRef("true"), FunctionRef("null"))],
        [],
    )
    with pytest.raises(DomainError, match="'null' has no default root parameter"):
        sample(g, seed=0)


@pytest.mark.parametrize("seed", range(5))
def test_sample_raises_the_first_fault_in_pre_order(seed):
    # S cannot be split ('before' has no canonical split), and below it X
    # recurses past max_depth on most seeds: the split at the root comes
    # first in pre-order, so every seed raises it
    g = Grammar.from_rules(
        interval_domain(),
        ["t"],
        "S",
        [
            AndRule("S", ("X", "X"), RelationRef("before"), FunctionRef("hull")),
            AndRule("P", ("X", "X"), RelationRef("meets"), FunctionRef("hull")),
        ],
        [OrRule("X", "P", 0.9), OrRule("X", "t", 0.1)],
    )
    with pytest.raises(DomainError, match="^no canonical child split for relation 'before'$"):
        sample(g, seed=seed, max_depth=6)


def test_sample_frequencies_match_probs(line_drawing):
    counts = {"hline": 0, "vpair": 0, "dot": 0}
    trials = 2000
    for seed in range(trials):
        _, x = sample(line_drawing, seed=seed)
        counts[{3: "hline", 2: "vpair", 1: "dot"}[len(x)]] += 1
    assert counts["hline"] / trials == pytest.approx(0.5, abs=0.05)
    assert counts["vpair"] / trials == pytest.approx(0.3, abs=0.05)
    assert counts["dot"] / trials == pytest.approx(0.2, abs=0.05)


def test_data_sample_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        DataSample(
            (
                TerminalInstance("x", "dot", (0, 0)),
                TerminalInstance("x", "dot", (1, 0)),
            )
        )


def hline_tree(line_drawing):
    """A drawn tree figure -> hline -> (point -> dot) x 3."""
    for seed in range(30):
        tree, _ = sample(line_drawing, seed=seed)
        if len(tree.leaves()) == 3:
            return tree
    raise AssertionError("no hline drawn")


def test_tree_probability_checks_relations(line_drawing):
    tree = hline_tree(line_drawing)
    # move the middle point and its dot together, so only the relation fails
    point = tree.root.children[0].children[1]
    point.param = point.children[0].param = (99, 99)
    with pytest.raises(InvalidTree, match="children of 'hline' violate 'offset'"):
        tree_probability(line_drawing, tree)


def test_tree_probability_requires_known_or_rule(line_drawing):
    tree = hline_tree(line_drawing)
    point = tree.root.children[0].children[0]
    tree.root.children = (point,)  # figure -> point is no Or-rule
    tree.root.param = point.param
    with pytest.raises(InvalidTree, match="no Or-rule 'figure' -> 'point'"):
        tree_probability(line_drawing, tree)


def rename_a_leaf(tree):
    tree.leaves()[0].node = "blot"


def drop_a_point(tree):
    hline = tree.root.children[0]
    hline.children = hline.children[:2]


def move_the_hline(tree):
    tree.root.param = tree.root.children[0].param = (99, 99)


def strip_a_point(tree):
    tree.root.children[0].children[0].children = ()


def root_at_the_hline(tree):
    tree.root = tree.root.children[0]


@pytest.mark.parametrize(
    "fault, match",
    [
        (rename_a_leaf, "unknown node 'blot'"),
        (drop_a_point, "And-node 'hline' children do not match its rule"),
        (move_the_hline, r"'hline' parameter \(99, 99\) differs from computed"),
        (strip_a_point, "Or-node 'point' must have exactly one child"),
        (root_at_the_hline, "^root is 'hline', expected start 'figure'$"),
    ],
    ids=["unknown-node", "and-children", "computed-param", "or-children", "root"],
)
def test_tree_probability_names_each_fault(line_drawing, fault, match):
    tree = hline_tree(line_drawing)
    fault(tree)
    with pytest.raises(InvalidTree, match=match):
        tree_probability(line_drawing, tree)


@pytest.mark.parametrize(
    "node, match",
    [
        ("S#bin1", r"'S#bin1' parameter \(\(0, 1\), \(1, 2\)\) differs from computed ParamTuple"),
        ("S#bin1#alt", "Or-node 'S#bin1#alt' parameter differs from its child"),
        ("S#bin2", r"'S#bin2' parameter \(\(0, 1\), \(1, 2\), \(2, 3\)\) differs from computed"),
        ("S#bin2#alt", "Or-node 'S#bin2#alt' parameter differs from its child"),
    ],
)
def test_tree_probability_tells_a_packed_param_from_its_plain_tuple(node, match):
    # a ParamTuple equals the plain tuple of its items, but a tree that
    # holds the plain tuple in its place is not a derivation
    gcnf, _ = to_gcnf(packed(scfg_to_aog(parse_scfg("S -> A A A A [1.0]\nA -> a [1.0]"))))
    tree = parse(gcnf, string_sample(["a"] * 4)).tree
    [packed_node] = [n for n in tree.root.walk() if n.node == node]
    packed_node.param = packed_node.param.items
    with pytest.raises(InvalidTree, match=match):
        tree_probability(gcnf, tree)


def test_tree_sample_needs_an_instance_id_on_every_leaf(line_drawing):
    tree = hline_tree(line_drawing)
    tree.leaves()[1].instance = None
    with pytest.raises(InvalidTree, match="terminal 'dot' has no instance id"):
        tree_sample(line_drawing, tree)


def test_tree_probability_exact_value(line_drawing):
    for seed in range(10):
        tree, x = sample(line_drawing, seed=seed)
        expected = {3: math.log(0.5), 2: math.log(0.3), 1: math.log(0.2)}[len(x)]
        assert tree_probability(line_drawing, tree) == expected


@pytest.mark.parametrize("kind", ["string", "grid", "null", "interval"])
def test_sample_log_prob_is_tree_probability(kind):
    # summed bottom-up as the parser sums, so aog sample and aog parse print
    # the same bits for the same tree
    for trial in range(60):
        g = random_aog(random.Random(trial), kind=kind)
        for grammar in (g, to_gcnf(g)[0]):
            for seed in range(5):
                try:
                    tree, _ = sample(grammar, seed=seed)
                except DomainError:  # an interval too narrow to split
                    continue
                assert tree.log_prob == tree_probability(grammar, tree)


def test_postorder_lists_children_before_parents_left_to_right():
    a, b, c, d = (TreeNode(name, None) for name in "abcd")
    inner = TreeNode("B", None, (b, c))
    root = TreeNode("R", None, (a, inner, d))
    assert root.postorder() == [a, b, c, inner, d, root]
    assert a.postorder() == [a]


def test_tree_probability_reports_child_faults_first():
    # two faults: the root's parameter differs from its child's, and the
    # leaf below lacks an instance id; the leaf's is met first
    g = Grammar(
        domain=null_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset(),
        or_nodes=frozenset({"S"}),
        start="S",
        and_rules=(),
        or_rules=(OrRule("S", "t", 1.0),),
    )
    tree = ParseTree(TreeNode("S", "root", (TreeNode("t", None),)), 0.0)
    with pytest.raises(InvalidTree, match="'t' lacks a fresh instance id"):
        tree_probability(g, tree)


def test_and_start_over_terminals_scores_float_zero():
    # S -> a b with no Or-rule: every factor is 1, and the score is the
    # float 0.0, so aog sample prints 0.0 and not 0
    g = Grammar(
        domain=string_span_domain(),
        terminals=frozenset({"a", "b"}),
        and_nodes=frozenset({"S"}),
        or_nodes=frozenset(),
        start="S",
        and_rules=(AndRule("S", ("a", "b"), RelationRef("adjacent"), FunctionRef("concat")),),
        or_rules=(),
    )
    tree, _ = sample(g, seed=0)
    assert type(tree.log_prob) is float and tree.log_prob == 0.0
    assert type(tree_probability(g, tree)) is float
    assert '"log_prob": 0.0,' in canonical_dumps(tree_to_json_dict(tree, g.domain))
