"""Normal-form conversion and parse projection."""

import math
import random

import pytest

from aog import (
    AndRule,
    BudgetExceeded,
    DataSample,
    DomainError,
    FunctionRef,
    Grammar,
    MapMismatch,
    NodeMap,
    OrRule,
    ParserBudget,
    RelationRef,
    TerminalInstance,
    UnitCycleError,
    enumerate_parses,
    gcnf_violations,
    null_domain,
    parse,
    project_parse,
    sample,
    to_gcnf,
    tree_probability,
    tree_sample,
    validate_grammar,
)
from helpers import logsumexp, random_aog


def assert_is_gcnf(g):
    assert gcnf_violations(g) == []


def test_gcnf_violations_lists_problems(line_drawing):
    issues = gcnf_violations(line_drawing)
    assert issues  # arity-3 rule at least
    assert any("hline" in m for m in issues)


def test_to_gcnf_output_is_certified(line_drawing):
    gcnf, node_map = to_gcnf(line_drawing)
    assert_is_gcnf(gcnf)
    assert validate_grammar(gcnf).ok
    assert node_map.original_start == "figure"
    assert gcnf.start == "figure"


def test_to_gcnf_requires_valid_input():
    g = Grammar(
        domain=null_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset(),
        or_nodes=frozenset({"S"}),
        start="S",
        and_rules=(),
        or_rules=(OrRule("S", "t", 0.5),),  # probs sum to 0.5
    )
    with pytest.raises(ValueError):
        to_gcnf(g)


def test_to_gcnf_idempotent_on_normal_grammars(line_drawing):
    gcnf, _ = to_gcnf(line_drawing)
    again, node_map = to_gcnf(gcnf)
    # no structural work left: identical rules, no fresh nodes
    assert not node_map.bin_nodes
    assert not node_map.alt_nodes
    assert again.and_rules == gcnf.and_rules
    assert again.or_rules == gcnf.or_rules


def test_start_wrapper_added_when_start_is_and():
    g = Grammar(
        domain=null_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset({"A"}),
        or_nodes=frozenset({"B"}),
        start="A",
        and_rules=(AndRule("A", ("B", "B"), RelationRef("true"), FunctionRef("null")),),
        or_rules=(OrRule("B", "t", 1.0),),
    )
    gcnf, node_map = to_gcnf(g)
    assert_is_gcnf(gcnf)
    assert gcnf.start != "A"
    assert node_map.start_node == gcnf.start
    assert gcnf.kind(gcnf.start).name == "OR"


def test_unit_cycle_rejected():
    g = Grammar(
        domain=null_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset(),
        or_nodes=frozenset({"A", "B"}),
        start="A",
        and_rules=(),
        or_rules=(
            OrRule("A", "B", 0.6),
            OrRule("A", "t", 0.4),
            OrRule("B", "A", 1.0),
        ),
    )
    with pytest.raises(UnitCycleError):
        to_gcnf(g)


def test_wide_rule_binarized_with_packed_params(wide_string_grammar):
    gcnf, node_map = to_gcnf(wide_string_grammar)
    assert_is_gcnf(gcnf)
    assert all(len(r.children) == 2 for r in gcnf.and_rules)
    assert node_map.bin_nodes  # arity 4 and 5 rules forced fresh nodes
    assert gcnf.domain.name.startswith("tuple")


def test_parse_scores_survive_binarization(wide_string_grammar):
    gcnf, node_map = to_gcnf(wide_string_grammar)
    for seed in (3, 11, 29):
        tree, x = sample(wide_string_grammar, seed=seed)
        trees = enumerate_parses(wide_string_grammar, x)
        best = max(lp for _, lp in trees)
        total = logsumexp([lp for _, lp in trees])
        viterbi = parse(gcnf, x, "viterbi")
        marginal = parse(gcnf, x, "marginal")
        assert viterbi.score == pytest.approx(best, rel=1e-9)
        assert marginal.score == pytest.approx(total, rel=1e-9)
        projected = project_parse(viterbi.tree, node_map, wide_string_grammar)
        assert projected.log_prob == pytest.approx(best, abs=1e-12)
        assert tree_sample(wide_string_grammar, projected).ids == x.ids


def test_projection_restores_original_nodes(line_drawing):
    gcnf, node_map = to_gcnf(line_drawing)
    x = DataSample(
        (
            TerminalInstance("p0", "dot", (0, 0)),
            TerminalInstance("p1", "dot", (1, 0)),
            TerminalInstance("p2", "dot", (2, 0)),
        )
    )
    result = parse(gcnf, x, "viterbi")
    projected = project_parse(result.tree, node_map, line_drawing)
    names = {n.node for n in projected.root.walk()}
    original = line_drawing.terminals | line_drawing.and_nodes | line_drawing.or_nodes
    assert names <= original
    assert tree_probability(line_drawing, projected) == pytest.approx(result.score)


def test_projection_rejects_foreign_tree(line_drawing, wide_string_grammar):
    gcnf_a, map_a = to_gcnf(line_drawing)
    gcnf_b, map_b = to_gcnf(wide_string_grammar)
    x = DataSample((TerminalInstance("p0", "dot", (0, 0)),))
    tree = parse(gcnf_a, x, "viterbi").tree
    with pytest.raises(MapMismatch):
        project_parse(tree, map_b, wide_string_grammar)


def test_node_map_json_roundtrip(wide_string_grammar):
    _, node_map = to_gcnf(wide_string_grammar)
    restored = NodeMap.from_json_dict(node_map.to_json_dict())
    assert restored == node_map


def test_unit_chain_merge_sums_probabilities():
    # two chains S -> A -> t (0.6 * 1.0) and S -> t (0.4) merge into one rule
    g = Grammar(
        domain=null_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset(),
        or_nodes=frozenset({"S", "A"}),
        start="S",
        and_rules=(),
        or_rules=(
            OrRule("S", "A", 0.6),
            OrRule("A", "t", 1.0),
            OrRule("S", "t", 0.4),
        ),
    )
    gcnf, node_map = to_gcnf(g)
    assert_is_gcnf(gcnf)
    rules = [r for r in gcnf.or_rules if r.head == "S"]
    assert len(rules) == 1
    assert rules[0].prob == pytest.approx(1.0)
    chains = node_map.unit_chains[("S", "t")]
    assert sorted(c.prob for c in chains) == pytest.approx([0.4, 0.6])
    x = DataSample((TerminalInstance("i", "t", None),))
    result = parse(gcnf, x, "viterbi")
    assert result.score == pytest.approx(0.0)  # log 1.0
    projected = project_parse(result.tree, node_map, g)
    # projection re-expands along the highest-probability chain
    assert [n.node for n in projected.root.walk()] == ["S", "A", "t"]
    assert projected.log_prob == pytest.approx(math.log(0.6))


def test_rule_count_growth_is_linear():
    # binarization adds at most one fresh node per extra child
    for trial in range(20):
        rng = random.Random(300 + trial)
        g = random_aog(rng)
        gcnf, _ = to_gcnf(g)
        before = len(g.and_rules) + len(g.or_rules)
        after = len(gcnf.and_rules) + len(gcnf.or_rules)
        widest = max((len(r.children) for r in g.and_rules), default=2)
        assert after <= before * (widest + 2)


@pytest.mark.parametrize("kind", ["grid", "interval", "null"])
def test_normal_form_of_a_top_down_grammar_samples(kind):
    # the tuple domain splits a packed parent for pack, extend and
    # apply_packed, so a draw may pass through every binarized rule
    checked = 0
    for trial in range(100):
        gcnf, _ = to_gcnf(random_aog(random.Random(900 + trial), kind=kind))
        for seed in range(3):
            try:
                tree, x = sample(gcnf, seed=seed)
            except DomainError:  # an interval too narrow to split
                continue
            assert tree_probability(gcnf, tree) == pytest.approx(tree.log_prob, abs=1e-9)
            assert tree_sample(gcnf, tree) == x
            try:
                result = parse(gcnf, x, budget=ParserBudget(max_entries=5_000))
            except BudgetExceeded:  # a null-domain chart holds every subset
                continue
            assert result.score >= tree.log_prob - 1e-9
            checked += 1
    assert checked >= 250
