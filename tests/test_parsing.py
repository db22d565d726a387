"""Chart parser against the brute-force enumeration reference."""

import collections
import dataclasses
import math
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aog
from aog import (
    AndRule,
    BudgetExceeded,
    CompositionKey,
    DataSample,
    FunctionRef,
    Grammar,
    MissingEntry,
    NotInNormalForm,
    OrRule,
    ParamTuple,
    ParserBudget,
    RelationRef,
    TerminalInstance,
    backtrack,
    build_table,
    cyk,
    enumerate_parses,
    interval_domain,
    param_order_key,
    parse,
    parse_scfg,
    project_parse,
    scfg_to_aog,
    string_sample,
    string_span_domain,
    to_gcnf,
    tree_probability,
    tree_sample,
    validate_grammar,
)
from aog.parsing import back_precedes, positions_of
from helpers import NEG_INF, chart_fingerprint, logsumexp, random_3sat, random_aog, random_spn

AMBIGUOUS = parse_scfg(
    """
    X -> X X [0.4]
    X -> a [0.6]
    """
)
LEFT_BRANCHING = parse_scfg(
    """
    S -> S A [0.5]
    S -> a [0.5]
    A -> a [1.0]
    """
)


def test_parse_requires_normal_form(line_drawing):
    x = DataSample((TerminalInstance("d0", "dot", (0, 0)),))
    with pytest.raises(NotInNormalForm):
        parse(line_drawing, x)


def test_parse_rejects_unknown_terminals(line_drawing):
    gcnf, _ = to_gcnf(line_drawing)
    with pytest.raises(ValueError):
        parse(gcnf, DataSample((TerminalInstance("z", "blot", (0, 0)),)))


def test_single_dot_parses(line_drawing):
    gcnf, _ = to_gcnf(line_drawing)
    result = parse(gcnf, DataSample((TerminalInstance("d0", "dot", (0, 0)),)))
    assert result.score == pytest.approx(math.log(0.2))
    assert result.tree is not None


def test_viterbi_and_marginal_on_ambiguous_string():
    # X -> X X | a over "aaa": two binary bracketings
    g = scfg_to_aog(AMBIGUOUS)
    gcnf, _ = to_gcnf(g)
    x = string_sample(["a", "a", "a"])
    per_tree = 0.4 * 0.4 * 0.6**3
    viterbi = parse(gcnf, x, "viterbi")
    marginal = parse(gcnf, x, "marginal")
    assert viterbi.score == pytest.approx(math.log(per_tree))
    assert marginal.score == pytest.approx(math.log(2 * per_tree))
    trees = enumerate_parses(g, x)
    assert len(trees) == 2
    assert logsumexp([lp for _, lp in trees]) == pytest.approx(marginal.score)


def test_no_parse_returns_neg_infinity(line_drawing):
    gcnf, _ = to_gcnf(line_drawing)
    # two dots that sit diagonally never form a figure
    x = DataSample(
        (
            TerminalInstance("d0", "dot", (0, 0)),
            TerminalInstance("d1", "dot", (1, 1)),
        )
    )
    for mode in ("viterbi", "marginal"):
        result = parse(gcnf, x, mode)
        assert result.score == NEG_INF
        assert result.tree is None
    assert enumerate_parses(line_drawing, x) == []


def test_viterbi_tree_is_valid_and_scores_itself(line_drawing):
    gcnf, node_map = to_gcnf(line_drawing)
    x = DataSample(
        (
            TerminalInstance("d0", "dot", (4, 2)),
            TerminalInstance("d1", "dot", (5, 2)),
            TerminalInstance("d2", "dot", (6, 2)),
        )
    )
    result = parse(gcnf, x, "viterbi")
    assert result.score == pytest.approx(math.log(0.5))
    projected = project_parse(result.tree, node_map, line_drawing)
    assert projected.log_prob == pytest.approx(result.score)
    assert tree_sample(line_drawing, projected).ids == x.ids


def test_permutation_of_instances_does_not_change_scores(line_drawing):
    gcnf, _ = to_gcnf(line_drawing)
    instances = (
        TerminalInstance("d0", "dot", (4, 2)),
        TerminalInstance("d1", "dot", (5, 2)),
        TerminalInstance("d2", "dot", (6, 2)),
    )
    straight = parse(gcnf, DataSample(instances), "marginal").score
    shuffled = parse(gcnf, DataSample(instances[::-1]), "marginal").score
    assert straight == pytest.approx(shuffled, abs=1e-12)


def test_budget_entries_enforced():
    g = scfg_to_aog(AMBIGUOUS)
    gcnf, _ = to_gcnf(g)
    x = string_sample(["a"] * 6)
    with pytest.raises(BudgetExceeded):
        parse(gcnf, x, budget=ParserBudget(max_entries=3))


def test_budget_seconds_bound_a_single_stratum():
    # at a×1000 one stratum of X -> X X takes seconds, so a deadline checked
    # only between strata would overshoot a 0.05 s budget many times over
    g = scfg_to_aog(AMBIGUOUS)
    gcnf, _ = to_gcnf(g)
    x = string_sample(["a"] * 1000)
    started = time.monotonic()
    with pytest.raises(BudgetExceeded):
        parse(gcnf, x, budget=ParserBudget(max_seconds=0.05))
    assert time.monotonic() - started < 0.5


def test_nan_budget_seconds_is_refused():
    # monotonic() > nan is never true: a nan deadline would never fire
    with pytest.raises(ValueError):
        ParserBudget(max_seconds=math.nan)
    gcnf, _ = to_gcnf(scfg_to_aog(AMBIGUOUS))
    result = parse(gcnf, string_sample(["a"] * 4), budget=ParserBudget(max_seconds=math.inf))
    assert result.score != NEG_INF


@pytest.mark.parametrize("field", ["max_entries", "max_seconds"])
def test_negative_budgets_are_refused(field):
    with pytest.raises(ValueError, match=f"{field} is -1"):
        ParserBudget(**{field: -1})
    ParserBudget(**{field: 0})  # zero stays valid: nothing may be stored, or no time spent


@pytest.mark.parametrize("value", [math.nan, 2.5, "5"])
def test_max_entries_must_be_an_int(value):
    # nan would never fire and 2.5 would report a fractional limit
    with pytest.raises(ValueError, match=f"max_entries is {value!r}; an int"):
        ParserBudget(max_entries=value)


def test_passed_deadline_fires_on_one_instance():
    # one instance has no combine step; the deadline is checked after seeding
    gcnf, _ = to_gcnf(scfg_to_aog(AMBIGUOUS))
    x = string_sample(["a"])
    with pytest.raises(BudgetExceeded, match="parse exceeded 0.0 seconds"):
        parse(gcnf, x, budget=ParserBudget(max_seconds=0.0))
    for limit in (math.inf, None):
        result = parse(gcnf, x, budget=ParserBudget(max_seconds=limit))
        assert result.score == pytest.approx(math.log(0.6))


def test_backtrack_does_not_recurse_per_tree_level():
    # a left-branching tree over 60 tokens is about 120 levels deep; rebuilt
    # under a recursion limit of 50 it must equal the tree parse returns
    code = textwrap.dedent(
        """
        import sys
        from aog import backtrack, build_table, parse, parse_scfg, scfg_to_aog
        from aog import string_sample, to_gcnf

        g = scfg_to_aog(parse_scfg("S -> S A [0.5]\\nS -> a [0.5]\\nA -> a [1.0]"))
        gcnf, _ = to_gcnf(g)
        x = string_sample(["a"] * 60)
        expected = parse(gcnf, x).tree
        table = build_table(gcnf, x)
        root = max(table.root_entries(), key=lambda kv: kv[1].score)[0]
        sys.setrecursionlimit(50)
        tree = backtrack(table, root)
        sys.setrecursionlimit(1000)
        assert tree == expected
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


def test_left_branching_a400_parses_within_budget():
    # testing every left x right cell pair made this parse take 66 s, nearly
    # all of it pairs that adjacent rejects
    gcnf, _ = to_gcnf(scfg_to_aog(LEFT_BRANCHING))
    tokens = ["a"] * 400
    result = parse(gcnf, string_sample(tokens), budget=ParserBudget(max_seconds=20))
    assert result.score == pytest.approx(cyk(LEFT_BRANCHING, tokens), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n", [8, 16, 24])
def test_all_spans_pair_tests_match_cyk(n):
    # the join pairs a span only with the spans that start where it ends:
    # one candidate per span and split point, as in cyk, where every
    # left x right pair of a split would be about n**4 / 12
    gcnf, _ = to_gcnf(scfg_to_aog(AMBIGUOUS))
    for mode in ("viterbi", "marginal"):
        assert parse(gcnf, string_sample(["a"] * n), mode).stats.pair_tests == math.comb(n + 1, 3)


def test_compiled_form_resolves_each_factory_once():
    calls = collections.Counter()

    def counted(kind, registry):
        def wrap(key, factory):
            def make(*args):
                calls[kind, key] += 1
                return factory(*args)

            return make

        return {key: wrap(key, factory) for key, factory in registry.items()}

    domain = string_span_domain()
    counting = dataclasses.replace(
        domain,
        relations=counted("relation", domain.relations),
        functions=counted("function", domain.functions),
        joins=counted("join", domain.joins),
    )
    gcnf, _ = to_gcnf(scfg_to_aog(AMBIGUOUS))
    g = dataclasses.replace(gcnf, domain=counting)
    x = string_sample(["a"] * 5)
    for mode in ("viterbi", "marginal"):
        assert build_table(g, x, mode).root_entries()
    assert calls == {("relation", "adjacent"): 1, ("function", "concat"): 1, ("join", "adjacent"): 1}


@pytest.mark.parametrize(
    "second, spans",
    [
        ("before", ((0, 1), (1, 2), (3, 4), (4, 5), (6, 7))),
        ("equals", ((0, 1), (0, 1), (1, 2), (1, 2))),
    ],
)
def test_child_pair_under_two_relations_matches_enumeration(second, spans):
    # the child pair (O, O) carries one And-rule under meets, which declares
    # a join key, and one under a second relation
    g = Grammar(
        domain=interval_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset({"M", "B"}),
        or_nodes=frozenset({"S", "O"}),
        start="S",
        and_rules=(
            AndRule("M", ("O", "O"), RelationRef("meets"), FunctionRef("hull")),
            AndRule("B", ("O", "O"), RelationRef(second), FunctionRef("hull")),
        ),
        or_rules=(
            OrRule("S", "M", 0.5),
            OrRule("S", "B", 0.5),
            OrRule("O", "t", 0.5),
            OrRule("O", "M", 0.3),
            OrRule("O", "B", 0.2),
        ),
    )
    assert validate_grammar(g).ok
    gcnf, node_map = to_gcnf(g)
    x = DataSample(tuple(TerminalInstance(f"i{k}", "t", span) for k, span in enumerate(spans)))
    assert_sample_matches_enumeration(g, gcnf, node_map, x)


def test_backtrack_requires_viterbi_table():
    g = scfg_to_aog(AMBIGUOUS)
    gcnf, _ = to_gcnf(g)
    x = string_sample(["a", "a"])
    table = build_table(gcnf, x, "marginal")
    with pytest.raises(ValueError):
        backtrack(table, table.root_entries()[0][0])
    table = build_table(gcnf, x, "viterbi")
    n = len(x)
    unknown_instance = CompositionKey("X", (9, 10), 1 << 9)
    size_out_of_range = CompositionKey("X", (0, 2), (1 << 7) - 1)
    empty = CompositionKey("X", (0, 2), 0)
    past_the_sample = CompositionKey("X", (0, 2), 1 << n)
    one_bit_too_many = CompositionKey("X", (0, 2), (1 << n + 1) - 1)
    for key in (unknown_instance, size_out_of_range, empty, past_the_sample, one_bit_too_many):
        with pytest.raises(MissingEntry):
            backtrack(table, key)
        with pytest.raises(MissingEntry):
            table.lookup(key)


def test_keys_of_the_wrong_type_are_missing_entries():
    # S -> S A | a over a x 3: a mask that is not an int, or an unhashable
    # param, names no cell
    gcnf, _ = to_gcnf(scfg_to_aog(LEFT_BRANCHING))
    x = string_sample(["a"] * 3)
    tables = {mode: build_table(gcnf, x, mode) for mode in ("viterbi", "marginal")}
    root = tables["viterbi"].root_entries()[0][0]
    assert (root.param, root.mask) == ((0, 3), 0b111)
    for key in (
        dataclasses.replace(root, mask="7"),
        dataclasses.replace(root, mask=7.0),
        dataclasses.replace(root, param=[0, 3]),
    ):
        for table in tables.values():
            with pytest.raises(MissingEntry):
                table.lookup(key)
        with pytest.raises(MissingEntry):
            backtrack(tables["viterbi"], key)


def test_stats_count_string_compositions():
    g = scfg_to_aog(AMBIGUOUS)
    gcnf, _ = to_gcnf(g)
    m = 5
    result = parse(gcnf, string_sample(["a"] * m), "viterbi")
    counts = result.stats.per_size_compositions
    # every span of every size is realized: exactly m - i + 1 substrings
    assert counts[0] == 0
    for i in range(1, m + 1):
        assert counts[i] == m - i + 1
    assert result.stats.c_max == m
    assert result.stats.worst_case_compositions == math.comb(m, m // 2)


def test_reruns_are_bit_identical(line_drawing):
    gcnf, _ = to_gcnf(line_drawing)
    x = DataSample(
        (
            TerminalInstance("d0", "dot", (0, 0)),
            TerminalInstance("d1", "dot", (0, 1)),
        )
    )
    scores = {parse(gcnf, x, "marginal").score for _ in range(3)}
    assert len(scores) == 1


def test_viterbi_ties_break_deterministically():
    # two equally probable derivations of the same sample
    g = scfg_to_aog(
        parse_scfg(
            """
            S -> A B [0.5]
            S -> B A [0.5]
            A -> a [1.0]
            B -> a [1.0]
            """
        )
    )
    gcnf, node_map = to_gcnf(g)
    x = string_sample(["a", "a"])
    first = parse(gcnf, x, "viterbi")
    for _ in range(3):
        again = parse(gcnf, x, "viterbi")
        t1 = project_parse(first.tree, node_map, g)
        t2 = project_parse(again.tree, node_map, g)
        assert t1.root.children[0].node == t2.root.children[0].node


# the (left, right) children of And-rules 0, 1 and 2 in the tie tests
TIE_CHILDREN = (("X", "Y"), ("Y", "X"), ("X", "X"))


def full_tie_key(back):
    """The tie rule's documented key of a flat backpointer: a child's size
    is the popcount of its mask and its node comes from the And-rule."""
    if len(back) == 2:
        return back
    and_idx, lparam, lmask, rparam, rmask, or_idx = back
    left, right = TIE_CHILDREN[and_idx]
    return (
        and_idx,
        (lmask.bit_count(), left, param_order_key(lparam), lmask),
        (rmask.bit_count(), right, param_order_key(rparam), rmask),
        or_idx,
    )


tie_params = st.recursive(
    st.none() | st.integers(-2, 2),
    lambda inner: st.lists(inner, max_size=3).map(tuple)
    | st.lists(inner, max_size=3).map(lambda items: ParamTuple(tuple(items))),
    max_leaves=5,
)
# masks of sizes 1 to 4, several of each size
tie_masks = st.integers(1, 15)
# (and rule, left param, left mask, right param, right mask, or rule)
flat_backs = st.tuples(
    st.integers(0, 2), tie_params, tie_masks, tie_params, tie_masks, st.integers(0, 2)
)
size_one_backs = st.tuples(st.integers(0, 2), st.sampled_from(["w0", "w1", "w10"]))


def as_cell(back):
    """The viterbi cell, scored 0, whose flat backpointer is back."""
    if len(back) == 2:
        return (0.0, *back)
    and_idx, lparam, lmask, rparam, rmask, or_idx = back
    return (0.0, and_idx, (lparam, lmask), (rparam, rmask), or_idx)


def sharing_prefix(first, second, shared):
    """first, and second with its first `shared` fields taken from first."""
    return first, first[:shared] + second[shared:]


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.builds(sharing_prefix, size_one_backs, size_one_backs, st.integers(0, 2)),
        st.builds(sharing_prefix, flat_backs, flat_backs, st.integers(0, 6)),
    )
)
def test_lazy_tie_rule_matches_full_keys(pair):
    first, second = pair
    for back, other in ((first, second), (second, first)):
        assert back_precedes(as_cell(back), as_cell(other)) == (
            full_tie_key(back) < full_tie_key(other)
        )


def assert_every_cell_backtracks(gcnf, x):
    """backtrack on every cell of the viterbi chart, not only the roots,
    gives a tree scored as the cell whose leaves are the cell's instances;
    returns the number of cells."""
    table = build_table(gcnf, x, "viterbi")
    ids = [inst.instance_id for inst in x.instances]
    cells = 0
    for size, stratum in enumerate(table.scores):
        for node, node_cells in stratum.items():
            rooted_here = dataclasses.replace(gcnf, start=node)
            for param, mask in node_cells:
                assert mask.bit_count() == size
                key = CompositionKey(node, param, mask)
                tree = backtrack(table, key)
                assert tree.log_prob == table.lookup(key)
                assert (tree.root.node, tree.root.param) == (node, param)
                instances = [ids[i] for i in range(len(ids)) if mask >> i & 1]
                assert sorted(leaf.instance for leaf in tree.leaves()) == sorted(instances)
                # the tree is a derivation of the grammar that scores as the cell
                assert tree_probability(rooted_here, tree) == pytest.approx(
                    tree.log_prob, rel=1e-12, abs=1e-12
                )
                cells += 1
    return cells


@pytest.mark.parametrize("kind", ["string", "grid", "null", "interval"])
def test_backtrack_from_every_cell(kind):
    cells = 0
    for trial in range(12):
        g = random_aog(random.Random(3000 + trial), allow_or_chains=trial % 2 == 1, kind=kind)
        gcnf, _ = to_gcnf(g)
        for seed in range(3):
            _, x = aog.sample(g, seed=seed * 13 + trial)
            if len(x) <= 8:
                cells += assert_every_cell_backtracks(gcnf, x)
    assert cells > 100


def test_backtrack_from_every_all_spans_cell():
    gcnf, _ = to_gcnf(scfg_to_aog(AMBIGUOUS))
    x = string_sample(["a"] * 12)
    # one cell per span and Or-node of the normal form
    assert assert_every_cell_backtracks(gcnf, x) == 78 * len({r.head for r in gcnf.or_rules})


def assert_matches_enumeration(g, trial):
    """Viterbi, marginal and the projected tree of a small sample drawn from
    g agree with enumerate_parses."""
    assert validate_grammar(g).ok
    gcnf, node_map = to_gcnf(g)
    from aog import sample as draw

    x = None
    for seed in range(12):
        tree, candidate = draw(g, seed=seed * 97 + trial)
        if 1 <= len(candidate) <= 6:
            x = candidate
            break
    if x is None:
        pytest.skip("grammar only produced large samples")
    assert_sample_matches_enumeration(g, gcnf, node_map, x)


def assert_sample_matches_enumeration(g, gcnf, node_map, x):
    """Viterbi, marginal and the projected tree of x under gcnf, the normal
    form of g, agree with enumerate_parses on g; x must have a parse."""
    trees = enumerate_parses(g, x)
    assert trees, "a drawn sample must parse under its own grammar"
    best = max(lp for _, lp in trees)
    total = logsumexp([lp for _, lp in trees])
    viterbi = parse(gcnf, x, "viterbi")
    marginal = parse(gcnf, x, "marginal")
    assert viterbi.score == pytest.approx(best, rel=1e-9, abs=1e-9)
    assert marginal.score == pytest.approx(total, rel=1e-9, abs=1e-9)
    projected = project_parse(viterbi.tree, node_map, g)
    assert projected.log_prob == pytest.approx(best, rel=1e-9, abs=1e-9)
    assert tree_sample(g, projected).ids == x.ids


@pytest.mark.parametrize("trial", range(60))
def test_random_grammars_match_enumeration(trial):
    assert_matches_enumeration(random_aog(random.Random(1000 + trial)), trial)


@pytest.mark.parametrize("trial", range(30))
def test_random_interval_grammars_match_enumeration(trial):
    # chained meets and equals relations, combined by hull
    assert_matches_enumeration(random_aog(random.Random(1000 + trial), kind="interval"), trial)


@pytest.mark.parametrize("trial", range(30))
def test_unit_chain_grammars_preserve_marginal(trial):
    # parallel choice chains collapse into one normal-form rule: the marginal
    # is preserved exactly, viterbi scores the merged chain class, and the
    # projected tree is still a valid tree of the original grammar
    rng = random.Random(2000 + trial)
    g = random_aog(rng, allow_or_chains=True)
    gcnf, node_map = to_gcnf(g)
    from aog import sample as draw

    x = None
    for seed in range(12):
        _, candidate = draw(g, seed=seed * 53 + trial)
        if 1 <= len(candidate) <= 6:
            x = candidate
            break
    if x is None:
        pytest.skip("grammar only produced large samples")
    trees = enumerate_parses(g, x)
    assert trees
    best = max(lp for _, lp in trees)
    total = logsumexp([lp for _, lp in trees])
    viterbi = parse(gcnf, x, "viterbi")
    marginal = parse(gcnf, x, "marginal")
    assert marginal.score == pytest.approx(total, rel=1e-9, abs=1e-9)
    merged = any(len(chains) > 1 for chains in node_map.unit_chains.values())
    if merged:
        assert best - 1e-9 <= viterbi.score <= total + 1e-9
    else:
        assert viterbi.score == pytest.approx(best, rel=1e-9, abs=1e-9)
    projected = project_parse(viterbi.tree, node_map, g)
    assert projected.log_prob <= best + 1e-9
    assert tree_sample(g, projected).ids == x.ids


def counting(g: Grammar) -> Grammar:
    """g with every Or-rule probability 1.0: build_table does not check the
    sums, so a parse's marginal is then its number of derivations."""
    ones = tuple(dataclasses.replace(rule, prob=1.0) for rule in g.or_rules)
    return dataclasses.replace(g, or_rules=ones)


def derivation_count(g: Grammar, x: DataSample) -> int:
    return round(math.exp(parse(g, x, "marginal").score))


@pytest.mark.parametrize("chains", [False, True], ids=["tree", "or-chains"])
@pytest.mark.parametrize("kind", ["string", "grid", "null", "interval"])
def test_chart_counts_every_derivation(kind, chains):
    # the chart holds each derivation of the normal form exactly once
    parses = 0
    for trial in range(16):
        g = random_aog(random.Random(7000 + trial), allow_or_chains=chains, kind=kind)
        ones = counting(to_gcnf(g)[0])
        for seed in range(4):
            _, x = aog.sample(g, seed=seed)
            if len(x) <= 6:
                assert derivation_count(ones, x) == len(enumerate_parses(ones, x))
                parses += 1
    assert parses > 30


def test_chart_counts_catalan_many_bracketings():
    # X -> X X | a derives a x n in Catalan(n - 1) ways
    ones = counting(to_gcnf(scfg_to_aog(AMBIGUOUS))[0])
    for n in range(1, 17):
        catalan = math.comb(2 * n - 2, n - 1) // n
        assert derivation_count(ones, string_sample(["a"] * n)) == catalan


@pytest.mark.parametrize("trial", range(20))
def test_random_grammars_agree_on_mutated_samples(trial):
    # mutations may break parseability; engine and reference must agree either way
    rng = random.Random(5000 + trial)
    g = random_aog(rng)
    gcnf, _ = to_gcnf(g)
    from aog import sample as draw

    x = None
    for seed in range(12):
        _, candidate = draw(g, seed=seed * 31 + trial)
        if 1 <= len(candidate) <= 5:
            x = candidate
            break
    if x is None:
        pytest.skip("grammar only produced large samples")
    instances = list(x.instances)
    if len(instances) > 1 and rng.random() < 0.5:
        instances = instances[:-1]  # drop one instance
    else:
        extra = instances[0]
        instances.append(TerminalInstance("extra", extra.terminal, extra.param))
    mutated = DataSample(tuple(instances))
    trees = enumerate_parses(g, mutated)
    marginal = parse(gcnf, mutated, "marginal")
    if trees:
        assert marginal.score == pytest.approx(
            logsumexp([lp for _, lp in trees]), rel=1e-9, abs=1e-9
        )
    else:
        assert marginal.score == NEG_INF


SPARSE = parse_scfg(
    """
    S -> A B [1.0]
    A -> a [1.0]
    B -> a [1.0]
    """
)


def sat_formula(seed):
    return aog.sat_to_aog(random_3sat(random.Random(seed)))


def assert_only_read_cells_stored(gcnf, x, mode):
    """Every stored cell is one a later step reads: an And-rule child's
    below the top size, the start's at it."""
    table = build_table(gcnf, x, mode)
    read = {child for rule in gcnf.and_rules for child in rule.children}
    n = len(x)
    for size, stratum in enumerate(table.scores):
        for node in stratum:
            assert node == gcnf.start if size == n else node in read, (size, node)
    return table


@pytest.mark.parametrize("mode", ["viterbi", "marginal"])
def test_chart_stores_only_cells_a_later_step_reads(mode):
    charts = []
    for kind in ("string", "grid", "null", "interval"):
        for trial in range(8):
            g = random_aog(random.Random(7000 + trial), allow_or_chains=trial % 2 == 1, kind=kind)
            gcnf, _ = to_gcnf(g)
            for seed in range(2):
                _, x = aog.sample(g, seed=seed * 17 + trial)
                if len(x) <= 8:
                    charts.append((gcnf, x))
    charts.append((to_gcnf(scfg_to_aog(AMBIGUOUS))[0], string_sample(["a"] * 10)))
    charts.append((to_gcnf(scfg_to_aog(SPARSE))[0], string_sample(["a"] * 3)))
    for seed in range(44000, 44020):
        g, x = sat_formula(seed)
        charts.append((to_gcnf(g)[0], x))
    for gcnf, x in charts:
        assert_only_read_cells_stored(gcnf, x, mode)
    assert len(charts) > 50


def test_start_cells_below_the_top_size_are_not_stored():
    # S -> A B over a×3 derives the start on both two-token spans; no
    # And-rule reads the start, so those cells are counted, not stored
    gcnf, _ = to_gcnf(scfg_to_aog(SPARSE))
    x = string_sample(["a"] * 3)
    table = assert_only_read_cells_stored(gcnf, x, "viterbi")
    assert table.stats.per_size_compositions == [0, 3, 2, 0]
    assert table.stats.per_size_entries == [0, 6, 0, 0]
    for key in (
        CompositionKey(gcnf.start, (0, 2), 0b011),  # w0 w1
        CompositionKey(gcnf.start, (1, 3), 0b110),  # w1 w2
    ):
        with pytest.raises(MissingEntry):
            table.lookup(key)
        with pytest.raises(MissingEntry):
            backtrack(table, key)


@pytest.mark.parametrize("over_unread", [False, True])
def test_compositions_count_sets_derived_into_no_stored_cell(over_unread):
    # P -> A B and the terminal c feed only the start; U -> B A is an
    # And-node nothing reads, and no Or-rule is over the terminal d.  A
    # derivation counts as a composition when some Or-rule is over its
    # head, stored or not: c's, P's on "a b", and U's on "b a" only under
    # V -> U.
    or_rules = [
        OrRule("S", "P", 0.5),
        OrRule("S", "c", 0.5),
        OrRule("A", "a", 1.0),
        OrRule("B", "b", 1.0),
    ]
    if over_unread:
        or_rules.append(OrRule("V", "U", 1.0))
    g = Grammar(
        domain=string_span_domain(),
        terminals=frozenset({"a", "b", "c", "d"}),
        and_nodes=frozenset({"P", "U"}),
        or_nodes=frozenset({"S", "A", "B"} | ({"V"} if over_unread else set())),
        start="S",
        and_rules=(
            AndRule("P", ("A", "B"), RelationRef("adjacent"), FunctionRef("concat")),
            AndRule("U", ("B", "A"), RelationRef("adjacent"), FunctionRef("concat")),
        ),
        or_rules=tuple(or_rules),
    )
    x = string_sample(["a", "b", "a", "c", "d"])
    for mode in ("viterbi", "marginal"):
        table = assert_only_read_cells_stored(g, x, mode)
        assert table.stats.per_size_compositions == [0, 4, 1 + over_unread, 0, 0, 0]
        assert table.stats.per_size_entries == [0, 3, 0, 0, 0, 0]
        assert table.stats.pair_tests == 2


# per_size_compositions, pair_tests and the root score's float.hex are
# those of a chart that stores every cell it derives; table_entries counts
# the stored cells only: 5009 of 12246 and 8248 of 16472 on the two
# formulas, all 311 on the network
UNREAD_PINS = {
    "sat 44002": (
        [0, 13, 78, 285, 705, 1242, 1596, 1506, 1035, 505, 166, 33, 3, 0],
        27269,
        {"viterbi": "-inf", "marginal": "-inf"},
        5009,
    ),
    "sat 44008": (
        [0, 12, 66, 220, 495, 792, 924, 792, 495, 220, 66, 12, 1],
        140111,
        {"viterbi": "-0x1.5cc9e7b43bc91p+3", "marginal": "-0x1.1e03ffa51279bp+3"},
        8248,
    ),
    "spn 43000": (
        [0, 10, 9, 7, 4, 2, 1, 1, 0, 0, 1],
        144,
        {"viterbi": "-0x1.3e071c1543164p+3", "marginal": "-0x1.a25f3cb714ab6p+2"},
        311,
    ),
}


def pinned_input(name):
    if name.startswith("sat"):
        g, x = sat_formula(int(name.split()[1]))
    else:
        conv = aog.spn_to_aog(random_spn(random.Random(43000), 10))
        g = conv.grammar
        bits = 0b1011001110
        x = aog.assignment_sample(conv, {v: (bits >> (v - 1)) & 1 for v in range(1, 11)})
    return to_gcnf(g)[0], x


@pytest.mark.parametrize("name", sorted(UNREAD_PINS))
def test_unread_cells_leave_scores_and_counts_exact(name):
    comps, pair_tests, scores, entries = UNREAD_PINS[name]
    gcnf, x = pinned_input(name)
    for mode, score in scores.items():
        result = parse(gcnf, x, mode)
        assert result.stats.per_size_compositions == comps
        assert result.stats.pair_tests == pair_tests
        assert result.score.hex() == score
        assert result.stats.table_entries == entries


# (per_size_compositions, per_size_entries) of viterbi charts over a×1..3:
# no combine step at n = 1, only the top stratum at n = 2, and under
# S -> A B a start that no step reads below n
TINY_PINS = {
    "S -> a [1.0]": [([0, 1], [0, 1]), ([0, 2, 0], [0, 0, 0]), ([0, 3, 0, 0], [0, 0, 0, 0])],
    "X -> X X [0.4]\nX -> a [0.6]": [
        ([0, 1], [0, 1]),
        ([0, 2, 1], [0, 2, 1]),
        ([0, 3, 2, 1], [0, 3, 2, 1]),
    ],
    "S -> A B [1.0]\nA -> a [1.0]\nB -> a [1.0]": [
        ([0, 1], [0, 0]),
        ([0, 2, 1], [0, 4, 1]),
        ([0, 3, 2, 0], [0, 6, 0, 0]),
    ],
}


@pytest.mark.parametrize("rules", sorted(TINY_PINS))
def test_tiny_sample_counts_are_pinned(rules):
    gcnf, _ = to_gcnf(scfg_to_aog(parse_scfg(rules)))
    for n, counts in enumerate(TINY_PINS[rules], 1):
        stats = build_table(gcnf, string_sample(["a"] * n)).stats
        assert (stats.per_size_compositions, stats.per_size_entries) == counts, n


@pytest.mark.parametrize("mode", ["viterbi", "marginal"])
def test_build_table_peak_memory_stays_near_the_kept_chart(mode):
    # a parse holds its chart plus the mask set of one stratum, so its
    # traced peak stays within a tenth of the chart it returns
    gcnf, x = pinned_input("sat 44008")
    gcnf.compiled  # compile outside the traced span
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = build_table(gcnf, x, mode)
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    assert table.stats.table_entries == UNREAD_PINS["sat 44008"][3]
    assert peak <= 1.10 * kept, (peak, kept)


def test_budget_entries_count_stored_cells():
    gcnf, x = pinned_input("sat 44008")
    entries = UNREAD_PINS["sat 44008"][3]
    assert parse(gcnf, x, budget=ParserBudget(max_entries=entries)).stats.table_entries == entries
    with pytest.raises(BudgetExceeded):
        parse(gcnf, x, budget=ParserBudget(max_entries=entries - 1))


# sha256 of every stored cell in insertion order (helpers.chart_fingerprint),
# taken from a chart built before seeding wrote size-1 cells directly
CHART_FINGERPRINTS = {
    "sat 44002": {
        "viterbi": "551109ef351ef98a40fdddd2a0ca3648a3c425aa066671d84b3e976292b929e1",
        "marginal": "3f1c229ef8ac45474917bf90f5095855f790f41edd460738f1921b0e9116817a",
    },
    "sat 44008": {
        "viterbi": "c5218bb2baeca193e5d9fbbe7351b2086c3566217f3819ac321a433429d36029",
        "marginal": "5c9415077c1478a9fbfb67c72e164024719a258956bab13333077f15159590a2",
    },
    "spn 43000": {
        "viterbi": "4546b9bc7abcd093d26d1cfbf16a8fc5f22685f375460c87f24539f8c10bfa7e",
        "marginal": "c706ca398231d85cb9b79da23c7a1f9e160d23bf8ee06fcb42e2820ce981e593",
    },
    "all-spans a8": {
        "viterbi": "524f6dc767812bcaed1f352e4862bb0e3ebd9630c9c3fbcada95f74cc2038603",
        "marginal": "848c99968acd7fa3a0348cc1868a8748c3b0f55573974c83429c8b87ccd22475",
    },
}


@pytest.mark.parametrize("name", sorted(CHART_FINGERPRINTS))
def test_chart_fingerprint_is_pinned(name):
    if name in UNREAD_PINS:
        gcnf, x = pinned_input(name)
    else:
        gcnf, x = to_gcnf(scfg_to_aog(AMBIGUOUS))[0], string_sample(["a"] * 8)
    for mode, fingerprint in CHART_FINGERPRINTS[name].items():
        assert chart_fingerprint(build_table(gcnf, x, mode)) == fingerprint


@pytest.mark.parametrize("name", ["sat 44008", "all-spans a8"])
def test_cells_are_flat_and_name_their_children_by_stored_keys(name):
    if name in UNREAD_PINS:
        gcnf, x = pinned_input(name)
    else:
        gcnf, x = to_gcnf(scfg_to_aog(AMBIGUOUS))[0], string_sample(["a"] * 8)
    seeds = {inst.instance_id: (inst, 1 << i) for i, inst in enumerate(x.instances)}
    for mode in ("viterbi", "marginal"):
        table = build_table(gcnf, x, mode)
        # (size, node) -> each stored key mapped to itself, to reach the key object
        stored = {
            (size, node): {key: key for key in cells}
            for size, stratum in enumerate(table.scores)
            for node, cells in stratum.items()
        }
        lengths = collections.Counter()
        for size, stratum in enumerate(table.scores):
            for node, cells in stratum.items():
                for key, cell in cells.items():
                    assert type(cell) is tuple and type(cell[0]) is float
                    lengths[len(cell)] += 1
                    if mode == "marginal":
                        continue
                    or_rule = gcnf.or_rules[cell[-1] if size > 1 else cell[1]]
                    assert or_rule.head == node
                    if size == 1:
                        _, _, instance = cell
                        inst, mask = seeds[instance]
                        assert (or_rule.child, key) == (inst.terminal, (inst.param, mask))
                        continue
                    _, and_idx, lkey, rkey, _ = cell
                    and_rule = gcnf.and_rules[and_idx]
                    assert or_rule.child == and_rule.head
                    assert lkey[1] | rkey[1] == key[1] and not lkey[1] & rkey[1]
                    for child, child_key in zip(and_rule.children, (lkey, rkey)):
                        assert stored[child_key[1].bit_count(), child][child_key] is child_key
        if mode == "marginal":
            assert set(lengths) == {1}
        else:
            assert set(lengths) == {3, 5} and lengths[3] == table.stats.per_size_entries[1]
        assert lengths.total() == table.stats.table_entries > len(x)


def duplicate_or_rule_grammar(p, r):
    # S -> P | t | t and A -> t | t: both Or-nodes have two Or-rules over
    # the one terminal, so seeding derives their size-1 cells twice.
    # validate_grammar reports such rules; build_table does not refuse them.
    return Grammar(
        domain=string_span_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset({"P"}),
        or_nodes=frozenset({"S", "A"}),
        start="S",
        and_rules=(AndRule("P", ("A", "A"), RelationRef("adjacent"), FunctionRef("concat")),),
        or_rules=(
            OrRule("S", "P", 1 - sum(r)),
            OrRule("S", "t", r[0]),
            OrRule("S", "t", r[1]),
            OrRule("A", "t", p[0]),
            OrRule("A", "t", p[1]),
        ),
    )


@pytest.mark.parametrize("p, r", [((0.5, 0.5), (0.25, 0.25)), ((0.3, 0.7), (0.4, 0.1))])
def test_duplicate_or_rules_fold_at_seeding(p, r):
    g = duplicate_or_rule_grammar(p, r)
    assert {issue.code for issue in validate_grammar(g).issues} == {"or-duplicate"}
    # the larger prob wins; on a tie the smaller Or-rule index (rules 1 and 3)
    s_rule = 1 if r[0] >= r[1] else 2
    a_rule = 3 if p[0] >= p[1] else 4
    log_p = math.log(1 - sum(r))  # S -> P, with A's two Or-rules summing to 1
    cases = [
        (["t"], "S", r, s_rule, math.log(max(r)), math.log(sum(r))),
        (["t", "t"], "A", p, a_rule, log_p + 2 * math.log(max(p)), log_p),
    ]
    for tokens, node, probs, or_rule, best, total in cases:
        x = string_sample(tokens)
        trees = enumerate_parses(g, x)
        assert len(trees) == 2 ** len(tokens)
        viterbi = parse(g, x, "viterbi")
        marginal = parse(g, x, "marginal")
        assert viterbi.score == pytest.approx(max(lp for _, lp in trees), abs=1e-12)
        assert viterbi.score == pytest.approx(best, abs=1e-12)
        assert marginal.score == pytest.approx(logsumexp([lp for _, lp in trees]), abs=1e-12)
        assert marginal.score == pytest.approx(total, abs=1e-12)
        assert tree_probability(g, viterbi.tree) == pytest.approx(best, abs=1e-12)
        table = build_table(g, x, "viterbi")
        assert table.stats.per_size_entries[1] == len(tokens)
        assert table.scores[1][node][(0, 1), 1] == (math.log(max(probs)), or_rule, "w0")


def test_budget_entries_bind_during_seeding():
    gcnf, x = pinned_input("spn 43000")
    stats = parse(gcnf, x).stats
    seeded = stats.per_size_entries[1]
    assert 0 < seeded < stats.table_entries
    with pytest.raises(BudgetExceeded, match=f"chart exceeded {seeded - 1} entries"):
        parse(gcnf, x, budget=ParserBudget(max_entries=seeded - 1))
    budget = ParserBudget(max_entries=stats.table_entries)
    assert parse(gcnf, x, budget=budget).stats.table_entries == stats.table_entries
    # one token: the seeded cell is the only one, so no later step can catch it
    gcnf = to_gcnf(scfg_to_aog(AMBIGUOUS))[0]
    with pytest.raises(BudgetExceeded, match="chart exceeded 0 entries"):
        parse(gcnf, string_sample(["a"]), budget=ParserBudget(max_entries=0))


@pytest.mark.parametrize("kind", ["string", "grid", "null", "interval"])
def test_compiled_seed_positions_match_the_seeded_chart(kind):
    checked = 0
    for trial in range(16):
        g = random_aog(random.Random(8000 + trial), allow_or_chains=trial % 2 == 1, kind=kind)
        gcnf, _ = to_gcnf(g)
        compiled = gcnf.compiled
        for seed in range(4):
            _, x = aog.sample(g, seed=seed * 19 + trial)
            if not 2 <= len(x) <= 8:
                continue
            seeded = build_table(gcnf, x).scores[1]
            terminals = {inst.terminal for inst in x.instances}
            for by_node, seeds in zip((compiled.by_left, compiled.by_right), compiled.seeds):
                assert all(list(seeds[t]) == sorted(set(seeds[t])) for t in gcnf.terminals)
                assert set().union(*(seeds[t] for t in terminals)) == positions_of(by_node, seeded)
            checked += 1
    assert checked >= 10
