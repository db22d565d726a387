"""Chart parser against the brute-force enumeration reference."""

import collections
import dataclasses
import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
import types
import weakref
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
    DepthExceeded,
    DomainError,
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
    null_domain,
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
from aog import parsing
from aog.cli import main
from aog.parsing import log_add, tie_key
from helpers import (
    NEG_INF,
    calling_every_relation,
    chart_fingerprint,
    full_chart_parse,
    logsumexp,
    packed,
    random_3sat,
    random_aog,
    random_spn,
)

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


def test_parse_rejects_an_unknown_mode(line_drawing):
    gcnf, _ = to_gcnf(line_drawing)
    with pytest.raises(ValueError, match="^unknown parse mode 'best'$"):
        parse(gcnf, DataSample((TerminalInstance("d0", "dot", (0, 0)),)), "best")


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


@pytest.mark.parametrize("start", ["A", "hline"])
def test_parse_through_the_start_wrapper(start, and_start, line_drawing):
    # an And-node start is wrapped by to_gcnf and unwrapped by project_parse
    if start == "A":
        g = and_start
        x = DataSample((TerminalInstance("t0", "t", None), TerminalInstance("t1", "t", None)))
    else:
        g = dataclasses.replace(line_drawing, start=start)
        x = DataSample(tuple(TerminalInstance(f"d{i}", "dot", (i, 0)) for i in range(3)))
    gcnf, node_map = to_gcnf(g)
    assert node_map.start_node == gcnf.start != start
    trees = enumerate_parses(g, x)
    assert trees
    assert parse(gcnf, x, "marginal").score == pytest.approx(logsumexp([lp for _, lp in trees]))
    viterbi = parse(gcnf, x, "viterbi")
    assert viterbi.score == pytest.approx(max(lp for _, lp in trees))
    projected = project_parse(viterbi.tree, node_map, g)
    assert projected.root.node == start
    assert projected.log_prob == pytest.approx(viterbi.score)
    assert projected.root in [tree.root for tree, _ in trees]


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
    assert enumerate_parses(line_drawing, DataSample(())) == []


def test_enumeration_refuses_a_choice_cycle():
    # S -> A | t and A -> S: S derives t along infinitely many chains
    g = Grammar.from_rules(
        null_domain(),
        ["t"],
        "S",
        [],
        [OrRule("S", "A", 0.5), OrRule("S", "t", 0.5), OrRule("A", "S", 1.0)],
    )
    x = DataSample((TerminalInstance("t0", "t", None),))
    with pytest.raises(DepthExceeded, match="^choice cycle at 'S' yields unboundedly many"):
        enumerate_parses(g, x)


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


@pytest.mark.parametrize("value", ["5", True, 1j])
def test_max_seconds_must_be_a_number(value):
    # True would be a one-second limit and "5" raised a bare TypeError
    with pytest.raises(ValueError, match=f"max_seconds is {value!r}; a number"):
        ParserBudget(max_seconds=value)


@pytest.mark.parametrize("value", [None, 0, 0.5, math.inf])
def test_max_seconds_takes_none_zero_or_a_positive_number(value):
    assert ParserBudget(max_seconds=value).max_seconds == value


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


@pytest.mark.parametrize("n", [2, 5, 16, 40])
def test_left_branching_chart_stats_in_closed_form(n):
    # S cells are the spans, A cells the tokens; size i has one split, (i - 1, 1),
    # where n - i + 1 of the n - i + 2 S spans have a token after them, and the
    # last S span finds no A cell with its join key
    gcnf, _ = to_gcnf(scfg_to_aog(LEFT_BRANCHING))
    x = string_sample(["a"] * n)
    for mode in ("viterbi", "marginal"):
        for stats in (parse(gcnf, x, mode).stats, build_table(gcnf, x, mode).stats):
            assert stats.pair_tests == n * (n - 1) // 2
            assert stats.per_size_entries == [0, 2 * n, *range(n - 1, 0, -1)]


def test_the_fill_walks_a_splits_live_pairs_in_pair_order():
    # L_m -> t_m, R -> every t_m, S -> X_m | W with X_m = L_m R and W = S R,
    # the X_m rules in shuffled order: at size 2 the one split (1, 1) has a
    # live pair (L_m, R) for every m, 70 of them, so pair positions pass bit
    # 63; a call's left span (m, m + 1) names its pair, a longer one (S, R)
    k = 70
    adjacent, concat = RelationRef("adjacent"), FunctionRef("concat")
    order = list(range(k))
    random.Random(4100).shuffle(order)
    and_rules = [AndRule(f"X{m}", (f"L{m}", "R"), adjacent, concat) for m in order]
    and_rules.append(AndRule("W", ("S", "R"), adjacent, concat))
    or_rules = [OrRule(f"L{m}", f"t{m}", 1.0) for m in range(k)]
    or_rules += [OrRule("R", f"t{m}", 1 / k) for m in range(k)]
    or_rules += [OrRule("S", head, 1 / (k + 1)) for head in [f"X{m}" for m in order] + ["W"]]
    terminals = [f"t{m}" for m in range(k)]
    gcnf = Grammar.from_rules(string_span_domain(), terminals, "S", and_rules, or_rules)
    assert validate_grammar(gcnf).ok
    calls = []
    g = calling_every_relation(gcnf, calls)
    x = string_sample(terminals)
    build_table(g, x)
    position = {left: p for p, (left, *_) in enumerate(g.compiled.pairs)}
    assert len(position) == k + 1 and position["S"] == k
    walked = []  # ((size, left size), pair position) of each call, in call order
    for (lstart, lend), (rstart, rend) in calls:
        pair = position[f"L{lstart}"] if lend - lstart == 1 else position["S"]
        walked.append(((rend - lstart, lend - lstart), pair))
    assert walked == sorted(walked)
    first = [pair for split, pair in walked if split == (2, 1)]
    assert first == sorted(position[f"L{m}"] for m in range(k - 1))  # L69 has no right cell
    assert max(first) > 63


@pytest.mark.parametrize("mode", ["viterbi", "marginal"])
def test_a_left_cell_with_no_partner_passes_over_only_itself(mode):
    # on a a b the pair (A, B) has left cells (0, 1) and (1, 2), in that
    # order: the first has no B cell with its join key, the second has (2, 3)
    scfg = parse_scfg("S -> A S [0.5]\nS -> A B [0.5]\nA -> a [1.0]\nB -> b [1.0]")
    gcnf, x = to_gcnf(scfg_to_aog(scfg))[0], string_sample(list("aab"))
    for goal in (False, True):
        table = parsing.fill_chart(gcnf, x, mode, ParserBudget(), None, goal)[0]
        [(root, entry)] = table.root_entries()
        assert (root.mask, entry.score) == (0b111, math.log(0.25))
    assert parse(gcnf, x, mode).score == math.log(0.25)


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


@pytest.mark.parametrize("chains", [False, True], ids=["tree", "or-chains"])
@pytest.mark.parametrize("kind", ["string", "grid", "null", "interval"])
def test_a_decided_relation_fills_the_chart_that_calling_it_fills(kind, chains):
    # the fill does not call a relation that its join, or no join ("true"),
    # decides; a copy whose factories are wrapped calls every relation
    decided = 0
    for trial in range(30):
        g = random_aog(random.Random(7300 + trial), allow_or_chains=chains, kind=kind)
        gcnf = to_gcnf(g)[0]
        calling = calling_every_relation(gcnf)
        for _, _, _, kept, counted in gcnf.compiled.pairs:
            decided += sum(rel is None for rel, _, _ in kept[0] + kept[1])
            decided += (counted[0] + counted[1]).count(None)
        assert all(rel is not None for pair in calling.compiled.pairs for rel, _, _ in pair[3][0])
        for seed in range(3):
            x = aog.sample(g, seed=seed)[1]
            if len(x) > 7:
                continue
            for mode in ("viterbi", "marginal"):
                table, called = build_table(gcnf, x, mode), build_table(calling, x, mode)
                assert chart_fingerprint(table) == chart_fingerprint(called)
                assert table.stats.pair_tests == called.stats.pair_tests
                comps = table.stats.per_size_compositions
                assert comps == called.stats.per_size_compositions
    assert decided > 0


def test_a_relation_stricter_than_its_kept_join_is_called():
    # a domain that keeps adjacent's join but refuses a left child wider than
    # two tokens: its factory is new, so it carries no mark and is called
    base = string_span_domain()
    calls = []

    def stricter(config, arity):
        adjacent = base.relations["adjacent"](config, arity)

        def rel(*spans):
            calls.append(spans)
            return adjacent(*spans) and all(b - a <= 2 for a, b in spans[:-1])

        return rel

    domain = dataclasses.replace(base, relations={"adjacent": stricter})
    assert domain.joins == base.joins and domain.join(RelationRef("adjacent")) is not None
    g = dataclasses.replace(scfg_to_aog(AMBIGUOUS), domain=domain)
    gcnf, node_map = to_gcnf(g)
    x = string_sample(["a"] * 6)
    assert_sample_matches_enumeration(g, gcnf, node_map, x)
    assert calls
    lenient = to_gcnf(scfg_to_aog(AMBIGUOUS))[0]  # every tree scores the same in viterbi
    assert parse(gcnf, x, "marginal").score < parse(lenient, x, "marginal").score


def keeping_marks(g: Grammar, calls: list) -> Grammar:
    """calling_every_relation(g, calls), each wrapped factory keeping the mark
    of the factory it wraps, so that the parser trusts it as that one."""
    counted = calling_every_relation(g, calls)
    for key, factory in g.domain.relations.items():
        if hasattr(factory, "decided_by"):
            counted.domain.relations[key].decided_by = factory.decided_by
    return counted


@pytest.mark.parametrize("name", ["string", "grid", "sat 44008"])
def test_a_decided_pair_makes_no_relation_call(name, line_drawing):
    if name == "string":
        gcnf, x = to_gcnf(scfg_to_aog(AMBIGUOUS))[0], string_sample(["a"] * 6)
    elif name == "grid":  # the horizontal line alone: each pair under one offset
        line = dataclasses.replace(
            line_drawing, and_nodes=frozenset({"hline"}), and_rules=line_drawing.and_rules[:1],
            or_rules=(OrRule("figure", "hline", 0.8), OrRule("figure", "dot", 0.2),
                      OrRule("point", "dot", 1.0)))
        gcnf = to_gcnf(line)[0]
        x = DataSample(tuple(TerminalInstance(f"d{i}", "dot", (i, 0)) for i in range(3)))
    else:
        gcnf, x = pinned_input(name)
    assert all(rel is None for pair in gcnf.compiled.pairs for rel, _, _ in pair[3][0] + pair[3][1])
    calls = []
    g = keeping_marks(gcnf, calls)
    for mode in ("viterbi", "marginal"):
        table = build_table(g, x, mode)
        assert table.stats.per_size_compositions == parse(gcnf, x, mode).stats.per_size_compositions
        assert calls == []
        assert table.root_entries() == build_table(gcnf, x, mode).root_entries()
    backtrack(table := build_table(g, x), table.root_entries()[0][0])
    assert calls  # the derivation still tests the relation


def test_a_malformed_param_raises_from_the_join_key():
    gcnf = keeping_marks(to_gcnf(scfg_to_aog(AMBIGUOUS))[0], calls := [])
    good = string_sample(["a"] * 2).instances
    x = DataSample(good + (TerminalInstance("w2", "a", (2, 3, 4)),))
    for mode in ("viterbi", "marginal"):
        with pytest.raises(DomainError, match=r"^span must be a pair of ints, got \(2, 3, 4\)$"):
            build_table(gcnf, x, mode)
    assert calls == []


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
        with pytest.raises(MissingEntry):
            tables["viterbi"].derivation(key)


def test_derivations_come_from_a_viterbi_chart_and_its_scores():
    gcnf, _ = to_gcnf(scfg_to_aog(LEFT_BRANCHING))
    x = string_sample(["a"] * 3)
    marginal, viterbi = (build_table(gcnf, x, mode) for mode in ("marginal", "viterbi"))
    root = viterbi.root_entries()[0][0]
    assert viterbi.derivation(root)[0] == viterbi.lookup(root)
    # a marginal chart keeps the sum of a cell's derivations, not one of them
    with pytest.raises(ValueError, match="derivation needs a viterbi table"):
        marginal.derivation(root)
    # a score that no stored children give has no derivation
    viterbi.scores[3][root.or_node][root.param, root.mask] += 1.0
    with pytest.raises(MissingEntry, match="no stored cells derive"):
        backtrack(viterbi, root)


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
def test_tie_key_matches_full_keys(pair):
    first, second = pair
    for back, other in ((first, second), (second, first)):
        assert (tie_key(as_cell(back)) < tie_key(as_cell(other))) == (
            full_tie_key(back) < full_tie_key(other)
        )


def test_tie_rule_prefers_the_lower_and_rule():
    # S -> A B and S -> B A derive a a with the same score
    g = scfg_to_aog(parse_scfg("S -> A B [0.5]\nS -> B A [0.5]\nA -> a [1.0]\nB -> a [1.0]"))
    gcnf, _ = to_gcnf(g)
    table = build_table(gcnf, string_sample(["a", "a"]), "viterbi")
    [(root, _)] = table.root_entries()
    feeding = sorted(and_idx for and_idx, *_ in gcnf.compiled.feeding[root.or_node])
    assert len(feeding) == 2
    assert table.derivation(root)[1] == feeding[0]
    assert gcnf.and_rules[feeding[0]].children == ("A", "B")


def test_tie_rule_prefers_the_smaller_left_child():
    # every bracketing of a x 4 scores the same, so each split takes left size 1
    gcnf, _ = to_gcnf(scfg_to_aog(AMBIGUOUS))
    x = string_sample(["a"] * 4)
    tree = parse(gcnf, x, "viterbi").tree
    assert tree.log_prob == max(lp for _, lp in enumerate_parses(gcnf, x))
    and_nodes = [node for node in tree.root.walk() if len(node.children) == 2]
    assert len(and_nodes) == 3
    for node in and_nodes:
        assert sum(1 for leaf in node.children[0].walk() if not leaf.children) == 1


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

    x = fallback = None  # the first draw of 1-6 instances, else the first of 1-8
    for seed in range(12):
        tree, candidate = draw(g, seed=seed * 97 + trial)
        if 1 <= len(candidate) <= 6:
            x = candidate
            break
        if fallback is None and 1 <= len(candidate) <= 8:
            fallback = candidate
    x = fallback if x is None else x
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


@pytest.mark.parametrize("kind", ["string", "grid", "null"])
def test_a_folded_normal_form_parses_as_the_packed_one(kind):
    # random grammars with wide rules, on drawn samples and on the same
    # samples less their last instance, which may not parse
    wide = 0
    for trial in range(100):
        g = random_aog(random.Random(5000 + trial), allow_or_chains=trial % 2 == 1, kind=kind)
        if all(len(rule.children) == 2 for rule in g.and_rules):
            continue
        wide += 1
        folded, folded_map = to_gcnf(g)
        unfolded, unfolded_map = to_gcnf(packed(g))
        assert folded.domain == g.domain and unfolded.domain.name == "tuple"
        for seed in range(3):
            x = aog.sample(g, seed=seed)[1]
            if len(x) > 6:
                continue
            # viterbi scores merged Or-chains as one (README), and enumerating
            # six null-domain instances can take seconds
            if trial % 2 == 0 and len(x) <= 5:
                assert_sample_matches_enumeration(g, folded, folded_map, x)
            for y in (x, DataSample(x.instances[:-1]))[: len(x)]:
                viterbi, expected = parse(folded, y), parse(unfolded, y)
                assert viterbi.score.hex() == expected.score.hex()
                assert (viterbi.tree is None) == (expected.tree is None)
                if viterbi.tree is not None:
                    tree = project_parse(viterbi.tree, folded_map, g)
                    assert tree.root == project_parse(expected.tree, unfolded_map, g).root
                marginal = parse(folded, y, "marginal").score
                assert marginal == pytest.approx(parse(unfolded, y, "marginal").score, rel=1e-12)
    assert wide >= 50


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
# the stored cells only: 5009 of 12246 and 8248 of 16472 on two of the
# formulas, all 311 on the network.  sat 44007 has the most derivations
# that only count (the pair under the start below n), and on aabab the
# wide-string grammar's pairs that only count walk their right side, so
# passing a relation its arguments swapped would show there; "wide" charts
# are of that grammar's packed normal form (helpers.packed)
UNREAD_PINS = {
    "sat 44002": (
        [0, 13, 78, 285, 705, 1242, 1596, 1506, 1035, 505, 166, 33, 3, 0],
        27269,
        {"viterbi": "-inf", "marginal": "-inf"},
        5009,
    ),
    "sat 44007": (
        [0, 19, 168, 917, 3456, 9530, 19877, 31966, 40029, 39127]
        + [29722, 17337, 7598, 2412, 521, 68, 4, 0, 0, 0],
        286485,
        {"viterbi": "-inf", "marginal": "-inf"},
        117988,
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
    "wide aabab": (
        [0, 5, 10, 10, 5, 1],
        1425,
        {"viterbi": "-0x1.1a8d66c55faf0p+2", "marginal": "-0x1.1a8d66c55faf0p+2"},
        286,
    ),
}


def pinned_input(name, wide_string_grammar=None):
    if name.startswith("wide"):  # over the tuple domain
        return to_gcnf(packed(wide_string_grammar))[0], string_sample(list(name.split()[1]))
    if name.startswith("sat"):
        g, x = sat_formula(int(name.split()[1]))
    else:
        conv = aog.spn_to_aog(random_spn(random.Random(43000), 10))
        g = conv.grammar
        bits = 0b1011001110
        x = aog.assignment_sample(conv, {v: (bits >> (v - 1)) & 1 for v in range(1, 11)})
    return to_gcnf(g)[0], x


@pytest.mark.parametrize("name", sorted(UNREAD_PINS))
def test_unread_cells_leave_scores_and_counts_exact(name, wide_string_grammar):
    comps, pair_tests, scores, entries = UNREAD_PINS[name]
    gcnf, x = pinned_input(name, wide_string_grammar)
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
    # build_table holds only its chart and counts nothing, so its traced
    # peak stays within a tenth of the chart it returns
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
    # the goal fill stores fewer cells; the full fill of the stats read has the same budget
    result = parse(gcnf, x, budget=ParserBudget(max_entries=entries - 1))
    fired = rf"^chart exceeded {entries - 1} entries at size \d+$"
    with pytest.raises(BudgetExceeded, match=fired):
        result.stats
    with pytest.raises(BudgetExceeded, match=fired):
        build_table(gcnf, x, budget=ParserBudget(max_entries=entries - 1))
    goal = parsing.fill_chart(gcnf, x, "viterbi", ParserBudget(), None, True)[0]
    stored = goal.stats.table_entries
    assert stored < entries - 1
    with pytest.raises(BudgetExceeded, match=rf"^chart exceeded {stored - 1} entries at size \d+$"):
        parse(gcnf, x, budget=ParserBudget(max_entries=stored - 1))


def goal_fill(g, x, mode="viterbi"):
    """(chart, cells skipped as dead) of parse's goal-directed fill, with no limit."""
    return parsing.fill_chart(g, x, mode, ParserBudget(), None, True)


def stats_fields(stats):
    """Every field of the stats but elapsed_seconds, with the counts taken."""
    return stats.sample_size, stats.per_size_entries, stats.pair_tests, stats.per_size_compositions


def compare_with_full_chart(g, x, mode, project=lambda tree: tree):
    """Assert that parse equals the full chart on score bits, projected tree
    and stats; return whether its goal-directed fill skipped a cell."""
    score, tree, stats = full_chart_parse(g, x, mode)
    result = parse(g, x, mode)
    assert result.score.hex() == score.hex()
    assert (result.tree is None) == (tree is None)
    if tree is not None:
        assert project(result.tree).root == project(tree).root
    assert stats_fields(result.stats) == stats_fields(stats)
    return goal_fill(g, x, mode)[1] > 0


def null_grammar(and_rules, or_rules, start="S"):
    """A normal-form grammar over the null domain; And-rules as (head, left, right)."""
    true, null = aog.RelationRef("true"), aog.FunctionRef("null")
    ands = [AndRule(head, tuple(children), true, null) for head, *children in and_rules]
    ors = [OrRule(*rule) for rule in or_rules]
    terminals = {rule.child for rule in ors} - {rule.head for rule in ands}
    return aog.Grammar.from_rules(null_domain(), terminals, start, ands, ors)


# S -> H Y, H -> X X | b, X -> a | b, Y -> a | c: H's contexts derive a and c
# only, so a cell of H must hold every b; X's derive every type
GOAL_HAND = null_grammar(
    [("s", "H", "Y"), ("h", "X", "X")],
    [("S", "s", 1.0), ("H", "h", 0.5), ("H", "b", 0.5), ("X", "a", 0.5), ("X", "b", 0.5),
     ("Y", "a", 0.5), ("Y", "c", 0.5)],
)


def null_sample(terminals):
    return DataSample(tuple(TerminalInstance(f"i{k}", t, None) for k, t in enumerate(terminals)))


def test_the_goal_fill_skips_a_dead_cell_and_keeps_a_viable_one():
    assert GOAL_HAND.compiled.requiring == {"b": ("H",)}
    x = null_sample("aab")  # H over a0 a1 leaves b2 out: dead; H over a0 b2 or a1 b2: viable
    goal, skipped = goal_fill(GOAL_HAND, x)
    full = build_table(GOAL_HAND, x)
    assert list(full.scores[2]["H"]) == [(None, 0b011), (None, 0b101), (None, 0b110)]
    # the dead cell is skipped once per child pair that derives it, X X and X X swapped
    assert list(goal.scores[2]["H"]) == [(None, 0b101), (None, 0b110)] and skipped == 2
    assert goal.scores[1] == full.scores[1] and goal.scores[3] == full.scores[3]
    assert goal.stats.per_size_entries == [0, 6, 2, 1]
    assert compare_with_full_chart(GOAL_HAND, x, "viterbi")
    assert parse(GOAL_HAND, x).stats.per_size_entries == [0, 6, 3, 1]
    # both seeds of H miss the other b, so they are dead too, but seeds are never checked
    x = null_sample("abb")
    goal, skipped = goal_fill(GOAL_HAND, x)
    assert list(goal.scores[1]["H"]) == [(None, 0b010), (None, 0b100)] and skipped == 4
    assert goal.scores[1] == build_table(GOAL_HAND, x).scores[1]
    assert list(goal.scores[2]["H"]) == [(None, 0b110)]
    for mode in ("viterbi", "marginal"):
        assert compare_with_full_chart(GOAL_HAND, x, mode)


def test_a_goal_fill_that_skips_nothing_keeps_its_own_stats(monkeypatch):
    x = null_sample("ab")  # every cell holds the one b
    assert goal_fill(GOAL_HAND, x)[1] == 0
    expected = stats_fields(build_table(GOAL_HAND, x).stats)
    filled = []
    fill_chart = parsing.fill_chart

    def recording(*args):
        filled.append(args)
        return fill_chart(*args)

    monkeypatch.setattr(parsing, "fill_chart", recording)
    result = parse(GOAL_HAND, x)
    assert stats_fields(result.stats) == expected
    assert [args[-1] for args in filled] == [True]  # no full fill for the stats


def test_a_goal_directed_parse_equals_the_full_chart():
    skipping = 0
    for kind, trial in itertools.product(["string", "grid", "null", "interval"], range(60)):
        g = random_aog(random.Random(7000 + trial), allow_or_chains=trial % 2 == 1, kind=kind)
        gcnf, node_map = to_gcnf(g)
        for seed in range(3):
            x = aog.sample(g, seed=seed)[1]
            if len(x) > 9:
                continue
            for y in (x, DataSample(x.instances[:-1]))[: len(x)]:
                for mode in ("viterbi", "marginal"):
                    skipping += compare_with_full_chart(
                        gcnf, y, mode, lambda tree: project_parse(tree, node_map, g))
    assert skipping >= 20


def test_the_goal_fill_stores_few_cells_of_the_sat_bench_formulas():
    stored = full = skipping = 0
    for seed in range(44000, 44020):
        g, x = sat_formula(seed)
        gcnf = to_gcnf(g)[0]
        stored += goal_fill(gcnf, x)[0].stats.table_entries
        full += build_table(gcnf, x).stats.table_entries
        skipping += compare_with_full_chart(gcnf, x, "viterbi")
    assert full == 241_403 and stored <= 2_000
    assert skipping >= 10


def clock_calls(monkeypatch, expired):
    """Replace parsing's clock by one that reads 10.0 when expired(caller) is
    true, else 0.0; returns the list of (function, line) of its callers."""
    calls = []

    def monotonic():
        frame = sys._getframe(1)
        calls.append((frame.f_code.co_name, frame.f_lineno))
        return 10.0 if expired(calls[-1]) else 0.0

    monkeypatch.setattr(parsing, "time", types.SimpleNamespace(monotonic=monotonic))
    return calls


def test_deadline_is_checked_per_cell_walked_by_a_pair_that_only_counts(monkeypatch):
    gcnf, x = pinned_input("sat 44007")
    table = build_table(gcnf, x)
    # below n, the one pair with count-only rules, and no other rules, walks
    # the smaller of its cell dicts when the counts are read: no size of
    # 44007 holds every instance set, so the count stops at none
    [pair] = [pair for pair in gcnf.compiled.pairs if any(pair[4])]
    assert pair[:2] == ("S#b10", "v12") and pair[4][0] and not pair[4][1] and not pair[3][0]
    comps = UNREAD_PINS["sat 44007"][0]
    assert all(comps[i] < math.comb(len(x), i) for i in range(2, len(x) + 1))
    sides = [[table.scores[j].get("S#b10", ()), table.scores[i - j].get("v12", ())]
             for i in range(2, len(x)) for j in range(1, i)]
    walked = sum(min(map(len, split)) for split in sides)
    assert walked > 0
    calls = clock_calls(monkeypatch, lambda call: False)
    budget = ParserBudget(max_seconds=1.0)
    parse(gcnf, x, budget=budget).stats.per_size_compositions
    # the clock's callers: the only line of count_compositions called once per walked cell
    [check] = [call for call, count in collections.Counter(calls).items() if count == walked]
    assert check[0] == "count_compositions"
    # the count re-arms the 1.0 s the fill left at 0.0, and one cell's check reads 10.0
    calls = clock_calls(monkeypatch, lambda call: call == check)
    with pytest.raises(BudgetExceeded, match="in count_compositions"):
        parse(gcnf, x, budget=budget).stats.per_size_compositions
    assert calls[-1] == check and calls.count(check) == 1
    # the stored cells of 44008 hold every instance set of each size, so the
    # count stops before its pair that only counts walks a cell
    gcnf, x = pinned_input("sat 44008")
    comps = UNREAD_PINS["sat 44008"][0]
    assert comps[2:] == [math.comb(len(x), i) for i in range(2, len(x) + 1)]
    calls = clock_calls(monkeypatch, lambda call: False)
    assert parse(gcnf, x, budget=budget).stats.per_size_compositions == comps
    assert "count_compositions" in dict(calls) and check not in calls


def test_a_late_read_of_the_counts_gets_what_the_fill_left_of_the_limit(monkeypatch):
    # the clock reads 0.0 while the chart fills and 10.0 once the counts are
    # read, long after the limit: the count re-arms the 1.0 s the fill left
    gcnf, x = pinned_input("sat 44008")
    read = []
    calls = clock_calls(monkeypatch, lambda call: bool(read))
    stats = parse(gcnf, x, budget=ParserBudget(max_seconds=1.0)).stats
    read.append(True)
    assert stats.per_size_compositions == UNREAD_PINS["sat 44008"][0]
    assert "count_compositions" in dict(calls)  # re-armed and checked, not unlimited


# a keyed pair that only counts: S -> NP VP keeps no cell below the full size
NP_VP = "S -> NP VP [1.0]\nNP -> NP NP [0.3]\nNP -> a [0.7]\nVP -> VP VP [0.3]\nVP -> b [0.7]"


def test_the_count_raises_when_the_fill_left_no_time(monkeypatch):
    # the fill passes its limit after its last check, at its finished time:
    # the count re-arms what is left, less than nothing, and raises at its
    # first check (the fill's time added to the limit would never raise)
    gcnf, x = to_gcnf(scfg_to_aog(parse_scfg(NP_VP)))[0], string_sample(list("aabb"))
    calls = clock_calls(monkeypatch, lambda call: False)
    build_table(gcnf, x, budget=ParserBudget(max_seconds=1.0))
    finished = calls[-1]
    clock_calls(monkeypatch, lambda call: call == finished)
    table = build_table(gcnf, x, budget=ParserBudget(max_seconds=1.0))
    with pytest.raises(BudgetExceeded, match="in count_compositions"):
        table.stats.per_size_compositions


def test_elapsed_seconds_are_within_the_build_table_call():
    gcnf, x = to_gcnf(scfg_to_aog(parse_scfg(NP_VP)))[0], string_sample(list("aabb"))
    before = time.monotonic()
    stats = build_table(gcnf, x).stats
    assert 0 <= stats.elapsed_seconds <= time.monotonic() - before


def test_a_pair_that_only_counts_walks_no_left_cell(monkeypatch):
    gcnf, _ = to_gcnf(scfg_to_aog(parse_scfg(NP_VP)))
    x = string_sample(list("aabb"))
    n = len(x)
    scores = build_table(gcnf, x).scores
    pairs = gcnf.compiled.pairs
    assert all(pair[2] is not None for pair in pairs)  # keyed: adjacent declares a join
    assert pairs[0][:2] == ("NP", "VP") and not pairs[0][3][0] and pairs[0][4][0]
    # the left cells of every live pair with a rule whose head keeps a cell
    walked = sum(
        len(scores[j][left])
        for i in range(2, n + 1)
        for j in range(1, i)
        for left, right, _, kept, _ in pairs
        if kept[i == n] and left in scores[j] and right in scores[i - j]
    )
    assert walked == 11
    calls = clock_calls(monkeypatch, lambda call: False)
    stats = build_table(gcnf, x, budget=ParserBudget(max_seconds=1.0)).stats
    # per fill_chart line: the start, seeding, the end, once per stratum, once per left cell
    checks = collections.Counter(call for call in calls if call[0] == "fill_chart")
    assert sorted(checks.values()) == [1, 1, 1, n - 1, walked]
    assert stats.per_size_compositions == [0, 4, 3, 2, 1]
    assert stats.per_size_entries == [0, 4, 2, 0, 1]
    assert (stats.pair_tests, stats.c_max, stats.total_compositions) == (6, 4, 10)
    assert parse(gcnf, x).tree is not None


@pytest.mark.parametrize("tokens", ["aabb", "a" * 8 + "b" * 8])
def test_the_count_tries_a_keyed_pair_only_on_equal_keys(tokens):
    calls = []
    gcnf, _ = to_gcnf(scfg_to_aog(parse_scfg(NP_VP)))
    g = calling_every_relation(gcnf, calls)
    x = string_sample(list(tokens))
    n = len(x)
    stats = build_table(g, x).stats
    filled = len(calls)
    assert stats.per_size_compositions  # the count runs when first read
    counted_calls = len(calls) - filled
    # the disjoint pairs of equal join keys of the pairs with count-only rules
    scores, expected = build_table(gcnf, x).scores, 0
    for left, right, (left_key, right_key), _, rels in gcnf.compiled.pairs:
        for i in range(2, n + 1):
            for j in range(1, i):
                pairs = [
                    1
                    for lparam, lmask in scores[j].get(left, ())
                    for rparam, rmask in scores[i - j].get(right, ())
                    if not lmask & rmask and left_key(lparam) == right_key(rparam)
                ]
                expected += len(rels[i == n]) * len(pairs)
    assert counted_calls == expected > 0


@pytest.mark.parametrize("name", ["sat 44008", "wide aabab"])
def test_the_count_walks_no_pair_at_a_size_its_stored_cells_fill(name, wide_string_grammar):
    # every size of these charts holds all C(n, i) instance sets in stored
    # cells, so no pair that only counts can add one
    gcnf, x = pinned_input(name, wide_string_grammar)
    comps = UNREAD_PINS[name][0]
    assert comps[2:] == [math.comb(len(x), i) for i in range(2, len(x) + 1)]
    assert any(any(pair[4]) for pair in gcnf.compiled.pairs)
    calls = []
    stats = build_table(calling_every_relation(gcnf, calls), x).stats
    calls.clear()
    assert stats.per_size_compositions == comps
    assert calls == []


def walked_counts(gcnf: Grammar, x: DataSample, scores) -> list[int]:
    """per_size_compositions as every pair that only counts gives them at
    every size, each tried on every left x right cell pair, with no stop."""
    compiled, n = calling_every_relation(gcnf).compiled, len(x)  # no decided relation
    counts = [0, sum(inst.terminal in compiled.or_by_child[0] for inst in x.instances)]
    for i in range(2, n + 1):
        comps = {mask for cells in scores[i].values() for _, mask in cells}
        for j in range(1, i):
            for left, right, _, _, counted in compiled.pairs:
                for rel in counted[i == n]:
                    comps.update(
                        lmask | rmask
                        for lparam, lmask in scores[j].get(left, ())
                        for rparam, rmask in scores[i - j].get(right, ())
                        if not lmask & rmask and rel(lparam, rparam)
                    )
        counts.append(len(comps))
    return counts


@pytest.mark.parametrize("chains", [False, True], ids=["tree", "or-chains"])
@pytest.mark.parametrize("kind", ["string", "grid", "interval", None])
def test_the_count_equals_one_that_walks_every_pair(kind, chains):
    # kind None: random_aog draws the domain; full counts the sizes that the
    # count stops at while a pair only counts there
    full = 0
    for trial in range(24):
        g = random_aog(random.Random(7100 + trial), allow_or_chains=chains, kind=kind)
        gcnf = to_gcnf(g)[0]
        for seed in range(4):
            x = aog.sample(g, seed=seed)[1]
            if len(x) > 7:
                continue
            for mode in ("viterbi", "marginal"):
                table = build_table(gcnf, x, mode)
                counts = walked_counts(gcnf, x, table.scores)
                assert table.stats.per_size_compositions == counts
                full += sum(
                    counts[i] == math.comb(len(x), i)
                    and any(pair[4][i == len(x)] for pair in gcnf.compiled.pairs)
                    for i in range(2, len(x) + 1)
                )
    assert full > 0


def test_backtrack_tests_the_function_before_the_relation(wide_string_grammar):
    # pack cells of one mask tie across the permutations of their children,
    # and each permutation gives another param: the function tells them apart
    gcnf, x = pinned_input("wide aabab", wide_string_grammar)
    calls = []
    table = build_table(calling_every_relation(gcnf, calls), x)
    [(root, _)] = table.root_entries()
    calls.clear()
    tree = backtrack(table, root)
    assert len(calls) == 9  # 70 with the relation tested first
    [(only, score)] = enumerate_parses(gcnf, x)
    assert tree.root == only.root and tree.log_prob == score


def test_a_function_that_raises_where_its_relation_rejects_backtracks_the_same(
    wide_string_grammar,
):
    # derivation runs the function on pairs the relation rejects, and a
    # DomainError from it there means no match
    base = wide_string_grammar.domain
    concat, raised = base.functions["concat"], []

    def strict(config, arity):
        fn, adjacent = concat(config, arity), base.relation(RelationRef("adjacent"), arity)

        def call(*spans):
            if not adjacent(*spans):
                raised.append(spans)
                raise DomainError(f"spans {spans!r} do not abut")
            return fn(*spans)

        return call

    domain = dataclasses.replace(base, functions={**base.functions, "concat": strict})
    lenient = to_gcnf(wide_string_grammar)[0]
    checked = to_gcnf(dataclasses.replace(wide_string_grammar, domain=domain))[0]
    for tokens in ("aabab", "abab", "babaa", "bbbb"):
        x = string_sample(list(tokens))
        expected = parse(lenient, x)
        result = parse(checked, x)
        assert result.tree is not None and result.tree.root == expected.tree.root
        assert result.score.hex() == expected.score.hex()
    assert raised


def test_deadline_is_checked_once_per_stratum(monkeypatch):
    gcnf, _ = to_gcnf(scfg_to_aog(parse_scfg(NP_VP)))
    x = string_sample(list("aabb"))
    calls = clock_calls(monkeypatch, lambda call: False)
    build_table(gcnf, x, budget=ParserBudget(max_seconds=1.0))
    counts = collections.Counter(calls)
    [check] = [call for call, count in counts.items() if count == len(x) - 1]
    assert check[0] == "fill_chart"
    calls = clock_calls(monkeypatch, lambda call: call == check)
    with pytest.raises(BudgetExceeded, match=r"^parse exceeded 1\.0 seconds at size 2$"):
        build_table(gcnf, x, budget=ParserBudget(max_seconds=1.0))
    assert calls[-1] == check and calls.count(check) == 1


def test_each_seconds_check_of_the_fill_names_its_size(monkeypatch):
    # the checks after seeding, per stratum and per left cell, each firing
    # on every one of its calls in turn: the size is 1 before the first
    # stratum's check, and i from the check of stratum i on
    gcnf, _ = to_gcnf(scfg_to_aog(AMBIGUOUS))
    x = string_sample(["a"] * 5)
    calls = clock_calls(monkeypatch, lambda call: False)
    build_table(gcnf, x, budget=ParserBudget(max_seconds=1.0))
    assert {call[0] for call in calls} == {"fill_chart"}
    _, seeding, stratum, per_cell, _ = sorted(set(calls), key=lambda call: call[1])
    sizes = collections.Counter()
    for k, call in enumerate(calls):
        if call not in (seeding, stratum, per_cell):
            continue
        size = 1 + calls[: k + 1].count(stratum)
        sizes[call, size] += 1
        clock_calls(monkeypatch, lambda _, seen=itertools.count(): next(seen) == k)
        with pytest.raises(BudgetExceeded, match=rf"^parse exceeded 1\.0 seconds at size {size}$"):
            build_table(gcnf, x, budget=ParserBudget(max_seconds=1.0))
    assert sizes.keys() == {(seeding, 1)} | {(check, i) for check in (stratum, per_cell)
                                              for i in range(2, 6)}


def test_max_seconds_bounds_backtrack(monkeypatch, tmp_path, capsys):
    # the limit passes right after parse's fill_chart returns, so only backtrack sees it
    g = scfg_to_aog(parse_scfg("S -> S A [0.5]\nS -> a [0.5]\nA -> a [1.0]"))
    gcnf, _ = to_gcnf(g)
    x = string_sample(["a"] * 20)
    built = []
    real_fill_chart = parsing.fill_chart

    def build_then_expire(*args):
        built.append(real_fill_chart(*args))
        return built[-1]

    monkeypatch.setattr(parsing, "fill_chart", build_then_expire)
    calls = clock_calls(monkeypatch, lambda call: bool(built))
    assert parse(gcnf, x).tree is not None
    assert "backtrack" not in dict(calls)  # no limit, no check
    built.clear()
    with pytest.raises(BudgetExceeded, match="in backtrack"):
        parse(gcnf, x, budget=ParserBudget(max_seconds=1.0))
    assert calls[-1][0] == "backtrack" and [c for c, _ in calls].count("backtrack") == 1
    gpath, xpath = tmp_path / "g.json", tmp_path / "x.json"
    aog.save_grammar(g, gpath)
    aog.save_sample(x, g.domain, xpath)
    built.clear()
    assert main(["parse", str(gpath), str(xpath), "--budget-seconds", "1"]) == 4
    assert "in backtrack" in json.loads(capsys.readouterr().out)["error"]


def test_derivation_checks_the_deadline_once_per_call(monkeypatch):
    gcnf, _ = to_gcnf(scfg_to_aog(parse_scfg("X -> X X [0.4]\nX -> a [0.6]")))
    x = string_sample(["a"] * 4)
    expired = []
    calls = clock_calls(monkeypatch, lambda call: bool(expired))
    limited = build_table(gcnf, x, budget=ParserBudget(max_seconds=1.0))  # the clock reads 0.0
    unlimited = build_table(gcnf, x)
    [(root, _)] = limited.root_entries()
    calls.clear()
    cell = unlimited.derivation(root)
    assert calls == []  # no limit, no check
    assert limited.derivation(root) == cell and [c for c, _ in calls] == ["derivation"]
    expired.append(True)
    calls.clear()
    with pytest.raises(BudgetExceeded, match="in derivation"):
        limited.derivation(root)
    assert [c for c, _ in calls] == ["derivation"]


def test_unread_counts_cost_nothing_and_are_taken_once(monkeypatch):
    gcnf, x = pinned_input("sat 44007")
    comps = UNREAD_PINS["sat 44007"][0]
    counted = []
    count_compositions = parsing.count_compositions

    def counting(*args):
        counted.append(args)
        return count_compositions(*args)

    monkeypatch.setattr(parsing, "count_compositions", counting)
    stats = parse(gcnf, x).stats
    assert counted == []
    assert stats.c_max == max(comps) and stats.per_size_compositions == comps
    assert stats.total_compositions == sum(comps) and len(counted) == 1
    # the counter, and the chart it closes over, are dropped once it has run
    assert stats.compositions is stats.per_size_compositions


def test_a_dropped_table_is_freed_without_the_cycle_collector():
    # the stats' counter closes over the chart, not the table, so no
    # table <-> stats cycle outlives the last reference to the table
    gcnf, x = pinned_input("sat 44008")
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = weakref.ref(build_table(gcnf, x))
        assert table() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("params", [[[0, 1]], [(0, 1), [1, 2]]], ids=["one", "two"])
@pytest.mark.parametrize("entry", [parse, build_table])
def test_unhashable_instance_param_is_a_domain_error(params, entry):
    # a list-valued param raised a bare TypeError from seeding
    gcnf, _ = to_gcnf(scfg_to_aog(parse_scfg("S -> a [1.0]")))
    x = DataSample(tuple(TerminalInstance(f"w{i}", "a", p) for i, p in enumerate(params)))
    with pytest.raises(DomainError, match=f"instance 'w{len(params) - 1}' has an unhashable"):
        entry(gcnf, x)


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
    # one join pair, with a left cell at each size that no right cell joins
    "left a12": {
        "viterbi": "98db20f3e362d89274182ed144d2a3e86bdd9a04b0b96834649b7489f4e75140",
        "marginal": "f95bff6112f5bf1d53ed75240b91087b353ab8dc5294901cd5bfb7437e7e6675",
    },
    # charts where one mask carries several params, so a derivation is told
    # apart from others of the same masks and score by its function's value
    # (wide abab only in its packed chart: its folded one has a span per mask)
    "grid 5003": {
        "viterbi": "3aea3f28b65508b79fc0667f04a27b904fcc9067d1bcd5aea17be04da9b84dcc",
        "marginal": "5c0317925e02d660361fdd234794d47690b48fc282f1dde20e965ce2e703cf77",
    },
    "interval 5020": {
        "viterbi": "e1d18eec04bc5e8b7f534c25d42feebe01fc9fa1bab7b1d1a4bea8dc408f1c54",
        "marginal": "b05e757e08ea820a9d7552f608c38084b0345646e99c47e99a8ad4f248e84721",
    },
    "wide abab": {
        "viterbi": "9a736076cc6d6594467cbc4a01ca43eacb2121297f6823561e5d4c3112fa8e53",
        "marginal": "e0d16b18e06190eaac6bfc3b7c847f8f4d4ef34a7393d74ac881a03c1f4510a5",
    },
}


# the charts of CHART_FINGERPRINTS whose normal form folds a wide rule, pinned
# as they were before folds, which their packed normal form still gives
PACKED_FINGERPRINTS = {
    "grid 5003": {
        "viterbi": "4c4ccee3a60d914106aa82c4b2d1442cb4805db617bc2c4a800a0fec1cab4763",
        "marginal": "c63cb1b82f4b0976fca2c16f45e9bebbb24099f5648d8e965b6fd9af144bbe6f",
    },
    "wide abab": {
        "viterbi": "d345c1cad23f8efd52b78f1a379c50de446b8dcdc46e23fdda6421f5bbeb8cbb",
        "marginal": "73f95bff11130e96ac974666e8970dcd4e7357e4d7694887c904e8dd737b098d",
    },
}


# random_aog charts of CHART_FINGERPRINTS: name (kind and grammar seed) -> sample seed
RANDOM_PINS = {"grid 5003": 1, "interval 5020": 0}


def original_input(name, wide_string_grammar):
    """The original grammar and sample of a random or wide CHART_FINGERPRINTS chart."""
    if name == "wide abab":
        return wide_string_grammar, string_sample(list("abab"))
    kind, seed = name.split()
    g = random_aog(random.Random(int(seed)), kind=kind)
    return g, aog.sample(g, seed=RANDOM_PINS[name])[1]


def fingerprinted_input(name, wide_string_grammar):
    """The normal-form grammar and sample of a CHART_FINGERPRINTS chart."""
    if name in UNREAD_PINS:
        return pinned_input(name)
    if name == "all-spans a8":
        return to_gcnf(scfg_to_aog(AMBIGUOUS))[0], string_sample(["a"] * 8)
    if name == "left a12":
        return to_gcnf(scfg_to_aog(LEFT_BRANCHING))[0], string_sample(["a"] * 12)
    g, x = original_input(name, wide_string_grammar)
    return to_gcnf(g)[0], x


@pytest.mark.parametrize("name", sorted(CHART_FINGERPRINTS))
def test_chart_fingerprint_is_pinned(name, wide_string_grammar):
    gcnf, x = fingerprinted_input(name, wide_string_grammar)
    for mode, fingerprint in CHART_FINGERPRINTS[name].items():
        assert chart_fingerprint(build_table(gcnf, x, mode)) == fingerprint


@pytest.mark.parametrize("name", sorted(PACKED_FINGERPRINTS))
def test_a_folded_chart_matches_enumeration_and_its_packed_chart(name, wide_string_grammar):
    g, x = original_input(name, wide_string_grammar)
    gcnf, node_map = to_gcnf(g)
    assert_sample_matches_enumeration(g, gcnf, node_map, x)
    unfolded = to_gcnf(packed(g))[0]
    for mode, fingerprint in PACKED_FINGERPRINTS[name].items():
        table = build_table(unfolded, x, mode)
        assert chart_fingerprint(table) == fingerprint
        expected = {key: entry.score for key, entry in table.root_entries()}
        roots = {key: entry.score for key, entry in build_table(gcnf, x, mode).root_entries()}
        assert roots == pytest.approx(expected, rel=1e-12, abs=0)
        if mode == "viterbi":
            assert [s.hex() for s in roots.values()] == [s.hex() for s in expected.values()]


def test_backtrack_from_every_wide_string_cell(wide_string_grammar):
    x = string_sample(list("abab"))
    assert assert_every_cell_backtracks(to_gcnf(packed(wide_string_grammar))[0], x) == 77
    assert assert_every_cell_backtracks(to_gcnf(wide_string_grammar)[0], x) == 15  # folded


@pytest.mark.parametrize("name", ["sat 44008", "all-spans a8"])
def test_cells_are_flat_and_name_their_children_by_stored_keys(name):
    gcnf, x = fingerprinted_input(name, None)
    seeds = {inst.instance_id: (inst, 1 << i) for i, inst in enumerate(x.instances)}
    for mode in ("viterbi", "marginal"):
        table = build_table(gcnf, x, mode)
        # (size, node) -> each stored key mapped to itself, to reach the key object
        stored = {
            (size, node): {key: key for key in cells}
            for size, stratum in enumerate(table.scores)
            for node, cells in stratum.items()
        }
        # lengths of the derivations of viterbi cells; marginal cells have none
        lengths = collections.Counter()
        for size, stratum in enumerate(table.scores):
            for node, cells in stratum.items():
                for key, score in cells.items():
                    assert type(score) is float
                    if mode == "marginal":
                        lengths[None] += 1
                        continue
                    cell = table.derivation(CompositionKey(node, *key))
                    assert cell[0] is score
                    lengths[len(cell)] += 1
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
            assert set(lengths) == {None}
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
        for mode, fold in (("marginal", log_add), ("viterbi", max)):
            table = build_table(g, x, mode)
            # the first instance opens node's dict and folds in the second
            # Or-rule; a later instance adds its cell to that dict and folds
            assert list(table.scores[1]) == [node]
            assert list(table.scores[1][node]) == [((i, i + 1), 1 << i) for i in range(len(x))]
            assert set(table.scores[1][node].values()) == {fold(*map(math.log, probs))}
        assert table.stats.per_size_entries[1] == len(tokens)
        assert table.scores[1][node][(0, 1), 1] == math.log(max(probs))
        cell = table.derivation(CompositionKey(node, (0, 1), 1))
        assert cell == (math.log(max(probs)), or_rule, "w0")


def test_budget_entries_bind_during_seeding():
    gcnf, x = pinned_input("spn 43000")
    stats = parse(gcnf, x).stats
    seeded = stats.per_size_entries[1]
    assert 0 < seeded < stats.table_entries
    with pytest.raises(BudgetExceeded, match=f"^chart exceeded {seeded - 1} entries at size 1$"):
        parse(gcnf, x, budget=ParserBudget(max_entries=seeded - 1))
    budget = ParserBudget(max_entries=stats.table_entries)
    assert parse(gcnf, x, budget=budget).stats.table_entries == stats.table_entries
    # one token: the seeded cell is the only one, so no later step can catch it
    gcnf = to_gcnf(scfg_to_aog(AMBIGUOUS))[0]
    with pytest.raises(BudgetExceeded, match="chart exceeded 0 entries"):
        parse(gcnf, string_sample(["a"]), budget=ParserBudget(max_entries=0))


@pytest.mark.parametrize("mode", ["viterbi", "marginal"])
def test_budget_entries_fire_on_the_cell_that_would_open_a_node(mode):
    # under X -> X X | a the first cell of each size opens that size's one
    # node dict, and the next cell of the size goes into it
    gcnf = to_gcnf(scfg_to_aog(AMBIGUOUS))[0]
    x = string_sample(["a"] * 5)
    entries = build_table(gcnf, x, mode).stats.per_size_entries
    assert entries[2:] == [4, 3, 2, 1]
    for i in range(2, len(x) + 1):
        for stored in (sum(entries[:i]), sum(entries[:i]) + 1):
            if stored < sum(entries[: i + 1]):
                message = f"^chart exceeded {stored} entries at size {i}$"
                with pytest.raises(BudgetExceeded, match=message):
                    build_table(gcnf, x, mode, ParserBudget(max_entries=stored))
    table = build_table(gcnf, x, mode, ParserBudget(max_entries=sum(entries)))
    assert table.stats.per_size_entries == entries


@pytest.mark.parametrize("chains", [False, True], ids=["tree", "or-chains"])
@pytest.mark.parametrize("kind", ["string", "grid", "null", "interval"])
def test_per_size_entries_are_the_cells_stored_at_each_size(kind, chains):
    # the fill counts cells as it makes them, and makes a node's dict with its
    # first cell: the stratum's pair masks take a node's pairs as soon as its dict exists
    checked = 0
    for trial in range(40):
        g = random_aog(random.Random(7300 + trial), allow_or_chains=chains, kind=kind)
        gcnf = to_gcnf(g)[0]
        for seed in range(4):
            x = aog.sample(g, seed=seed * 7 + trial)[1]
            if len(x) > 8:
                continue
            for mode in ("viterbi", "marginal"):
                table = build_table(gcnf, x, mode)
                stored = [sum(map(len, stratum.values())) for stratum in table.scores]
                assert table.stats.per_size_entries == stored
                assert all(cells for stratum in table.scores for cells in stratum.values())
                checked += len(x) > 2
    assert checked >= 20


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
                for t in gcnf.terminals:  # the pairs of the heads of t's Or-rules
                    heads = [head for *_, head in compiled.or_by_child[0].get(t, ())]
                    assert seeds[t] == or_masks(by_node.get(head, 0) for head in heads)
                # the pairs of the seeded chart's nodes
                assert or_masks(seeds[t] for t in terminals) == or_masks(
                    by_node.get(node, 0) for node in seeded
                )
            for p, (left, right, *_) in enumerate(compiled.pairs):
                for by_node, child in ((compiled.by_left, left), (compiled.by_right, right)):
                    assert {node for node, mask in by_node.items() if mask >> p & 1} == {child}
            assert all(mask >> len(compiled.pairs) == 0 for mask in compiled.by_left.values())
            assert all(mask >> len(compiled.pairs) == 0 for mask in compiled.by_right.values())
            checked += 1
    assert checked >= 10


def or_masks(masks) -> int:
    out = 0
    for mask in masks:
        out |= mask
    return out
