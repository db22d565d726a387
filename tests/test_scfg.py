"""String-grammar frontend: listing format, reshaping, compilation, references."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aog import (
    DepthExceeded,
    FormatError,
    Scfg,
    ScfgRule,
    and_or_form,
    cyk,
    enumerate_parses,
    format_scfg,
    is_and_or_form,
    parse,
    parse_scfg,
    scfg_to_aog,
    string_distribution,
    string_sample,
    to_gcnf,
    validate_grammar,
    validate_scfg,
)

SELF_EMBEDDING = """
X -> X X [0.4]
X -> a [0.6]
"""

# P(a^n) = Catalan(n-1) * 0.4^(n-1) * 0.6^n
SELF_EMBEDDING_STRINGS = {
    ("a",): 0.6,
    ("a", "a"): 0.144,
    ("a", "a", "a"): 0.06912,
    ("a", "a", "a", "a"): 0.041472,
}


def test_parse_listing_basics():
    g = parse_scfg(
        """
        # toy sentence grammar
        S -> NP VP [1.0]
        NP -> dog [0.4]
        NP -> cat [0.6]   # tail comment
        VP -> barks [1.0]
        """
    )
    assert g.start == "S"
    assert len(g.rules) == 4
    assert g.terminals == {"dog", "cat", "barks"}
    assert g.rules_of["NP"][1] == ScfgRule("NP", ("cat",), 0.6)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "S NP VP [1.0]",
        "S -> NP VP",
        "S -> NP VP [x]",
        "S -> [1.0]",
        "S S -> a [1.0]",
    ],
)
def test_parse_listing_rejects_malformed(bad):
    with pytest.raises(FormatError):
        parse_scfg(bad)


def test_validate_scfg_flags_a_start_without_rules():
    report = validate_scfg(Scfg("T", (ScfgRule("S", ("a",), 1.0),)))
    assert [str(issue) for issue in report.issues] == ["start: start symbol 'T' has no rules"]


def test_validate_scfg_flags_bad_probabilities():
    g = Scfg("S", (ScfgRule("S", ("a",), 0.5), ScfgRule("S", ("b",), 0.2)))
    report = validate_scfg(g)
    assert not report.ok
    assert any(issue.code == "sum" for issue in report.issues)


symbol = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            symbol,
            st.lists(symbol, min_size=1, max_size=3),
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_listing_roundtrip(rule_specs):
    rules = tuple(ScfgRule(h, tuple(b), p) for h, b, p in rule_specs)
    g = Scfg(rules[0].head, rules)
    assert parse_scfg(format_scfg(g)) == g


def test_and_or_form_shape_and_idempotence():
    g = parse_scfg(SELF_EMBEDDING)
    assert not is_and_or_form(g)
    shaped = and_or_form(g)
    assert is_and_or_form(shaped)
    assert and_or_form(shaped) == shaped
    # the split names a fresh intermediate and keeps probabilities on the choice
    assert ScfgRule("X", ("X.1",), 0.4) in shaped.rules
    assert ScfgRule("X.1", ("X", "X"), 1.0) in shaped.rules


def test_and_or_form_preserves_string_distribution():
    g = parse_scfg(SELF_EMBEDDING)
    shaped = and_or_form(g)
    original = string_distribution(g, max_len=4)
    reshaped = string_distribution(shaped, max_len=4)
    assert set(original) == set(reshaped)
    for s, p in original.items():
        assert reshaped[s] == pytest.approx(p, rel=1e-12)


def test_string_distribution_matches_closed_form():
    g = parse_scfg(SELF_EMBEDDING)
    dist = string_distribution(g, max_len=4)
    assert set(dist) == set(SELF_EMBEDDING_STRINGS)
    for s, p in SELF_EMBEDDING_STRINGS.items():
        assert dist[s] == pytest.approx(p, rel=1e-12)
    with pytest.raises(DepthExceeded, match="^string enumeration did not settle in 3 steps$"):
        string_distribution(g, max_len=4, max_steps=3)


def test_compiled_grammar_is_valid_and_matches_cyk():
    g = parse_scfg(SELF_EMBEDDING)
    aog = scfg_to_aog(g)
    assert validate_grammar(aog).ok
    gcnf, _ = to_gcnf(aog)
    for n in range(1, 5):
        tokens = ["a"] * n
        x = string_sample(tokens)
        for mode in ("viterbi", "marginal"):
            reference = cyk(g, tokens, mode)
            assert parse(gcnf, x, mode).score == pytest.approx(reference, rel=1e-12)
    # frozen spot checks
    assert cyk(g, ["a", "a", "a"], "viterbi") == pytest.approx(math.log(0.03456))
    assert cyk(g, ["a", "a", "a"], "marginal") == pytest.approx(math.log(0.06912))


def test_compiled_grammar_rejects_invalid_source():
    g = Scfg("S", (ScfgRule("S", ("a",), 0.5),))
    with pytest.raises(ValueError):
        scfg_to_aog(g)


def random_binary_normal_form(rng: random.Random) -> Scfg:
    """Two or three heads, each with two or three binary rules (repeats
    allowed) and one or two terminal rules over a and b."""
    heads = ["S", "A", "B"][: rng.randint(2, 3)]
    rules = []
    for head in heads:
        bodies = [(rng.choice(heads), rng.choice(heads)) for _ in range(rng.randint(2, 3))]
        bodies += [(tok,) for tok in rng.sample(["a", "b"], rng.randint(1, 2))]
        rng.shuffle(bodies)
        weights = [rng.uniform(0.1, 1.0) for _ in bodies]
        rules += [ScfgRule(head, body, w / sum(weights)) for body, w in zip(bodies, weights)]
    return Scfg("S", tuple(rules))


@pytest.mark.parametrize("trial", range(25))
def test_cyk_matches_string_distribution_and_enumeration(trial):
    g = random_binary_normal_form(random.Random(trial))
    compiled = scfg_to_aog(g)
    dist = string_distribution(g, max_len=4)
    for length in range(1, 5):
        for tokens in itertools.product(sorted(g.terminals), repeat=length):
            marginal = cyk(g, tokens, "marginal")
            if tokens in dist:
                assert marginal == pytest.approx(math.log(dist[tokens]), rel=1e-9, abs=1e-9)
            else:
                assert marginal == -math.inf
            scores = [lp for _, lp in enumerate_parses(compiled, string_sample(tokens))]
            best = max(scores, default=-math.inf)
            assert cyk(g, tokens, "viterbi") == pytest.approx(best, rel=1e-9, abs=1e-9)


def test_cyk_requires_binary_normal_form():
    g = parse_scfg("S -> a b c [1.0]")
    with pytest.raises(ValueError):
        cyk(g, ["a", "b", "c"])


@pytest.mark.parametrize(
    "tokens, mode, match",
    [(["a"], "best", "^unknown mode 'best'$"), ([], "viterbi", "^empty token list$")],
)
def test_cyk_refuses_an_unknown_mode_and_an_empty_input(tokens, mode, match):
    with pytest.raises(ValueError, match=match):
        cyk(parse_scfg("S -> a [1.0]"), tokens, mode)


def test_string_sample_spans():
    x = string_sample(["the", "dog"])
    assert [i.param for i in x.instances] == [(0, 1), (1, 2)]
    assert [i.terminal for i in x.instances] == ["the", "dog"]
