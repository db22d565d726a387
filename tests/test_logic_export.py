"""Probabilistic-logic text emitters: shape, determinism, golden files."""

import functools
import itertools
import math
import pathlib
import random
import re

import pytest

from aog import (
    AndRule,
    FunctionRef,
    Grammar,
    OrRule,
    RelationRef,
    assignment_sample,
    emit_fol,
    emit_slp,
    null_domain,
    parse,
    parse_scfg,
    sample,
    sat_to_aog,
    scfg_to_aog,
    spn_to_aog,
    string_sample,
    to_gcnf,
    Cnf3Sat,
)
from helpers import random_3sat, random_aog, random_spn

GOLDEN = pathlib.Path(__file__).parent / "golden"


def or_arities(g):
    counts = {}
    for rule in g.or_rules:
        counts[rule.head] = counts.get(rule.head, 0) + 1
    return counts


def test_fol_clause_counts_follow_grammar_shape(line_drawing):
    doc = emit_fol(line_drawing)
    clauses = doc.clause_lines()
    compositions = [l for l in clauses if "exists" in l]
    assert len(compositions) == len(line_drawing.and_rules)
    weighted = [l for l in clauses if l.rstrip().rsplit(":", 1)[-1].strip().replace(".", "").isdigit()]
    assert len(weighted) == len(line_drawing.or_rules)
    exclusions = [l for l in clauses if "~(" in l]
    coverage = [l for l in clauses if " v " in l]
    arities = or_arities(line_drawing)
    assert len(exclusions) == sum(k * (k - 1) // 2 for k in arities.values())
    # coverage disjunction only shows `v` for 2+ alternatives
    assert len(coverage) == sum(1 for k in arities.values() if k >= 2)


def test_slp_clause_counts_follow_grammar_shape(line_drawing):
    doc = emit_slp(line_drawing)
    clauses = doc.clause_lines()
    assert len([l for l in clauses if l.startswith(":-")]) == 1  # goal
    bodies = [l for l in clauses if ":-" in l and not l.startswith(":-")]
    # one clause per And-rule, one per Or-rule pointing at a nonterminal
    nonterminal_or = [
        r for r in line_drawing.or_rules if r.child not in line_drawing.terminals
    ]
    facts = [l for l in clauses if ":-" not in l]
    terminal_or = [r for r in line_drawing.or_rules if r.child in line_drawing.terminals]
    assert len(bodies) == len(line_drawing.and_rules) + len(nonterminal_or)
    assert len(facts) == len(terminal_or)


def test_every_or_rule_probability_appears(line_drawing):
    fol = emit_fol(line_drawing).text
    slp = emit_slp(line_drawing).text
    for rule in line_drawing.or_rules:
        assert repr(rule.prob) in fol
        assert repr(rule.prob) in slp


def test_emitters_are_deterministic(line_drawing):
    assert emit_fol(line_drawing).text == emit_fol(line_drawing).text
    assert emit_slp(line_drawing).text == emit_slp(line_drawing).text


def test_symbol_sanitization_keeps_names_distinct():
    # v1+ and v1- collapse to the same identifier base and must be bumped apart
    g = Grammar(
        domain=null_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset(),
        or_nodes=frozenset({"S", "v1+", "v1-"}),
        start="S",
        and_rules=(),
        or_rules=(
            OrRule("S", "v1+", 0.5),
            OrRule("S", "v1-", 0.5),
            OrRule("v1+", "t", 1.0),
            OrRule("v1-", "t", 1.0),
        ),
    )
    for doc in (emit_fol(g), emit_slp(g)):
        # both nodes survive as distinct predicates, free of raw punctuation
        assert "v1(" in doc.text
        assert "v12(" in doc.text
        assert "v1+" not in doc.text
        assert "v1-" not in doc.text


def test_sat_grammar_exports_without_collisions():
    g, _ = sat_to_aog(Cnf3Sat(2, ((1, 2), (-1, -2))))
    fol = emit_fol(g)
    slp = emit_slp(g)
    # every node name maps to exactly one predicate and vice versa
    assert len(fol.clause_lines()) > 0
    assert fol.text.count("forall") == len([l for l in fol.clause_lines()])
    assert slp.text.endswith("\n")


def test_a_digit_led_name_gets_a_letter_in_front():
    g = Grammar.from_rules(null_domain(), ["7up"], "S", [], [OrRule("S", "7up", 1.0)])
    assert "1.0: s([n7up], [null])." in emit_slp(g).clause_lines()


def test_an_and_rule_over_terminals_calls_their_facts():
    doc = emit_slp(scfg_to_aog(parse_scfg("S -> a b [1.0]")))
    assert doc.clause_lines()[1:] == ["1.0: a([a], [_]).", "1.0: b([b], [_]).", ":- s(X, P)."]


def slp_heads(doc):
    """The predicates that the clause heads of an SLP document define."""
    heads = set()
    for line in doc.clause_lines():
        head = line.partition(":- ")[0]
        if head:  # the goal line has none
            heads.add(re.match(r"[^:]+: (\w+)\(", head).group(1))
    return heads


def slp_own_predicates(doc):
    """The predicates an SLP document calls for itself: append and the
    domain-defined stubs its trailing comments declare."""
    return {"append"} | set(re.findall(r"^%   (\w+)/\d+:", doc.text, re.M))


def called_but_undefined(doc):
    """The predicates that a clause body calls and neither a clause head
    defines nor the document declares as its own."""
    called = set()
    for line in doc.clause_lines():
        called.update(re.findall(r"\b([a-z]\w*)\(", line.partition(":- ")[2]))
    return called - slp_heads(doc) - slp_own_predicates(doc)


def fol_predicates(doc):
    """(node predicates, the export's own predicates) of an FOL document.
    The export's own are theta, the part links and the r_theta atom that
    closes each composition axiom; every other one-place atom names a node."""
    nodes, own = set(), {"theta"}
    for line in doc.clause_lines():
        line, _, relation = line.partition(" & r_theta_")
        if relation:
            own.add("r_theta_" + relation.partition("(")[0])
        own.update(re.findall(r"\b(\w+)\(x, y\d+\)", line))
        nodes.update(re.findall(r"\b(\w+)\((?:x|y\d+)\)", line))
    return nodes, own


# node names that are, or look like, the predicates an export writes itself
CLASHING = {
    "append": "S -> append b [1.0]\nappend -> a [1.0]",
    "part link": "S -> A r_1_s [1.0]\nA -> a [1.0]\nr_1_s -> b [1.0]",
    "theta": "S -> theta part_1_s [1.0]\ntheta -> a [1.0]\npart_1_s -> b [1.0]",
}


@pytest.mark.parametrize("text", CLASHING.values(), ids=CLASHING.keys())
def test_no_node_predicate_is_one_the_export_writes_itself(text):
    g = scfg_to_aog(parse_scfg(text))
    slp = emit_slp(g)
    assert slp_heads(slp) & slp_own_predicates(slp) == set()
    assert called_but_undefined(slp) == set()
    nodes, own = fol_predicates(emit_fol(g))
    assert nodes & own == set()
    assert len(nodes) == len(g.terminals | g.and_nodes | g.or_nodes)


def test_a_node_named_like_an_export_predicate_gets_a_letter_in_front():
    g = scfg_to_aog(parse_scfg(CLASHING["append"]))
    assert emit_slp(g).clause_lines()[:2] == [
        "1.0: s(X, P) :- nappend(X1, P1), b(X2, P2), append([X1, X2], X), "
        "r_1_s(X, X1), r_2_s(X, X2), r_theta_s(P, P1, P2).",
        "1.0: nappend([a], [_]).",
    ]
    g = scfg_to_aog(parse_scfg(CLASHING["theta"]))
    assert (
        "forall x: s(x) -> exists y1, y2: (ntheta(y1) & part_1_s(x, y1)) & "
        "(npart_1_s(y2) & part_2_s(x, y2)) & r_theta_s(theta(x), theta(y1), theta(y2))"
    ) in emit_fol(g).clause_lines()


@pytest.mark.parametrize(
    "make",
    [
        lambda: scfg_to_aog(parse_scfg("S -> a b [1.0]")),
        lambda: spn_to_aog(random_spn(random.Random(43000), 10)).grammar,
        lambda: spn_to_aog(random_spn(random.Random(43001), 10)).grammar,
        lambda: sat_to_aog(Cnf3Sat(3, ((1, -2, 3), (-1, 2), (2, 3))))[0],
        None,
    ],
    ids=["scfg", "spn 43000", "spn 43001", "sat", "line drawing"],
)
def test_every_called_predicate_is_defined(make, line_drawing):
    g = line_drawing if make is None else make()
    assert called_but_undefined(emit_slp(g)) == set()


def test_a_terminal_keeps_its_name_beside_a_node_it_clashes_with():
    # the Or-node A and the terminal a both lower to `a`: the token keeps it
    g = scfg_to_aog(parse_scfg("S -> A b [1.0]\nA -> a [1.0]"))
    assert "1.0: a2([a], [_])." in emit_slp(g).clause_lines()
    assert "forall x: a2(x) -> a(x) : 1.0" in emit_fol(g).clause_lines()


def slp_mass(doc, tokens, every_order=False):
    """The mass of an SLP document's goal on a token list, read back from
    its text: a predicate's mass is the sum over its clauses, where a fact
    counts when the list is its one terminal and a body multiplies its node
    goals' masses over every split of the list into non-empty parts
    (`append` concatenates and the `r_*` stubs hold).  With every_order,
    the sum of that mass over every order of the tokens: on the null domain
    a parse places its instances in any order."""
    clauses = {}
    for line in doc.clause_lines():
        if line.startswith(":- "):
            start = re.match(r":- (\w+)\(", line).group(1)
            continue
        prob, _, clause = line.partition(": ")
        head, _, body = clause.partition(" :- ")
        name, fact = re.match(r"(\w+)\((?:\[(\w+)\])?", head).groups()
        goals = tuple(re.findall(r"\b(\w+)\(X\d*, P\d*\)", body))
        clauses.setdefault(name, []).append((float(prob), fact, goals))

    @functools.lru_cache(maxsize=None)
    def mass(name, toks):
        return sum(
            prob * (toks == (fact,) if fact else split(goals, toks))
            for prob, fact, goals in clauses.get(name, ())
        )

    def split(goals, toks):
        if len(goals) == 1:
            return mass(goals[0], toks)
        return sum(
            mass(goals[0], toks[:i]) * split(goals[1:], toks[i:])
            for i in range(1, len(toks) - len(goals) + 2)
        )

    orders = itertools.permutations(tokens) if every_order else [tuple(tokens)]
    return sum(mass(start, order) for order in orders)


@pytest.mark.parametrize(
    "text, tokens, expected",
    [
        ("S -> S A [0.4]\nS -> a [0.6]\nA -> a [1.0]", "aaa", 0.096),
        ("S -> A b [1.0]\nA -> a [1.0]", "ab", 1.0),
    ],
    ids=["left recursion", "clashing names"],
)
def test_slp_mass_of_hand_grammars(text, tokens, expected):
    g = scfg_to_aog(parse_scfg(text))
    assert math.isclose(slp_mass(emit_slp(g), tokens), expected, rel_tol=1e-12)
    assert math.isclose(
        math.exp(parse(to_gcnf(g)[0], string_sample(tokens), "marginal").score),
        expected,
        rel_tol=1e-12,
    )


@pytest.mark.parametrize("chains", [False, True], ids=["plain", "or-chains"])
def test_slp_derives_what_the_grammar_derives(chains):
    checked = 0
    for seed in range(40):
        g = random_aog(random.Random(seed), allow_or_chains=chains, kind="string")
        doc, gcnf = emit_slp(g), to_gcnf(g)[0]
        for draw in range(3):
            _, x = sample(g, seed=draw)
            if len(x) > 7:
                continue
            tokens = [i.terminal for i in sorted(x.instances, key=lambda i: i.param)]
            expected = math.exp(parse(gcnf, x, "marginal").score)
            assert math.isclose(slp_mass(doc, tokens), expected, rel_tol=1e-9), (seed, tokens)
            checked += 1
    assert checked >= 40


def null_domain_cases():
    """(grammar, sample) pairs on the null domain, whose terminals are all
    distinct: every assignment of SPNs over 1-4 variables, and SAT formulas
    of at most 5 clauses."""
    for seed in range(30):
        n_vars = 1 + seed % 4
        conv = spn_to_aog(random_spn(random.Random(seed), n_vars))
        for bits in range(2**n_vars):
            assignment = {v: (bits >> (v - 1)) & 1 for v in range(1, n_vars + 1)}
            yield conv.grammar, assignment_sample(conv, assignment)
    for seed in range(60):
        f = random_3sat(random.Random(seed))
        if len(f.clauses) <= 5:
            yield sat_to_aog(f)


def test_slp_derives_what_the_grammar_derives_on_the_null_domain():
    checked = 0
    for g, x in null_domain_cases():
        tokens = [i.terminal for i in x.instances]
        expected = math.exp(parse(to_gcnf(g)[0], x, "marginal").score)
        got = slp_mass(emit_slp(g), tokens, every_order=True)
        assert math.isclose(got, expected, rel_tol=1e-9), (tokens, got, expected)
        checked += 1
    assert checked == 216 + 19


def test_null_domain_terminal_facts_use_null_parameter():
    g = Grammar(
        domain=null_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset(),
        or_nodes=frozenset({"S"}),
        start="S",
        and_rules=(),
        or_rules=(OrRule("S", "t", 1.0),),
    )
    doc = emit_slp(g)
    assert "1.0: s([t], [null])." in doc.clause_lines()


def test_golden_fol(line_drawing):
    expected = (GOLDEN / "line_drawing.fol.txt").read_text()
    for _ in range(3):
        assert emit_fol(line_drawing).text == expected


def test_golden_slp(line_drawing):
    expected = (GOLDEN / "line_drawing.slp.txt").read_text()
    for _ in range(3):
        assert emit_slp(line_drawing).text == expected
