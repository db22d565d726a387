"""3SAT frontend: DIMACS handling and the satisfiability-to-parsing reduction."""

import random

import pytest

from aog import (
    Cnf3Sat,
    FormatError,
    UnsupportedGrammar,
    brute_force_satisfiable,
    format_dimacs,
    parse,
    parse_dimacs,
    sat_to_aog,
    to_gcnf,
    tree_probability,
    project_parse,
    validate_grammar,
)
from helpers import NEG_INF, random_3sat

DIMACS = """\
c tiny instance
p cnf 3 2
1 -2 0
2 3 -1 0
"""


def test_parse_dimacs():
    f = parse_dimacs(DIMACS)
    assert f.n_vars == 3
    assert f.clauses == ((1, -2), (-1, 2, 3))


def test_dimacs_roundtrip():
    f = parse_dimacs(DIMACS)
    assert parse_dimacs(format_dimacs(f)) == f


def test_parse_dimacs_clause_spanning_lines():
    f = parse_dimacs("p cnf 2 1\n1\n2 0\n")
    assert f.clauses == ((1, 2),)


def test_parse_dimacs_stops_at_the_end_marker():
    # SATLIB's uf/uuf files end with a "%" line and then a line "0"
    text = "p cnf 3 2\n1 -2 3 0\n-1 2 0\n"
    assert parse_dimacs(text + "%\n0\n") == parse_dimacs(text)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "1 2 0\n",
        "p cnf x 1\n1 0\n",
        "p cnf 2 1\n1 two 0\n",
        "p cnf 2 2\n1 0\n",
        "p cnf 2 1\n1 2\n",
        "p cnf 1 1\n5 0\n",
    ],
)
def test_parse_dimacs_rejects_malformed(bad):
    with pytest.raises(FormatError):
        parse_dimacs(bad)


def test_clause_normalization():
    f = Cnf3Sat(2, ((2, 1, 1, -1, 2), (-2, -2)))
    assert f.clauses == ((1, -1, 2), (-2,))
    with pytest.raises(ValueError):
        Cnf3Sat(4, ((1, 2, 3, 4),))
    with pytest.raises(ValueError):
        Cnf3Sat(2, ((0,),))
    with pytest.raises(ValueError):
        Cnf3Sat(0, ())


def test_brute_force_on_known_formulas():
    assert brute_force_satisfiable(Cnf3Sat(1, ((1,),)))
    assert not brute_force_satisfiable(Cnf3Sat(1, ((1,), (-1,))))
    # pigeonhole-ish: x1, x1 -> x2, not x2
    assert not brute_force_satisfiable(Cnf3Sat(2, ((1,), (-1, 2), (-2,))))


def test_sat_formula_parses():
    f = Cnf3Sat(2, ((1, 2), (-1, 2)))
    g, x = sat_to_aog(f)
    assert validate_grammar(g).ok
    gcnf, node_map = to_gcnf(g)
    result = parse(gcnf, x, "viterbi")
    assert result.score > NEG_INF
    # the parse tree projects back to a well-formed tree of the conversion grammar
    projected = project_parse(result.tree, node_map, g)
    assert tree_probability(g, projected) <= 0.0


def test_unsat_formula_does_not_parse():
    f = Cnf3Sat(1, ((1,), (-1,)))
    g, x = sat_to_aog(f)
    gcnf, _ = to_gcnf(g)
    for mode in ("viterbi", "marginal"):
        result = parse(gcnf, x, mode)
        assert result.score == NEG_INF
        assert result.tree is None


def test_empty_formula_rejected():
    with pytest.raises(ValueError):
        sat_to_aog(Cnf3Sat(1, ()))


def test_an_empty_clause_is_unsupported():
    # no literal can satisfy it, so no derivation reaches its clause marker
    with pytest.raises(UnsupportedGrammar, match="^no clause marker can ever be produced$"):
        sat_to_aog(Cnf3Sat(1, ((),)))


def test_conversion_size_is_polynomial():
    for trial in range(25):
        rng = random.Random(600 + trial)
        f = random_3sat(rng)
        g, _ = sat_to_aog(f)
        n = f.n_vars
        k = len(f.clauses)
        occurrences = sum(len(c) for c in f.clauses)
        nodes = len(g.terminals) + len(g.and_nodes) + len(g.or_nodes)
        rules = len(g.and_rules) + len(g.or_rules)
        budget = 30 * (n + k + occurrences) + 60
        assert nodes <= budget
        assert rules <= budget


@pytest.mark.parametrize("trial", range(60))
def test_parse_existence_equals_satisfiability(trial):
    rng = random.Random(700 + trial)
    f = random_3sat(rng)
    g, x = sat_to_aog(f)
    gcnf, _ = to_gcnf(g)
    parsed = parse(gcnf, x, "viterbi").score > NEG_INF
    assert parsed == brute_force_satisfiable(f)
