"""Shared authored fixtures.

line_drawing is the running example used across the tests: a grid-domain
grammar of small dot figures with a three-way top-level choice
(0.5 / 0.3 / 0.2) and an arity-3 composition.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import over_intervals  # noqa: E402

from aog import (
    AndRule,
    FunctionRef,
    Grammar,
    OrRule,
    RelationRef,
    grid_domain,
    null_domain,
    string_span_domain,
)


@pytest.fixture
def line_drawing() -> Grammar:
    """Dot figures on the grid: a 3-dot horizontal line, a 2-dot vertical
    line, or a single dot."""
    return Grammar(
        domain=grid_domain(),
        terminals=frozenset({"dot"}),
        and_nodes=frozenset({"hline", "vpair"}),
        or_nodes=frozenset({"figure", "point"}),
        start="figure",
        and_rules=(
            AndRule(
                "hline",
                ("point", "point", "point"),
                RelationRef("offset", {"offsets": [[1, 0], [2, 0]]}),
                FunctionRef("anchor", {"anchor": [0, 0]}),
            ),
            AndRule(
                "vpair",
                ("point", "point"),
                RelationRef("offset", {"offsets": [[0, 1]]}),
                FunctionRef("anchor", {"anchor": [0, 0]}),
            ),
        ),
        or_rules=(
            OrRule("figure", "hline", 0.5),
            OrRule("figure", "vpair", 0.3),
            OrRule("figure", "dot", 0.2),
            OrRule("point", "dot", 1.0),
        ),
    )


@pytest.fixture
def wide_string_grammar() -> Grammar:
    """String-domain grammar with arity-4 and arity-5 rules and an
    Or-to-Or chain; exercises every normalization step at once."""
    return Grammar(
        domain=string_span_domain(),
        terminals=frozenset({"a", "b"}),
        and_nodes=frozenset({"quad", "quint"}),
        or_nodes=frozenset({"top", "item", "letter"}),
        start="top",
        and_rules=(
            AndRule(
                "quad",
                ("item", "item", "item", "item"),
                RelationRef("adjacent"),
                FunctionRef("concat"),
            ),
            AndRule(
                "quint",
                ("item", "item", "item", "item", "item"),
                RelationRef("adjacent"),
                FunctionRef("concat"),
            ),
        ),
        or_rules=(
            OrRule("top", "quad", 0.45),
            OrRule("top", "quint", 0.35),
            OrRule("top", "letter", 0.2),
            OrRule("item", "letter", 0.6),
            OrRule("item", "b", 0.4),
            OrRule("letter", "a", 1.0),
        ),
    )


@pytest.fixture
def wide_interval_grammar(wide_string_grammar) -> Grammar:
    """wide_string_grammar over intervals with meets/hull: its normal form
    binarizes the wide rules through the tuple domain's packed tuples."""
    return over_intervals(wide_string_grammar)


@pytest.fixture
def and_start() -> Grammar:
    """A -> B B over the null domain: the start is an And-node, so the
    normal form wraps it."""
    return Grammar(
        domain=null_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset({"A"}),
        or_nodes=frozenset({"B"}),
        start="A",
        and_rules=(AndRule("A", ("B", "B"), RelationRef("true"), FunctionRef("null")),),
        or_rules=(OrRule("B", "t", 1.0),),
    )
