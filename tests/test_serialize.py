"""JSON persistence: roundtrips, strict key checking, canonical output."""

import enum
import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aog import (
    BudgetExceeded,
    DataSample,
    DomainError,
    FormatError,
    FunctionRef,
    NodeMap,
    ParamTuple,
    ParserBudget,
    TerminalInstance,
    gcnf_violations,
    grammar_from_json_dict,
    grammar_to_json_dict,
    load_grammar,
    load_node_map,
    load_sample,
    parse,
    sample,
    sample_from_json_dict,
    sample_to_json_dict,
    save_grammar,
    save_node_map,
    save_sample,
    to_gcnf,
    tree_to_json_dict,
    validate_grammar,
)
from aog.serialize import canonical_dumps
from helpers import random_aog


KINDS = ("string", "grid", "null", "interval")


def with_normal_form(g):
    """g and its normal form, which is over the tuple domain when g has a
    rule of three or more children."""
    return g, to_gcnf(g)[0]


@pytest.mark.parametrize("trial", range(12))
def test_grammar_roundtrip_random(trial, tmp_path):
    rng = random.Random(800 + trial)
    for kind in (None,) + KINDS:  # None: random_aog draws the kind
        for g in with_normal_form(random_aog(rng, allow_or_chains=trial % 2 == 0, kind=kind)):
            assert grammar_from_json_dict(grammar_to_json_dict(g)) == g
            path = tmp_path / f"{kind}.json"
            save_grammar(g, path)
            assert load_grammar(path) == g


def test_grammar_roundtrip_tuple_domain(wide_string_grammar):
    gcnf, _ = to_gcnf(wide_string_grammar)
    restored = grammar_from_json_dict(grammar_to_json_dict(gcnf))
    assert grammar_to_json_dict(restored) == grammar_to_json_dict(gcnf)
    assert validate_grammar(restored).ok
    assert restored.domain == gcnf.domain


def test_grammar_file_roundtrip(tmp_path, line_drawing):
    path = tmp_path / "g.json"
    save_grammar(line_drawing, path)
    assert load_grammar(path) == line_drawing


def test_canonical_output_is_stable(line_drawing):
    texts = {canonical_dumps(grammar_to_json_dict(line_drawing)) for _ in range(3)}
    assert len(texts) == 1
    text = texts.pop()
    assert text.endswith("\n")
    assert json.loads(text)["start"] == "figure"


def test_unknown_keys_rejected(line_drawing):
    payload = grammar_to_json_dict(line_drawing)
    payload["comment"] = "not allowed"
    with pytest.raises(FormatError):
        grammar_from_json_dict(payload)


def test_missing_keys_rejected(line_drawing):
    payload = grammar_to_json_dict(line_drawing)
    del payload["start"]
    with pytest.raises(FormatError):
        grammar_from_json_dict(payload)


def test_wrong_version_rejected(line_drawing):
    payload = grammar_to_json_dict(line_drawing)
    payload["format_version"] = 99
    with pytest.raises(FormatError):
        grammar_from_json_dict(payload)


def test_invalid_grammar_rejected(line_drawing):
    payload = grammar_to_json_dict(line_drawing)
    payload["or_rules"][0]["prob"] = 0.25  # figure's rules no longer sum to 1
    with pytest.raises(FormatError):
        grammar_from_json_dict(payload)


def test_renormalize_divides_per_head(line_drawing):
    payload = grammar_to_json_dict(line_drawing)
    for rule in payload["or_rules"]:
        if rule["head"] == "figure":
            rule["prob"] *= 4.0
    g = grammar_from_json_dict(payload, renormalize=True)
    assert validate_grammar(g).ok
    probs = sorted(r.prob for r in g.or_rules if r.head == "figure")
    assert probs == pytest.approx([0.2, 0.3, 0.5])


def packed_params(domain, tree) -> list:
    """The packed tuples that binarization threads up through each wide
    And-node of tree, built by the tuple domain's pack and extend."""
    pack = domain.function(FunctionRef("pack"), 2)
    extend = domain.function(FunctionRef("extend"), 2)
    out = []
    for node in tree.root.walk():
        params = [child.param for child in node.children]
        if len(params) > 2:
            out.append(pack(*params[:2]))
            for param in params[2:-1]:
                out.append(extend(out[-1], param))
    return out


def assert_sample_roundtrips(x, domain, path):
    assert sample_from_json_dict(sample_to_json_dict(x, domain), domain) == x
    save_sample(x, domain, path)
    assert load_sample(path, domain) == x


def test_sample_roundtrip(line_drawing, tmp_path):
    path = tmp_path / "x.json"
    assert_sample_roundtrips(sample(line_drawing, seed=5)[1], line_drawing.domain, path)
    rng = random.Random(900)
    for kind in KINDS:
        wide = 0
        for trial in range(6):
            g, gcnf = with_normal_form(random_aog(rng, kind=kind))
            tree, x = sample(g, seed=trial)
            for grammar in (g, gcnf):
                assert_sample_roundtrips(x, grammar.domain, path)
            params = packed_params(gcnf.domain, tree) if gcnf.domain.name == "tuple" else []
            if params:  # the drawn tree used a wide rule
                wide += 1
                assert all(isinstance(p, ParamTuple) for p in params)
                packed = tuple(TerminalInstance(f"p{i}", "t0", p) for i, p in enumerate(params))
                assert_sample_roundtrips(DataSample(packed), gcnf.domain, path)
        assert wide, kind


def parse_target(g):
    return to_gcnf(g)[0] if gcnf_violations(g) else g


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(KINDS),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=9),
)
def test_saved_files_parse_as_the_objects(tmp_path_factory, seed, kind, normal_form, chains, draw):
    g = random_aog(random.Random(seed), allow_or_chains=chains, kind=kind)
    if normal_form:
        g = to_gcnf(g)[0]
    try:
        _, x = sample(g, seed=draw)
    except DomainError:  # an interval too narrow to split
        assume(False)
    folder = tmp_path_factory.mktemp("roundtrip")
    save_grammar(g, folder / "g.json")
    save_sample(x, g.domain, folder / "x.json")
    loaded = load_grammar(folder / "g.json")
    loaded_x = load_sample(folder / "x.json", loaded.domain)
    for mode in ("viterbi", "marginal"):
        budget = ParserBudget(max_entries=5_000)
        try:
            expected = parse(parse_target(g), x, mode, budget)
        except BudgetExceeded:  # a null-domain chart holds every subset
            assume(False)
        result = parse(parse_target(loaded), loaded_x, mode, budget)
        assert result.score.hex() == expected.score.hex()
        assert result.tree == expected.tree


def test_sample_rejects_malformed(line_drawing):
    with pytest.raises(FormatError):
        sample_from_json_dict({"instances": [{"id": "a"}]}, line_drawing.domain)
    with pytest.raises(FormatError):
        sample_from_json_dict({"wrong": []}, line_drawing.domain)


def test_node_map_file_roundtrip(tmp_path, wide_string_grammar):
    _, node_map = to_gcnf(wide_string_grammar)
    path = tmp_path / "map.json"
    save_node_map(node_map, path)
    assert load_node_map(path) == node_map


def test_tree_serialization(line_drawing):
    tree, x = sample(line_drawing, seed=2)
    payload = tree_to_json_dict(tree, line_drawing.domain)
    assert payload["log_prob"] == pytest.approx(tree.log_prob)
    root = payload["root"]
    assert root["node"] == "figure"
    text = canonical_dumps(payload)
    assert json.loads(text) == payload


def test_load_grammar_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_grammar(tmp_path / "absent.json")


def test_check_flag_admits_invalid_grammar(line_drawing):
    payload = grammar_to_json_dict(line_drawing)
    payload["or_rules"][0]["prob"] = 0.25
    g = grammar_from_json_dict(payload, check=False)
    assert not validate_grammar(g).ok


# --------------------------------------------------- canonical_dumps against json


class Color(enum.IntEnum):
    RED = 1
    BLUE = -20


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def outcome(write, payload):
    """write(payload)'s text, or the type and message of what it raised."""
    try:
        return write(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(),  # NaN, both infinities and -0.0 included
    st.text(),  # non-ASCII and control characters escaped
    st.sampled_from(Color),
)
# one dict's keys are all strings, all numbers or None, which json can sort
KEYS = st.sampled_from(
    [
        st.text(),
        st.one_of(st.integers(), st.floats(), st.booleans(), st.sampled_from(Color)),
        st.none(),
    ]
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
    )


PAYLOADS = st.recursive(SCALARS, containers, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_canonical_dumps_matches_json(payload):
    assert canonical_dumps(payload) == json_text(payload)


class Opaque:
    pass


@settings(max_examples=200, deadline=None)
@given(
    PAYLOADS,
    st.sampled_from(
        [
            {1, 2},
            b"bytes",
            1j,
            Opaque(),
            {(1, 2): "tuple key"},
            {frozenset(): 0},
            {"a": 1, 2: "mixed keys"},
            {None: 1, "b": 2},
        ]
    ),
    st.integers(min_value=0, max_value=3),
)
def test_canonical_dumps_refuses_as_json(payload, bad, where):
    # bad is placed inside a drawn payload; both writers meet the same first refusal
    payload = [payload, bad] if where == 0 else {"k": [bad] * where, "a": payload}
    expected = outcome(json_text, payload)
    assert isinstance(expected, tuple)
    assert outcome(canonical_dumps, payload) == expected


def test_canonical_dumps_refuses_circular_payloads():
    loop: list = [1]
    loop.append(loop)
    knot: dict = {"a": [{}]}
    knot["a"][0]["b"] = knot
    for payload in (loop, knot, {"x": [loop]}):
        expected = outcome(json_text, payload)
        assert expected == (ValueError, "Circular reference detected")
        assert outcome(canonical_dumps, payload) == expected
    # the same container twice side by side is no cycle
    shared = [1, 2]
    payload = [shared, shared, {"s": shared}]
    assert canonical_dumps(payload) == json_text(payload)
