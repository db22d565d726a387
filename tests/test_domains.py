"""Parameter domain relations, functions, codecs, and ordering."""

import collections
import dataclasses
import enum
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aog import (
    AndRule,
    ConfigError,
    DataSample,
    DomainBinding,
    DomainError,
    FunctionRef,
    Grammar,
    ParamTuple,
    RelationRef,
    TerminalInstance,
    domain_from_config,
    grid_domain,
    interval_domain,
    null_domain,
    param_order_key,
    parse,
    string_span_domain,
    to_gcnf,
    tuple_domain,
    validate_grammar,
)
from aog.domains import _check_pair


def test_string_span_adjacent_and_concat():
    dom = string_span_domain()
    adjacent = dom.relation(RelationRef("adjacent"), 3)
    assert adjacent((0, 1), (1, 3), (3, 4))
    assert not adjacent((0, 1), (2, 3), (3, 4))
    concat = dom.function(FunctionRef("concat"), 3)
    assert concat((0, 1), (1, 3), (3, 4)) == (0, 4)
    assert dom.leaf_param(2) == (2, 3)


def test_string_span_codec_rejects_bad_spans():
    dom = string_span_domain()
    assert dom.decode_param([1, 4]) == (1, 4)
    assert dom.encode_param((1, 4)) == [1, 4]
    with pytest.raises(DomainError):
        dom.decode_param([3, 2])
    with pytest.raises(DomainError):
        dom.decode_param([1])


def test_grid_offset_relation():
    dom = grid_domain()
    rel = dom.relation(RelationRef("offset", {"offsets": [[1, 0], [0, 2]]}), 3)
    assert rel((5, 5), (6, 5), (5, 7))
    assert not rel((5, 5), (6, 5), (5, 8))
    fn = dom.function(FunctionRef("anchor", {"anchor": [1, 1]}), 3)
    assert fn((5, 5), (6, 5), (5, 7)) == (6, 6)


def test_grid_offset_config_must_match_arity():
    dom = grid_domain()
    with pytest.raises(ConfigError):
        dom.relation(RelationRef("offset", {"offsets": [[1, 0]]}), 3)


@pytest.mark.parametrize("bad", [["a", 0], [None, 0], [1.5, 0], [0, True]])
def test_grid_config_entries_must_be_ints(bad):
    dom = grid_domain()
    with pytest.raises(ConfigError):
        dom.relation(RelationRef("offset", {"offsets": [bad]}), 2)
    with pytest.raises(ConfigError):
        dom.function(FunctionRef("anchor", {"anchor": bad}), 2)
    rel = RelationRef("offset", {"offsets": [[1, 0]]})
    with pytest.raises(ConfigError):
        dom.realize_children(rel, FunctionRef("anchor", {"anchor": bad}), (0, 0), 2)


def test_grid_realize_children_inverts_anchor():
    dom = grid_domain()
    rel = RelationRef("offset", {"offsets": [[2, 0]]})
    fn = FunctionRef("anchor", {"anchor": [1, 0]})
    children = dom.realize_children(rel, fn, (10, 4), 2)
    assert children == ((9, 4), (11, 4))
    # the realized children satisfy the relation and map back to the parent
    assert dom.relation(rel, 2)(*children)
    assert dom.function(fn, 2)(*children) == (10, 4)
    with pytest.raises(DomainError, match="^cannot realize children for 'offset'/'pick'$"):
        dom.realize_children(rel, FunctionRef("pick"), (10, 4), 2)


def test_interval_relations():
    dom = interval_domain()
    assert dom.relation(RelationRef("meets"), 2)((0, 3), (3, 5))
    assert dom.relation(RelationRef("before"), 2)((0, 2), (3, 5))
    assert not dom.relation(RelationRef("before"), 2)((0, 3), (3, 5))
    assert dom.relation(RelationRef("equals"), 3)((1, 2), (1, 2), (1, 2))
    assert dom.relation(RelationRef("during"), 2)((2, 3), (0, 5))
    assert not dom.relation(RelationRef("during"), 2)((0, 3), (0, 5))
    assert dom.function(FunctionRef("hull"), 2)((0, 2), (5, 7)) == (0, 7)
    with pytest.raises(ConfigError, match="^during is binary$"):
        dom.relation(RelationRef("during"), 3)


def test_interval_realize_even_split():
    dom = interval_domain()
    parts = dom.realize_children(RelationRef("meets"), FunctionRef("hull"), (0, 9), 3)
    assert parts == ((0, 3), (3, 6), (6, 9))
    with pytest.raises(DomainError):
        dom.realize_children(RelationRef("before"), FunctionRef("hull"), (0, 9), 2)
    with pytest.raises(DomainError, match=r"^interval \(0, 2\) too narrow for 3 parts$"):
        dom.realize_children(RelationRef("meets"), FunctionRef("hull"), (0, 2), 3)


def test_null_domain_is_trivial():
    dom = null_domain()
    assert dom.relation(RelationRef("true"), 4)(None, None, None, None)
    assert dom.function(FunctionRef("null"), 2)(None, None) is None
    assert dom.encode_param(None) is None
    with pytest.raises(DomainError):
        dom.decode_param([0, 0])


def test_tuple_domain_pack_extend_project():
    dom = tuple_domain(string_span_domain())
    pack = dom.function(FunctionRef("pack"), 2)
    packed = pack((0, 1), (1, 2))
    assert packed == ParamTuple(((0, 1), (1, 2)))
    extend = dom.function(FunctionRef("extend"), 2)
    extended = extend(packed, (2, 3))
    assert extended == ParamTuple(((0, 1), (1, 2), (2, 3)))
    # a ParamTuple equals the plain tuple of its items, so == cannot tell them apart
    assert type(packed) is ParamTuple and type(extended) is ParamTuple
    with pytest.raises(DomainError, match="^extend needs a packed first argument, got"):
        extend(packed.items, (2, 3))


def test_param_tuple_keeps_its_items_repr_and_order():
    packed = ParamTuple(((0, 1), (1, 2)))
    plain = ((0, 1), (1, 2))
    assert type(packed.items) is tuple and packed.items == plain
    assert repr(packed) == "ParamTuple(items=((0, 1), (1, 2)))"
    assert repr(ParamTuple(((0, 0), ParamTuple(((1, 1),))))) == (
        "ParamTuple(items=((0, 0), ParamTuple(items=((1, 1),))))"
    )
    assert param_order_key(packed)[0] == 3 and param_order_key(plain)[0] == 2


def test_pair_values_refuse_a_param_tuple():
    assert _check_pair((1, 2), "span") == (1, 2)
    with pytest.raises(DomainError, match="span must be a pair of ints"):
        _check_pair(ParamTuple((1, 2)), "span")
    with pytest.raises(DomainError):
        string_span_domain().relation(RelationRef("adjacent"), 2)(ParamTuple((0, 1)), (1, 2))


def test_tuple_domain_realize_splits_into_param_tuples():
    dom = tuple_domain(interval_domain())
    rel = RelationRef("apply_packed", {"key": "meets", "config": {}, "arity": 3})
    fn = FunctionRef("apply_packed", {"key": "hull", "config": {}, "arity": 3})
    first, last = dom.realize_children(rel, fn, (0, 9), 2)
    assert type(first) is ParamTuple and first.items == ((0, 3), (3, 6)) and last == (6, 9)
    first, last = dom.realize_children(RelationRef("true"), FunctionRef("extend"), first, 2)
    assert type(first) is ParamTuple and first.items == ((0, 3),) and last == (3, 6)
    unsplit = r"^cannot split ParamTuple\(items=\(\(0, 3\),\)\) for 'pack'$"
    with pytest.raises(DomainError, match=unsplit):
        dom.realize_children(RelationRef("true"), FunctionRef("pack"), first, 1)


def test_tuple_domain_apply_packed_uses_base_semantics():
    dom = tuple_domain(string_span_domain())
    cfg = {"key": "adjacent", "config": {}, "arity": 3}
    rel = dom.relation(RelationRef("apply_packed", cfg), 2)
    assert rel(ParamTuple(((0, 1), (1, 2))), (2, 5))
    assert not rel(ParamTuple(((0, 1), (1, 2))), (3, 5))
    fn_cfg = {"key": "concat", "config": {}, "arity": 3}
    fn = dom.function(FunctionRef("apply_packed", fn_cfg), 2)
    assert fn(ParamTuple(((0, 1), (1, 2))), (2, 5)) == (0, 5)
    with pytest.raises(DomainError):
        rel(ParamTuple(((0, 1),)), (2, 5))
    with pytest.raises(DomainError, match="^apply_packed needs a packed first argument, got"):
        rel(((0, 1), (1, 2)), (2, 5))


def test_tuple_domain_codec_roundtrip():
    dom = tuple_domain(grid_domain())
    value = ParamTuple(((0, 0), ParamTuple(((1, 1), (2, 2)))))
    encoded = dom.encode_param(value)
    assert encoded == {"t": [[0, 0], {"t": [[1, 1], [2, 2]]}]}
    assert dom.decode_param(encoded) == value


def test_tuple_domain_still_resolves_base_entries():
    dom = tuple_domain(grid_domain())
    rel = dom.relation(RelationRef("offset", {"offsets": [[1, 0]]}), 2)
    assert rel((0, 0), (1, 0))
    with pytest.raises(DomainError, match="^domain 'tuple' has no relation 'nope'$"):
        dom.relation(RelationRef("nope"), 2)


def test_param_order_key_is_a_total_order_across_shapes():
    values = [None, 3, (0, 1), (2, 2), ParamTuple(((0, 1), (1, 2))), 1, (0, 1, 2)]
    ordered = sorted(values, key=param_order_key)
    assert ordered == [None, 1, 3, (0, 1), (2, 2), (0, 1, 2), ParamTuple(((0, 1), (1, 2)))]


@pytest.mark.parametrize(
    "value, match",
    [
        (True, "^bool is not a parameter value$"),
        ((0, False), "^bool is not a parameter value$"),
        ("x", "^unorderable parameter value: 'x'$"),
        (1.5, "^unorderable parameter value: 1.5$"),
    ],
)
def test_param_order_key_refuses_what_is_no_parameter(value, match):
    with pytest.raises(DomainError, match=match):
        param_order_key(value)


@pytest.mark.parametrize("mode", ["viterbi", "marginal"])
def test_a_domain_of_string_parameters_validates_but_cannot_parse(mode):
    words = DomainBinding(
        name="words",
        config={},
        relations={"true": lambda config, arity: lambda *params: True},
        functions={"join": lambda config, arity: lambda *params: "+".join(params)},
        encode_param=lambda p: p,
        decode_param=lambda raw: raw,
    )
    rule = AndRule("S", ("a", "b"), RelationRef("true"), FunctionRef("join"))
    g = Grammar.from_rules(words, {"a", "b"}, "S", [rule], [])
    assert validate_grammar(g).ok
    gcnf, _ = to_gcnf(g)
    x = DataSample((TerminalInstance("i0", "a", "x"), TerminalInstance("i1", "b", "y")))
    with pytest.raises(DomainError, match=r"^unorderable parameter value: 'x\+y'$"):
        parse(gcnf, x, mode)


def test_domain_from_config_roundtrips():
    for builder in (string_span_domain, grid_domain, interval_domain, null_domain):
        dom = builder()
        again = domain_from_config(dom.name, dom.config)
        assert again.name == dom.name and again == dom
        assert dom != dom.name  # a binding equals only a binding
    nested = tuple_domain(grid_domain())
    again = domain_from_config(nested.name, nested.config)
    assert again.name == "tuple"
    decoded = again.decode_param({"t": [[1, 2]]})
    assert decoded == ParamTuple(((1, 2),)) and type(decoded) is ParamTuple
    with pytest.raises(ConfigError):
        domain_from_config("unknown")
    with pytest.raises(ConfigError):
        domain_from_config("grid", {"stray": 1})
    with pytest.raises(ConfigError, match=r"^unknown tuple domain config keys: \['stray'\]$"):
        domain_from_config("tuple", {"base": "grid", "stray": 1})


@pytest.mark.parametrize(
    "make, key, config, good",
    [
        (string_span_domain, "adjacent", {}, (0, 1)),
        (interval_domain, "meets", {}, (0, 1)),
        (interval_domain, "equals", {}, (0, 1)),
        (grid_domain, "offset", {"offsets": [[1, -1]]}, (0, 0)),
        (lambda: tuple_domain(interval_domain()), "meets", {}, (0, 1)),
    ],
)
def test_join_keys_agree_with_their_relation(make, key, config, good):
    dom = make()
    ref = RelationRef(key, config)
    relation = dom.relation(ref, 2)
    left_key, right_key = dom.join(ref)
    # the relation holds only where the keys are equal: the parser tests
    # only the pairs of equal keys
    # the relation holds exactly where the keys are equal, reversed pairs
    # included: the join decides it, so the parser does not call it there
    assert dom.decided(ref, joined=True) and not dom.decided(ref, joined=False)
    values = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    for left in values:
        for right in values:
            assert relation(left, right) == (left_key(left) == right_key(right))
    # on a malformed parameter a key raises the relation's DomainError
    for bad in ((0, 1, 2), "x", (0, True)):
        with pytest.raises(DomainError) as expected:
            relation(bad, good)
        with pytest.raises(DomainError, match=re.escape(str(expected.value))):
            left_key(bad)
        with pytest.raises(DomainError) as expected:
            relation(good, bad)
        with pytest.raises(DomainError, match=re.escape(str(expected.value))):
            right_key(bad)


@pytest.mark.parametrize("name", ["string_span", "grid", "interval", "null"])
def test_the_decided_relations_are_the_exact_joins_and_true(name):
    exact = {"string_span": {"adjacent"}, "grid": {"offset"}, "interval": {"meets", "equals"},
             "null": {"true"}}[name]
    base = domain_from_config(name)
    for dom, keys in ((base, exact), (tuple_domain(base), exact | {"true"})):
        def decided(d):
            return {key for key in d.relations if d.decided(RelationRef(key), key in d.joins)}

        assert decided(dom) == keys
        # the mark is the factory's: a new factory, or a new join, loses it
        rewrapped = {key: lambda *args, f=f: f(*args) for key, f in dom.relations.items()}
        assert decided(dataclasses.replace(dom, relations=rewrapped)) == set()
        rejoined = {key: lambda config, f=f: f(config) for key, f in dom.joins.items()}
        assert decided(dataclasses.replace(dom, joins=rejoined)) == keys & {"true"}
        # a joined relation is not decided on a pair its join did not match
        assert {key for key in dom.relations if dom.decided(RelationRef(key), False)} == (
            keys & {"true"})


@pytest.mark.parametrize(
    "make, key",
    [
        (null_domain, "true"),
        (interval_domain, "before"),
        (interval_domain, "during"),
        (lambda: tuple_domain(string_span_domain()), "true"),
        (lambda: tuple_domain(string_span_domain()), "apply_packed"),
    ],
)
def test_relations_without_join_key(make, key):
    assert make().join(RelationRef(key)) is None


class Small(enum.IntEnum):
    ZERO = 0
    ONE = 1


Pair = collections.namedtuple("Pair", "start end")


@pytest.mark.parametrize(
    "make, key, what",
    [
        (string_span_domain, "adjacent", "span"),
        (interval_domain, "meets", "interval"),
        (interval_domain, "before", "interval"),
        (interval_domain, "equals", "interval"),
    ],
)
def test_pair_check_accepts_and_rejects_as_the_isinstance_test(make, key, what):
    dom = make()
    binary = dom.relation(RelationRef(key), 2)
    ternary = dom.relation(RelationRef(key), 3)
    join = dom.join(RelationRef(key))
    # tuple and int subclasses still pass, and behave as the plain pair
    for value in ((Small.ZERO, Small.ONE), Pair(0, 1)):
        for other in ((0, 1), (1, 2)):
            assert binary(value, other) == binary((0, 1), other)
            assert binary(other, value) == binary(other, (0, 1))
        assert dom.encode_param(value) == [0, 1]
        if join is not None:
            assert join[0](value) == join[0]((0, 1))
            assert join[1](value) == join[1]((0, 1))
    # bool items, other lengths and lists are still refused, with the same
    # message from the binary and the ternary form, on either side
    for bad in ((0, True), (False, 1), (0, 1, 2), [0, 1]):
        message = f"{what} must be a pair of ints, got {bad!r}"
        for call in (
            lambda: binary(bad, (1, 2)),
            lambda: binary((0, 1), bad),
            lambda: ternary(bad, (1, 2), (2, 3)),
            lambda: ternary((0, 1), bad, (2, 3)),
        ):
            with pytest.raises(DomainError) as raised:
                call()
            assert str(raised.value) == message


def outcome(fn, *params):
    """What fn gives on params: its value with the value's type, or the type it raises."""
    try:
        value = fn(*params)
    except Exception as exc:  # its type is what is compared
        return ("raises", type(exc))
    return ("value", type(value), value)


PLAIN = {  # the entries _plain builds, and two params of each domain
    "string_span": ({"functions": {"concat"}}, [(0, 1), (1, 3)]),
    "grid": ({}, [(0, 0), (2, 1)]),
    "interval": ({"functions": {"hull"}}, [(0, 4), (2, 5)]),
    "null": ({"relations": {"true"}, "functions": {"null"}}, [None, None]),
}


@pytest.mark.parametrize("wrapped", [False, True], ids=["base", "tuple"])
@pytest.mark.parametrize("name", sorted(PLAIN))
def test_plain_entries_give_at_arity_two_what_their_n_ary_form_gives(name, wrapped):
    dom = domain_from_config(name)
    expected, params = PLAIN[name]
    expected = {kind: set(keys) for kind, keys in expected.items()}
    if wrapped:
        dom = tuple_domain(dom)
        expected.setdefault("relations", set()).add("true")
        expected.setdefault("functions", set()).update({"pack", "extend"})
        params = [*params, ParamTuple(tuple(params))]
    malformed = ["x", (1,), 1.5, ParamTuple(()), (0, True), ((0, 1), (1, 2))]
    built = {}
    for kind in ("relations", "functions"):
        for key, factory in getattr(dom, kind).items():
            if factory.__qualname__ != "_plain.<locals>.factory":
                continue
            built.setdefault(kind, set()).add(key)
            binary, n_ary = factory({}, 2), factory({}, 3)
            for left, right in itertools.product(params + malformed, repeat=2):
                same = outcome(binary, left, right) == outcome(n_ary, left, right)
                assert same, (key, left, right)
            if key in ("true", "null"):  # called with its two params alone
                with pytest.raises(TypeError):
                    binary(*params, params[0])
    assert built == expected


# every fold a domain declares, by domain name and (relation key, function key)
DECLARED_FOLDS = [
    (name, key) for name in ("string_span", "grid", "interval", "null")
    for key in domain_from_config(name).folds
]


def test_the_folds_are_declared_where_the_state_is_exact():
    # interval's hull is not an exact state for before along reversed intervals
    assert DECLARED_FOLDS == [
        ("string_span", ("adjacent", "concat")),
        ("grid", ("offset", "anchor")),
        ("null", ("true", "null")),
    ]
    before = interval_domain().relation(RelationRef("before"), 2)
    hull = interval_domain().function(FunctionRef("hull"), 2)
    assert interval_domain().relation(RelationRef("before"), 3)((0, 9), (10, 1), (2, 5))
    assert not before(hull((0, 9), (10, 1)), (2, 5))
    assert tuple_domain(string_span_domain()).folds == {}


def applied(steps, params):
    """False once a step's relation refuses, DomainError if one raises, else the
    state that the steps' (relation, function) pairs fold params into."""
    state = params[0]
    try:
        for (relation, function), param in zip(steps, params[1:]):
            if not relation(state, param):
                return False
            state = function(state, param)
    except DomainError:
        return DomainError
    return state


INTS = st.integers(-3, 3)
VALUES = st.one_of(st.tuples(INTS, INTS), st.sampled_from([(0, True), None, ParamTuple(((0, 1),))]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_fold_gives_what_the_rule_gives_on_its_children(data):
    name, (rel_key, fn_key) = data.draw(st.sampled_from(DECLARED_FOLDS))
    dom = domain_from_config(name)
    arity = data.draw(st.integers(3, 6))
    # consecutive spans, reversed and negative ones too, then a few arbitrary values
    cuts = data.draw(st.lists(INTS, min_size=arity + 1, max_size=arity + 1))
    params = [(a, b) for a, b in zip(cuts, cuts[1:])]
    rel, fn = RelationRef(rel_key), FunctionRef(fn_key)
    if rel_key == "offset":  # the offsets of the drawn points, so that offset holds
        offsets = [[x - params[0][0], y - params[0][1]] for x, y in params[1:]]
        rel = RelationRef("offset", {"offsets": offsets})
        fn = FunctionRef("anchor", {"anchor": list(data.draw(st.tuples(INTS, INTS)))})
    for index in data.draw(st.lists(st.integers(0, arity - 1), max_size=2)):
        params[index] = data.draw(VALUES)
    steps = dom.folds[(rel_key, fn_key)](rel, fn, arity)
    assert len(steps) == arity - 1
    relation, function = dom.relation(rel, arity), dom.function(fn, arity)
    try:
        whole = function(*params) if relation(*params) else False
    except DomainError:
        whole = DomainError
    assert applied([(dom.relation(r, 2), dom.function(f, 2)) for r, f in steps], params) == whole
