"""Parameter domains.

A domain supplies the interpretation of node parameters: a registry of
named relations (predicates over child parameters) and functions (child
parameters to parent parameter), a JSON codec for parameter values, and
enough structure to drive sampling.  Grammars only store string keys plus
config dicts, so a grammar file is meaningful on its own and the engine
stays agnostic about what parameters actually are.

Built-in domains: string spans, integer grid points, integer intervals,
the trivial null domain, and a tuple domain that wraps any base domain
(used by the normalizer to thread flattened child parameters through
binarized wide rules whose pair declares no fold).

A relation may also declare, in the joins registry, an equality join key
for its binary form: functions (left key, right key) whose values are
equal wherever the relation holds, each checking its parameter as the
relation does.  "adjacent" and "meets" join the left end with the right
start, "equals" the whole intervals, and grid "offset" the first point
moved by its (dx, dy) with the second point.  Each of these joins also
decides its relation, which holds exactly on equal keys, and "true" always
holds: _decided marks these factories, and the parser calls no relation so
marked.  A binding that replaces the factory, or its join, loses the mark.

_check_pair is the one rule for span, interval and grid values, in
relations, join keys, decoders and configs.  Two plain ints in a plain
tuple pass a cheap exact-type test; other values (an IntEnum item, a named
tuple) go on to the isinstance test, which alone decides what passes.

ParamTuple is a tuple subclass that adds only items and repr, so it equals
the plain tuple of its items; param_order_key, _check_pair, extend,
apply_packed, realize, encode and tree_probability test for it first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import ConfigError, DomainError

Relation = Callable[..., bool]
Function = Callable[..., Any]
# factory(config, arity) -> callable; arity is the rule's child count
RelationFactory = Callable[[dict, int], Relation]
FunctionFactory = Callable[[dict, int], Function]
# factory(config) -> (left key, right key) of the relation's binary form
Join = tuple[Callable[[Any], Any], Callable[[Any], Any]]
JoinFactory = Callable[[dict], Join]


@dataclass(frozen=True)
class RelationRef:
    """Reference to a domain relation: registry key plus config."""

    key: str
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FunctionRef:
    """Reference to a domain function: registry key plus config."""

    key: str
    config: dict = field(default_factory=dict)


class ParamTuple(tuple):
    """Flat sequence of parameter values, used for partially combined children;
    a tuple subclass, so equal to the plain tuple of its items (module docstring)."""

    __slots__ = ()
    items = property(tuple)  # the plain tuple of the values

    def __repr__(self) -> str:
        return f"ParamTuple(items={tuple(self)!r})"


def param_order_key(value: Any):
    """Total order over parameter values of mixed shape, for deterministic ties."""
    if value is None:
        return (0,)
    if isinstance(value, bool):
        raise DomainError("bool is not a parameter value")
    if isinstance(value, int):
        return (1, value)
    if isinstance(value, tuple):  # a ParamTuple after every plain tuple
        tag = 3 if isinstance(value, ParamTuple) else 2
        return (tag, len(value), tuple(param_order_key(v) for v in value))
    raise DomainError(f"unorderable parameter value: {value!r}")


@dataclass(eq=False)
class DomainBinding:
    """A named domain: relation/function/join registries, codec, sampling hooks.

    A domain with leaf_param samples in leaf order: parameters are pinned
    at the leaves and folded upward, as with string spans.  Any other
    domain samples top down: a root parameter (root_default) is split into
    child parameters while descending (realize_children), as with grid
    points.

    A parameter is hashable, and is None, an int, or a tuple of these: the
    parser sorts root parameters by param_order_key, which raises DomainError
    on any other value (a bool, a str, a float).

    A fold gives a wide rule's binary steps, left to right: step k relates
    the state of the first k children to child k + 1, and its function makes
    the next state ("adjacent"/"concat" and "true"/"null" repeat, grid
    "offset"/"anchor" keeps the first point).  to_gcnf packs the children of
    a rule whose pair declares none in the tuple domain.

    Bindings compare by (name, config): domain_from_config rebuilds the
    same callables from those two fields, so identically configured
    bindings are interchangeable even when their function objects differ.
    """

    name: str
    config: dict
    relations: dict[str, RelationFactory]
    functions: dict[str, FunctionFactory]
    encode_param: Callable[[Any], Any]
    decode_param: Callable[[Any], Any]
    # relation key -> equality join key of its binary form, where declared
    joins: dict[str, JoinFactory] = field(default_factory=dict)
    # (relation key, function key) -> fold(relation, function, arity): the
    # (relation, function) of each of the arity - 1 binary steps, where declared
    folds: dict[tuple[str, str], Callable[..., list]] = field(default_factory=dict)
    # leaf order: leaf index -> parameter
    leaf_param: Callable[[int], Any] | None = None
    # top down: default parameter for the sample root
    root_default: Callable[[], Any] | None = None
    # top down: (relation, function, parent param, arity) -> child params
    realize_children: Callable[[RelationRef, FunctionRef, Any, int], tuple] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DomainBinding):
            return NotImplemented
        return self.name == other.name and self.config == other.config

    def relation(self, ref: RelationRef, arity: int) -> Relation:
        factory = self.relations.get(ref.key)
        if factory is None:
            raise DomainError(f"domain {self.name!r} has no relation {ref.key!r}")
        return factory(dict(ref.config), arity)

    def function(self, ref: FunctionRef, arity: int) -> Function:
        factory = self.functions.get(ref.key)
        if factory is None:
            raise DomainError(f"domain {self.name!r} has no function {ref.key!r}")
        return factory(dict(ref.config), arity)

    def join(self, ref: RelationRef) -> Join | None:
        """The (left key, right key) of a binary relation, or None when the
        relation declares no join."""
        factory = self.joins.get(ref.key)
        return None if factory is None else factory(dict(ref.config))

    def decided(self, ref: RelationRef, joined: bool) -> bool:
        """Whether the relation needs no call on a pair its join matched (joined), or on any."""
        decided_by = getattr(self.relations.get(ref.key), "decided_by", False)
        return decided_by is (self.joins.get(ref.key) if joined else None)


def _no_config(config: dict, where: str) -> None:
    if config:
        raise ConfigError(f"{where} takes no config, got {sorted(config)}")


def _check_pair(value: Any, what: str) -> tuple[int, int]:
    # runs on every relation call and join key in the parser's combine loop:
    # exact types pass the cheap test, subclasses the isinstance one
    if type(value) is tuple and len(value) == 2:
        a, b = value
        if type(a) is int and type(b) is int:
            return value
    if isinstance(value, tuple) and not isinstance(value, ParamTuple) and len(value) == 2:
        if all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            return value
    raise DomainError(f"{what} must be a pair of ints, got {value!r}")


def _plain(name: str, fn: Callable,
           binary: Callable | None = None) -> Callable[[dict, int], Callable]:
    """A relation or function that takes no config: fn at every arity, or binary at
    arity 2 if given, which returns what fn does without packing its two arguments."""

    def factory(config: dict, arity: int) -> Callable:
        _no_config(config, name)
        return binary if binary is not None and arity == 2 else fn

    return factory


def _decided(factory: RelationFactory, join: JoinFactory | None) -> RelationFactory:
    """factory, marked as decided by join: it holds exactly on equal keys, or always (None)."""
    factory.decided_by = join
    return factory


_always = _decided(_plain("true", lambda *params: True, lambda left, right: True), None)


def _repeated(relation: RelationRef, function: FunctionRef, arity: int) -> list[tuple]:
    """The fold whose every step is the rule's own relation and function."""
    return [(relation, function)] * (arity - 1)


def _chain(name: str, binary: Callable[[Any, Any], bool],
           join: JoinFactory | None = None) -> RelationFactory:
    """A relation that holds when binary holds on every two consecutive
    children; its binary form is binary itself, decided by join if given."""

    def factory(config: dict, arity: int) -> Relation:
        _no_config(config, name)
        if arity == 2:
            return binary
        return lambda *params: all(map(binary, params, params[1:]))

    return factory if join is None else _decided(factory, join)


def _ends_meet(name: str, what: str) -> tuple[RelationFactory, JoinFactory]:
    """The relation that each child ends where the next one starts, and its
    join, the left child's end and the right child's start, which decides it."""

    def join(config: dict) -> Join:
        _no_config(config, name)
        return (lambda left: _check_pair(left, what)[1], lambda right: _check_pair(right, what)[0])

    return _chain(name, lambda l, r: _check_pair(l, what)[1] == _check_pair(r, what)[0], join), join


def _decode_pair(raw: Any, what: str, ordered: bool = False) -> tuple[int, int]:
    """The (a, b) of an [a, b] that _check_pair accepts; ordered needs a < b, as [start, end]."""
    a, b = _check_pair(tuple(raw) if isinstance(raw, list) else raw, what)
    if ordered and a >= b:
        raise DomainError(f"{what} needs start < end, got {raw!r}")
    return (a, b)


def _pair_codec(what: str, ordered: bool) -> dict[str, Callable[[Any], Any]]:
    """The encode_param and decode_param of a domain of pair values."""
    return {"encode_param": lambda p: list(_check_pair(p, what)),
            "decode_param": lambda raw: _decode_pair(raw, what, ordered)}


# ---------------------------------------------------------------- string spans


def string_span_domain() -> DomainBinding:
    """Half-open index spans into a token string.

    Relation "adjacent" holds when consecutive child spans abut; function
    "concat" returns the covering span.  Leaf i is pinned to span (i, i+1).
    """
    adjacent, join = _ends_meet("adjacent", "span")
    return DomainBinding(
        name="string_span",
        config={},
        relations={"adjacent": adjacent},
        functions={"concat": _plain("concat", lambda *spans: (spans[0][0], spans[-1][1]),
                                    lambda left, right: (left[0], right[1]))},
        joins={"adjacent": join},
        folds={("adjacent", "concat"): _repeated},
        **_pair_codec("span", ordered=True),
        leaf_param=lambda i: (i, i + 1),
    )


# ------------------------------------------------------------------ grid points


def _read_offsets(config: dict, arity: int) -> list[tuple[int, int]]:
    offsets = config.pop("offsets", None)
    _no_config(config, "offset")
    if not isinstance(offsets, list) or len(offsets) != arity - 1:
        raise ConfigError(f"offset needs {arity - 1} offsets for arity {arity}")
    return [_config_pair(entry, "offset entries") for entry in offsets]


def _config_pair(raw: Any, what: str) -> tuple[int, int]:
    try:
        return _decode_pair(raw, what)
    except DomainError:
        raise ConfigError(f"{what} must be [dx, dy], got {raw!r}") from None


def grid_domain() -> DomainBinding:
    """Integer lattice points.

    Relation "offset" fixes each later child at a configured displacement
    from the first child; function "anchor" places the parent at a configured
    displacement from the first child.  Sampling is top-down from (0, 0).
    """

    def offset(config: dict, arity: int) -> Relation:
        offsets = _read_offsets(config, arity)

        def pred(*points) -> bool:
            base = _check_pair(points[0], "grid point")
            for point, (dx, dy) in zip(points[1:], offsets):
                px, py = _check_pair(point, "grid point")
                if (px - base[0], py - base[1]) != (dx, dy):
                    return False
            return True

        return pred

    def offset_join(config: dict) -> Join:
        ((dx, dy),) = _read_offsets(config, 2)

        def left_key(point):
            x, y = _check_pair(point, "grid point")
            return (x + dx, y + dy)

        return left_key, lambda point: _check_pair(point, "grid point")

    def anchor(config: dict, arity: int) -> Function:
        raw = config.pop("anchor", [0, 0])
        _no_config(config, "anchor")
        ax, ay = _config_pair(raw, "anchor")

        def fn(*points):
            base = points[0]
            return (base[0] + ax, base[1] + ay)

        return fn

    def realize(rel: RelationRef, fn: FunctionRef, parent: Any, arity: int):
        if rel.key != "offset" or fn.key != "anchor":
            raise DomainError(f"cannot realize children for {rel.key!r}/{fn.key!r}")
        offsets = _read_offsets(dict(rel.config), arity)
        ax, ay = _config_pair(dict(fn.config).get("anchor", [0, 0]), "anchor")
        px, py = _check_pair(parent, "grid point")
        first = (px - ax, py - ay)
        return (first,) + tuple((first[0] + dx, first[1] + dy) for dx, dy in offsets)

    def offset_fold(rel: RelationRef, fn: FunctionRef, arity: int) -> list[tuple]:
        # the state is the first point; the last step places the parent from it
        first = FunctionRef("anchor", {"anchor": [0, 0]})
        steps = [(RelationRef("offset", {"offsets": [[dx, dy]]}), first)
                 for dx, dy in _read_offsets(dict(rel.config), arity)]
        steps[-1] = (steps[-1][0], fn)
        return steps

    return DomainBinding(
        name="grid",
        config={},
        relations={"offset": _decided(offset, offset_join)},
        functions={"anchor": anchor},
        joins={"offset": offset_join},
        folds={("offset", "anchor"): offset_fold},
        **_pair_codec("grid point", ordered=False),
        root_default=lambda: (0, 0),
        realize_children=realize,
    )


# ------------------------------------------------------------------- intervals


def interval_domain() -> DomainBinding:
    """Integer intervals with a few Allen-style relations.

    "meets" and "before" chain consecutive children, "equals" makes all
    children coincide, "during" (binary) nests the first child strictly
    inside the second.  Function "hull" spans from the earliest start to the
    latest end.  Top-down sampling realizes "meets" by even splitting and
    "equals" by copying; other relations have no canonical split.
    """
    iv = "interval"  # what _check_pair names in its errors

    def during(config: dict, arity: int) -> Relation:
        _no_config(config, "during")
        if arity != 2:
            raise ConfigError("during is binary")

        def pred(inner, outer) -> bool:
            (a, b), (c, d) = _check_pair(inner, "interval"), _check_pair(outer, "interval")
            return c < a and b < d

        return pred

    def equals_join(config: dict) -> Join:
        _no_config(config, "equals")

        def key(ival):
            return _check_pair(ival, "interval")

        return key, key

    def hull(*ivals):
        return (min(v[0] for v in ivals), max(v[1] for v in ivals))

    def realize(rel: RelationRef, fn: FunctionRef, parent: Any, arity: int):
        start, end = _check_pair(parent, "interval")
        if rel.key == "equals":
            return tuple((start, end) for _ in range(arity))
        if rel.key == "meets":
            width = end - start
            if width < arity:
                raise DomainError(f"interval {parent!r} too narrow for {arity} parts")
            cuts = [start + (width * i) // arity for i in range(arity + 1)]
            return tuple((cuts[i], cuts[i + 1]) for i in range(arity))
        raise DomainError(f"no canonical child split for relation {rel.key!r}")

    # no fold: the hull of reversed intervals, which _check_pair accepts, is not
    # exact for "before" ((0, 9), (10, 1), (2, 5) holds, but not from their hull)
    meets, meets_join = _ends_meet("meets", iv)
    return DomainBinding(
        name="interval",
        config={},
        relations={
            "meets": meets,
            "before": _chain("before", lambda l, r: _check_pair(l, iv)[1] < _check_pair(r, iv)[0]),
            "equals": _chain("equals", lambda l, r: _check_pair(l, iv) == _check_pair(r, iv),
                             equals_join),
            "during": during,
        },
        functions={"hull": _plain("hull", hull, lambda l, r: (min(l[0], r[0]), max(l[1], r[1])))},
        joins={"meets": meets_join, "equals": equals_join},
        **_pair_codec("interval", ordered=True),
        root_default=lambda: (0, 1024),
        realize_children=realize,
    )


# ----------------------------------------------------------------- null domain


def null_domain() -> DomainBinding:
    """Degenerate domain for grammars whose parameters carry no information."""

    def decode(raw: Any):
        if raw is not None:
            raise DomainError(f"null domain parameter must be null, got {raw!r}")
        return None

    return DomainBinding(
        name="null",
        config={},
        relations={"true": _always},
        functions={"null": _plain("null", lambda *params: None, lambda left, right: None)},
        folds={("true", "null"): _repeated},
        encode_param=lambda p: None,
        decode_param=decode,
        root_default=lambda: None,
        realize_children=lambda rel, fn, parent, arity: tuple(None for _ in range(arity)),
    )


# ---------------------------------------------------------------- tuple domain


def packed_steps(relation: RelationRef, function: FunctionRef, arity: int) -> list[tuple]:
    """The fold of a wide rule in the tuple domain: pack and extend its children under
    true, then apply the rule's relation and function to the packed tuple (_applied)."""
    true, refs = RelationRef("true", {}), (relation, function)
    steps = [(true, FunctionRef("extend" if i else "pack", {})) for i in range(arity - 2)]
    configs = [{"key": ref.key, "config": dict(ref.config), "arity": arity} for ref in refs]
    return steps + [tuple(type(ref)("apply_packed", c) for ref, c in zip(refs, configs))]


def _applied(config: dict, ref_type: type) -> tuple[Any, int]:
    """The base ref_type(key, config) and base arity of an apply_packed config."""
    key = config.pop("key", None)
    inner = config.pop("config", {})
    base_arity = config.pop("arity", None)
    _no_config(config, "apply_packed")
    if not isinstance(key, str) or not isinstance(base_arity, int) or base_arity < 2:
        raise ConfigError("apply_packed needs a base key and an arity of at least 2")
    if not isinstance(inner, dict):
        raise ConfigError(f"apply_packed config must be an object, got {inner!r}")
    return ref_type(key, inner), base_arity


def tuple_domain(base: DomainBinding) -> DomainBinding:
    """Wrap a base domain so rules can pass flat tuples of child parameters.

    Adds "pack" (children -> tuple), "extend" (tuple + one more value),
    the trivially true relation, and "apply_packed", which unpacks a tuple
    argument and applies a base relation or function of the original
    arity.  Base registry entries stay available, so a wrapped grammar
    keeps resolving untouched rules.
    """

    def extend(packed, last):
        if not isinstance(packed, ParamTuple):
            raise DomainError(f"extend needs a packed first argument, got {packed!r}")
        return ParamTuple(packed + (last,))

    def _unpack(packed, last, base_arity: int) -> tuple:
        if not isinstance(packed, ParamTuple):
            raise DomainError(f"apply_packed needs a packed first argument, got {packed!r}")
        flat = packed + (last,)
        if len(flat) != base_arity:
            raise DomainError(f"packed arity {len(flat)} does not match configured {base_arity}")
        return flat

    def apply_packed(resolve: Callable, ref_type: type) -> Callable[[dict, int], Callable]:
        """Factory of apply_packed over base.relation or base.function,
        resolving ref_type(key, config) at the configured base arity."""

        def factory(config: dict, arity: int) -> Callable:
            ref, base_arity = _applied(config, ref_type)
            if arity != 2:
                raise ConfigError("apply_packed applies to a packed pair")
            target = resolve(ref, base_arity)
            return lambda packed, last: target(*_unpack(packed, last, base_arity))

        return factory

    def realize(rel: RelationRef, fn: FunctionRef, parent: Any, arity: int) -> tuple:
        # children from which pack, extend or apply_packed would build parent
        if rel.key == fn.key == "apply_packed":
            base_rel, base_arity = _applied(dict(rel.config), RelationRef)
            base_fn, _ = _applied(dict(fn.config), FunctionRef)
            flat = base.realize_children(base_rel, base_fn, parent, base_arity)
            return (ParamTuple(tuple(flat[:-1])), flat[-1])
        if fn.key not in ("pack", "extend"):
            return base.realize_children(rel, fn, parent, arity)
        if not isinstance(parent, ParamTuple) or len(parent) < 2:
            raise DomainError(f"cannot split {parent!r} for {fn.key!r}")
        if fn.key == "pack":
            return parent.items
        return (ParamTuple(parent[:-1]), parent[-1])

    def encode(value: Any):
        if isinstance(value, ParamTuple):
            return {"t": [encode(v) for v in value]}
        return base.encode_param(value)

    def decode(raw: Any):
        if isinstance(raw, dict):
            if set(raw) != {"t"} or not isinstance(raw["t"], list):
                raise DomainError(f"packed parameter must be {{'t': [...]}}, got {raw!r}")
            return ParamTuple(tuple(decode(v) for v in raw["t"]))
        return base.decode_param(raw)

    own_relations = {"true": _always, "apply_packed": apply_packed(base.relation, RelationRef)}
    relations = {**base.relations, **own_relations}
    functions = {
        **base.functions,
        "pack": _plain("pack", lambda *params: ParamTuple(params)),
        "extend": _plain("extend", extend),
        "apply_packed": apply_packed(base.function, FunctionRef),
    }
    return DomainBinding(
        name="tuple",
        config={"base": base.name, "base_config": base.config},
        relations=relations,
        functions=functions,
        joins={key: join for key, join in base.joins.items() if key not in own_relations},
        encode_param=encode,
        decode_param=decode,
        leaf_param=base.leaf_param,
        root_default=base.root_default,
        realize_children=realize if base.realize_children else None,
    )


_BUILDERS: dict[str, Callable[..., DomainBinding]] = {
    "string_span": string_span_domain,
    "grid": grid_domain,
    "interval": interval_domain,
    "null": null_domain,
}


def domain_from_config(name: str, config: dict | None = None) -> DomainBinding:
    """Rebuild a domain binding from its serialized {name, config} form."""
    if config is not None and not isinstance(config, dict):
        raise ConfigError(f"domain {name!r} config must be an object, got {config!r}")
    config = dict(config or {})
    if name == "tuple":
        base_name = config.pop("base", None)
        base_config = config.pop("base_config", {})
        if config:
            raise ConfigError(f"unknown tuple domain config keys: {sorted(config)}")
        if not isinstance(base_name, str):
            raise ConfigError("tuple domain config needs a base domain name")
        return tuple_domain(domain_from_config(base_name, base_config))
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ConfigError(f"unknown domain {name!r}")
    if config:
        raise ConfigError(f"domain {name!r} takes no config, got {sorted(config)}")
    return builder()
