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
binarized rules).

A relation may also declare, in the joins registry, an equality join key
for its binary form: functions (left key, right key) whose values are
equal wherever the relation holds, so the parser need only test pairs of
equal keys.  "adjacent" and "meets" join the left end with the right
start, "equals" the whole intervals, and grid "offset" the first point
moved by its (dx, dy) with the second point; "true", "before", "during"
and "apply_packed" declare none.  A key checks its parameter as the
relation does, raising the same DomainError.

_check_pair is the one rule for span, interval and grid values, in
relations, join keys, decoders and configs.  Two plain ints in a plain
tuple pass a cheap exact-type test; other values (an IntEnum item, a named
tuple) go on to the isinstance test, which alone decides what passes.
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


@dataclass(frozen=True)
class ParamTuple:
    """Flat sequence of parameter values, used for partially combined children."""

    items: tuple

    def __len__(self) -> int:
        return len(self.items)


def param_order_key(value: Any):
    """Total order over parameter values of mixed shape, for deterministic ties."""
    if value is None:
        return (0,)
    if isinstance(value, bool):
        raise DomainError("bool is not a parameter value")
    if isinstance(value, int):
        return (1, value)
    if isinstance(value, tuple):
        return (2, len(value), tuple(param_order_key(v) for v in value))
    if isinstance(value, ParamTuple):
        return (3, len(value), tuple(param_order_key(v) for v in value.items))
    raise DomainError(f"unorderable parameter value: {value!r}")


@dataclass(eq=False)
class DomainBinding:
    """A named domain: relation/function/join registries, codec, sampling hooks.

    A domain with leaf_param samples in leaf order: parameters are pinned
    at the leaves and folded upward, as with string spans.  Any other
    domain samples top down: a root parameter (root_default) is split into
    child parameters while descending (realize_children), as with grid
    points.

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
    if isinstance(value, tuple) and len(value) == 2:
        if all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            return value
    raise DomainError(f"{what} must be a pair of ints, got {value!r}")


def _end_start_join(name: str, what: str) -> JoinFactory:
    """Join of a relation that needs the left child's end at the right
    child's start."""

    def factory(config: dict) -> Join:
        _no_config(config, name)
        return (lambda left: _check_pair(left, what)[1], lambda right: _check_pair(right, what)[0])

    return factory


def _ends_meet(what: str) -> Callable[[Any, Any], bool]:
    """Whether the left child ends where the right child starts."""
    return lambda left, right: _check_pair(left, what)[1] == _check_pair(right, what)[0]


def _plain(name: str, fn: Callable) -> Callable[[dict, int], Callable]:
    """A relation or function that takes no config and is fn at every arity."""

    def factory(config: dict, arity: int) -> Callable:
        _no_config(config, name)
        return fn

    return factory


_always = _plain("true", lambda *params: True)


def _chain(name: str, binary: Callable[[Any, Any], bool]) -> RelationFactory:
    """A relation that holds when binary holds on every two consecutive
    children; its binary form is binary itself."""

    def factory(config: dict, arity: int) -> Relation:
        _no_config(config, name)
        if arity == 2:
            return binary
        return lambda *params: all(map(binary, params, params[1:]))

    return factory


def _pair_decoder(what: str, ordered: bool) -> Callable[[Any], tuple[int, int]]:
    """Decoder of an [a, b] value that _check_pair accepts as (a, b);
    ordered also needs a < b, as span and interval [start, end] do."""

    def decode(raw: Any) -> tuple[int, int]:
        a, b = _check_pair(tuple(raw) if isinstance(raw, list) else raw, what)
        if ordered and a >= b:
            raise DomainError(f"{what} needs start < end, got {raw!r}")
        return (a, b)

    return decode


# ---------------------------------------------------------------- string spans


def string_span_domain() -> DomainBinding:
    """Half-open index spans into a token string.

    Relation "adjacent" holds when consecutive child spans abut; function
    "concat" returns the covering span.  Leaf i is pinned to span (i, i+1).
    """
    return DomainBinding(
        name="string_span",
        config={},
        relations={"adjacent": _chain("adjacent", _ends_meet("span"))},
        functions={"concat": _plain("concat", lambda *spans: (spans[0][0], spans[-1][1]))},
        joins={"adjacent": _end_start_join("adjacent", "span")},
        encode_param=lambda p: list(_check_pair(p, "span")),
        decode_param=_pair_decoder("span", ordered=True),
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
        return _check_pair(tuple(raw) if isinstance(raw, list) else raw, what)
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

    return DomainBinding(
        name="grid",
        config={},
        relations={"offset": offset},
        functions={"anchor": anchor},
        joins={"offset": offset_join},
        encode_param=lambda p: list(_check_pair(p, "grid point")),
        decode_param=_pair_decoder("grid point", ordered=False),
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

    return DomainBinding(
        name="interval",
        config={},
        relations={
            "meets": _chain("meets", _ends_meet(iv)),
            "before": _chain("before", lambda l, r: _check_pair(l, iv)[1] < _check_pair(r, iv)[0]),
            "equals": _chain("equals", lambda l, r: _check_pair(l, iv) == _check_pair(r, iv)),
            "during": during,
        },
        functions={"hull": _plain("hull", hull)},
        joins={"meets": _end_start_join("meets", "interval"), "equals": equals_join},
        encode_param=lambda p: list(_check_pair(p, "interval")),
        decode_param=_pair_decoder("interval", ordered=True),
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
        functions={"null": _plain("null", lambda *params: None)},
        encode_param=lambda p: None,
        decode_param=decode,
        root_default=lambda: None,
        realize_children=lambda rel, fn, parent, arity: tuple(None for _ in range(arity)),
    )


# ---------------------------------------------------------------- tuple domain


def tuple_domain(base: DomainBinding) -> DomainBinding:
    """Wrap a base domain so rules can pass flat tuples of child parameters.

    Adds "pack" (children -> tuple), "extend" (tuple + one more value),
    "project" (tuple component), the trivially true relation, and
    "apply_packed", which unpacks a tuple argument and applies a base
    relation or function of the original arity.  Base registry entries stay
    available, so a wrapped grammar keeps resolving untouched rules.
    """

    def extend(packed, last):
        if not isinstance(packed, ParamTuple):
            raise DomainError(f"extend needs a packed first argument, got {packed!r}")
        return ParamTuple(packed.items + (last,))

    def project(config: dict, arity: int) -> Function:
        index = config.pop("index", None)
        _no_config(config, "project")
        if not isinstance(index, int) or index < 0:
            raise ConfigError(f"project needs a non-negative index, got {index!r}")

        def fn(packed):
            if not isinstance(packed, ParamTuple) or index >= len(packed):
                raise DomainError(f"cannot project component {index} of {packed!r}")
            return packed.items[index]

        return fn

    def _unpack(packed, last, base_arity: int) -> tuple:
        if not isinstance(packed, ParamTuple):
            raise DomainError(f"apply_packed needs a packed first argument, got {packed!r}")
        flat = packed.items + (last,)
        if len(flat) != base_arity:
            raise DomainError(f"packed arity {len(flat)} does not match configured {base_arity}")
        return flat

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
        return (ParamTuple(parent.items[:-1]), parent.items[-1])

    def encode(value: Any):
        if isinstance(value, ParamTuple):
            return {"t": [encode(v) for v in value.items]}
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
        "project": project,
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
