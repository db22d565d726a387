"""Grammar, sample, and node-map files.

JSON with a format_version field; unknown keys are rejected so schema
drift fails loudly rather than silently dropping data.  Dumps are
canonical (sorted keys, two-space indent, trailing newline) so repeated
saves of the same object are byte-identical.  Rule order is preserved
as authored: it is the tie-break order for sampling and parsing.

canonical_dumps writes every file and every `aog` JSON document.  Its
text is exactly json.dumps(payload, indent=2, sort_keys=True) + "\n",
and it refuses what json refuses with the same exception, but it walks
the payload with a loop: a parse tree of any depth is written, where
json's writers raise RecursionError near 495 tree levels.  Its one-line
form is the text of json.dumps(payload, sort_keys=True).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .domains import DomainBinding, FunctionRef, RelationRef, domain_from_config
from .errors import ConfigError, DomainError, FormatError
from .grammar import (
    AndRule,
    DataSample,
    Grammar,
    NodeKind,
    OrRule,
    ParseTree,
    TerminalInstance,
    validate_grammar,
)
from .normalize import NodeMap, UnitChain

FORMAT_VERSION = 1
# each node kind's name in a grammar file, and the Grammar field that holds its nodes
_KINDS = {NodeKind.TERMINAL.value: "terminals", NodeKind.AND.value: "and_nodes",
          NodeKind.OR.value: "or_nodes"}


_ESCAPE = json.encoder.encode_basestring_ascii  # json's own string escaper
_INF = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _scalar_text(value: Any) -> str | None:
    """value as json writes a scalar (tested in json's order), or None."""
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    return None


def _key_text(key: Any) -> str:
    """A dict key as json writes it, non-str scalars as strings, with ": "."""
    text = key if isinstance(key, str) else _scalar_text(key)
    if text is None:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
        )
    return _ESCAPE(text) + ": "


def canonical_dumps(payload: Any, one_line: bool = False) -> str:
    """payload as json.dumps(payload, indent=2, sort_keys=True) + "\\n" writes it.

    The same bytes for every payload json accepts (ASCII escapes, NaN and
    Infinity, int and float subclasses by their base repr, tuples as lists,
    key coercion), and the same TypeError or circular-payload ValueError
    for one it refuses.  With one_line, the text is json.dumps(payload,
    sort_keys=True) instead.  Containers are walked with an explicit stack,
    so any nesting depth is written; json's writers recurse once per level
    and stop near the recursion limit.
    """
    parts: list[str] = []
    write = parts.append
    open_ids: set[int] = set()
    # open containers, innermost last: (entries left, entries are (key, value)
    # pairs, id, text before each entry but the first, text after the last).
    # The outermost holds the payload alone; its closing text is the final newline.
    frames: list[tuple] = [(iter((payload,)), False, None, ",\n", "" if one_line else "\n")]
    first = True  # the innermost container has written no entry yet
    while frames:
        entries, pairs, ident, sep, close = frames[-1]
        for value in entries:
            if first:
                first = False
            else:
                write(sep)
            if pairs:
                key, value = value
                write(_key_text(key))
            text = _scalar_text(value)
            if text is not None:
                write(text)
                continue
            if isinstance(value, (list, tuple)):
                is_dict = False
            elif isinstance(value, dict):
                is_dict = True
            else:
                raise TypeError(
                    f"Object of type {value.__class__.__name__} is not JSON serializable"
                )
            if not value:
                write("{}" if is_dict else "[]")
                continue
            if id(value) in open_ids:
                raise ValueError("Circular reference detected")
            open_ids.add(id(value))
            indent = "" if one_line else sep[1:]
            inner = "" if one_line else indent + "  "
            write(("{" if is_dict else "[") + inner)
            frames.append(
                (
                    iter(sorted(value.items()) if is_dict else value),
                    is_dict,
                    id(value),
                    ", " if one_line else "," + inner,
                    indent + ("}" if is_dict else "]"),
                )
            )
            first = True
            break
        else:
            frames.pop()
            open_ids.discard(ident)
            write(close)
    return "".join(parts)


def _read_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: nested too deep for json's reader
        raise FormatError(f"{path}: {exc}") from None


def _require_keys(obj: Any, required: set[str], optional: set[str], where: str) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = required - obj.keys()
    if missing:
        raise FormatError(f"{where}: missing keys {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise FormatError(f"{where}: unknown keys {sorted(unknown)}")
    return obj


def _objects(value: Any, where: str, keys: set[str]):
    """(where[i], object) of each object, with exactly keys, of the list value, in order."""
    if not isinstance(value, list):
        raise FormatError(f"{where}: expected a list")
    for i, entry in enumerate(value):
        at = f"{where}[{i}]"
        yield at, _require_keys(entry, keys, set(), at)


def _string(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise FormatError(f"{where}: expected a non-empty string")
    return value


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where}: expected a number")
    return float(value)


def _version(top: dict) -> None:
    version = top["format_version"]
    if type(version) is not int or version != FORMAT_VERSION:  # not True or 1.0
        raise FormatError(f"unsupported format_version {version!r}")


def _ref(raw: Any, ref_type: type, where: str):
    """A relation or function reference: {"key": ..., "config": ...}."""
    ref = _require_keys(raw, {"key"}, {"config"}, where)
    return ref_type(_string(ref["key"], f"{where}.key"), _config(ref.get("config"), where))


def _config(value: Any, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise FormatError(f"{where}: config must be an object")
    return value


# -------------------------------------------------------------------- grammars


def grammar_to_json_dict(g: Grammar) -> dict:
    nodes = [{"id": n, "kind": kind} for kind, field in _KINDS.items() for n in getattr(g, field)]
    return {
        "format_version": FORMAT_VERSION,
        "domain": {"name": g.domain.name, "config": g.domain.config},
        "nodes": sorted(nodes, key=lambda n: n["id"]),
        "start": g.start,
        "and_rules": [
            {
                "head": r.head,
                "children": list(r.children),
                "relation": {"key": r.relation.key, "config": dict(r.relation.config)},
                "function": {"key": r.function.key, "config": dict(r.function.config)},
            }
            for r in g.and_rules
        ],
        "or_rules": [
            {"head": r.head, "child": r.child, "prob": r.prob} for r in g.or_rules
        ],
    }


def grammar_from_json_dict(raw: Any, renormalize: bool = False, check: bool = True) -> Grammar:
    """Rebuild a grammar; check=True also enforces the semantic invariants
    (rule shapes, probability sums), raising FormatError on violations."""
    top = _require_keys(
        raw,
        {"format_version", "domain", "nodes", "start", "and_rules", "or_rules"},
        set(),
        "grammar",
    )
    _version(top)
    dom_raw = _require_keys(top["domain"], {"name"}, {"config"}, "domain")
    try:
        domain = domain_from_config(
            _string(dom_raw["name"], "domain.name"), _config(dom_raw.get("config"), "domain")
        )
    except (ConfigError, DomainError) as exc:
        raise FormatError(str(exc)) from None

    kinds = {kind: set() for kind in _KINDS}
    seen: set[str] = set()
    for where, node in _objects(top["nodes"], "nodes", {"id", "kind"}):
        name = _string(node["id"], f"{where}.id")
        if name in seen:
            raise FormatError(f"{where}: duplicate node id {name!r}")
        seen.add(name)
        kind = node["kind"]
        if not isinstance(kind, str) or kind not in _KINDS:
            raise FormatError(f"{where}: unknown kind {kind!r}")
        kinds[kind].add(name)

    and_rules = []
    rules = _objects(top["and_rules"], "and_rules", {"head", "children", "relation", "function"})
    for where, rule in rules:
        children = rule["children"]
        if not isinstance(children, list) or not all(isinstance(c, str) for c in children):
            raise FormatError(f"{where}: children must be a list of node ids")
        and_rules.append(
            AndRule(
                _string(rule["head"], f"{where}.head"),
                tuple(children),
                _ref(rule["relation"], RelationRef, f"{where}.relation"),
                _ref(rule["function"], FunctionRef, f"{where}.function"),
            )
        )

    or_rules = []
    for where, rule in _objects(top["or_rules"], "or_rules", {"head", "child", "prob"}):
        or_rules.append(
            OrRule(
                _string(rule["head"], f"{where}.head"),
                _string(rule["child"], f"{where}.child"),
                _number(rule["prob"], f"{where}.prob"),
            )
        )
    if renormalize:
        totals: dict[str, float] = {}
        for rule in or_rules:
            totals[rule.head] = totals.get(rule.head, 0.0) + rule.prob
        or_rules = [
            OrRule(r.head, r.child, r.prob / totals[r.head]) if totals[r.head] > 0 else r
            for r in or_rules
        ]

    g = Grammar(
        domain=domain,
        **{field: frozenset(kinds[kind]) for kind, field in _KINDS.items()},
        start=_string(top["start"], "start"),
        and_rules=tuple(and_rules),
        or_rules=tuple(or_rules),
    )
    if check:
        report = validate_grammar(g)
        if not report.ok:
            raise FormatError(f"grammar is not valid:\n{report}")
    return g


def save_grammar(g: Grammar, path: str | Path) -> None:
    Path(path).write_text(canonical_dumps(grammar_to_json_dict(g)))


def load_grammar(path: str | Path, renormalize: bool = False, check: bool = True) -> Grammar:
    return grammar_from_json_dict(_read_json(path), renormalize=renormalize, check=check)


# --------------------------------------------------------------------- samples


def sample_to_json_dict(x: DataSample, domain: DomainBinding) -> dict:
    return {
        "instances": [
            {
                "id": inst.instance_id,
                "terminal": inst.terminal,
                "param": domain.encode_param(inst.param),
            }
            for inst in x.instances
        ]
    }


def sample_from_json_dict(raw: Any, domain: DomainBinding) -> DataSample:
    top = _require_keys(raw, {"instances"}, set(), "sample")
    instances = []
    for where, inst in _objects(top["instances"], "instances", {"id", "terminal", "param"}):
        try:
            param = domain.decode_param(inst["param"])
        except DomainError as exc:
            raise FormatError(f"{where}: {exc}") from None
        instances.append(
            TerminalInstance(
                _string(inst["id"], f"{where}.id"),
                _string(inst["terminal"], f"{where}.terminal"),
                param,
            )
        )
    try:
        return DataSample(tuple(instances))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def save_sample(x: DataSample, domain: DomainBinding, path: str | Path) -> None:
    Path(path).write_text(canonical_dumps(sample_to_json_dict(x, domain)))


def load_sample(path: str | Path, domain: DomainBinding) -> DataSample:
    return sample_from_json_dict(_read_json(path), domain)


# -------------------------------------------------------------------- node maps


def save_node_map(node_map: NodeMap, path: str | Path) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "original_start": node_map.original_start,
        "start_node": node_map.start_node,
        "alt_nodes": node_map.alt_nodes,
        "bin_nodes": node_map.bin_nodes,
        "unit_chains": [
            {"head": head, "child": child, "chains": [vars(chain) for chain in chains]}
            for (head, child), chains in sorted(node_map.unit_chains.items())
        ],
    }
    Path(path).write_text(canonical_dumps(payload))


def load_node_map(path: str | Path) -> NodeMap:
    top = _require_keys(
        _read_json(path),
        {"format_version", "original_start"},
        {"start_node", "alt_nodes", "bin_nodes", "unit_chains"},
        "node map",
    )
    _version(top)
    names = {}
    for key in ("alt_nodes", "bin_nodes"):  # synthesized node -> original node
        pairs = top.get(key, {})
        if not isinstance(pairs, dict):
            raise FormatError(f"{key}: expected an object")
        names[key] = {_string(k, key): _string(v, f"{key}.{k}") for k, v in pairs.items()}
    unit_chains: dict[tuple[str, str], list[UnitChain]] = {}
    edges = _objects(top.get("unit_chains", []), "unit_chains", {"head", "child", "chains"})
    for where, edge in edges:
        if not isinstance(edge["chains"], list) or not edge["chains"]:
            raise FormatError(f"{where}.chains: expected a non-empty list")
        key = (_string(edge["head"], f"{where}.head"), _string(edge["child"], f"{where}.child"))
        unit_chains[key] = []
        for at, chain in _objects(edge["chains"], f"{where}.chains", {"prob", "nodes"}):
            nodes = chain["nodes"]
            if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
                raise FormatError(f"{at}: nodes must be a list of node ids")
            unit_chains[key].append(UnitChain(_number(chain["prob"], f"{at}.prob"), nodes))
    start_node = top.get("start_node")
    return NodeMap(
        original_start=_string(top["original_start"], "original_start"),
        start_node=None if start_node is None else _string(start_node, "start_node"),
        unit_chains=unit_chains,
        **names,
    )


# ----------------------------------------------------------------------- trees


def tree_to_json_dict(tree: ParseTree, domain: DomainBinding) -> dict:
    """The tree's log_prob and nested nodes, built children before parents
    (parameters are encoded in that order), so a tree of any depth is written."""
    built: list[dict] = []  # the subtrees not yet placed under a parent
    for t in tree.root.postorder():
        out: dict[str, Any] = {"node": t.node, "param": domain.encode_param(t.param)}
        if t.instance is not None:
            out["instance"] = t.instance
        if t.children:
            first = len(built) - len(t.children)
            out["children"] = built[first:]
            del built[first:]
        built.append(out)
    return {"log_prob": tree.log_prob, "root": built.pop()}
