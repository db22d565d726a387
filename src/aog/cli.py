"""Command-line interface.

Subcommands: validate, sample, parse, normalize, convert (scfg/spn/sat
frontends), emit (fol/slp).  stdout carries machine-readable output
only (JSON, JSON lines, or emitted logic text); diagnostics go to
stderr via logging, with verbosity from the AOG_LOG environment
variable (error, warn, info, debug).  Each `main` call reads AOG_LOG
anew and logs to the sys.stderr of that call, so in-process callers
may call it repeatedly.  For the length of the call, main takes the
`aog` logger over: its records go to that stderr handler only and do
not reach the root logger's handlers, which print no second copy; the
logger's level, handlers and propagation are restored when main returns.
The argument parser is built on the first call and reused for the rest
of the process.  JSON documents are written by
`serialize.canonical_dumps`, which takes any nesting depth; `aog
sample` writes its one-line records with json.dumps, and with
canonical_dumps' one-line form for a tree too deep for json.
The frontends and logic export are imported by the commands that use
them (convert, emit), so the other commands never load them.

Exit codes: 0 success (for parse: a parse was found), 1 no parse or
sampling failure, 2 validation or conversion rejected the input (for
parse also an empty sample, an unknown terminal, an Or-rule cycle, a
value refused mid-parse, or --dot with --mode marginal), 3 a file was
malformed (too deep, not UTF-8, a bad format_version, node kind or
parameter value) or could not be read or written, 4 the parser budget
was exhausted.  `_EXIT_CODES` is the one policy for errors: `main`
catches an error a command raises, writes {"error": ...} and returns the
code of the first matching entry.  Only `validate` (a malformed file in
its own payload), `sample` (a failed draw exits 1) and `convert`
(malformed source text exits 2) answer errors themselves.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from pathlib import Path

from .errors import AogError, BudgetExceeded, DepthExceeded, DomainError, FormatError
from .grammar import DataSample, Grammar, ParseTree, TreeNode, validate_grammar
from .grammar import sample as draw_sample
from .normalize import gcnf_violations, project_parse, to_gcnf
from .parsing import NEG_INF, ParserBudget, parse
from .serialize import (
    canonical_dumps,
    load_grammar,
    load_sample,
    sample_to_json_dict,
    save_grammar,
    save_node_map,
    save_sample,
    tree_to_json_dict,
)

log = logging.getLogger("aog")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


_LOG_FORMAT = logging.Formatter("%(levelname)s %(name)s: %(message)s")

# the exit code of an error a command raises: the first matching entry
_EXIT_CODES = (
    (BudgetExceeded, 4),
    ((FormatError, OSError), 3),
    ((AogError, ValueError), 2),
)


def _emit(payload: dict) -> None:
    sys.stdout.write(canonical_dumps(payload))


def _issues(report) -> list[dict]:
    return [{"code": i.code, "message": i.message} for i in report.issues]


def tree_to_dot(tree: ParseTree) -> str:
    lines = ["digraph parse {", "  node [shape=box];"]
    counter = 0
    # (node, parent name) to write; a node's own name in its place links
    # it to the parent once its subtree is written
    todo: list[tuple[TreeNode | str, str | None]] = [(tree.root, None)]
    while todo:
        node, parent = todo.pop()
        if isinstance(node, str):
            lines.append(f"  {parent} -> {node};")
            continue
        name = f"n{counter}"
        counter += 1
        at = None if node.instance is None else f"@{node.instance}"
        text = (str(part) for part in (node.node, node.param, at) if part is not None)
        label = "\\n".join(t.replace("\\", "\\\\").replace('"', '\\"') for t in text)
        lines.append(f'  {name} [label="{label}"];')
        if parent is not None:
            todo.append((name, parent))
        todo.extend((child, name) for child in reversed(node.children))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _grammar_audit(g: Grammar) -> dict:
    return {
        "terminals": len(g.terminals),
        "and_nodes": len(g.and_nodes),
        "or_nodes": len(g.or_nodes),
        "and_rules": len(g.and_rules),
        "or_rules": len(g.or_rules),
        "domain": g.domain.name,
    }


def _with_grammar(cmd):
    """Run cmd(args, grammar, sample) once args.grammar loads and validates.

    args.sample is loaded too when the command takes one, before the
    grammar is validated; an invalid grammar exits 2.
    """

    def run(args: argparse.Namespace) -> int:
        args.started = time.monotonic()  # a parse's time budget counts from here
        g = load_grammar(args.grammar, renormalize=args.renormalize, check=False)
        x = load_sample(args.sample, g.domain) if "sample" in args else None
        report = validate_grammar(g)
        if not report.ok:
            _emit({"error": "invalid grammar", "issues": _issues(report)})
            return 2
        return cmd(args, g, x)

    return run


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        g = load_grammar(args.grammar, renormalize=args.renormalize, check=False)
    except (FormatError, OSError) as exc:
        _emit({"valid": False, "error": str(exc)})
        return 3
    report = validate_grammar(g)
    _emit({"valid": report.ok, "issues": _issues(report)})
    return 0 if report.ok else 2


@_with_grammar
def cmd_parse(args: argparse.Namespace, g: Grammar, x: DataSample) -> int:
    if args.dot and args.mode == "marginal":
        _emit({"error": "--dot needs a viterbi parse: a marginal parse has no tree"})
        return 2
    normalized = bool(gcnf_violations(g))
    node_map = None
    target = g
    if normalized:
        log.info("grammar is not in normal form; normalizing for parsing")
        target, node_map = to_gcnf(g)
    budget = ParserBudget(max_entries=args.budget_entries, max_seconds=args.budget_seconds)
    limit = budget.max_seconds

    def seconds_left(when: str) -> float | None:  # counted from the start of the command
        left = None if limit is None else limit - (time.monotonic() - args.started)
        if left is not None and left <= 0:
            raise BudgetExceeded(f"parse exceeded {args.budget_seconds} seconds {when}")
        return left

    budget.max_seconds = seconds_left("before parsing")
    try:  # the stats of a goal-directed parse may fill the full chart when read
        result = parse(target, x, mode=args.mode, budget=budget)
        stats = result.stats if args.stats else None
    except BudgetExceeded as exc:  # name the limit given, not the part of it left to the parse
        message = str(exc).replace(f" {budget.max_seconds} seconds", f" {limit} seconds")
        raise BudgetExceeded(message) from None
    found = result.score != NEG_INF
    out = {
        "mode": result.mode,
        "found": found,
        "log_prob": result.score if found else None,
        "normalized": normalized,
    }
    if result.tree is not None:
        tree = result.tree
        if node_map is not None:
            tree = project_parse(tree, node_map, g)
            seconds_left("in projection")
        out["tree"] = tree_to_json_dict(tree, g.domain)
        seconds_left("in output")
        if args.dot:
            Path(args.dot).write_text(tree_to_dot(tree), encoding="utf-8")
    if stats is not None:  # its fields but the counter, then the derived counts
        shown = [k for k in vars(stats) if k != "compositions"]
        shown += [k for k, v in vars(type(stats)).items() if isinstance(v, property)]
        out["stats"] = {k: getattr(stats, k) for k in shown}
    _emit(out)
    return 0 if found else 1


@_with_grammar
def cmd_sample(args: argparse.Namespace, g: Grammar, _: None) -> int:
    if args.count < 0:
        raise ValueError(f"--count is {args.count}; 0 or more")
    for i in range(args.count):
        seed = args.seed + i
        try:
            tree, x = draw_sample(g, seed=seed, max_depth=args.max_depth)
        except (DepthExceeded, DomainError) as exc:
            sys.stdout.write(json.dumps({"seed": seed, "error": str(exc)}, sort_keys=True) + "\n")
            return 1
        record = {
            "seed": seed,
            "log_prob": tree.log_prob,
            "sample": sample_to_json_dict(x, g.domain),
            "tree": tree_to_json_dict(tree, g.domain),
        }
        try:
            line = json.dumps(record, sort_keys=True)
        except RecursionError:  # json recurses once per tree level
            line = canonical_dumps(record, one_line=True)
        sys.stdout.write(line + "\n")
    return 0


@_with_grammar
def cmd_normalize(args: argparse.Namespace, g: Grammar, _: None) -> int:
    gcnf, node_map = to_gcnf(g)
    save_grammar(gcnf, args.output)
    if args.map:
        save_node_map(node_map, args.map)
    _emit({"input": _grammar_audit(g), "output": _grammar_audit(gcnf)})
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    try:
        if args.kind == "scfg":
            from .scfg import parse_scfg, scfg_to_aog, validate_scfg
            source = parse_scfg(text)
            report = validate_scfg(source)
            if not report.ok:
                _emit({"error": "invalid grammar", "issues": _issues(report)})
                return 2
            g = scfg_to_aog(source)
            audit = {"kind": "scfg", "source_rules": len(source.rules)}
        elif args.kind == "spn":
            from .spn import parse_spn_listing, spn_to_aog, validate_spn
            network = parse_spn_listing(text)
            report = validate_spn(network)
            if not report.ok:
                _emit({"error": "invalid network", "issues": _issues(report)})
                return 2
            conv = spn_to_aog(network)
            g = conv.grammar
            audit = {
                "kind": "spn",
                "source_nodes": len(network.nodes),
                "partition": conv.partition,
            }
        else:
            from .sat import parse_dimacs, sat_to_aog
            formula = parse_dimacs(text)
            g, x = sat_to_aog(formula)
            sample_path = args.sample_out or f"{args.output}.sample.json"
            save_sample(x, g.domain, sample_path)
            audit = {
                "kind": "sat",
                "variables": formula.n_vars,
                "clauses": len(formula.clauses),
                "sample": str(sample_path),
            }
    except FormatError as exc:  # malformed source text is rejected input, not a bad file
        _emit({"error": str(exc)})
        return 2
    save_grammar(g, args.output)
    audit["grammar"] = _grammar_audit(g)
    _emit(audit)
    return 0


@_with_grammar
def cmd_emit(args: argparse.Namespace, g: Grammar, _: None) -> int:
    from .logic_export import emit_fol, emit_slp
    doc = emit_fol(g) if args.dialect == "fol" else emit_slp(g)
    if args.output:
        Path(args.output).write_text(doc.text)
        _emit({"dialect": doc.dialect, "lines": len(doc.lines), "path": str(args.output)})
    else:
        sys.stdout.write(doc.text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `aog` argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="aog", description="And-Or grammar toolkit: validate, sample, parse, convert, emit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_renormalize(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--renormalize",
            action="store_true",
            help="rescale each Or-node's probabilities to sum to 1 on load",
        )

    p = sub.add_parser("validate", help="check a grammar file")
    p.add_argument("grammar")
    add_renormalize(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("parse", help="parse a sample file against a grammar")
    p.add_argument("grammar")
    p.add_argument("sample")
    p.add_argument("--mode", choices=("viterbi", "marginal"), default="viterbi")
    p.add_argument("--stats", action="store_true", help="include chart statistics")
    p.add_argument("--dot", metavar="FILE", help="write the parse tree as graphviz")
    p.add_argument("--budget-entries", type=int, default=ParserBudget.max_entries)
    p.add_argument("--budget-seconds", type=float, default=None)
    add_renormalize(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("sample", help="draw samples from a grammar")
    p.add_argument("grammar")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--max-depth", type=int, default=64)
    add_renormalize(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("normalize", help="convert a grammar to binary normal form")
    p.add_argument("grammar")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--map", metavar="FILE", help="write the node map for tree projection")
    add_renormalize(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("convert", help="compile scfg/spn/sat input to a grammar file")
    p.add_argument("kind", choices=("scfg", "spn", "sat"))
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--sample-out", help="where sat writes the clause-marker sample")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("emit", help="render a grammar as probabilistic logic")
    p.add_argument("dialect", choices=("fol", "slp"))
    p.add_argument("grammar")
    p.add_argument("-o", "--output")
    add_renormalize(p)
    p.set_defaults(func=cmd_emit)

    return parser


def main(argv=None) -> int:
    # this call's AOG_LOG level and sys.stderr, for the length of the call only;
    # records skip the root logger, so a caller's own handlers print no copy
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LOG_FORMAT)
    level = _LOG_LEVELS.get(os.environ.get("AOG_LOG", "warn").lower(), logging.WARNING)
    saved = log.level, log.propagate
    log.addHandler(handler)
    log.setLevel(level)
    log.propagate = False
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (AogError, OSError, ValueError) as exc:
        log.debug("aog %s failed", args.command, exc_info=True)
        _emit({"error": str(exc)})
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))
    finally:
        log.removeHandler(handler)
        log.setLevel(saved[0])
        log.propagate = saved[1]


if __name__ == "__main__":
    sys.exit(main())
