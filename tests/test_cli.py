"""Command-line interface: every subcommand and exit code."""

import contextlib
import hashlib
import io
import itertools
import json
import logging
import math
import os
import random
import re
import shutil
import subprocess
import sys
import types
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest

import aog
from aog import (
    ParseTree,
    TreeNode,
    gcnf_violations,
    grammar_to_json_dict,
    parse,
    parse_scfg,
    save_grammar,
    sample as draw_sample,
    sample_to_json_dict,
    save_sample,
    scfg_to_aog,
    string_sample,
    to_gcnf,
)
from aog.cli import main, tree_to_dot
from aog.serialize import canonical_dumps, tree_to_json_dict
from helpers import over_intervals, random_3sat, random_aog


@pytest.fixture
def grammar_file(tmp_path, line_drawing):
    path = tmp_path / "grammar.json"
    save_grammar(line_drawing, path)
    return str(path)


@pytest.fixture
def wide_interval_file(tmp_path, wide_interval_grammar):
    # its wide rules declare no fold, so its normal form is in the tuple domain
    path = tmp_path / "wide_interval.json"
    save_grammar(wide_interval_grammar, path)
    return str(path)


@pytest.fixture
def scfg_file(tmp_path):
    path = tmp_path / "rules.scfg"
    path.write_text("X -> X X [0.4]\nX -> a [0.6]\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_validate_ok(capsys, grammar_file):
    code, out = run(capsys, ["validate", grammar_file])
    assert code == 0
    assert json.loads(out) == {"valid": True, "issues": []}


def test_validate_invalid_grammar(capsys, tmp_path, grammar_file):
    payload = json.loads(Path(grammar_file).read_text())
    payload["or_rules"][0]["prob"] = 0.01
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out = run(capsys, ["validate", str(bad)])
    assert code == 2
    report = json.loads(out)
    assert report["valid"] is False
    assert report["issues"]


def test_validate_malformed_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run(capsys, ["validate", str(path)])
    assert code == 3
    assert "error" in json.loads(out)


def test_validate_missing_file(capsys, tmp_path):
    code, out = run(capsys, ["validate", str(tmp_path / "absent.json")])
    assert code == 3


def edited_grammar_file(tmp_path, grammar_file, edit) -> str:
    payload = json.loads(Path(grammar_file).read_text())
    edit(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "domain",
    [
        {"name": "bogus"},
        {"name": "null", "config": {"x": 1}},
        {"name": "tuple", "config": {}},
        {"name": "tuple", "config": {"base": "null", "base_config": [1]}},
    ],
    ids=["unknown-name", "stray-config", "tuple-without-base", "non-object-base-config"],
)
def test_malformed_domain_exits_3(capsys, tmp_path, grammar_file, domain):
    path = edited_grammar_file(tmp_path, grammar_file, lambda g: g.update(domain=domain))
    code, out = run(capsys, ["validate", path])
    assert code == 3
    report = json.loads(out)
    assert report["valid"] is False and report["error"]
    # every command that loads a grammar rejects it the same way
    code, out = run(capsys, ["emit", "fol", path])
    assert code == 3 and json.loads(out)["error"] == report["error"]


@pytest.mark.parametrize(
    "field,value",
    [
        ("relation", {"offsets": [["a", 0]]}),
        ("relation", {"offsets": [[None, 0]]}),
        ("relation", {"offsets": [[1.5, 0]]}),
        ("function", {"anchor": ["x", 0]}),
    ],
    ids=["string-offset", "null-offset", "float-offset", "string-anchor"],
)
def test_non_integer_grid_config_is_a_binding_issue(capsys, tmp_path, grammar_file, field, value):
    def edit(payload):
        vpair = next(r for r in payload["and_rules"] if r["head"] == "vpair")
        vpair[field]["config"] = value

    code, out = run(capsys, ["validate", edited_grammar_file(tmp_path, grammar_file, edit)])
    assert code == 2
    assert [i["code"] for i in json.loads(out)["issues"]] == ["and-binding"]


def test_validate_renormalize_rescues_scaled_probs(capsys, tmp_path, grammar_file):
    payload = json.loads(Path(grammar_file).read_text())
    for rule in payload["or_rules"]:
        rule["prob"] *= 3.0
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(payload))
    assert run(capsys, ["validate", str(scaled)])[0] == 2
    assert run(capsys, ["validate", "--renormalize", str(scaled)])[0] == 0


def sample_file(tmp_path, line_drawing, points):
    from aog import DataSample, TerminalInstance

    x = DataSample(
        tuple(TerminalInstance(f"d{i}", "dot", p) for i, p in enumerate(points))
    )
    path = tmp_path / "sample.json"
    save_sample(x, line_drawing.domain, path)
    return str(path)


def test_parse_found(capsys, tmp_path, grammar_file, line_drawing):
    xp = sample_file(tmp_path, line_drawing, [(0, 0), (1, 0), (2, 0)])
    code, out = run(capsys, ["parse", grammar_file, xp, "--stats"])
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["mode"] == "viterbi"
    assert payload["normalized"] is True  # arity-3 rule forced normalization
    assert payload["log_prob"] == pytest.approx(math.log(0.5))
    assert payload["tree"]["root"]["node"] == "figure"
    assert payload["stats"]["sample_size"] == 3
    assert payload["stats"]["worst_case_compositions"] == 3


def test_parse_no_parse_exits_1(capsys, tmp_path, grammar_file, line_drawing):
    xp = sample_file(tmp_path, line_drawing, [(0, 0), (5, 5)])
    code, out = run(capsys, ["parse", grammar_file, xp, "--mode", "marginal"])
    assert code == 1
    payload = json.loads(out)
    assert payload["found"] is False
    assert payload["log_prob"] is None


def test_parse_budget_exhaustion_exits_4(capsys, tmp_path, scfg_file):
    gpath = str(tmp_path / "g.json")
    assert main(["convert", "scfg", scfg_file, "-o", gpath]) == 0
    capsys.readouterr()
    from aog import load_grammar

    g = load_grammar(gpath)
    xpath = tmp_path / "x.json"
    save_sample(string_sample(["a"] * 6), g.domain, xpath)
    code, out = run(
        capsys, ["parse", gpath, str(xpath), "--budget-entries", "3"]
    )
    assert code == 4
    assert "error" in json.loads(out)


def test_parse_unknown_terminal_exits_2(capsys, tmp_path, grammar_file, line_drawing):
    xpath = tmp_path / "x.json"
    xpath.write_text('{"instances": [{"id": "z", "terminal": "blot", "param": [0, 0]}]}')
    code, out = run(capsys, ["parse", grammar_file, str(xpath)])
    assert code == 2


def test_parse_malformed_sample_exits_3_before_validation(capsys, tmp_path, grammar_file):
    # file errors come first: a broken sample exits 3 even beside an invalid grammar
    invalid = edited_grammar_file(
        tmp_path, grammar_file, lambda g: g["or_rules"][0].update(prob=0.01)
    )
    xpath = tmp_path / "x.json"
    xpath.write_text("{not json")
    code, out = run(capsys, ["parse", invalid, str(xpath)])
    assert code == 3
    assert "issues" not in json.loads(out)


def test_parse_writes_dot(capsys, tmp_path, grammar_file, line_drawing):
    xp = sample_file(tmp_path, line_drawing, [(2, 2)])
    dot = tmp_path / "tree.dot"
    code, _ = run(capsys, ["parse", grammar_file, xp, "--dot", str(dot)])
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph parse {")
    assert "figure" in text and "dot" in text


def test_parse_marginal_with_dot_exits_2(capsys, tmp_path, grammar_file, line_drawing):
    # a marginal parse has no tree to draw, so --dot is refused, not ignored
    xp = sample_file(tmp_path, line_drawing, [(2, 2)])
    dot = tmp_path / "tree.dot"
    code, out = run(capsys, ["parse", grammar_file, xp, "--mode", "marginal", "--dot", str(dot)])
    assert code == 2
    assert json.loads(out) == {"error": "--dot needs a viterbi parse: a marginal parse has no tree"}
    assert not dot.exists()


def test_parse_empty_sample_exits_2(capsys, tmp_path, grammar_file):
    xpath = tmp_path / "x.json"
    xpath.write_text('{"instances": []}')
    for mode in ("viterbi", "marginal"):
        code, out = run(capsys, ["parse", grammar_file, str(xpath), "--mode", mode])
        assert code == 2
        assert json.loads(out) == {"error": "cannot parse an empty sample"}


def test_duplicate_node_id_exits_3(capsys, tmp_path, grammar_file):
    path = edited_grammar_file(tmp_path, grammar_file, lambda g: g["nodes"].append(g["nodes"][0]))
    code, out = run(capsys, ["validate", path])
    assert code == 3
    assert json.loads(out) == {"error": "nodes[5]: duplicate node id 'dot'", "valid": False}


def test_duplicate_instance_ids_exit_3(capsys, tmp_path, grammar_file, line_drawing):
    xp = Path(sample_file(tmp_path, line_drawing, [(0, 0), (1, 0)]))
    xp.write_text(xp.read_text().replace('"d1"', '"d0"'))
    code, out = run(capsys, ["parse", grammar_file, str(xp)])
    assert code == 3
    assert json.loads(out) == {"error": "duplicate instance ids in sample"}


def test_parse_or_rule_cycle_exits_2(capsys, tmp_path):
    from aog import DataSample, Grammar, OrRule, TerminalInstance, null_domain

    g = Grammar(
        domain=null_domain(),
        terminals=frozenset({"a"}),
        and_nodes=frozenset(),
        or_nodes=frozenset({"S", "T"}),
        start="S",
        and_rules=(),
        or_rules=(
            OrRule("S", "T", 0.5),
            OrRule("S", "a", 0.5),
            OrRule("T", "S", 0.5),
            OrRule("T", "a", 0.5),
        ),
    )
    gpath, xpath = tmp_path / "g.json", tmp_path / "x.json"
    save_grammar(g, gpath)
    save_sample(DataSample((TerminalInstance("x0", "a", None),)), g.domain, xpath)
    expected = {"error": "Or-rule cycle: S -> T -> S"}
    # parse reports the cycle as normalize does
    code, out = run(capsys, ["normalize", str(gpath), "-o", str(tmp_path / "n.json")])
    assert code == 2 and json.loads(out) == expected
    code, out = run(capsys, ["parse", str(gpath), str(xpath)])
    assert code == 2 and json.loads(out) == expected


def test_sample_emits_json_lines(capsys, grammar_file):
    code, out = run(capsys, ["sample", grammar_file, "--seed", "7", "--count", "3"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    seeds = [json.loads(l)["seed"] for l in lines]
    assert seeds == [7, 8, 9]
    first = json.loads(lines[0])
    assert first["tree"]["root"]["node"] == "figure"
    assert first["sample"]["instances"]


def before_grammar() -> aog.Grammar:
    """An interval grammar whose And-rule uses before, which has no
    canonical child split, so no top-down draw of it succeeds."""
    return aog.Grammar(
        domain=aog.interval_domain(),
        terminals=frozenset({"t"}),
        and_nodes=frozenset({"S"}),
        or_nodes=frozenset({"A"}),
        start="S",
        and_rules=(
            aog.AndRule("S", ("A", "A"), aog.RelationRef("before"), aog.FunctionRef("hull")),
        ),
        or_rules=(aog.OrRule("A", "t", 1.0),),
    )


@pytest.mark.parametrize(
    "grammar, flags, error",
    [
        (
            lambda: scfg_to_aog(parse_scfg("S -> S A [0.5]\nS -> a [0.5]\nA -> a [1.0]")),
            ["--max-depth", "2", "--count", "6"],
            "exceeded depth 2",
        ),
        (before_grammar, ["--count", "2"], "no canonical child split"),
    ],
    ids=["depth-exceeded", "domain-error"],
)
def test_failed_draw_is_one_json_line(capsys, tmp_path, grammar, flags, error):
    path = tmp_path / "g.json"
    save_grammar(grammar(), path)
    code, out = run(capsys, ["sample", str(path), *flags])
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert set(records[-1]) == {"seed", "error"} and error in records[-1]["error"]
    assert all("error" not in record for record in records[:-1])


def test_parse_through_the_start_wrapper(capsys, tmp_path, and_start):
    gpath, xpath = tmp_path / "g.json", tmp_path / "x.json"
    save_grammar(and_start, gpath)
    x = aog.DataSample(tuple(aog.TerminalInstance(f"t{i}", "t", None) for i in range(2)))
    save_sample(x, and_start.domain, xpath)
    code, out = run(capsys, ["parse", str(gpath), str(xpath)])
    assert code == 0
    payload = json.loads(out)
    assert payload["normalized"] is True
    assert payload["tree"]["root"]["node"] == "A"


def test_sample_of_normalized_top_down_grammar(capsys, tmp_path, grammar_file):
    # draws through the folded hline rule split each step's grid point
    normalized = str(tmp_path / "n.json")
    assert run(capsys, ["normalize", grammar_file, "-o", normalized])[0] == 0
    for seed in range(10):
        code, out = run(capsys, ["sample", normalized, "--seed", str(seed)])
        assert code == 0, out
        sample_path = tmp_path / "x.json"
        sample_path.write_text(json.dumps(json.loads(out)["sample"]))
        code, out = run(capsys, ["parse", normalized, str(sample_path)])
        assert code == 0 and json.loads(out)["found"] is True


def test_sample_is_reproducible(capsys, grammar_file):
    _, out1 = run(capsys, ["sample", grammar_file, "--seed", "3"])
    _, out2 = run(capsys, ["sample", grammar_file, "--seed", "3"])
    assert out1 == out2
    # the draws are pinned to the byte
    code, out = run(capsys, ["sample", grammar_file, "--seed", "7", "--count", "5"])
    assert code == 0
    digest = "885e196fb0d8c27e83aa9821f779f25d25fda09310e8e6ea2676db4efbb5bca8"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_normalize_writes_grammar_and_map(capsys, tmp_path, grammar_file):
    out_path = tmp_path / "gcnf.json"
    map_path = tmp_path / "map.json"
    code, out = run(
        capsys,
        ["normalize", grammar_file, "-o", str(out_path), "--map", str(map_path)],
    )
    assert code == 0
    audit = json.loads(out)
    assert audit["output"]["and_rules"] >= audit["input"]["and_rules"]
    from aog import load_grammar, load_node_map, gcnf_violations

    assert gcnf_violations(load_grammar(str(out_path))) == []
    assert load_node_map(str(map_path)).original_start == "figure"


def tree_params(tree: dict) -> list:
    """The param of every node of a printed tree."""
    params, todo = [], [tree["root"]]
    while todo:
        node = todo.pop()
        params.append(node["param"])
        todo += node.get("children", [])
    return params


def test_a_wide_rule_parses_through_its_packed_normal_form(capsys, tmp_path):
    # S -> A A A A over intervals is binarized: S applies meets to its packed children
    gpath, xpath = tmp_path / "wide.json", tmp_path / "x.json"
    gcnf_path, map_path = tmp_path / "wide.gcnf.json", tmp_path / "wide.map.json"
    save_grammar(over_intervals(scfg_to_aog(parse_scfg("S -> A A A A [1.0]\nA -> a [1.0]"))), gpath)
    argv = ["normalize", str(gpath), "-o", str(gcnf_path), "--map", str(map_path)]
    assert run(capsys, argv)[0] == 0
    save_sample(string_sample(list("aaaa")), aog.interval_domain(), xpath)
    [rule] = [r for r in json.loads(gcnf_path.read_text())["and_rules"] if r["head"] == "S"]
    packed = {"key": "apply_packed", "config": {"arity": 4, "config": {}, "key": "meets"}}
    assert rule["relation"] == packed
    node_map = json.loads(map_path.read_text())
    assert node_map["bin_nodes"] == {"S#bin1": "S", "S#bin2": "S"}
    assert node_map["start_node"] == "S#start"

    # the stored cells hold every instance set of each size, so the count walks no pair
    code, out = run(capsys, ["parse", str(gcnf_path), str(xpath), "--stats"])
    result = json.loads(out)
    assert code == 0 and result["found"] and result["log_prob"] == 0.0
    assert result["normalized"] is False
    stats = result["stats"]
    assert stats["per_size_compositions"] == [0, 4, 6, 4, 1]
    assert stats["per_size_entries"] == [0, 4, 12, 24, 1]
    assert (stats["pair_tests"], stats["c_max"], stats["total_compositions"]) == (160, 6, 15)
    assert {"t": [[0, 1], [1, 2]]} in tree_params(result["tree"])

    # the original grammar is not in normal form: parse binarizes it into packed
    # parameters and projects the tree back, so no packed parameter is printed
    code, out = run(capsys, ["parse", str(gpath), str(xpath), "--stats"])
    result = json.loads(out)
    assert code == 0 and result["found"] and result["log_prob"] == 0.0
    assert result["normalized"] is True
    params = tree_params(result["tree"])
    assert len(params) == 9 and not any(isinstance(p, dict) for p in params)


def test_convert_scfg(capsys, tmp_path, scfg_file):
    out_path = tmp_path / "g.json"
    code, out = run(capsys, ["convert", "scfg", scfg_file, "-o", str(out_path)])
    assert code == 0
    audit = json.loads(out)
    assert audit["kind"] == "scfg"
    assert audit["source_rules"] == 2
    from aog import load_grammar, validate_grammar

    assert validate_grammar(load_grammar(str(out_path))).ok


def test_convert_scfg_invalid_exits_2(capsys, tmp_path):
    src = tmp_path / "bad.scfg"
    src.write_text("X -> a [0.5]\n")
    code, out = run(capsys, ["convert", "scfg", str(src), "-o", str(tmp_path / "g.json")])
    assert code == 2


def test_convert_spn(capsys, tmp_path):
    src = tmp_path / "net.spn"
    src.write_text(
        "r sum p1 2.0 p2 1.0\np1 prod a1 b1\np2 prod a0 b0\n"
        "a1 ind 0 +\na0 ind 0 -\nb1 ind 1 +\nb0 ind 1 -\n"
    )
    out_path = tmp_path / "g.json"
    code, out = run(capsys, ["convert", "spn", str(src), "-o", str(out_path)])
    assert code == 0
    audit = json.loads(out)
    assert audit["partition"] == 3.0
    # a product root is an And-node start: the conversion is pinned to the
    # byte, and its parse goes through the start wrapper
    src.write_text("r prod a b\na ind 1 +\nb ind 2 -\n")
    assert run(capsys, ["convert", "spn", str(src), "-o", str(out_path)])[0] == 0
    digest = "6903247de29a275032f01e0262c819526dcd2316c28547215e32967eb8b355ae"
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
    xpath = tmp_path / "x.json"
    instances = [("v1", "x1"), ("v2", "x2_neg")]
    xpath.write_text(json.dumps(
        {"instances": [{"id": i, "param": None, "terminal": t} for i, t in instances]}
    ))
    code, out = run(capsys, ["parse", str(out_path), str(xpath)])
    assert code == 0 and json.loads(out)["found"] is True


def test_convert_sat_writes_sample(capsys, tmp_path):
    src = tmp_path / "f.cnf"
    src.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    gpath = tmp_path / "g.json"
    xpath = tmp_path / "x.json"
    code, out = run(
        capsys,
        ["convert", "sat", str(src), "-o", str(gpath), "--sample-out", str(xpath)],
    )
    assert code == 0
    audit = json.loads(out)
    assert audit["variables"] == 2 and audit["clauses"] == 2
    # the emitted pair parses end to end
    code, out = run(capsys, ["parse", str(gpath), str(xpath)])
    assert code == 0


def test_convert_sat_reads_a_satlib_file(capsys, tmp_path):
    # the "%" line ends the formula; the "0" after it is not an empty clause
    src = tmp_path / "uf3-01.cnf"
    src.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n")
    code, out = run(capsys, ["convert", "sat", str(src), "-o", str(tmp_path / "g.json")])
    assert code == 0
    assert json.loads(out)["clauses"] == 2


def test_convert_sat_of_an_empty_clause_exits_2(capsys, tmp_path):
    src = tmp_path / "empty.cnf"
    src.write_text("p cnf 1 1\n0\n")
    code, out = run(capsys, ["convert", "sat", str(src), "-o", str(tmp_path / "g.json")])
    assert code == 2
    assert json.loads(out) == {"error": "no clause marker can ever be produced"}


STATS_KEYS = {
    "sample_size", "per_size_compositions", "per_size_entries", "table_entries",
    "total_compositions", "c_max", "worst_case_compositions", "pair_tests", "elapsed_seconds",
}


def test_parse_stats_prints_the_nine_keys_and_their_counts(capsys, tmp_path):
    # below the full size the start's child pair only counts
    src = tmp_path / "f.cnf"
    src.write_text("p cnf 4 3\n1 -2 3 0\n2 3 -4 0\n-1 -3 4 0\n")
    gpath, xpath = tmp_path / "g.json", tmp_path / "x.json"
    argv = ["convert", "sat", str(src), "-o", str(gpath), "--sample-out", str(xpath)]
    assert run(capsys, argv)[0] == 0
    code, out = run(capsys, ["parse", str(gpath), str(xpath), "--stats"])
    assert code == 0
    stats = json.loads(out)["stats"]
    assert set(stats) == STATS_KEYS
    assert stats["per_size_compositions"] == [0, 3, 3, 1]
    assert stats["per_size_entries"] == [0, 17, 7, 1]
    assert (stats["pair_tests"], stats["c_max"], stats["total_compositions"]) == (38, 3, 7)
    assert (stats["sample_size"], stats["table_entries"]) == (3, 25)
    assert stats["worst_case_compositions"] == 3 and stats["elapsed_seconds"] >= 0


def test_convert_missing_input_exits_3(capsys, tmp_path):
    code, _ = run(
        capsys, ["convert", "scfg", str(tmp_path / "absent"), "-o", str(tmp_path / "g")]
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "{grammar}", "-o", "{bad}"],
        ["normalize", "{grammar}", "-o", "{ok}", "--map", "{bad}"],
        ["parse", "{grammar}", "{sample}", "--dot", "{bad}"],
        ["emit", "slp", "{grammar}", "-o", "{bad}"],
        ["convert", "scfg", "{scfg}", "-o", "{bad}"],
        ["convert", "sat", "{cnf}", "-o", "{ok}", "--sample-out", "{bad}"],
    ],
    ids=["normalize-o", "normalize-map", "parse-dot", "emit-o", "convert-o", "convert-sample-out"],
)
def test_unwritable_output_exits_3(capsys, tmp_path, grammar_file, scfg_file, line_drawing, argv):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    paths = {
        "grammar": grammar_file,
        "sample": sample_file(tmp_path, line_drawing, [(2, 2)]),
        "scfg": scfg_file,
        "cnf": str(cnf),
        "ok": str(tmp_path / "out.json"),
        "bad": str(tmp_path / "no-such-dir" / "out.json"),
    }
    code, out = run(capsys, [arg.format(**paths) for arg in argv])
    assert code == 3
    assert list(json.loads(out)) == ["error"]


def test_file_that_is_not_utf8(capsys, tmp_path, grammar_file, line_drawing):
    latin1 = tmp_path / "latin1"
    latin1.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    code, out = run(capsys, ["validate", str(latin1)])
    assert code == 3 and json.loads(out)["valid"] is False
    xp = sample_file(tmp_path, line_drawing, [(2, 2)])
    for argv in (["parse", str(latin1), xp], ["parse", grammar_file, str(latin1)]):
        code, out = run(capsys, argv)
        assert code == 3 and "error" in json.loads(out)
    # convert reads source text, not a file of this package: malformed text exits 2
    code, out = run(capsys, ["convert", "scfg", str(latin1), "-o", str(tmp_path / "g.json")])
    assert code == 2 and "error" in json.loads(out)


def test_dot_labels_escape_quotes_and_backslashes():
    leaf = TreeNode("t\\", 'p"q', instance='w"0')
    dot = tree_to_dot(ParseTree(TreeNode('S"x', None, (leaf,)), 0.0)).splitlines()
    assert dot[2] == r'  n0 [label="S\"x"];'
    # the separator stays a DOT \n after a label part that ends in a backslash
    assert dot[3] == r'  n1 [label="t\\\np\"q\n@w\"0"];'


# a locale whose preferred encoding is ASCII: no UTF-8 mode, no C-locale coercion
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_utf8_files_are_read_in_any_locale(tmp_path):
    probe = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        env={**os.environ, **ASCII_LOCALE}, capture_output=True, text=True, timeout=60,
    )
    if "utf" in probe.stdout.lower().replace("-", ""):
        pytest.skip("the C locale reads UTF-8 on this platform")
    source = tmp_path / "g.scfg"
    source.write_bytes("X -> X X [0.4]\nX -> café [0.6]\n".encode())
    converted = tmp_path / "g.json"
    done = fresh_aog(["convert", "scfg", str(source), "-o", str(converted)], ASCII_LOCALE)
    assert done.returncode == 0, done.stdout + done.stderr
    g = aog.load_grammar(converted)
    assert "café" in g.terminals
    # the same grammar and a sample, written as raw UTF-8 rather than \u escapes
    raw = tmp_path / "raw.json"
    raw.write_bytes(json.dumps(grammar_to_json_dict(g), ensure_ascii=False).encode())
    sample = tmp_path / "x.json"
    x = string_sample(["café", "café"])
    sample.write_bytes(json.dumps(sample_to_json_dict(x, g.domain), ensure_ascii=False).encode())
    assert b"caf\xc3\xa9" in raw.read_bytes() and b"caf\xc3\xa9" in sample.read_bytes()
    done = fresh_aog(["validate", str(raw)], ASCII_LOCALE)
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout) == {"valid": True, "issues": []}
    dot = tmp_path / "t.dot"
    done = fresh_aog(["parse", str(raw), str(sample), "--dot", str(dot)], ASCII_LOCALE)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "café" in dot.read_text(encoding="utf-8")


def test_nan_budget_seconds_exits_2(capsys, tmp_path, grammar_file, line_drawing):
    xp = sample_file(tmp_path, line_drawing, [(2, 2)])
    code, out = run(capsys, ["parse", grammar_file, xp, "--budget-seconds", "nan"])
    assert code == 2 and "nan" in json.loads(out)["error"]
    code, _ = run(capsys, ["parse", grammar_file, xp, "--budget-seconds", "inf"])
    assert code == 0


@pytest.mark.parametrize("flag", ["--budget-seconds", "--budget-entries"])
def test_negative_budget_exits_2(capsys, tmp_path, grammar_file, line_drawing, flag):
    # one instance and two: a parse with no combine step and one with
    for points in ([(2, 2)], [(2, 2), (2, 3)]):
        xp = sample_file(tmp_path, line_drawing, points)
        code, out = run(capsys, ["parse", grammar_file, xp, flag, "-1"])
        assert code == 2 and "-1" in json.loads(out)["error"]
        code, _ = run(capsys, ["parse", grammar_file, xp, flag, "0"])
        assert code in (0, 4)  # zero is a budget: the parse ends or runs out


def test_zero_budget_seconds_exits_4_on_one_token(capsys, tmp_path):
    g = scfg_to_aog(parse_scfg("X -> X X [0.4]\nX -> a [0.6]\n"))
    gpath, xpath = tmp_path / "g.json", tmp_path / "x.json"
    save_grammar(g, gpath)
    save_sample(string_sample(["a"]), g.domain, xpath)
    code, out = run(capsys, ["parse", str(gpath), str(xpath), "--budget-seconds", "0"])
    assert code == 4 and "0.0 seconds" in json.loads(out)["error"]


def test_budget_seconds_cover_loading_and_normalizing(
    capsys, monkeypatch, tmp_path, grammar_file, line_drawing
):
    # a fake clock in the CLI alone, which to_gcnf moves on by 5 seconds
    clock = [100.0]
    monkeypatch.setattr(aog.cli, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    real_to_gcnf, real_parse, budgets = aog.cli.to_gcnf, aog.cli.parse, []

    def slow_to_gcnf(g):
        clock[0] += 5.0
        return real_to_gcnf(g)

    def recording_parse(g, x, mode, budget):
        budgets.append(budget.max_seconds)
        return real_parse(g, x, mode=mode, budget=budget)

    monkeypatch.setattr(aog.cli, "to_gcnf", slow_to_gcnf)
    monkeypatch.setattr(aog.cli, "parse", recording_parse)
    xp = sample_file(tmp_path, line_drawing, [(0, 0), (1, 0), (2, 0)])
    for seconds in ("5", "4.5"):  # spent before the parse starts
        code, out = run(capsys, ["parse", grammar_file, xp, "--budget-seconds", seconds])
        assert code == 4 and "before parsing" in json.loads(out)["error"]
    assert budgets == []
    code, out = run(capsys, ["parse", grammar_file, xp, "--budget-seconds", "30"])
    assert code == 0 and json.loads(out)["found"] and budgets == [25.0]


def normalizing_takes(monkeypatch, seconds):
    """A fake clock in the CLI alone, which to_gcnf moves on by seconds."""
    clock = [100.0]
    monkeypatch.setattr(aog.cli, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    real_to_gcnf = aog.cli.to_gcnf

    def slow_to_gcnf(g):
        clock[0] += seconds
        return real_to_gcnf(g)

    monkeypatch.setattr(aog.cli, "to_gcnf", slow_to_gcnf)


def test_budget_seconds_name_the_limit_given(
    capsys, monkeypatch, tmp_path, grammar_file, line_drawing
):
    # the parse gets the 0.25 s left of 0.5; parsing's own clock moves 1 s per reading
    normalizing_takes(monkeypatch, 0.25)
    ticks = itertools.count()
    monkeypatch.setattr(aog.parsing, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    xp = sample_file(tmp_path, line_drawing, [(0, 0), (1, 0), (2, 0)])
    code, out = run(capsys, ["parse", grammar_file, xp, "--budget-seconds", "0.5"])
    assert code == 4
    assert re.fullmatch(r"parse exceeded 0\.5 seconds at size 1", json.loads(out)["error"])


def test_budget_seconds_of_the_full_fill_for_the_stats_name_the_limit_given(
    capsys, monkeypatch, tmp_path
):
    # parsing's clock stands still until the stats are read, so the goal fill
    # keeps its 0.25 s of the 0.5; then it moves 1 s per reading, and the full
    # fill for the stats fires at its first check
    g, x = aog.sat_to_aog(random_3sat(random.Random(44008)))
    gpath, xpath = tmp_path / "g.json", tmp_path / "x.json"
    aog.save_grammar(g, gpath)
    aog.save_sample(x, g.domain, xpath)
    normalizing_takes(monkeypatch, 0.25)
    real_stats, reads = aog.parsing.full_chart_stats, []

    def full_chart_stats(*args):
        reads.append(args)
        return real_stats(*args)

    def monotonic():
        if reads:
            reads.append(None)
        return float(len(reads))

    monkeypatch.setattr(aog.parsing, "full_chart_stats", full_chart_stats)
    monkeypatch.setattr(aog.parsing, "time", types.SimpleNamespace(monotonic=monotonic))
    argv = ["parse", str(gpath), str(xpath), "--budget-seconds", "0.5"]
    assert run(capsys, argv)[0] == 0 and not reads  # no stats, no full fill
    code, out = run(capsys, [*argv, "--stats"])
    assert code == 4 and reads
    assert re.fullmatch(r"parse exceeded 0\.5 seconds at size 1", json.loads(out)["error"])


@pytest.mark.parametrize("step, when", [("project_parse", "in projection"),
                                        ("tree_to_json_dict", "in output")])
def test_budget_seconds_cover_projection_and_output(
    capsys, monkeypatch, tmp_path, grammar_file, line_drawing, step, when
):
    # a fake clock in the CLI alone, which the step after the parse moves on by 5 seconds
    clock = [100.0]
    monkeypatch.setattr(aog.cli, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    real = getattr(aog.cli, step)

    def slow(*args):
        clock[0] += 5.0
        return real(*args)

    monkeypatch.setattr(aog.cli, step, slow)
    xp = sample_file(tmp_path, line_drawing, [(0, 0), (1, 0), (2, 0)])
    for seconds in ("5", "4.5"):
        code, out = run(capsys, ["parse", grammar_file, xp, "--budget-seconds", seconds])
        assert code == 4
        assert json.loads(out) == {"error": f"parse exceeded {float(seconds)} seconds {when}"}
    code, out = run(capsys, ["parse", grammar_file, xp, "--budget-seconds", "5.5"])
    assert code == 0 and json.loads(out)["found"]


def test_negative_sample_count_exits_2(capsys, grammar_file):
    code, out = run(capsys, ["sample", grammar_file, "--count", "-3"])
    assert code == 2 and "--count" in json.loads(out)["error"]
    assert run(capsys, ["sample", grammar_file, "--count", "0"]) == (0, "")


def test_debug_log_carries_the_traceback_of_an_error(monkeypatch, capsys, tmp_path):
    g = scfg_to_aog(parse_scfg("X -> X X [0.4]\nX -> a [0.6]\n"))
    gpath, xpath = tmp_path / "g.json", tmp_path / "x.json"
    save_grammar(g, gpath)
    save_sample(string_sample(["a"] * 6), g.domain, xpath)
    monkeypatch.setenv("AOG_LOG", "debug")
    assert main(["parse", str(gpath), str(xpath), "--budget-entries", "3"]) == 4
    err = capsys.readouterr().err
    assert "DEBUG aog: aog parse failed\nTraceback (most recent call last):" in err
    assert "BudgetExceeded: chart exceeded 3 entries" in err


def test_emit_fol_to_stdout(capsys, grammar_file):
    code, out = run(capsys, ["emit", "fol", grammar_file])
    assert code == 0
    assert "composition axioms" in out
    assert "forall x: figure(x) -> hline(x) : 0.5" in out


def test_emit_slp_to_file(capsys, tmp_path, grammar_file):
    out_path = tmp_path / "prog.slp"
    code, out = run(capsys, ["emit", "slp", grammar_file, "-o", str(out_path)])
    assert code == 0
    assert json.loads(out)["dialect"] == "slp"
    assert ":- figure(X, P)." in out_path.read_text()


def _declared_scripts() -> dict:
    """`[project.scripts]` of the repository's own pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parent.parent / "pyproject.toml").open("rb") as f:
        return tomllib.load(f)["project"]["scripts"]


def _aog_installed() -> bool:
    try:
        distribution("aog")
    except PackageNotFoundError:
        return False
    return True


def test_cli_entry_point_installed(tmp_path, grammar_file):
    """The package declares an `aog` console script bound to `aog.cli.main`,
    and that callable works as one: run the way a generated script runs it,
    it reads `sys.argv` and its return value is the process exit code."""
    scripts = _declared_scripts()
    assert "aog" in scripts
    entry = EntryPoint(name="aog", value=scripts["aog"], group="console_scripts")
    assert entry.load() is main

    script = f"import sys; from {entry.module} import {entry.attr}; sys.exit({entry.attr}())"
    src = str(Path(aog.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}

    def aog_command(*argv):
        return subprocess.run(
            [sys.executable, "-c", script, *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )

    ok = aog_command("validate", grammar_file)
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout) == {"valid": True, "issues": []}
    missing = aog_command("validate", str(tmp_path / "missing.json"))
    assert missing.returncode == 3, missing.stderr


@pytest.mark.skipif(not _aog_installed(), reason="the aog distribution is not installed")
def test_installed_console_script_on_path(capsys, monkeypatch, tmp_path):
    """The `aog` on PATH runs outside the checkout, with no PYTHONPATH, and
    prints what `main` prints in-process."""
    installed = distribution("aog").entry_points.select(group="console_scripts", name="aog")
    assert [entry.value for entry in installed] == [_declared_scripts()["aog"]]
    command = shutil.which("aog")
    assert command is not None
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    monkeypatch.chdir(tmp_path)
    Path("g.scfg").write_text("S -> S A [0.5]\nS -> a [0.5]\nA -> a [1.0]\n")
    instances = [{"id": f"w{i}", "param": [i, i + 1], "terminal": "a"} for i in range(2)]
    Path("x.json").write_text(json.dumps({"instances": instances}))

    steps = (
        ["convert", "scfg", "g.scfg", "-o", "g.json"],
        ["parse", "g.json", "x.json"],
        ["emit", "slp", "g.json"],
    )
    outside = [
        subprocess.run([command, *argv], env=env, capture_output=True, text=True, timeout=60)
        for argv in steps
    ]
    for argv, done in zip(steps, outside):
        assert done.returncode == 0, done.stderr
        assert done.stdout == run(capsys, argv)[1]
    assert json.loads(outside[1].stdout)["found"] is True


# ------------------------------------------------------- repeated in-process calls


def fresh_aog(argv, env=None):
    """argv run by `python -m aog.cli` in a new process."""
    src = str(Path(aog.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "aog.cli", *argv],
        env={**os.environ, **(env or {}), "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=60,
    )


def without_elapsed(out: str) -> dict:
    payload = json.loads(out)
    payload.get("stats", {}).pop("elapsed_seconds", None)
    return payload


def test_aog_log_applies_to_each_call(monkeypatch, grammar_file, tmp_path, line_drawing):
    # the grammar has an arity-3 rule, so parse logs that it normalizes
    xp = sample_file(tmp_path, line_drawing, [(0, 0), (1, 0), (2, 0)])
    line = "INFO aog: grammar is not in normal form; normalizing for parsing\n"
    assert fresh_aog(["parse", grammar_file, xp], {"AOG_LOG": "info"}).stderr == line

    def stderr_of_call(level):
        monkeypatch.setenv("AOG_LOG", level)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["parse", grammar_file, xp]) == 0
        return err.getvalue()

    assert [stderr_of_call(level) for level in ("info", "info", "warn", "info")] == [
        line, line, "", line
    ]
    # nothing is left on the logger for callers after main
    logger = logging.getLogger("aog")
    assert (logger.handlers, logger.level, logger.propagate) == ([], logging.NOTSET, True)


def test_main_keeps_aog_records_from_root_handlers(monkeypatch, grammar_file, tmp_path, line_drawing):
    xp = sample_file(tmp_path, line_drawing, [(0, 0), (1, 0), (2, 0)])
    monkeypatch.setenv("AOG_LOG", "info")
    seen: list[str] = []

    class Collect(logging.Handler):
        def emit(self, record):
            seen.append(record.getMessage())

    root = logging.getLogger()
    handler = Collect(logging.DEBUG)
    saved_level = root.level
    root.addHandler(handler)
    root.setLevel(logging.DEBUG)
    try:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["parse", grammar_file, xp]) == 0
        # the record is printed once, on main's stderr, and not handed to root
        assert err.getvalue() == "INFO aog: grammar is not in normal form; normalizing for parsing\n"
        assert seen == []
        logging.getLogger("aog").warning("after main")
        assert seen == ["after main"]
    finally:
        root.removeHandler(handler)
        root.setLevel(saved_level)


def test_reused_parser_leaks_nothing_between_calls(capsys, tmp_path, grammar_file, line_drawing):
    xp = sample_file(tmp_path, line_drawing, [(0, 0), (1, 0), (2, 0)])
    dot = tmp_path / "tree.dot"
    plain = ["parse", grammar_file, xp]
    marginal = plain + ["--stats", "--mode", "marginal"]
    with_dot = plain + ["--dot", str(dot), "--stats"]

    def outputs(call, argv):
        out = call(argv)
        written = dot.read_text() if dot.exists() else None
        dot.unlink(missing_ok=True)
        return out, written

    def fresh_call(argv):
        done = fresh_aog(argv)
        return done.returncode, without_elapsed(done.stdout)

    def in_process(argv):
        code, out = run(capsys, argv)
        return code, without_elapsed(out)

    expected = {i: outputs(fresh_call, argv) for i, argv in enumerate((plain, marginal, with_dot))}
    assert expected[0][0][1]["mode"] == "viterbi" and "stats" not in expected[0][0][1]
    assert expected[1][0][1]["mode"] == "marginal" and expected[1][1] is None
    assert expected[2][1].startswith("digraph parse {")
    for i in (1, 0, 2, 0, 1, 2, 0):
        assert outputs(in_process, (plain, marginal, with_dot)[i]) == expected[i]

    # usage errors still exit 2, with argparse's message on stderr, between good calls
    for argv in (["parse", grammar_file], marginal[:-1] + ["best"], []):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: aog")
        assert outputs(in_process, plain) == expected[0]


def test_parse_prints_a_tree_deeper_than_json_recursion(capsys, tmp_path):
    # the a x 400 left-branching tree is about 800 levels deep, where
    # json.dumps(indent=2) raises RecursionError
    g = scfg_to_aog(parse_scfg("S -> S A [0.5]\nS -> a [0.5]\nA -> a [1.0]"))
    assert gcnf_violations(g) == []
    x = string_sample(["a"] * 400)
    gpath, xpath = tmp_path / "g.json", tmp_path / "x.json"
    save_grammar(g, gpath)
    save_sample(x, g.domain, xpath)

    code, out = run(capsys, ["parse", str(gpath), str(xpath)])
    assert code == 0
    result = parse(g, x)
    expected = {
        "mode": "viterbi",
        "found": True,
        "log_prob": result.score,
        "normalized": False,
        "tree": tree_to_json_dict(result.tree, g.domain),
    }
    # compared as text: json.loads would recurse as deep as the tree
    assert out == canonical_dumps(expected)
    assert out.count('"node": "S"') == 400
    code, out = run(capsys, ["parse", str(gpath), str(xpath), "--stats"])
    assert code == 0 and '"sample_size": 400' in out


def test_sample_prints_a_tree_deeper_than_json_recursion(capsys, tmp_path):
    # S -> S A [0.999] draws trees thousands of levels deep, where the
    # one-line json.dumps raises RecursionError
    scfg_path, gpath = tmp_path / "g.scfg", tmp_path / "g.json"
    scfg_path.write_text("S -> S A [0.999]\nS -> a [0.001]\nA -> a [1.0]\n")
    assert run(capsys, ["convert", "scfg", str(scfg_path), "-o", str(gpath)])[0] == 0
    g = scfg_to_aog(parse_scfg(scfg_path.read_text()))

    argv = ["sample", str(gpath), "--max-depth", "100000", "--seed", "1", "--count", "4"]
    code, out = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    for seed, line in enumerate(lines, start=1):
        tree, x = draw_sample(g, seed=seed, max_depth=100000)
        record = {
            "seed": seed,
            "log_prob": tree.log_prob,
            "sample": sample_to_json_dict(x, g.domain),
            "tree": tree_to_json_dict(tree, g.domain),
        }
        with pytest.raises(RecursionError):
            json.dumps(record, sort_keys=True)
        # compared as text: json.loads would recurse as deep as the tree
        assert line == canonical_dumps(record, one_line=True)


# ------------------------------------------------------------ malformed values


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "float"])
def test_format_version_must_be_the_int_1(capsys, tmp_path, grammar_file, value):
    path = edited_grammar_file(tmp_path, grammar_file, lambda g: g.update(format_version=value))
    code, out = run(capsys, ["validate", path])
    assert code == 3
    assert json.loads(out)["error"] == f"unsupported format_version {value!r}"


def test_bool_sample_value_exits_3(capsys, tmp_path, grammar_file):
    # the decoder applies the relations' pair rule, so a bool fails at load
    xpath = tmp_path / "x.json"
    xpath.write_text('{"instances": [{"id": "a", "terminal": "dot", "param": [true, 0]}]}')
    code, out = run(capsys, ["parse", grammar_file, str(xpath)])
    assert code == 3
    assert "pair of ints" in json.loads(out)["error"]


@pytest.mark.parametrize("kind", [["and"], {"kind": "and"}], ids=["list", "object"])
def test_unhashable_node_kind_exits_3(capsys, tmp_path, grammar_file, kind):
    path = edited_grammar_file(tmp_path, grammar_file, lambda g: g["nodes"][0].update(kind=kind))
    for argv in (["validate", path], ["emit", "fol", path], ["sample", path]):
        code, out = run(capsys, argv)
        assert code == 3
        assert "unknown kind" in json.loads(out)["error"]


def test_apply_packed_with_non_object_config_is_a_binding_issue(
    capsys, tmp_path, wide_interval_file
):
    normalized = tmp_path / "n.json"
    assert run(capsys, ["normalize", wide_interval_file, "-o", str(normalized)])[0] == 0

    def edit(payload):
        for rule in payload["and_rules"]:
            if rule["relation"]["key"] == "apply_packed":  # the first of two
                rule["relation"]["config"]["config"] = [1]
                break

    code, out = run(capsys, ["validate", edited_grammar_file(tmp_path, str(normalized), edit)])
    assert code == 2
    assert [i["code"] for i in json.loads(out)["issues"]] == ["and-binding"]


def test_file_nested_too_deep_exits_3(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    code, out = run(capsys, ["validate", str(path)])
    assert code == 3
    assert json.loads(out)["valid"] is False


def test_parse_value_a_relation_refuses_exits_2(capsys, tmp_path, wide_interval_file):
    # a packed value decodes in the normal form's tuple domain, but no
    # interval relation takes it
    normalized = tmp_path / "n.json"
    assert run(capsys, ["normalize", wide_interval_file, "-o", str(normalized)])[0] == 0
    xpath = tmp_path / "x.json"
    xpath.write_text(
        '{"instances": [{"id": "a", "terminal": "a", "param": {"t": [[0, 1]]}},'
        ' {"id": "b", "terminal": "b", "param": [1, 2]},'
        ' {"id": "c", "terminal": "b", "param": [2, 3]},'
        ' {"id": "d", "terminal": "b", "param": [3, 4]}]}'
    )
    code, out = run(capsys, ["parse", str(normalized), str(xpath)])
    assert code == 2
    assert "pair of ints" in json.loads(out)["error"]


# ------------------------------------------------- aim 3: no traceback reaches a caller

MUTANT_VALUES = (True, None, 2**70, 1.5, "", [], [True, 1], {}, {"t": []})


def json_slots(doc) -> list[tuple]:
    """(container, key or index) of every value inside a JSON document."""
    slots, todo = [], [doc]
    while todo:
        node = todo.pop()
        for key in node if isinstance(node, dict) else range(len(node)):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                todo.append(node[key])
    return slots


def mutated(text: str, rng: random.Random) -> str:
    """text with one value replaced by a mutant value, or deleted."""
    doc = json.loads(text)
    container, key = rng.choice(json_slots(doc))
    choice = rng.randrange(len(MUTANT_VALUES) + 1)
    if choice == len(MUTANT_VALUES):
        del container[key]
    else:
        container[key] = json.loads(json.dumps(MUTANT_VALUES[choice]))
    return json.dumps(doc)


def test_mutated_files_end_in_documented_exit_codes(tmp_path):
    rng = random.Random(2026)
    gpath, xpath = tmp_path / "g.json", tmp_path / "x.json"
    commands = [
        ["validate", str(gpath)],
        ["parse", str(gpath), str(xpath), "--budget-entries", "20000"],
        ["parse", str(gpath), str(xpath), "--mode", "marginal", "--budget-entries", "20000"],
        ["sample", str(gpath), "--count", "3"],
        ["normalize", str(gpath), "-o", str(tmp_path / "n.json")],
        ["emit", "slp", str(gpath)],
    ]
    cases = 0
    for trial, kind in enumerate(("string", "grid", "null", "interval")):
        g = random_aog(random.Random(trial), kind=kind)
        _, x = draw_sample(g, seed=0)
        for grammar in (g, to_gcnf(g)[0]):
            grammar_text = canonical_dumps(grammar_to_json_dict(grammar))
            sample_text = canonical_dumps(sample_to_json_dict(x, grammar.domain))
            for _ in range(75):
                if rng.random() < 0.7:
                    gpath.write_text(mutated(grammar_text, rng))
                    xpath.write_text(sample_text)
                else:
                    gpath.write_text(grammar_text)
                    xpath.write_text(mutated(sample_text, rng))
                for argv in commands:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = main(argv)
                    assert code in (0, 1, 2, 3, 4), argv
                cases += 1
    assert cases == 600


KINDS = ("string", "grid", "null", "interval")


def test_mutated_node_maps_raise_only_format_errors(tmp_path):
    rng = random.Random(2027)
    path = tmp_path / "map.json"
    cases = 0
    for trial in range(8):
        g = random_aog(random.Random(trial), allow_or_chains=True, kind=KINDS[trial % 4])
        aog.save_node_map(to_gcnf(g)[1], path)
        text = path.read_text()
        for _ in range(60):
            path.write_text(mutated(text, rng))
            try:
                aog.load_node_map(path)
            except aog.FormatError:
                pass
            cases += 1
    assert cases == 480

SOURCES = {
    "scfg": "S -> S A [0.5]\nS -> a [0.5]\nA -> a [1.0]\nA -> A A B [0.0]\nB -> b [1.0]\n",
    "spn": "r sum p 0.4 q 0.6\np prod a b\nq prod c b\na ind 1 +\nb ind 2 -\nc ind 1 -\n",
    "sat": "c three clauses\np cnf 3 3\n1 -2 3 0\n2 3 -1 0\n-1 -3 2 0\n",
}

# small numbers only: a DIMACS header declares at most a few variables
SOURCE_TOKENS = ("0", "1", "-1", "2", "3", "1.5", "-", "+", "->", "[0.5]", "[", "]", "p", "cnf",
                 "c", "sum", "prod", "ind", "S", "a", "nan", "inf", "#", "é", "")


def token_mutated(text: str, rng: random.Random) -> str:
    """text with one token replaced by a token of SOURCE_TOKENS, or deleted."""
    tokens = re.split(r"(\s+)", text)
    at = rng.choice([i for i, token in enumerate(tokens) if token and not token.isspace()])
    tokens[at] = rng.choice(SOURCE_TOKENS)
    return "".join(tokens)


def test_mutated_convert_sources_end_in_documented_exit_codes(tmp_path):
    rng = random.Random(2028)
    src, out = tmp_path / "source.txt", tmp_path / "g.json"
    codes = set()
    for kind, text in SOURCES.items():
        for _ in range(120):
            src.write_text(token_mutated(text, rng), encoding="utf-8")
            argv = ["convert", kind, str(src), "-o", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3), argv
            codes.add(code)
    assert codes == {0, 2}
