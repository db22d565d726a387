"""The four benchmark workloads.

Each workload turns a seed into plain input data (`inputs`), builds engine
objects from it (`setup`, timed as setup_s), lists its ops in pass order,
runs one op (`run`, the timed region), and checks a result against an
independent reference (`reference`, `check`, untimed).  With a Tracer every
call into aog runs inside a span.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from types import SimpleNamespace

from harness import NEG_INF, call, close, normalize, run_parse, tree_signature
from inputs import (
    ALL_SPANS_SCFG,
    LEFT_BRANCHING_SCFG,
    LINE_DRAWING,
    WIDE_STRING,
    random_3sat,
    random_spn,
)


class Mismatch(Exception):
    """An op's output disagrees with its reference."""


def new_state(aog):
    return SimpleNamespace(aog=aog)


class Strings:
    """All-spans grammar over a×n in both modes, plus one left-branching
    input: the combine loop's pair tests and relation calls dominate."""

    name = "strings"
    # seconds one pass takes on the reference machine (see NOTES.md); sets
    # how many whole passes fit in --seconds
    pass_seconds = 4.5

    def inputs(self, seed: int, short: bool = False) -> dict:
        rng = random.Random(seed)
        if short:
            lengths, left = [16, 18], 40
        else:
            # only the two cheapest lengths move with the seed, so that the
            # op mix, and with it every figure, stays comparable across seeds
            lengths = [16 + rng.randrange(4), 24 + rng.randint(-3, 3), 32, 40, 48]
            left = 100
        ops = [("all", n, mode) for n in lengths for mode in ("viterbi", "marginal")]
        ops.append(("left", left, "viterbi"))
        rng.shuffle(ops)
        return {"all": ALL_SPANS_SCFG, "left": LEFT_BRANCHING_SCFG, "ops": ops}

    def setup(self, aog, inp: dict, t, workdir) -> SimpleNamespace:
        state = new_state(aog)

        def convert(text):
            scfg = aog.parse_scfg(text)
            return scfg, aog.scfg_to_aog(scfg)

        state.grammars = {}
        for key in ("all", "left"):
            scfg, g = call(t, "scfg.convert", convert, inp[key])
            gcnf, node_map = normalize(aog, t, g)
            state.grammars[key] = (scfg, g, gcnf, node_map)
        state.ops = [tuple(op) for op in inp["ops"]]
        state.samples = {n: aog.string_sample(["a"] * n) for _, n, _ in state.ops}
        return state

    def run(self, state, op, t):
        key, n, mode = op
        _, g, gcnf, node_map = state.grammars[key]
        score, tree = run_parse(state.aog, t, gcnf, state.samples[n], mode)
        if tree is not None:
            tree = call(t, "normalize.project_parse", state.aog.project_parse, tree, node_map, g)
        return score, tree

    def reference(self, state, op, t):
        key, n, mode = op
        return call(t, "scfg.cyk", state.aog.cyk, state.grammars[key][0], ["a"] * n, mode)

    def check(self, state, op, result, ref) -> None:
        score, tree = result
        if score == NEG_INF or not close(score, ref):
            raise Mismatch(f"score {score!r}, cyk {ref!r}")
        if op[2] == "viterbi" and (tree is None or not close(tree.log_prob, score)):
            raise Mismatch(f"projected tree does not carry the viterbi score {score!r}")

    def signature(self, result):
        score, tree = result
        return score, tree_signature(tree)


class Sat:
    """Formulas of the acceptance-4 generator: null domain, `true` relation,
    hundreds of thousands of chart entries on the hardest formulas."""

    name = "sat"
    pass_seconds = 4.5
    first_seed = 44000

    def inputs(self, seed: int, short: bool = False) -> dict:
        # A fixed contiguous range of generator seeds in generator order; the
        # workload seed is not used.  Op times here depend on which formula
        # ran before (freeing a chart of 300k entries returns memory the
        # next op must fault in again), so a seeded order would move
        # op_p50_ms by a third between seeds.
        count = 7 if short else 20
        formulas = [random_3sat(random.Random(self.first_seed + i)) for i in range(count)]
        return {"formulas": formulas, "ops": list(range(count))}

    def setup(self, aog, inp: dict, t, workdir) -> SimpleNamespace:
        state = new_state(aog)
        state.formulas = []
        for n_vars, clauses in inp["formulas"]:
            f = aog.Cnf3Sat(n_vars, tuple(tuple(c) for c in clauses))
            g, x = call(t, "sat.convert", aog.sat_to_aog, f)
            gcnf, node_map = normalize(aog, t, g)
            state.formulas.append((f, g, x, gcnf, node_map))
        state.ops = list(inp["ops"])
        return state

    def run(self, state, op, t):
        _, g, x, gcnf, node_map = state.formulas[op]
        score, tree = run_parse(state.aog, t, gcnf, x, "viterbi")
        if tree is not None:
            tree = call(t, "normalize.project_parse", state.aog.project_parse, tree, node_map, g)
        return score, tree

    def reference(self, state, op, t):
        f = state.formulas[op][0]
        return call(t, "sat.brute_force", state.aog.brute_force_satisfiable, f)

    def check(self, state, op, result, ref) -> None:
        aog = state.aog
        score, tree = result
        _, g, x, _, _ = state.formulas[op]
        if (score > NEG_INF) != ref:
            raise Mismatch(f"parse found={score > NEG_INF}, satisfiable={ref}")
        if score == NEG_INF:
            return
        # tree_probability re-validates rule use, relations and leaves
        if not math.isclose(aog.tree_probability(g, tree), tree.log_prob, abs_tol=1e-12):
            raise Mismatch("tree_probability disagrees with the projected tree")
        if aog.tree_sample(g, tree).ids != x.ids:
            raise Mismatch("tree leaves are not the clause instances")

    def signature(self, result):
        score, tree = result
        return score, tree_signature(tree)


class Spn:
    """Every assignment of the two d = 10 networks of acceptance 3: many
    small marginal parses of two fixed grammars, so per-call fixed cost
    dominates."""

    name = "spn"
    pass_seconds = 4.5
    network_seeds = (43000, 43001)
    n_vars = 10

    def inputs(self, seed: int, short: bool = False) -> dict:
        networks = [random_spn(random.Random(s), self.n_vars) for s in self.network_seeds]
        ops = [(k, bits) for k in range(len(networks)) for bits in range(2**self.n_vars)]
        rng = random.Random(seed)
        rng.shuffle(ops)
        if short:
            ops = ops[:48]
        return {"networks": networks, "ops": ops}

    def setup(self, aog, inp: dict, t, workdir) -> SimpleNamespace:
        state = new_state(aog)
        kinds = {
            "ind": lambda var, positive: aog.IndicatorNode(var, positive),
            "sum": lambda children, weights: aog.SumNode(tuple(children), tuple(weights)),
            "prod": lambda children: aog.ProductNode(tuple(children)),
        }
        state.networks = []
        state.partitions = {}
        for nodes, root in inp["networks"]:
            s = aog.Spn({name: kinds[n[0]](*n[1:]) for name, n in nodes.items()}, root)
            conv = call(t, "spn.convert", aog.spn_to_aog, s)
            gcnf, _ = normalize(aog, t, conv.grammar)
            state.networks.append((s, conv, gcnf))
        state.ops = [tuple(op) for op in inp["ops"]]
        state.assignments = {
            op: {v: (op[1] >> (v - 1)) & 1 for v in range(1, self.n_vars + 1)}
            for op in state.ops
        }
        return state

    def run(self, state, op, t):
        _, conv, gcnf = state.networks[op[0]]
        x = state.aog.assignment_sample(conv, state.assignments[op])
        score, _ = run_parse(state.aog, t, gcnf, x, "marginal")
        return score

    def reference(self, state, op, t):
        assignment = state.assignments[op]
        value = call(t, "spn.evaluate", self._evaluate, state, op[0], assignment)
        return math.log(value) if value > 0 else NEG_INF

    def _evaluate(self, state, k, assignment) -> float:
        s = state.networks[k][0]
        if k not in state.partitions:
            state.partitions[k] = state.aog.partition(s)
        return state.aog.evaluate(s, assignment) / state.partitions[k]

    def check(self, state, op, result, ref) -> None:
        if not close(result, ref):
            raise Mismatch(f"marginal {result!r}, evaluate/partition {ref!r}")

    def signature(self, result):
        return result


class Cli:
    """In-process `aog` command calls on small grammar and sample files:
    load, validate, to_gcnf, projection and JSON output dominate."""

    name = "cli"
    pass_seconds = 0.65
    count = 100  # drawn samples per grammar, each parsed back

    def inputs(self, seed: int, short: bool = False) -> dict:
        count = 5 if short else self.count
        return {
            "grammars": {"line_drawing": LINE_DRAWING, "wide_string": WIDE_STRING},
            "sample_seed": seed * count,
            "count": count,
        }

    def setup(self, aog, inp: dict, t, workdir) -> SimpleNamespace:
        state = new_state(aog)
        state.main = importlib.import_module("aog.cli").main
        state.dumps = importlib.import_module("aog.serialize").canonical_dumps
        state.count = inp["count"]
        state.sample_seed = inp["sample_seed"]
        state.grammars = {}
        state.argv = {}
        state.ops = []
        state.drawn = {}
        for name, spec in sorted(inp["grammars"].items()):
            g = build_grammar(aog, spec)
            path = workdir / f"{name}.json"
            call(t, "serialize.dump", aog.save_grammar, g, path)
            gcnf, _ = normalize(aog, t, g)
            state.grammars[name] = (g, gcnf, path)
            ops = {
                ("validate", name): ["validate", str(path)],
                ("normalize", name): [
                    "normalize", str(path), "-o", str(workdir / f"{name}.gcnf.json")
                ],
                ("sample", name): [
                    "sample", str(path), "--seed", str(state.sample_seed),
                    "--count", str(state.count),
                ],
            }
            for i in range(state.count):
                ops[("parse", name, i)] = [
                    "parse", str(path), str(workdir / f"{name}.sample{i}.json"), "--stats"
                ]
            ops[("emit", name)] = ["emit", "fol", str(path)]
            state.argv.update(ops)
            state.ops.extend(ops)
        return state

    def run(self, state, op, t):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = call(t, "cli.main", state.main, state.argv[op])
        replayed = None
        if t is not None:
            replayed = getattr(self, f"replay_{op[0]}")(state, op, t)
        return code, out.getvalue(), replayed

    # The replays repeat, span by span, the layer calls the command makes,
    # so that cli.main_s splits into layers; they run after cli.main.

    def _load(self, state, op, t):
        aog = state.aog
        path = state.grammars[op[1]][2]
        g = call(t, "serialize.load", aog.load_grammar, path, check=False)
        report = call(t, "grammar.validate", aog.validate_grammar, g)
        return g, report

    def replay_validate(self, state, op, t):
        _, report = self._load(state, op, t)
        call(t, "serialize.dump", state.dumps, {"valid": report.ok, "issues": []})

    def replay_normalize(self, state, op, t):
        g, _ = self._load(state, op, t)
        gcnf, _ = normalize(state.aog, t, g)
        path = state.argv[op][3] + ".replay"
        call(t, "serialize.dump", state.aog.save_grammar, gcnf, path)
        call(t, "serialize.dump", state.dumps, {"and_rules": len(gcnf.and_rules)})

    def replay_sample(self, state, op, t):
        aog = state.aog
        g, _ = self._load(state, op, t)
        for i in range(state.count):
            seed = state.sample_seed + i
            tree, x = call(t, "grammar.sample", aog.sample, g, seed=seed)
            record = {
                "seed": seed,
                "log_prob": tree.log_prob,
                "sample": call(t, "serialize.dump", aog.sample_to_json_dict, x, g.domain),
                "tree": call(t, "serialize.dump", aog.tree_to_json_dict, tree, g.domain),
            }
            call(t, "serialize.dump", json.dumps, record, sort_keys=True)

    def replay_parse(self, state, op, t):
        aog = state.aog
        g, _ = self._load(state, op, t)
        x = call(t, "serialize.load", aog.load_sample, state.argv[op][2], g.domain)
        gcnf, node_map = normalize(aog, t, g)
        score, tree = run_parse(aog, t, gcnf, x, "viterbi")
        tree = call(t, "normalize.project_parse", aog.project_parse, tree, node_map, g)
        tree_dict = call(t, "serialize.dump", aog.tree_to_json_dict, tree, g.domain)
        payload = {"log_prob": score, "tree": tree_dict}
        call(t, "serialize.dump", state.dumps, payload)
        return payload

    def replay_emit(self, state, op, t):
        g, _ = self._load(state, op, t)
        call(t, "logic_export.emit", state.aog.emit_fol, g)

    def reference(self, state, op, t):
        aog = state.aog
        kind, name = op[0], op[1]
        g, gcnf, _ = state.grammars[name]
        if kind == "normalize":
            return state.dumps(aog.grammar_to_json_dict(gcnf))
        if kind == "parse":
            return state.drawn[name][op[2]]
        if kind == "emit":
            return aog.emit_fol(g).text
        return None

    def check(self, state, op, result, ref) -> None:
        code, out, replayed = result
        kind, name = op[0], op[1]
        if code != 0:
            raise Mismatch(f"exit code {code}: {out.strip()[:200]}")
        if kind == "validate":
            if json.loads(out) != {"valid": True, "issues": []}:
                raise Mismatch(f"validate printed {out.strip()[:200]}")
        elif kind == "normalize":
            with open(state.argv[op][3]) as fh:
                if fh.read() != ref:
                    raise Mismatch("normalized grammar file differs from to_gcnf")
        elif kind == "sample":
            records = [json.loads(line) for line in out.splitlines()]
            seeds = [r["seed"] for r in records]
            if seeds != list(range(state.sample_seed, state.sample_seed + state.count)):
                raise Mismatch(f"sample printed seeds {seeds[:5]}...")
            state.drawn[name] = [r["log_prob"] for r in records]
            for i, record in enumerate(records):
                with open(state.argv[("parse", name, i)][2], "w") as fh:
                    json.dump(record["sample"], fh)
        elif kind == "parse":
            payload = json.loads(out)
            if not payload["found"] or payload["log_prob"] < ref - 1e-9:
                raise Mismatch(f"log_prob {payload['log_prob']!r} below the drawn tree's {ref!r}")
            if replayed is not None and (
                replayed["log_prob"] != payload["log_prob"] or replayed["tree"] != payload["tree"]
            ):
                raise Mismatch("replayed parse differs from the command's output")
        elif out != ref:
            raise Mismatch("emitted text differs from emit_fol")

    def signature(self, result):
        code, out, _ = result
        if out.startswith("{") and '"stats"' in out:
            payload = json.loads(out)
            payload["stats"].pop("elapsed_seconds")
            out = json.dumps(payload, sort_keys=True)
        return code, out


def build_grammar(aog, spec: dict):
    """Grammar object from a fixture of inputs.py."""
    and_rules = tuple(
        aog.AndRule(head, tuple(children), aog.RelationRef(rel, rel_config),
                    aog.FunctionRef(fn, fn_config))
        for head, children, rel, rel_config, fn, fn_config in spec["and_rules"]
    )
    or_rules = tuple(aog.OrRule(head, child, prob) for head, child, prob in spec["or_rules"])
    return aog.Grammar(
        domain=aog.domain_from_config(spec["domain"]),
        terminals=frozenset(spec["terminals"]),
        and_nodes=frozenset(r.head for r in and_rules),
        or_nodes=frozenset(r.head for r in or_rules),
        start=spec["start"],
        and_rules=and_rules,
        or_rules=or_rules,
    )


WORKLOADS = {w.name: w for w in (Strings(), Sat(), Spn(), Cli())}
