"""Per-layer metrics of a traced pass.

The layers are the modules of src/aog.  A `*_s` metric is the busy seconds
of that layer's spans, summed over the traced set-up and one traced pass,
with `*_calls` the number of spans beside it.  Which end-to-end metric each
one is expected to move, on which workload, is written down in NOTES.md.
"""

from __future__ import annotations

# spans recorded around calls into aog, by layer
SPANS = (
    "parsing.build_table",
    "parsing.root_entries",
    "parsing.backtrack",
    "normalize.to_gcnf",
    "normalize.project_parse",
    "grammar.validate",
    "grammar.sample",
    "serialize.load",
    "serialize.dump",
    "cli.main",
    "scfg.convert",
    "sat.convert",
    "spn.convert",
    "scfg.cyk",
    "sat.brute_force",
    "spn.evaluate",
    "logic_export.emit",
)
PARSE_SPANS = ("parsing.build_table", "parsing.root_entries", "parsing.backtrack")
REFERENCE_SPANS = ("scfg.cyk", "sat.brute_force", "spn.evaluate")

# counts that must repeat exactly between traced passes of the same inputs
EXACT = (
    "parsing.entries",
    "parsing.c_max",
    "parsing.compositions",
    "normalize.gcnf_rules",
    "domains.relation_calls",
    "domains.function_calls",
)

# (name, unit, better) of every per-layer metric, in report order
METRICS = (
    [(f"{name}_s", "s", "lower") for name in SPANS]
    + [(f"{name}_calls", "count", "lower") for name in SPANS]
    + [
        ("parsing.entries", "count", "lower"),
        ("parsing.c_max", "count", "lower"),
        ("parsing.compositions", "count", "lower"),
        ("parsing.entries_per_s", "1/s", "higher"),
        ("domains.relation_calls", "count", "lower"),
        ("domains.relation_accept_ratio", "ratio", "higher"),
        ("domains.function_calls", "count", "lower"),
        ("normalize.gcnf_rules", "count", "lower"),
        ("cli.other_s", "s", "lower"),
        ("ref_ratio", "ratio", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)


def cli_other_seconds(spans, probe) -> float:
    """cli.main time not covered by the replayed layer calls of the same op."""
    main: dict[str, float] = {}
    replayed: dict[str, float] = {}
    for name, start, end, parent, op in spans:
        if parent is not None:
            continue
        bucket = main if name == "cli.main" else replayed
        bucket[op] = bucket.get(op, 0.0) + probe.scaled(start, end)
    return sum(seconds - replayed.get(op, 0.0) for op, seconds in main.items())


def layer_metrics(setup, traced, probe, domain_counts, untraced_s: float, traced_s: float) -> dict:
    """Metric values of one traced pass.

    setup and traced are Tracers of the traced set-up and pass, whose span
    times probe (a harness.SpeedProbe) scales; domain_counts is (relation
    calls, accepted, function calls) made during the pass; untraced_s and
    traced_s are the summed op times of an untraced pass and the traced one.
    """
    out: dict[str, float] = {}
    for name in SPANS:
        s0, c0 = setup.busy(name, probe)
        s1, c1 = traced.busy(name, probe)
        out[f"{name}_s"] = s0 + s1
        out[f"{name}_calls"] = c0 + c1
    counts = dict(setup.counts)
    for key, value in traced.counts.items():
        if key == "parsing.c_max":
            counts[key] = max(counts.get(key, 0), value)
        else:
            counts[key] = counts.get(key, 0) + value
    for key in ("parsing.entries", "parsing.c_max", "parsing.compositions", "normalize.gcnf_rules"):
        out[key] = counts.get(key, 0)
    build = out["parsing.build_table_s"]
    out["parsing.entries_per_s"] = out["parsing.entries"] / build if build else 0.0
    relation_calls, accepted, function_calls = domain_counts
    out["domains.relation_calls"] = relation_calls
    out["domains.relation_accept_ratio"] = accepted / relation_calls if relation_calls else 0.0
    out["domains.function_calls"] = function_calls
    out["cli.other_s"] = cli_other_seconds(traced.spans, probe)
    parse_s = sum(out[f"{name}_s"] for name in PARSE_SPANS)
    reference_s = sum(out[f"{name}_s"] for name in REFERENCE_SPANS)
    out["ref_ratio"] = parse_s / reference_s if reference_s else 0.0
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out
