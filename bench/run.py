"""aog benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload strings --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the engine is imported from ./src.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced pass.
Lines before it are a human-readable report and the run's stamp.  --out
appends the full record to a JSON-lines file that bench/compare.py reads;
--spans writes the traced spans as JSON.

An op is the unit of work of a workload (see workloads.py).  The timed
phase repeats whole passes over the workload's ops: as many as fit in
--seconds at the time one pass takes on the reference machine, so a run
makes the same ops on every commit and its tail percentile stays fixed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from harness import SpeedProbe, Tracer, count_domain_calls, percentile, tail_percentile
from inputs import fingerprint
from layers import EXACT, METRICS, PARSE_SPANS, REFERENCE_SPANS, layer_metrics
from workloads import WORKLOADS, Mismatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# times set-up is repeated in a --trace 0 run; setup_s is their median
SETUP_REPEATS = 11
# a run stops starting passes after this many times --seconds
OVERRUN = 4

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)


def fresh_aog():
    """Import aog from ./src, dropping any copy imported before."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "aog" or m.startswith("aog.")]:
        del sys.modules[name]
    aog = importlib.import_module("aog")
    if not Path(aog.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"aog was imported from {aog.__file__}, not from {SRC}")
    return aog


class Book:
    """Checks every op against its reference and counts failures.

    A result is checked in full the first time its op is seen and in every
    traced pass; in later untraced passes it must equal the first result.
    """

    def __init__(self, workload) -> None:
        self.w = workload
        self.first: dict = {}
        self.refs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what

    def record(self, state, op, result, error, t) -> None:
        self.attempted += 1
        if error is not None:
            self.fail(f"{op!r} raised {''.join(traceback.format_exception_only(error)).strip()}")
            return
        try:
            signature = self.w.signature(result)
            if t is not None:
                ref = self.w.reference(state, op, t)
                if op in self.refs and ref != self.refs[op]:
                    raise Mismatch("reference differs between passes")
                self.w.check(state, op, result, ref)
            elif op not in self.first:
                ref = self.refs[op] = self.w.reference(state, op, None)
                self.w.check(state, op, result, ref)
            if op not in self.first:
                self.first[op] = signature
            elif signature != self.first[op]:
                raise Mismatch("result differs from the first pass")
        except Exception as exc:  # a failed check is a failed op, not a crash
            self.fail(f"{op!r}: {type(exc).__name__}: {exc}")


def run_pass(w, state, book: Book, t: Tracer | None = None):
    """Run every op once; returns the (start, end) time of each op."""
    spans = []
    for op in state.ops:
        if t is not None:
            t.op = repr(op)
        started = time.perf_counter()
        try:
            result, error = w.run(state, op, t), None
        except Exception as exc:  # counted as a failed op
            result, error = None, exc
        spans.append((started, time.perf_counter()))
        book.record(state, op, result, error, t)
    return spans


def measure(w, seed: int, seconds: float, trace: bool, workdir: Path, probe: SpeedProbe,
            short: bool = False, passes: int | None = None) -> dict:
    """Set up and run one workload under a running probe.

    Every time is kept unscaled and scaled to the probe's reference speed.
    """
    inp = w.inputs(seed, short)
    book = Book(w)
    if passes is None:
        # a traced run spends about four pass times per pass it traces: an
        # untraced pass, the traced one, the timed references and the
        # counting repeat of the parses
        passes = max(1, math.floor(seconds / (w.pass_seconds * (4 if trace else 1))))
    out = {"fingerprint": fingerprint(inp), "book": book, "probe": probe}
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        started = time.perf_counter()
        aog = fresh_aog()
        state = w.setup(aog, inp, None, workdir)
        setups.append((started, time.perf_counter()))
    out["setup_s"] = statistics.median(probe.scaled(*span) for span in setups)
    out["raw_setup_s"] = statistics.median(probe.busy(*span) for span in setups)
    # set-up objects stay alive all run: keep them out of every collection,
    # so an op's collector work follows what it allocates
    gc.collect()
    gc.freeze()
    try:
        if trace:
            out.update(traced_passes(w, state, book, probe, inp, workdir, seconds, passes))
        else:
            out.update(timed_passes(w, state, book, probe, seconds, passes))
    finally:
        gc.unfreeze()
    return out


def timed_passes(w, state, book: Book, probe: SpeedProbe, seconds: float, passes: int) -> dict:
    deadline = time.perf_counter() + OVERRUN * seconds
    spans = []
    done = 0
    while done < passes and (done == 0 or time.perf_counter() < deadline):
        spans += run_pass(w, state, book)
        done += 1
    # every pass runs the same ops in the same order: an op's latency is its
    # median over passes; each single run is kept for op_tail_ms too
    n = len(state.ops)
    out = {"passes": done}
    for key, timing in (("", probe.scaled), ("raw_", probe.busy)):
        runs = [timing(*span) for span in spans]
        out[key + "op_medians"] = [statistics.median(runs[i::n]) for i in range(n)]
        out[key + "op_runs"] = runs
    return out


def traced_passes(w, state, book: Book, probe: SpeedProbe, inp: dict, workdir: Path,
                  seconds: float, passes: int) -> dict:
    """Alternate untraced and traced passes; per-layer metrics of each traced one."""
    deadline = time.perf_counter() + OVERRUN * seconds
    setup_tracer = Tracer()
    tstate = w.setup(state.aog, inp, setup_tracer, workdir)
    per_pass: list[dict] = []
    tracers = []
    while len(per_pass) < passes and (not per_pass or time.perf_counter() < deadline):
        untraced_s = sum(probe.scaled(*span) for span in run_pass(w, state, book))
        tracer = Tracer()
        traced_s = sum(probe.scaled(*span) for span in run_pass(w, tstate, book, tracer))
        counts = count_domain_calls(state.aog, tracer.parses)
        tracer.parses.clear()
        domain = (counts.relation_calls, counts.relation_accepts, counts.function_calls)
        per_pass.append(layer_metrics(setup_tracer, tracer, probe, domain, untraced_s, traced_s))
        tracers.append(tracer)
    for name in EXACT:
        values = {m[name] for m in per_pass}
        if len(values) > 1:
            book.fail(f"{name} differs between traced passes: {sorted(values)}")
    return {
        "passes": len(per_pass),
        "per_pass": per_pass,
        "layers": {name: statistics.median(m[name] for m in per_pass) for name, _, _ in METRICS},
        "spans": setup_tracer.records() + [r for t in tracers for r in t.records()],
    }


@contextlib.contextmanager
def scratch_dir(label: str):
    """A fresh directory under .bench_work in the checkout, removed after."""
    path = ROOT / ".bench_work" / f"{label}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path)
        try:
            path.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--spans", help="write the traced spans to this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "aog" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC / 'aog'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    with scratch_dir(w.name) as workdir, SpeedProbe() as probe:
        run = measure(w, args.seed, args.seconds, bool(args.trace), workdir, probe)

    book = run["book"]
    probe = run["probe"]
    stamp = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "fingerprint": run["fingerprint"],
        "passes": run["passes"],
        "ops_attempted": book.attempted,
        "probe_ms": {
            "min": min(probe.values) * 1e3,
            "median": statistics.median(probe.values) * 1e3,
            "max": max(probe.values) * 1e3,
        },
    }
    lines = [f"aog benchmark: workload {w.name}, seed {args.seed}, trace {args.trace}"]
    if not args.trace:
        passes = run["passes"]
        n_ops = len(run["op_medians"])
        n_runs = len(run["op_runs"])
        # op_tail_ms needs ten ops beyond its percentile: distinct ops (their
        # medians) where the workload has enough of them above the median,
        # else single op runs of all passes
        tail = tail_percentile(n_ops)
        tail_basis = "op_medians"
        if tail <= 50.0:
            tail, tail_basis = tail_percentile(n_runs), "op_runs"
        failed_frac = book.failed / book.attempted
        ok = book.attempted - book.failed

        def end_to_end(prefix: str) -> dict:
            medians = sorted(run[prefix + "op_medians"])
            return {
                "ops_per_s": ok / (sum(medians) * passes),
                "op_p50_ms": percentile(medians, 50.0) * 1e3,
                "op_tail_ms": percentile(sorted(run[prefix + tail_basis]), tail) * 1e3,
                "setup_s": run[prefix + "setup_s"],
            }

        values = end_to_end("")
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["ok_frac"] = 1.0 - failed_frac
        raw_values = end_to_end("raw_")
        units = dict(END_TO_END)
        stamp.update(timed_ops=n_runs, distinct_ops=n_ops, tail_percentile=tail,
                     tail_basis=tail_basis, raw=raw_values)
        lines.append(f"{'metric':<14} {'value':>14} {'unit':<5} {'unscaled':>14}")
        for name, unit in END_TO_END:
            note = f"{raw_values[name]:>14.6g}" if name in raw_values else " " * 14
            if name == "op_tail_ms":
                if tail_basis == "op_medians":
                    note += f"  p{tail:g} of {n_ops} ops, each its median of {passes} passes"
                else:
                    note += f"  p{tail:g} of {n_runs} op runs ({n_ops} ops x {passes} passes)"
            elif name == "ok_frac":
                note += f"  failed_frac {failed_frac:g}: {book.failed} of {book.attempted} ops"
            lines.append(f"{name:<14} {values[name]:>14.6g} {unit:<5} {note}")
        lines.append(
            f"times are scaled to a {probe.REF_S * 1e3:g} ms speed probe; "
            f"it took {stamp['probe_ms']['median']:.4g} ms (median) in this run"
        )
    else:
        values = run["layers"]
        units = {name: unit for name, unit, _ in METRICS}
        for name, unit, _ in METRICS:
            lines.append(f"{name:<36} {values[name]:>14.6g} {unit}")
        parse_s = sum(values[f"{n}_s"] for n in PARSE_SPANS)
        reference_s = sum(values[f"{n}_s"] for n in REFERENCE_SPANS)
        lines.append(f"ref_ratio base: parse {parse_s:.6g} s / reference {reference_s:.6g} s")
        if args.spans:
            Path(args.spans).write_text(json.dumps(run["spans"]))
    if book.first_failure:
        lines.append(f"first failure: {book.first_failure}")
    lines.append("stamp " + json.dumps(stamp, sort_keys=True))
    result = {
        "correct": book.failed == 0,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"stamp": stamp, "first_failure": book.first_failure, **result}) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
