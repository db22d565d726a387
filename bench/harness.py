"""Tracing, counting and statistics shared by the benchmark workloads.

Nothing here patches aog.  Spans are recorded in the benchmark's own code,
around calls into public functions of aog; relation and function calls are
counted in an untimed repeat of each traced parse, on a grammar whose
DomainBinding factories wrap the originals.
"""

from __future__ import annotations

import bisect
import dataclasses
import gc
import math
import signal
import statistics
import time

NEG_INF = float("-inf")

# Candidate percentiles for op_tail_ms, highest first.
TAIL_GRID = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


class _Cell:
    __slots__ = ("score", "back")

    def __init__(self, score: float, back) -> None:
        self.score = score
        self.back = back


def _probe_work(size: int) -> dict:
    """A fixed miniature of a chart combine step: left x right entries keyed
    by (span, mask), overlap and relation tests, cells created or improved.
    It is the benchmark's own code, so no change to aog changes its speed."""

    def adjacent(left, right):
        return left[1] == right[0]

    lefts = {((i, i + 1 + i % 3), 1 << (i % 20)): _Cell(-1.0 * i, None) for i in range(size)}
    rights = {((j, j + 2), 1 << (j * 7 % 20)): _Cell(-0.5 * j, None) for j in range(size)}
    out: dict = {}
    for (lparam, lmask), left in lefts.items():
        for (rparam, rmask), right in rights.items():
            if lmask & rmask or not adjacent(lparam, rparam):
                continue
            key = ((lparam[0], rparam[1]), lmask | rmask)
            score = left.score + right.score
            cell = out.get(key)
            if cell is None:
                out[key] = _Cell(score, (lparam, rparam))
            elif score > cell.score:
                cell.score = score
                cell.back = (lparam, rparam)
    return out


class SpeedProbe:
    """How fast this machine runs Python, sampled all through a run.

    On a shared machine the speed of the same Python code drifts by a
    quarter or more within tens of seconds.  Used as a context manager, the
    probe times `_probe_work` every EVERY_S seconds from a SIGALRM handler,
    so samples land inside long ops as well as between them.  `scaled`
    turns the time between two instants into the time the same work would
    have taken at the speed where the probe takes REF_S, after taking out
    the time the probe itself ran in between.
    """

    SIZE = 72
    REF_S = 0.001
    EVERY_S = 0.1
    WINDOW_S = 0.3

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []
        self.spent = [0.0]  # spent[i]: time of the first i samples

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self, *_) -> None:
        # no collection inside a sample: it would clear the engine's garbage,
        # and its time would be taken out of the op along with the sample's
        enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        _probe_work(self.SIZE)
        ended = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(started)
        self.ends.append(ended)
        self.values.append(ended - started)
        self.spent.append(self.spent[-1] + ended - started)

    def busy(self, start: float, end: float) -> float:
        """end - start, less the time of the samples taken in between."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        return end - start - (self.spent[last] - self.spent[first] if last > first else 0.0)

    def scaled(self, start: float, end: float) -> float:
        """busy(start, end) at the reference speed, from the median of the
        samples near [start, end]."""
        lo = bisect.bisect_left(self.ends, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + self.WINDOW_S)
        if lo == hi:  # none near: take the sample on either side
            lo, hi = max(0, lo - 1), min(len(self.values), hi + 1)
        return self.busy(start, end) * self.REF_S / statistics.median(self.values[lo:hi])


class Tracer:
    """In-memory spans [name, start, end, parent span, op id] plus counts.

    A span is appended to `spans` when it ends; `records` numbers them and
    turns each parent into its index.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[list] = []
        self.op = "setup"
        self.counts: dict[str, float] = {}
        self.parses: list[tuple] = []  # (grammar, sample, mode) of each replayed parse

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, time.perf_counter(), None, None, self.op]
        if self.open:
            span[3] = self.open[-1]
        self.open.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.open.pop()
            self.spans.append(span)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def busy(self, name: str, probe: SpeedProbe) -> tuple[float, int]:
        """Summed speed-scaled duration and number of the spans with this name."""
        total = 0.0
        calls = 0
        for span in self.spans:
            if span[0] == name:
                total += probe.scaled(span[1], span[2])
                calls += 1
        return total, calls

    def records(self) -> list[dict]:
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": None if parent is None else index[id(parent)],
                "op": op,
            }
            for name, start, end, parent, op in self.spans
        ]


def call(t: Tracer | None, name: str, fn, *args, **kwargs):
    """fn(*args), inside a span named `name` when tracing."""
    if t is None:
        return fn(*args, **kwargs)
    return t.call(name, fn, *args, **kwargs)


class DomainCounts:
    __slots__ = ("relation_calls", "relation_accepts", "function_calls")

    def __init__(self) -> None:
        self.relation_calls = 0
        self.relation_accepts = 0
        self.function_calls = 0


def counting_grammar(g, counts: DomainCounts):
    """Copy of g whose domain counts every relation and function call the
    parser resolves through it.  Only the outer binding is wrapped, so a
    tuple-domain relation that delegates to its base counts once."""
    domain = g.domain

    def wrap_relation(factory):
        def make(config, arity):
            inner = factory(config, arity)

            def relation(*params):
                counts.relation_calls += 1
                if inner(*params):
                    counts.relation_accepts += 1
                    return True
                return False

            return relation

        return make

    def wrap_function(factory):
        def make(config, arity):
            inner = factory(config, arity)

            def function(*params):
                counts.function_calls += 1
                return inner(*params)

            return function

        return make

    counted = dataclasses.replace(
        domain,
        relations={key: wrap_relation(f) for key, f in domain.relations.items()},
        functions={key: wrap_function(f) for key, f in domain.functions.items()},
    )
    return dataclasses.replace(g, domain=counted)


def count_domain_calls(aog, parses) -> DomainCounts:
    """Relation and function calls of build_table over (grammar, sample,
    mode) parses, on counting copies of the grammars.  Run outside every
    span, so that no timed parse pays for the counting wrappers."""
    counts = DomainCounts()
    for g, x, mode in parses:
        aog.build_table(counting_grammar(g, counts), x, mode)
    return counts


def normalize(aog, t: Tracer | None, g):
    """to_gcnf, counting the rules of the result when tracing."""
    gcnf, node_map = call(t, "normalize.to_gcnf", aog.to_gcnf, g)
    if t is not None:
        t.add("normalize.gcnf_rules", len(gcnf.and_rules) + len(gcnf.or_rules))
    return gcnf, node_map


def run_parse(aog, t: Tracer | None, g, x, mode: str):
    """(score, tree) of aog.parse; when tracing, parse is replayed as
    build_table, root_entries and backtrack, each in its own span, and the
    parse is listed in t.parses for count_domain_calls."""
    if t is None:
        result = aog.parse(g, x, mode)
        return result.score, result.tree
    t.parses.append((g, x, mode))
    table = t.call("parsing.build_table", aog.build_table, g, x, mode)
    stats = table.stats
    t.add("parsing.entries", stats.table_entries)
    t.add("parsing.compositions", stats.total_compositions)
    t.peak("parsing.c_max", stats.c_max)
    roots = t.call("parsing.root_entries", table.root_entries)
    if not roots:
        return NEG_INF, None
    if mode == "marginal":
        score = NEG_INF
        for _, entry in roots:
            score = aog.parsing.log_add(score, entry.score)
        return score, None
    best_key, best_entry = roots[0]
    for key, entry in roots[1:]:
        if entry.score > best_entry.score:
            best_key, best_entry = key, entry
    tree = t.call("parsing.backtrack", aog.backtrack, table, best_key)
    return best_entry.score, tree


def tree_signature(tree):
    """Hashable snapshot of a parse tree, walked without recursion."""
    if tree is None:
        return None
    nodes = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        nodes.append((node.node, node.param, node.instance, len(node.children)))
        stack.extend(reversed(node.children))
    return tree.log_prob, tuple(nodes)


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    # also true for a matched pair of -inf scores
    return a == b or math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not sorted_values:
        return float("nan")
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n_ops: int) -> float:
    """Highest grid percentile with at least ten of n_ops beyond it."""
    for p in TAIL_GRID:
        if n_ops * (100.0 - p) / 100.0 >= 10:
            return p
    return TAIL_GRID[-1]
