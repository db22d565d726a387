"""Exact parsing.

build_table runs the bottom-up dynamic program over composition sizes,
seeded from single instances and combined pairwise through the And-rules
of a normal-form grammar.  Viterbi and marginal mode share that one loop
and differ only in how a new derivation score folds into a chart cell:
viterbi keeps the larger, marginal log-adds (semiring parsing, Goodman
1999).  enumerate_parses is a deliberately naive top-down enumerator over
general grammars that serves as an independent reference.

Chart layout.  Each cell is one flat tuple, its first field a log score:
scores[size][or_node][(param, mask)], bit i of mask standing for instance
i of the sample and size being mask.bit_count(); CompositionKey names a
cell by (or_node, param, mask).  Only cells a later step reads are stored:
below the top size n those of And-rule children, read by the combine step,
and at n the start's, read by root_entries.  No stored cell derives from
any other, so scores, trees and ties are the full chart's.  The stats also
count the compositions of cells not stored, each size's once its stratum
is final, so a parse holds its chart plus the mask set of one stratum.
A marginal cell is (score,); a viterbi cell also records how it got its score:

- (score, or rule, instance id) at size 1, an Or-rule over a terminal instance;
- (score, and rule, left key, right key, or rule) above, an Or-rule over an
  And-rule applied to two child cells, each named by its own (param, mask)
  key object of the chart: their nodes are the And-rule's children, their
  sizes their masks' popcounts, so backtrack finds each in one lookup.

Tie rule: when two derivations of a viterbi cell score the same, the
smaller cell wins, compared past the score as (or rule, instance id) at size 1
and above as (and rule, (size, node, param_order_key(param), mask) of the left
child, the same of the right child, or rule).  One And-rule fixes both
child nodes, so back_precedes compares sizes, params and masks, building
param_order_keys only for differing params after tied fields.

Compiled form.  compile_grammar checks the normal form once and resolves
what every parse of the grammar needs: the kept Or-rules by child with
their log probs, the And-rules grouped by (left child, right child) pair
with their relation and function callables, per pair an equality join key
where the domain declares one (see domains.py), and per terminal the pairs
a size-1 cell over it is a child of.  Grammar.compiled caches it on the
grammar instance, so a grammar parsed many times resolves each relation
and function once.  Seeding writes size-1 cells without add, as each has
one derivation unless two Or-rules share its head and terminal: add folds it.

Combine step.  For a split of size i into j + (i - j), the step takes only
the pairs whose left child has cells of size j and whose right child has
cells of size i - j, in the order of the pairs' first use in and_rules.
A keyed pair pairs each left cell with the right cells of the same key.
Lower strata are final, so each key is computed once per cell and pair:
the right cells go into a bucket per key once per (right size, pair), and
the left cells' keys are listed once per (left size, pair).  A keyless
pair tries every right cell.  The relation is still called on each
candidate, and a key never drops a pair the relation accepts, so the
derivations are those of trying every pair.  Buckets and key lists keep
the chart's insertion order, so each cell receives its derivations in the
same order as when every left x right pair is tried: viterbi ties (whose
rule does not depend on order anyway) and the floating-point log_add sums
of marginal cells stay bit-identical.  stats.pair_tests counts the
candidates examined.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import time
from dataclasses import dataclass
from typing import Any, NamedTuple

from .domains import param_order_key
from .errors import BudgetExceeded, DepthExceeded, MissingEntry, NotInNormalForm
from .grammar import DataSample, Grammar, NodeKind, ParseTree, TreeNode
from .normalize import gcnf_violations

NEG_INF = float("-inf")


def log_add(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


@dataclass(frozen=True, slots=True)
class CompositionKey:
    """A chart cell: bit i of mask is instance i of the sample; its size is mask.bit_count()."""

    or_node: str
    param: Any
    mask: int


class RootEntry(NamedTuple):
    """A root cell's score as root_entries reports it."""

    score: float


@dataclass
class ParserBudget:
    max_entries: int = 10_000_000
    max_seconds: float | None = None  # None or inf: no time limit

    def __post_init__(self) -> None:
        if type(self.max_entries) is not int or self.max_entries < 0:
            raise ValueError(f"max_entries is {self.max_entries!r}; an int, 0 or more")
        # monotonic() >= nan is never true, so a nan limit would never fire
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise ValueError(f"max_seconds is {self.max_seconds}; 0 or more, None: no limit")


@dataclass
class CompositionStats:
    """Size of the chart, per composition size, and the work of filling it."""

    sample_size: int
    per_size_compositions: list[int]  # sets derived, stored or not, per size, counted once final
    per_size_entries: list[int]  # stored chart cells, index = size
    pair_tests: int  # candidate (left, right) cell pairs the combine loop examined
    elapsed_seconds: float

    @property
    def table_entries(self) -> int:
        return sum(self.per_size_entries)

    @property
    def total_compositions(self) -> int:
        return sum(self.per_size_compositions)

    @property
    def c_max(self) -> int:
        return max(self.per_size_compositions, default=0)

    @property
    def worst_case_compositions(self) -> int:
        n = self.sample_size
        return math.comb(n, n // 2) if n else 0


@dataclass(frozen=True)
class CompiledGrammar:
    """What build_table needs of a normal-form grammar, resolved once.

    or_by_child[top], top being whether a stratum is size n, maps each node
    under some Or-rule to the Or-rules over it whose head is read there
    (module docstring), each (rule index, log prob, head).  pairs lists the
    child pairs of the And-rules in order of first use in and_rules, each
    (left child, right child, join, rules): join is the pair's (left key,
    right key) when all its rules share one relation that declares a join,
    else None; rules[top] are (And-rule index, relation, function,
    or_by_child[top] of the head or None) in and_rules order.  by_left and
    by_right map a node to the positions in pairs of the pairs with that
    left or right child, and seeds[right] a terminal to the sorted positions
    of the pairs whose left (right) child heads an or_by_child[0] rule over it.
    """

    or_by_child: tuple[dict[str, list[tuple[int, float, str]]], ...]
    pairs: list[tuple[str, str, Any, tuple]]
    by_left: dict[str, list[int]]
    by_right: dict[str, list[int]]
    seeds: tuple[dict[str, tuple[int, ...]], ...]


def positions_of(by_node: dict[str, list[int]], nodes) -> set[int]:
    """The positions in pairs of the pairs with a child in nodes, by_node[node] listing them."""
    return set(itertools.chain.from_iterable(map(by_node.get, nodes, itertools.repeat(()))))


def compile_grammar(g: Grammar) -> CompiledGrammar:
    """The compiled form of a normal-form grammar; Grammar.compiled caches it."""
    violations = gcnf_violations(g)
    if violations:
        raise NotInNormalForm("; ".join(violations))
    read = {child for rule in g.and_rules for child in rule.children}
    below: dict[str, list[tuple[int, float, str]]] = {}
    at_top: dict[str, list[tuple[int, float, str]]] = {}
    for idx, rule in enumerate(g.or_rules):
        entry = (idx, math.log(rule.prob), rule.head)
        kept = below.setdefault(rule.child, [])
        if rule.head in read:
            kept.append(entry)
        kept = at_top.setdefault(rule.child, [])
        if rule.head == g.start:
            kept.append(entry)
    by_pair: dict[tuple[str, ...], tuple[list, list]] = {}
    for idx, rule in enumerate(g.and_rules):
        rel = g.domain.relation(rule.relation, 2)
        fn = g.domain.function(rule.function, 2)
        rules = by_pair.setdefault(rule.children, ([], []))
        rules[0].append((idx, rel, fn, below.get(rule.head)))
        rules[1].append((idx, rel, fn, at_top.get(rule.head)))
    pairs = []
    by_left: dict[str, list[int]] = {}
    by_right: dict[str, list[int]] = {}
    for (left, right), rules in by_pair.items():
        relation = g.and_rules[rules[0][0][0]].relation
        shared = all(g.and_rules[rule[0]].relation == relation for rule in rules[0])
        join = g.domain.join(relation) if shared else None
        by_left.setdefault(left, []).append(len(pairs))
        by_right.setdefault(right, []).append(len(pairs))
        pairs.append((left, right, join, rules))
    seeds = tuple(
        {t: tuple(sorted(positions_of(by, [h for *_, h in below.get(t, ())]))) for t in g.terminals}
        for by in (by_left, by_right)
    )
    return CompiledGrammar((below, at_top), pairs, by_left, by_right, seeds)


@dataclass
class CompositionTable:
    """A filled chart; the layout is described in the module docstring."""

    grammar: Grammar
    sample: DataSample
    mode: str
    scores: list[dict[str, dict[tuple, tuple]]]
    stats: CompositionStats

    def _cell(self, key: CompositionKey) -> tuple:
        """A stored cell; MissingEntry for a key that names none."""
        if type(key.mask) is int and 0 < key.mask < 1 << len(self.sample):  # bits: instances
            with contextlib.suppress(KeyError, TypeError):  # TypeError: an unhashable param
                return self.scores[key.mask.bit_count()][key.or_node][key.param, key.mask]
        raise MissingEntry(f"no chart entry for {key}")

    def lookup(self, key: CompositionKey) -> float:
        """The score of a stored cell; MissingEntry when the chart has none,
        as for a cell no later step reads (module docstring)."""
        return self._cell(key)[0]

    def root_entries(self) -> list[tuple[CompositionKey, RootEntry]]:
        out = [
            (CompositionKey(self.grammar.start, param, mask), RootEntry(cell[0]))
            for (param, mask), cell in self.scores[-1].get(self.grammar.start, {}).items()
        ]
        return sorted(out, key=lambda kv: param_order_key(kv[0].param))


@dataclass
class ParseResult:
    mode: str
    score: float  # log probability; -inf when the sample has no parse
    tree: ParseTree | None
    stats: CompositionStats


def back_precedes(cell: tuple, other: tuple) -> bool:
    """Whether viterbi cell wins an exact score tie against other by the tie
    rule's order (module docstring), compared lazily past the scores; a
    child's param and mask are read from its key."""
    if len(cell) == 3 or cell[1] != other[1]:
        return cell[1:] < other[1:]  # size 1, or the And-rules differ
    for (param, mask), (oparam, omask) in ((cell[2], other[2]), (cell[3], other[3])):
        if mask.bit_count() != omask.bit_count():
            return mask.bit_count() < omask.bit_count()
        if param != oparam:
            return param_order_key(param) < param_order_key(oparam)
        if mask != omask:
            return mask < omask
    return cell[4] < other[4]


def build_table(
    g: Grammar,
    x: DataSample,
    mode: str = "viterbi",
    budget: ParserBudget | None = None,
) -> CompositionTable:
    """Fill the composition chart bottom-up over sub-sample sizes."""
    if mode not in ("viterbi", "marginal"):
        raise ValueError(f"unknown parse mode {mode!r}")
    compiled = g.compiled  # NotInNormalForm, or a rule that does not resolve
    if len(x) == 0:
        raise ValueError("cannot parse an empty sample")
    terminals = dict.fromkeys(inst.terminal for inst in x.instances)
    for terminal in terminals:
        if terminal not in g.terminals:
            raise ValueError(f"sample uses unknown terminal {terminal!r}")
    budget = budget or ParserBudget()
    started = time.monotonic()
    deadline = None if budget.max_seconds is None else started + budget.max_seconds

    n = len(x)
    scores: list[dict[str, dict[tuple, tuple]]] = [{} for _ in range(n + 1)]
    max_entries = budget.max_entries
    viterbi = mode == "viterbi"

    def add(stratum: dict, head: str, ikey: tuple, cell: tuple) -> None:
        # the one place a chart cell is created or updated; ikey is (param, mask)
        nonlocal entry_count
        # a node's dict holds a cell from its creation on, so it is truthy
        cells = stratum.get(head) or stratum.setdefault(head, {})
        cur = cells.get(ikey)
        if cur is None:
            entry_count += 1
            if entry_count > max_entries:
                raise BudgetExceeded(f"chart exceeded {max_entries} entries")
            cells[ikey] = cell
        elif not viterbi:
            cells[ikey] = (log_add(cur[0], cell[0]),)
        elif cell[0] > cur[0] or (cell[0] == cur[0] and back_precedes(cell, cur)):
            cells[ikey] = cell

    seeded = scores[1]
    for index, inst in enumerate(x.instances):
        ikey = (inst.param, 1 << index)
        for or_idx, logp, head in compiled.or_by_child[n == 1].get(inst.terminal, ()):
            cells = seeded.get(head) or seeded.setdefault(head, {})
            cell = (logp, or_idx, inst.instance_id) if viterbi else (logp,)
            if cells.setdefault(ikey, cell) is not cell:  # a second Or-rule over head and terminal
                add(seeded, head, ikey, cell)
    entry_count = sum(map(len, seeded.values()))
    if entry_count > max_entries:
        raise BudgetExceeded(f"chart exceeded {max_entries} entries")
    if deadline is not None and time.monotonic() >= deadline:  # also on one instance
        raise BudgetExceeded(f"parse exceeded {budget.max_seconds} seconds")

    # per size, the instance sets derived, stored or not (size 1: instances under an Or-rule)
    compositions = [0] * (n + 1)
    compositions[1] = sum(inst.terminal in compiled.or_by_child[0] for inst in x.instances)
    pair_tests = 0
    # size -> positions of the child pairs whose left (right) child has
    # cells of that size, listed once the stratum is final (size 1: compiled)
    with_left, with_right = ([set(), set().union(*map(s.get, terminals))] for s in compiled.seeds)
    # (size, pair position) -> key -> the right cells of that key, and the
    # join keys of the left cells in chart order
    buckets: dict[tuple[int, int], dict[Any, list]] = {}
    left_keys: dict[tuple[int, int], list] = {}
    for i in range(2, n + 1):
        if deadline is not None and time.monotonic() >= deadline:  # also bounds the previous count
            raise BudgetExceeded(f"parse exceeded {budget.max_seconds} seconds")
        if i > 2:
            with_left.append(positions_of(compiled.by_left, scores[i - 1]))
            with_right.append(positions_of(compiled.by_right, scores[i - 1]))
        stratum = scores[i]
        comps: set[int] = set()  # counted once stratum i is final, then dropped
        for j in range(1, i):
            left_nodes, right_nodes = scores[j], scores[i - j]
            if not left_nodes or not right_nodes:
                continue
            for pos in sorted(with_left[j] & with_right[i - j]):
                left_child, right_child, join, by_size = compiled.pairs[pos]
                rules = by_size[i == n]
                lefts = left_nodes[left_child]
                rights = right_nodes[right_child]
                if join is not None:
                    join_left, join_right = join
                    bucket = buckets.get((i - j, pos))
                    if bucket is None:
                        bucket = buckets[i - j, pos] = {}
                        for cell in rights.items():
                            bucket.setdefault(join_right(cell[0][0]), []).append(cell)
                    keys = left_keys.get((j, pos))
                    if keys is None:
                        keys = left_keys[j, pos] = [join_left(lparam) for lparam, _ in lefts]
                    next_key = iter(keys).__next__
                for lkey, lcell in lefts.items():
                    if deadline is not None and time.monotonic() >= deadline:
                        raise BudgetExceeded(f"parse exceeded {budget.max_seconds} seconds")
                    if join is None:
                        candidates = rights.items()
                    else:
                        candidates = bucket.get(next_key(), ())
                    pair_tests += len(candidates)
                    (lparam, lmask), lscore = lkey, lcell[0]
                    for rkey, rcell in candidates:
                        rparam, rmask = rkey
                        if lmask & rmask:
                            continue
                        pair_score = lscore + rcell[0]
                        umask = lmask | rmask
                        for and_idx, rel, fn, or_rules in rules:
                            if not rel(lparam, rparam):
                                continue
                            if not or_rules:  # no kept cell over the head
                                if or_rules is not None:
                                    comps.add(umask)
                                continue
                            ikey = (fn(lparam, rparam), umask)  # shared by the heads it feeds
                            for or_idx, logp, or_head in or_rules:
                                if viterbi:
                                    cell = (logp + pair_score, and_idx, lkey, rkey, or_idx)
                                else:
                                    cell = (logp + pair_score,)
                                add(stratum, or_head, ikey, cell)
        for cells in stratum.values():
            for _, mask in cells:
                comps.add(mask)
        compositions[i] = len(comps)

    stats = CompositionStats(
        sample_size=n,
        per_size_compositions=compositions,
        per_size_entries=[sum(map(len, stratum.values())) for stratum in scores],
        pair_tests=pair_tests,
        elapsed_seconds=time.monotonic() - started,
    )
    return CompositionTable(g, x, mode, scores, stats)


def backtrack(table: CompositionTable, root: CompositionKey) -> ParseTree:
    """Reconstruct the derivation recorded at a chart entry (viterbi tables).

    Iterative, so the depth of the tree is not bounded by the recursion
    limit: cells are listed parents first as ((param, mask), cell), then
    built in reverse.  The cells of one tree cover distinct instance
    sets, so a built subtree is found by its mask.
    """
    if table.mode != "viterbi":
        raise ValueError("backtrack needs a viterbi table")
    g = table.grammar
    scores = table.scores
    order = [((root.param, root.mask), table._cell(root))]  # MissingEntry for unknown keys
    for _, cell in order:  # grows while it is walked
        if len(cell) == 5:
            left, right = g.and_rules[cell[1]].children
            for node, key in ((left, cell[2]), (right, cell[3])):
                order.append((key, scores[key[1].bit_count()][node][key]))
    built: dict[int, TreeNode] = {}
    for (param, mask), cell in reversed(order):
        if len(cell) == 3:
            _, or_idx, instance = cell
            inst = table.sample.by_id[instance]
            child = TreeNode(inst.terminal, inst.param, instance=instance)
        else:
            _, and_idx, (_, lmask), (_, rmask), or_idx = cell
            children = (built.pop(lmask), built.pop(rmask))
            child = TreeNode(g.and_rules[and_idx].head, param, children)
        built[mask] = TreeNode(g.or_rules[or_idx].head, param, (child,))
    return ParseTree(built[root.mask], order[0][1][0])  # the root cell's score


def parse(
    g: Grammar,
    x: DataSample,
    mode: str = "viterbi",
    budget: ParserBudget | None = None,
) -> ParseResult:
    """Parse a sample: viterbi returns the best tree, marginal the total mass."""
    table = build_table(g, x, mode, budget)
    roots = table.root_entries()
    if not roots:
        return ParseResult(mode, NEG_INF, None, table.stats)
    if mode == "marginal":
        score = NEG_INF
        for _, entry in roots:
            score = log_add(score, entry.score)
        return ParseResult(mode, score, None, table.stats)
    best_key, best = max(roots, key=lambda kv: kv[1].score)
    return ParseResult(mode, best.score, backtrack(table, best_key), table.stats)


# -------------------------------------------------------------------- reference


def enumerate_parses(g: Grammar, x: DataSample) -> list[tuple[ParseTree, float]]:
    """Enumerate every parse tree of the sample by brute-force expansion.

    Works on any valid grammar, normal form or not.  Exponential in general;
    meant as an oracle for small inputs.  Recursion is bounded by threading
    the remaining instance budget through And splits, so recursive grammars
    terminate; a choice cycle that consumes nothing (an Or loop, infinitely
    many trees) raises DepthExceeded.
    """
    full = x.ids
    memo: dict[tuple[str, int], Any] = {}
    PENDING = object()

    def derive(node: str, budget: int) -> list[tuple[frozenset, Any, TreeNode, float]]:
        # all derivations rooted at node covering 1..budget disjoint instances
        if budget < 1:
            return []
        key = (node, budget)
        cached = memo.get(key)
        if cached is PENDING:
            raise DepthExceeded(f"choice cycle at {node!r} yields unboundedly many parses")
        if cached is not None:
            return cached
        memo[key] = PENDING
        kind = g.kind(node)
        if kind is NodeKind.TERMINAL:
            out = [
                (
                    frozenset((inst.instance_id,)),
                    inst.param,
                    TreeNode(node, inst.param, instance=inst.instance_id),
                    0.0,
                )
                for inst in x.instances
                if inst.terminal == node
            ]
        elif kind is NodeKind.OR:
            out = []
            for _, rule in g.or_rules_of.get(node, ()):
                logp = math.log(rule.prob)
                for ids, param, subtree, lp in derive(rule.child, budget):
                    out.append((ids, param, TreeNode(node, param, (subtree,)), lp + logp))
        else:
            rule = g.and_rule_of[node]
            n = len(rule.children)
            rel = g.domain.relation(rule.relation, n)
            fn = g.domain.function(rule.function, n)
            out = []
            if budget >= n:
                # each sibling keeps at least one instance for itself
                child_derivs = [derive(child, budget - n + 1) for child in rule.children]
                for combo in itertools.product(*child_derivs):
                    ids: frozenset = frozenset()
                    total = 0
                    for part_ids, _, _, _ in combo:
                        ids |= part_ids
                        total += len(part_ids)
                    if len(ids) != total or total > budget:
                        continue
                    params = tuple(part[1] for part in combo)
                    if not rel(*params):
                        continue
                    param = fn(*params)
                    lp = sum(part[3] for part in combo)
                    out.append(
                        (ids, param, TreeNode(node, param, tuple(p[2] for p in combo)), lp)
                    )
        memo[key] = out
        return out

    results = []
    for ids, _, tree, lp in derive(g.start, len(full)):
        if ids == full:
            results.append((ParseTree(tree, lp), lp))
    return results
