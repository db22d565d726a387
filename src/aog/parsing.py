"""Exact parsing.

build_table runs the bottom-up dynamic program over composition sizes,
seeded from single instances and combined pairwise through the And-rules
of a normal-form grammar.  Viterbi and marginal mode share that one loop
and differ only in how a new derivation score folds into a chart cell:
viterbi keeps the larger, marginal log-adds (semiring parsing, Goodman
1999).  enumerate_parses is a deliberately naive top-down enumerator over
general grammars that serves as an independent reference.

Chart layout.  Each cell is a bare float, its log score:
scores[size][or_node][(param, mask)], bit i of mask standing for instance
i of the sample and size being mask.bit_count(); CompositionKey names a
cell by (or_node, param, mask).  Only cells a later step reads are stored:
below the top size n those of And-rule children, read by the combine step,
and at n the start's, read by root_entries.  No stored cell derives from
any other, so scores, trees and ties are the full chart's.  The stats also
count the compositions of cells not stored, but not while the chart fills:
count_compositions takes them from the finished chart when they are first
read (Counting), so a parse holds only its chart.
The chart keeps no backpointers: CompositionTable.derivation finds how a
viterbi cell got its score again, top-down, from the stored scores of its
children, with the combine step's own float expression, so the winner's
score is bit-identical to the cell's.  It names the winner as one flat tuple:

- (score, or rule, instance id) at size 1, an Or-rule over a terminal instance;
- (score, and rule, left key, right key, or rule) above, an Or-rule over an
  And-rule applied to two child cells, each named by its (param, mask) key:
  their nodes are the And-rule's children, their sizes their masks' popcounts.

Tie rule: of the derivations of a viterbi cell that score the same, the one
with the smallest tie_key wins, a total order on them past the score: (or
rule, instance id) at size 1, and above (and rule, (size,
param_order_key(param), mask) of the left child, the same of the right
child, or rule).  derivation visits the candidates by And-rule, then left
size, and stops at the first such group that holds the cell's score, as
that group holds the winner.  Within a group the right cells inside the
cell's mask are hashed by the left mask each leaves, so a split costs each
of its cells once; a pair found is tested by score, function value (that
tells tied pack permutations apart), then relation.  The fill calls a
function only on pairs its relation accepts, and a join key never drops
one, so a DomainError from the function there means no match.

Compiled form.  compile_grammar checks the normal form once and resolves
what every parse of the grammar needs (CompiledGrammar); Grammar.compiled
caches it on the grammar, so a grammar parsed many times resolves each
callable once.  Seeding writes size-1 cells directly, folding in the
score of a second Or-rule over the same head and terminal.

Combine step.  For a split of size i into j + (i - j), the step takes only the
pairs whose left child has cells of size j and whose right child has cells of
size i - j: the AND of the two strata's int masks of pairs (CompiledGrammar),
walked lowest bit first, which is the order of the pairs' first use in
and_rules; bit_positions caches the walk of a mask.  A keyed pair
pairs each left cell with the right cells of the same key, each key computed
once per cell and pair, as lower strata are final: the right cells go into a
bucket per key per (right size, pair), the left cells' keys into a list per
(left size, pair).  A left cell whose key has no bucket is passed over.  A
keyless pair tries every right cell.  A key never drops a pair its relation
accepts, and the relation is called on each candidate unless the domain marks
it as decided (domains): by the pair's join (adjacent, meets, equals, offset),
or by no join (true); its compiled record then holds None.  Buckets and key
lists keep the chart's insertion order, so each cell receives its derivations
in the same order as when every left x right pair is tried, and the log_add
sums of marginal cells stay bit-identical.  A viterbi cell is rewritten only
when a derivation scores strictly higher, so a tie or a NaN keeps the stored
score, as max does.  stats.pair_tests counts the candidates examined, and
per_size_entries each size's cells as they are made; a node's dict is made
with its first cell.  A rule whose head keeps no cell at a size is skipped,
and a pair with no other rules there only adds its candidates to pair_tests.

Goal-directed fill.  parse fills the chart goal-directed, a bottom-up
deductive parser with top-down filtering (Shieber, Schabes & Pereira 1995)
by outside sets (Klein & Manning 2003); build_table fills the full chart.
compile_grammar takes two fixpoints over the normal-form rules, as int
bitsets of terminal types: inside(X), the types X derives, and outside(X),
the types X's contexts derive (empty at the start; an Or-rule H -> A over
A -> (L, R) adds outside(H) | inside(R) to L, and symmetrically to R).  A
cell (X, M) is dead when an instance whose type is not in outside(X) lies
outside M: no complete parse can use it.  Every child of a cell that is not
dead is not dead either, so a kept cell receives the same derivations in the
same order as in the full chart, and its score, ties and log_add sums are
bit-identical.  The check runs only where a new cell above size 1 is made,
for a head that some And-rule under it lets need a type that neither child
needs (CompiledGrammar.requiring); seeds and folds are never checked.  The
stats are the full chart's: the goal-directed chart's own when it skipped no
cell, else those of a full fill made when ParseResult.stats is first read,
with the same max_entries and the seconds the parse left of its limit.

Counting.  A size's compositions are the masks of its stored cells and the
unions lmask | rmask of the disjoint child pairs that the relation of a
count-only rule accepts, as rel(left param, right param): a rule whose
head has Or-rules but keeps no cell at that size (CompiledGrammar.pairs).
count_compositions walks each such pair's smaller side, swapping arguments
if need be, and takes a walked cell's candidates by its join key, calling
no decided relation, as the fill.  A size is done once it holds all C(n, i) sets.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from .domains import param_order_key
from .errors import BudgetExceeded, DepthExceeded, DomainError, MissingEntry, NotInNormalForm
from .grammar import DataSample, Grammar, NodeKind, ParseTree, TreeNode
from .normalize import gcnf_violations

NEG_INF = float("-inf")


def log_add(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
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
        seconds = self.max_seconds
        real = isinstance(seconds, numbers.Real) and type(seconds) is not bool
        if seconds is not None and not (real and seconds >= 0):
            raise ValueError(f"max_seconds is {seconds!r}; a number, 0 or more, None: no limit")


@dataclass
class CompositionStats:
    """Size of the chart, per composition size, and the work of filling it."""

    sample_size: int
    per_size_entries: list[int]  # stored chart cells, index = size
    pair_tests: int  # candidate (left, right) cell pairs the combine loop examined
    elapsed_seconds: float  # filling the chart; the compositions are counted later
    # count_compositions over the chart until they are first read, then its result
    compositions: Callable[[], list[int]] | list[int] = field(repr=False)

    @property
    def per_size_compositions(self) -> list[int]:
        """Instance sets derived, stored or not, per size; counted when first read."""
        if callable(self.compositions):
            self.compositions = self.compositions()
        return self.compositions

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
    (left child, right child, join, rules, counted): join is the pair's (left
    key, right key) when all its rules share one relation that declares a
    join, else None; rules[top] are the fill's records of its rules whose head
    keeps a cell, in and_rules order, each (relation, function, ((log prob,
    head), ...) of the head's or_by_child[top] rules), and counted[top] the
    relations of its count-only rules, whose head has Or-rules but keeps no
    cell; a relation is None where the domain decides it (module docstring).
    by_left and by_right map a node to an int mask of positions in pairs,
    bit p set when pairs[p] has that left or right child, and seeds[right]
    a terminal to the mask of the pairs whose left (right) child heads an
    or_by_child[0] rule over it; a stratum's mask is the OR of its nodes'.
    feeding maps an Or-node to the And-rules under its Or-rules, in and_rules
    order, each (And-rule index, left child, right child, relation, function,
    ((Or-rule index, log prob), ...) of its Or-rules over the And-node).
    requiring maps a terminal to the checked heads that need every instance
    of it (module docstring, Goal-directed fill); it is empty when no head is
    checked.
    """

    or_by_child: tuple[dict[str, list[tuple[int, float, str]]], ...]
    pairs: list[tuple[str, str, Any, tuple]]
    by_left: dict[str, int]
    by_right: dict[str, int]
    seeds: tuple[dict[str, int], ...]
    feeding: dict[str, list[tuple]]
    requiring: dict[str, tuple[str, ...]]


def positions_of(by_node: dict[str, int], nodes) -> int:
    """The mask of the pairs with a child in nodes, by_node[node] being its mask."""
    mask = 0
    for node in nodes:
        mask |= by_node.get(node, 0)
    return mask


@functools.lru_cache(maxsize=1024)
def bit_positions(mask: int) -> tuple[int, ...]:
    """mask's set bits, lowest first; cached, as a grammar's parses meet the same masks."""
    positions = []
    while mask:
        positions.append((mask & -mask).bit_length() - 1)  # the lowest set bit
        mask &= mask - 1
    return tuple(positions)


def compile_grammar(g: Grammar) -> CompiledGrammar:
    """The compiled form of a normal-form grammar; Grammar.compiled caches it."""
    violations = gcnf_violations(g)
    if violations:
        raise NotInNormalForm("; ".join(violations))
    read = {child for rule in g.and_rules for child in rule.children}
    below: dict[str, list[tuple[int, float, str]]] = {}
    at_top: dict[str, list[tuple[int, float, str]]] = {}
    over: dict[str, list[tuple[int, float, str]]] = {}
    for idx, rule in enumerate(g.or_rules):
        entry = (idx, math.log(rule.prob), rule.head)
        over.setdefault(rule.child, []).append(entry)
        kept = below.setdefault(rule.child, [])
        if rule.head in read:
            kept.append(entry)
        kept = at_top.setdefault(rule.child, [])
        if rule.head == g.start:
            kept.append(entry)
    by_pair: dict[tuple[str, ...], list[tuple]] = {}
    feeding: dict[str, list[tuple]] = {}
    for idx, rule in enumerate(g.and_rules):
        rel = g.domain.relation(rule.relation, 2)
        fn = g.domain.function(rule.function, 2)
        fed: dict[str, list[tuple[int, float]]] = {}
        for or_idx, logp, head in over.get(rule.head, ()):
            fed.setdefault(head, []).append((or_idx, logp))
        for head, or_rules in fed.items():
            feeding.setdefault(head, []).append((idx, *rule.children, rel, fn, tuple(or_rules)))
        by_pair.setdefault(rule.children, []).append((rule, rel, fn))
    pairs = []
    by_left: dict[str, int] = {}
    by_right: dict[str, int] = {}
    for (left, right), rules in by_pair.items():
        relation = rules[0][0].relation
        shared = all(rule.relation == relation for rule, _, _ in rules)
        join = g.domain.join(relation) if shared else None
        by_left[left] = by_left.get(left, 0) | 1 << len(pairs)
        by_right[right] = by_right.get(right, 0) | 1 << len(pairs)
        kept, counted = ([], []), ([], [])
        for rule, rel, fn in rules:
            if g.domain.decided(rule.relation, join is not None):
                rel = None  # the join, or no join at all, decides it: not called
            for top, by_child in enumerate((below, at_top)):
                heads = by_child.get(rule.head)
                if heads:
                    kept[top].append((rel, fn, tuple((logp, head) for _, logp, head in heads)))
                elif heads == []:
                    counted[top].append(rel)
        pairs.append((left, right, join, kept, counted))
    seeds = tuple(
        {t: positions_of(by, [h for *_, h in below.get(t, ())]) for t in g.terminals}
        for by in (by_left, by_right)
    )
    requiring = requirements(g, read, feeding)
    return CompiledGrammar((below, at_top), pairs, by_left, by_right, seeds, feeding, requiring)


def requirements(g: Grammar, read: set[str], feeding: dict[str, list[tuple]]) -> dict:
    """CompiledGrammar.requiring, from the inside and outside sets of terminal
    types of the Or-nodes: int bitsets, each a fixpoint over the rules."""
    bits = {t: 1 << k for k, t in enumerate(g.terminals)}
    every = (1 << len(bits)) - 1
    inside = dict.fromkeys(g.or_nodes, 0)  # the terminals under an Or-rule first
    for rule in g.or_rules:
        inside[rule.head] |= bits.get(rule.child, 0)
    if all(types == every for types in sibling_types(g, inside).values()):
        return {}  # the siblings of every read node derive every type: no cell needs one
    up = [(child, head) for head, feds in feeding.items() for fed in feds for child in fed[1:3]]
    closure(inside, up)
    outside = dict.fromkeys(g.or_nodes, 0) | sibling_types(g, inside)
    closure(outside, [(head, child) for child, head in up])
    requiring: dict[str, list[str]] = {}
    for head, feds in feeding.items():
        needs = every & ~outside[head]
        # checked where a head needs a type that neither child's cells need
        if head in read and any(needs & outside[fed[1]] & outside[fed[2]] for fed in feds):
            for t, bit in bits.items():
                if needs & bit:
                    requiring.setdefault(t, []).append(head)
    return {t: tuple(heads) for t, heads in requiring.items()}


def sibling_types(g: Grammar, inside: dict[str, int]) -> dict[str, int]:
    """read node -> the types its siblings derive, by inside: a part of its outside set."""
    outside: dict[str, int] = {}
    for rule in g.and_rules:
        left, right = rule.children
        outside[left] = outside.get(left, 0) | inside[right]
        outside[right] = outside.get(right, 0) | inside[left]
    return outside


def closure(sets: dict[str, int], edges: list[tuple[str, str]]) -> None:
    """sets[dst] |= sets[src] along every (src, dst) edge, until none changes."""
    changed = True
    while changed:
        changed = False
        for src, dst in edges:
            if sets[src] | sets[dst] != sets[dst]:
                sets[dst] |= sets[src]
                changed = True


@dataclass
class CompositionTable:
    """A filled chart; the layout is described in the module docstring."""

    grammar: Grammar
    sample: DataSample
    mode: str
    scores: list[dict[str, dict[tuple, float]]]
    stats: CompositionStats
    # monotonic() time at which backtrack and derivation stop; None: no limit
    deadline: float | None = None

    def lookup(self, key: CompositionKey) -> float:
        """The score of a stored cell; MissingEntry for a key that names none,
        as for a cell no later step reads (module docstring)."""
        if type(key.mask) is int and 0 < key.mask < 1 << len(self.sample):  # bits: instances
            with contextlib.suppress(KeyError, TypeError):  # TypeError: an unhashable param
                return self.scores[key.mask.bit_count()][key.or_node][key.param, key.mask]
        raise MissingEntry(f"no chart entry for {key}")

    def root_entries(self) -> list[tuple[CompositionKey, RootEntry]]:
        out = [
            (CompositionKey(self.grammar.start, param, mask), RootEntry(score))
            for (param, mask), score in self.scores[-1].get(self.grammar.start, {}).items()
        ]
        return sorted(out, key=lambda kv: param_order_key(kv[0].param))

    def derivation(self, key: CompositionKey) -> tuple:
        """How a stored viterbi cell got its score, as the flat tuple of the
        module docstring, found again from the stored scores of its children
        and picked among equal scores by the tie rule."""
        if self.mode != "viterbi":
            raise ValueError("derivation needs a viterbi table")
        self.lookup(key)  # MissingEntry for unknown keys
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceeded("parse exceeded its time limit in derivation")
        return deriver(self)(key.or_node, (key.param, key.mask))


@dataclass
class ParseResult:
    mode: str
    score: float  # log probability; -inf when the sample has no parse
    tree: ParseTree | None
    # the full chart's stats, or the full fill that gives them when first read (parse)
    full_stats: CompositionStats | Callable[[], CompositionStats] = field(repr=False)

    @property
    def stats(self) -> CompositionStats:
        """The full chart's stats, whichever chart the parse filled."""
        if callable(self.full_stats):
            self.full_stats = self.full_stats()
        return self.full_stats


def deriver(table: CompositionTable):
    """derive(node, (param, mask)): the derivation of a stored cell of a
    viterbi table, as CompositionTable.derivation returns it."""
    scores = table.scores
    instances = table.sample.instances
    compiled = table.grammar.compiled
    by_terminal = compiled.or_by_child[len(instances) == 1]
    feeding = compiled.feeding

    def derive(node: str, ikey: tuple) -> tuple:
        param, mask = ikey
        size = mask.bit_count()
        score = scores[size][node][ikey]
        if size == 1:
            inst = instances[mask.bit_length() - 1]
            for or_idx, logp, head in by_terminal[inst.terminal]:
                if head == node and logp == score:  # the first in rule order wins a tie
                    return (score, or_idx, inst.instance_id)
        for and_idx, left, right, rel, fn, or_rules in feeding.get(node, ()):
            for j in range(1, size):
                lefts, rights = scores[j].get(left), scores[size - j].get(right)
                if not lefts or not rights:
                    continue
                # the right cells inside mask, by the left mask each leaves
                by_rest: dict[int, list] = {}
                for rkey, rscore in rights.items():
                    if rkey[1] | mask == mask:
                        by_rest.setdefault(mask ^ rkey[1], []).append((rkey, rscore))
                if not by_rest:
                    continue
                found = [
                    (score, and_idx, lkey, rkey, or_idx)
                    for lkey, lscore in lefts.items()
                    for rkey, rscore in by_rest.get(lkey[1], ())
                    for or_idx, logp in or_rules
                    if logp + (lscore + rscore) == score  # the combine step's expression
                    and gives(fn, lkey[0], rkey[0], param)
                    and rel(lkey[0], rkey[0])
                ]
                if found:  # the first group with the score holds the winner
                    return found[0] if len(found) == 1 else min(found, key=tie_key)
        key = CompositionKey(node, param, mask)
        raise MissingEntry(f"no stored cells derive {key} with score {score!r}")

    return derive


def gives(fn, lparam, rparam, param) -> bool:
    """fn(lparam, rparam) == param, and False where fn raises DomainError (module docstring)."""
    try:
        return fn(lparam, rparam) == param
    except DomainError:
        return False


def tie_key(cell: tuple) -> tuple:
    """The tie rule (module docstring) as a sort key of a derivation, past
    its score; a child's node is implied by the And-rule."""
    if len(cell) == 3:
        return cell[1:]  # (or rule, instance id)
    _, and_idx, (lparam, lmask), (rparam, rmask), or_idx = cell
    return (
        and_idx,
        (lmask.bit_count(), param_order_key(lparam), lmask),
        (rmask.bit_count(), param_order_key(rparam), rmask),
        or_idx,
    )


def build_table(
    g: Grammar,
    x: DataSample,
    mode: str = "viterbi",
    budget: ParserBudget | None = None,
) -> CompositionTable:
    """Fill the full composition chart bottom-up over sub-sample sizes."""
    budget = budget or ParserBudget()
    return fill_chart(g, x, mode, budget, budget.max_seconds, False)[0]


def fill_chart(
    g: Grammar, x: DataSample, mode: str, budget: ParserBudget, seconds: float | None, goal: bool
) -> tuple[CompositionTable, int]:
    """(the chart, how often it skipped a dead cell): the full chart, or with goal
    the goal-directed one (module docstring).  The fill has seconds of time,
    None: no limit, and its messages name budget.max_seconds."""
    if mode not in ("viterbi", "marginal"):
        raise ValueError(f"unknown parse mode {mode!r}")
    compiled = g.compiled  # NotInNormalForm, or a rule that does not resolve
    if len(x) == 0:
        raise ValueError("cannot parse an empty sample")
    for inst in x.instances:
        try:
            hash(inst.param)  # a chart key
        except TypeError:
            raise DomainError(f"instance {inst.instance_id!r} has an unhashable param") from None
    terminals = dict.fromkeys(inst.terminal for inst in x.instances)
    for terminal in terminals:
        if terminal not in g.terminals:
            raise ValueError(f"sample uses unknown terminal {terminal!r}")
    started = time.monotonic()
    deadline = None if seconds is None else started + seconds

    n = len(x)
    scores: list[dict[str, dict[tuple, float]]] = [{} for _ in range(n + 1)]
    max_entries = budget.max_entries
    marginal = mode == "marginal"
    fold = log_add if marginal else max

    requiring = compiled.requiring if goal else {}
    need: dict[str, int] = {}  # checked head -> the instances each of its cells must hold
    seeded = scores[1]
    for index, inst in enumerate(x.instances):
        ikey = (inst.param, 1 << index)
        for head in requiring.get(inst.terminal, ()):
            need[head] = need.get(head, 0) | ikey[1]
        for _, logp, head in compiled.or_by_child[n == 1].get(inst.terminal, ()):
            cells = seeded.get(head)
            if cells is None:  # a node's dict is made with its first cell
                seeded[head] = {ikey: logp}
            else:
                cur = cells.get(ikey)  # set by a second Or-rule over head and terminal
                cells[ikey] = logp if cur is None else fold(cur, logp)
    entry_count = sum(map(len, seeded.values()))
    if entry_count > max_entries:
        raise BudgetExceeded(f"chart exceeded {max_entries} entries at size 1")
    if deadline is not None and time.monotonic() >= deadline:  # also on one instance
        raise BudgetExceeded(f"parse exceeded {budget.max_seconds} seconds at size 1")

    pair_tests = skipped = 0
    per_size_entries = [0, entry_count]  # stored cells, counted as they are made
    pairs = compiled.pairs
    # size -> the mask of the child pairs whose left (right) child has cells
    # of that size, taken once its stratum is final (size 1: compiled)
    with_left, with_right = ([0, positions_of(s, terminals)] for s in compiled.seeds)
    # (size, pair position) -> key -> the right cells of that key, and the
    # join keys of the left cells in chart order
    buckets: dict[tuple[int, int], dict[Any, list]] = {}
    left_keys: dict[tuple[int, int], list] = {}
    for i in range(2, n + 1):
        if deadline is not None and time.monotonic() >= deadline:  # once per stratum
            raise BudgetExceeded(f"parse exceeded {budget.max_seconds} seconds at size {i}")
        stratum, top, stored = scores[i], i == n, entry_count
        get = stratum.get
        for j in range(1, i):
            live = with_left[j] & with_right[i - j]
            if not live:
                continue
            left_nodes, right_nodes = scores[j], scores[i - j]
            for pos in bit_positions(live):  # the pairs in order of first use
                left_child, right_child, join, by_size, _ = pairs[pos]
                lefts, rights = left_nodes[left_child], right_nodes[right_child]
                rules = by_size[top]
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
                if not rules:  # no head keeps a cell: only the tests count
                    pair_tests += (len(lefts) * len(rights) if join is None
                                   else sum(len(bucket.get(key, ())) for key in keys))
                    continue
                for (lparam, lmask), lscore in lefts.items():
                    if deadline is not None and time.monotonic() >= deadline:
                        raise BudgetExceeded(
                            f"parse exceeded {budget.max_seconds} seconds at size {i}")
                    candidates = rights.items() if join is None else bucket.get(next_key())
                    if candidates is None:  # no right cell has its key
                        continue
                    pair_tests += len(candidates)
                    for (rparam, rmask), rscore in candidates:
                        if lmask & rmask:
                            continue
                        pair_score, umask = lscore + rscore, lmask | rmask
                        for rel, fn, heads in rules:
                            if rel is not None and not rel(lparam, rparam):
                                continue
                            ikey = (fn(lparam, rparam), umask)  # shared by the heads it feeds
                            for logp, head in heads:
                                # the one place a cell above size 1 is written, as in seeding
                                score = logp + pair_score
                                cells = get(head)
                                cur = cells and cells.get(ikey)
                                if cur is not None:
                                    if marginal:
                                        cells[ikey] = fold(cur, score)
                                    elif score > cur:  # as max(cur, score): a tie or NaN keeps cur
                                        cells[ikey] = score
                                    continue
                                req = need.get(head, 0)
                                if umask & req != req:  # dead: no complete parse can use it
                                    skipped += 1
                                    continue
                                entry_count += 1
                                if entry_count > max_entries:
                                    raise BudgetExceeded(
                                        f"chart exceeded {max_entries} entries at size {i}")
                                if cells:
                                    cells[ikey] = score
                                else:
                                    stratum[head] = {ikey: score}
        per_size_entries.append(entry_count - stored)
        with_left.append(positions_of(compiled.by_left, stratum))
        with_right.append(positions_of(compiled.by_right, stratum))

    finished = time.monotonic()
    seconds_left = None if deadline is None else deadline - finished  # the count re-arms it
    stats = CompositionStats(
        sample_size=n,
        per_size_entries=per_size_entries,
        pair_tests=pair_tests,
        elapsed_seconds=finished - started,
        # closes over the chart's parts, not the table, so that no cycle keeps a table alive
        compositions=functools.partial(count_compositions, compiled, x, scores, seconds_left),
    )
    return CompositionTable(g, x, mode, scores, stats, deadline), skipped


def count_compositions(compiled: CompiledGrammar, x: DataSample, scores, seconds) -> list[int]:
    """per_size_compositions of a filled chart (module docstring, Counting); size 1 counts
    the instances under an Or-rule, seconds is what the fill left of its time limit or None."""
    deadline = None if seconds is None else time.monotonic() + seconds
    n = len(x)
    compositions = [0, sum(inst.terminal in compiled.or_by_child[0] for inst in x.instances)]
    counting = [pair for pair in compiled.pairs if any(pair[4])]
    for i in range(2, n + 1):
        comps = {mask for cells in scores[i].values() for _, mask in cells}
        for j in range(1, i):
            for left, right, join, _, counted in counting:
                if len(comps) == math.comb(n, i):  # every set of i instances: done
                    break
                rels, lefts, rights = counted[i == n], scores[j].get(left), scores[i - j].get(right)
                if not rels or not lefts or not rights:
                    continue
                if len(rights) < len(lefts):  # walk the smaller side, as the left one
                    lefts, rights = rights, lefts
                    rels = [rel and (lambda a, b, rel=rel: rel(b, a)) for rel in rels]
                    join = join and join[::-1]
                if join is not None:  # the other side's cells by their key, as the fill does
                    bucket: dict[Any, list] = {}
                    for cell in rights:
                        bucket.setdefault(join[1](cell[0]), []).append(cell)
                for param, mask in lefts:
                    if deadline is not None and time.monotonic() >= deadline:
                        raise BudgetExceeded("parse exceeded its time limit in count_compositions")
                    candidates = rights if join is None else bucket.get(join[0](param), ())
                    for rel in rels:
                        comps.update([mask | rmask for rparam, rmask in candidates
                                      if not mask & rmask and (rel is None or rel(param, rparam))])
        compositions.append(len(comps))
    return compositions


def backtrack(table: CompositionTable, root: CompositionKey) -> ParseTree:
    """The best tree of a chart entry (viterbi tables), each node's
    derivation found again by CompositionTable.derivation.

    Built top-down in one loop, as sample builds a tree, so its depth is not
    bounded by the recursion limit: each Or-node is made from its cell's key
    and gets its children once that cell's derivation is found.
    """
    if table.mode != "viterbi":
        raise ValueError("backtrack needs a viterbi table")
    g = table.grammar
    score = table.lookup(root)  # MissingEntry for unknown keys
    derive = deriver(table)
    deadline = table.deadline
    tree = TreeNode(root.or_node, root.param)
    todo = [(tree, root.mask)]
    while todo:
        if deadline is not None and time.monotonic() >= deadline:  # once per derived node
            raise BudgetExceeded("parse exceeded its time limit in backtrack")
        node, mask = todo.pop()
        cell = derive(node.node, (node.param, mask))
        if len(cell) == 3:
            inst = table.sample.instances[mask.bit_length() - 1]  # as derive names it
            child = TreeNode(inst.terminal, inst.param, instance=inst.instance_id)
        else:
            _, and_idx, (lparam, lmask), (rparam, rmask), _ = cell
            rule = g.and_rules[and_idx]
            left, right = TreeNode(rule.children[0], lparam), TreeNode(rule.children[1], rparam)
            child = TreeNode(rule.head, node.param, (left, right))
            todo += ((left, lmask), (right, rmask))
        node.children = (child,)
    return ParseTree(tree, score)


def parse(
    g: Grammar,
    x: DataSample,
    mode: str = "viterbi",
    budget: ParserBudget | None = None,
) -> ParseResult:
    """Parse a sample: viterbi returns the best tree, marginal the total mass.
    The chart is filled goal-directed; the stats are the full chart's (module docstring)."""
    budget = budget or ParserBudget()
    table, skipped = fill_chart(g, x, mode, budget, budget.max_seconds, True)
    roots = table.root_entries()
    score, tree = NEG_INF, None
    if mode == "marginal":
        for _, entry in roots:
            score = log_add(score, entry.score)
    elif roots:
        best_key, best = max(roots, key=lambda kv: kv[1].score)
        score, tree = best.score, backtrack(table, best_key)
    stats = table.stats
    if skipped:  # the full fill, when first read, with what the parse left of its time
        left = None if table.deadline is None else table.deadline - time.monotonic()
        stats = functools.partial(full_chart_stats, g, x, mode, budget, left)
    return ParseResult(mode, score, tree, stats)


def full_chart_stats(g: Grammar, x: DataSample, mode: str, budget: ParserBudget, seconds):
    """The stats of the full chart of a parse, filled in seconds or None: no limit."""
    return fill_chart(g, x, mode, budget, seconds, False)[0].stats


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
            for rule in g.or_rules_of.get(node, ()):
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
