"""The grammars that scfg_to_aog, spn_to_aog, sat_to_aog and to_gcnf build,
and the draws of sample, pinned over a fixed sweep of random inputs.

Each digest is sha256 over the canonical JSON of every output of a 40-seed
sweep, in sweep order.  A float is written by its repr, which round-trips,
so a change of any node, rule, rule order or last bit of a probability
changes the digest.  A change that means to alter these outputs must say
so and re-pin them.  The normal forms that fold wide rules were re-pinned;
the packed normal forms (helpers.packed) keep the digests from before folds.
"""

import hashlib
import random

import pytest

from aog import (
    AogError,
    sample,
    sat_to_aog,
    scfg_to_aog,
    spn_to_aog,
    to_gcnf,
    validate_grammar,
)
from aog.serialize import (
    canonical_dumps,
    grammar_to_json_dict,
    sample_to_json_dict,
    tree_to_json_dict,
)
from helpers import packed, random_3sat, random_aog, random_cnf_pcfg, random_spn

SEEDS = range(40)


def node_map_json(node_map) -> dict:
    chains = [[*edge, [vars(c) for c in cs]] for edge, cs in node_map.unit_chains.items()]
    return {**vars(node_map), "unit_chains": chains}


def scfg_outputs():
    for seed in SEEDS:
        yield grammar_to_json_dict(scfg_to_aog(random_cnf_pcfg(random.Random(seed))))


def spn_outputs():
    for seed in SEEDS:
        conv = spn_to_aog(random_spn(random.Random(seed), 1 + seed % 6))
        yield grammar_to_json_dict(conv.grammar)
        yield {"partition": conv.partition, "literals": sorted(conv.literals.items())}


def sat_outputs():
    for seed in SEEDS:
        g, x = sat_to_aog(random_3sat(random.Random(seed)))
        yield grammar_to_json_dict(g)
        yield [vars(inst) for inst in x.instances]


def random_aogs(prepare=lambda g: g):
    for seed in SEEDS:
        for kind in ("string", "grid", "null", "interval"):
            for chains in (False, True):
                yield prepare(random_aog(random.Random(seed), allow_or_chains=chains, kind=kind))


def gcnf_outputs(prepare=lambda g: g):
    for g in random_aogs(prepare):
        gcnf, node_map = to_gcnf(g)
        yield grammar_to_json_dict(gcnf)
        yield node_map_json(node_map)


def sample_outputs(prepare=lambda g: g):
    # each random_aog grammar and its normal form, whose folded steps or tuple
    # domain split parameters top down; a failed draw is pinned by its error
    for g in random_aogs(prepare):
        for grammar in (g, to_gcnf(g)[0]):
            for max_depth in (4, 64):
                for draw_seed in range(3):
                    try:
                        tree, x = sample(grammar, draw_seed, max_depth)
                    except AogError as exc:
                        yield [type(exc).__name__, str(exc)]
                        continue
                    root = tree_to_json_dict(tree, grammar.domain)["root"]
                    yield [tree.log_prob.hex(), root, sample_to_json_dict(x, grammar.domain)]


@pytest.mark.parametrize(
    "outputs, digest",
    [
        (scfg_outputs, "ceede0a0e32ab3ac903d15252ee5d392923faa0b9843ca5c39f57d2cde581b87"),
        (spn_outputs, "5dcc9205c611d28f48c01edf71d3e03945249a9b553c69de37c20a5ede515cd5"),
        (sat_outputs, "ccae604f007c89687b4f94c38001b6c1f05fb400ddc566964e6c1d04efdd9304"),
        (gcnf_outputs, "36ce2e5d985861034d9f1266affe1de25771ed2d9e8ac45d5409840387d26de0"),
        (sample_outputs, "30e2b177cfb23e47c3cca29a48eb226b8f93f0fe4f5b203f42a41ea3f0d9a898"),
    ],
    ids=["scfg", "spn", "sat", "gcnf", "sample"],
)
def test_producer_outputs_are_pinned(outputs, digest):
    assert outputs_digest(outputs()) == digest


def outputs_digest(payloads) -> str:
    h = hashlib.sha256()
    for payload in payloads:
        h.update(canonical_dumps(payload).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "outputs, digest",
    [
        (gcnf_outputs, "a99eb0957c3434a9ecf33153afc7f94b519368815f86e3ad473ad107b654093d"),
        (sample_outputs, "2fa93fba6b16c8d4a6449a6da58d26195a9f7c5600f3141fde1e99df09c85bb9"),
    ],
    ids=["gcnf", "sample"],
)
def test_packed_normal_forms_keep_the_digests_from_before_folds(outputs, digest):
    assert outputs_digest(outputs(packed)) == digest


def test_every_normal_form_of_the_sweep_is_valid():
    # to_gcnf checks the grammar it is given, not the one it returns
    for g in random_aogs():
        report = validate_grammar(to_gcnf(g)[0])
        assert report.ok, str(report)
