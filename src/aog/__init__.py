"""Stochastic And-Or grammar engine.

Representation and validation of parameterized And-Or grammars,
sampling, conversion to a binary normal form, exact viterbi and
marginal parsing by dynamic programming over compositions, frontends
from stochastic context-free grammars, sum-product networks and 3SAT,
and probabilistic-logic text export.

`import aog` loads the core: errors, domains, grammar, normalize and
parsing.  The frontends, logic export and file I/O are loaded on first
use of one of their names (PEP 562), so a caller pays only for what it
uses.
"""

from importlib import import_module as _import_module

from .domains import (
    DomainBinding,
    FunctionRef,
    ParamTuple,
    RelationRef,
    domain_from_config,
    grid_domain,
    interval_domain,
    null_domain,
    param_order_key,
    string_span_domain,
    tuple_domain,
)
from .errors import (
    AogError,
    BudgetExceeded,
    ConfigError,
    DepthExceeded,
    DomainError,
    FormatError,
    InvalidSpn,
    InvalidTree,
    MapMismatch,
    MissingEntry,
    NotInNormalForm,
    UnitCycleError,
    UnsupportedGrammar,
)
from .grammar import (
    AndRule,
    DataSample,
    Grammar,
    NodeKind,
    OrRule,
    ParseTree,
    TerminalInstance,
    TreeNode,
    ValidationReport,
    sample,
    tree_probability,
    tree_sample,
    validate_grammar,
)
from .normalize import NodeMap, gcnf_violations, project_parse, to_gcnf
from .parsing import (
    CompositionKey,
    CompositionStats,
    CompositionTable,
    ParseResult,
    ParserBudget,
    backtrack,
    build_table,
    enumerate_parses,
    parse,
)

# the public names of each module loaded on first use
_LAZY = {
    "logic_export": "LogicDocument emit_fol emit_slp",
    "sat": "Cnf3Sat brute_force_satisfiable format_dimacs parse_dimacs sat_to_aog",
    "scfg": "Scfg ScfgRule and_or_form cyk format_scfg is_and_or_form parse_scfg scfg_to_aog"
    " string_distribution string_sample validate_scfg",
    "serialize": "grammar_from_json_dict grammar_to_json_dict load_grammar load_node_map"
    " load_sample sample_from_json_dict sample_to_json_dict save_grammar save_node_map"
    " save_sample tree_to_json_dict",
    "spn": "IndicatorNode ProductNode Spn SpnAog SumNode assignment_sample evaluate"
    " format_spn_listing parse_spn_listing partition spn_scopes spn_to_aog validate_spn",
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = sorted({n for n in globals() if not n.startswith("_")} | _LAZY.keys() | _MODULE_OF.keys())


def __getattr__(name: str):
    if name in _LAZY:  # importing a submodule binds it in this package
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys() | _LAZY.keys())
