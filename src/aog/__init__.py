"""Stochastic And-Or grammar engine.

Representation and validation of parameterized And-Or grammars,
sampling, conversion to a binary normal form, exact viterbi and
marginal parsing by dynamic programming over compositions, frontends
from stochastic context-free grammars, sum-product networks and 3SAT,
and probabilistic-logic text export.
"""

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
from .logic_export import LogicDocument, emit_fol, emit_slp
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
from .sat import Cnf3Sat, brute_force_satisfiable, format_dimacs, parse_dimacs, sat_to_aog
from .scfg import (
    Scfg,
    ScfgRule,
    and_or_form,
    cyk,
    format_scfg,
    is_and_or_form,
    parse_scfg,
    scfg_to_aog,
    string_distribution,
    string_sample,
    validate_scfg,
)
from .serialize import (
    grammar_from_json_dict,
    grammar_to_json_dict,
    load_grammar,
    load_node_map,
    load_sample,
    sample_from_json_dict,
    sample_to_json_dict,
    save_grammar,
    save_node_map,
    save_sample,
    tree_to_json_dict,
)
from .spn import (
    IndicatorNode,
    ProductNode,
    Spn,
    SpnAog,
    SumNode,
    assignment_sample,
    evaluate,
    format_spn_listing,
    parse_spn_listing,
    partition,
    spn_scopes,
    spn_to_aog,
    validate_spn,
)

__version__ = "0.1.0"
