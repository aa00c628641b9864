"""Informative-variable identification and graph reduction for causal DAGs,
with exact discrete-network evaluation of the associated estimators."""

from .graph import (
    CycleError,
    Dag,
    GraphError,
    GraphParseError,
    UnknownVertexError,
    ancestors,
    children,
    d_separated,
    descendants,
    format_graph,
    has_causal_path,
    parents,
    parse_graph,
    topo_sort,
)
from .taxonomy import AssumptionViolation, Taxonomy, classify, minimal_dseparator_within
from .criteria import (
    CriterionVerdict,
    criterion_verdicts,
    informative_set,
    m_criterion,
    w_criterion,
)
from .reduction import (
    LatentProjectionView,
    ReductionReport,
    latent_projection,
    project_out_ni,
    project_vertex,
    reduce,
)
from .equivalence import causal_markov_equivalent, markov_equivalent
from .bn import (
    Dataset,
    DiscreteBn,
    EnumerationLimitError,
    NormalizationError,
    PositivityError,
    ZeroConditioningEvent,
    bn_from_json,
    bn_to_json,
    dataset_from_csv,
    dataset_to_csv,
    derive_seed,
    joint_table,
    random_law,
    sample,
    validate,
)
from .functionals import (
    EifContext,
    EmptyCellError,
    adjustment_exact,
    adjustment_if_variance,
    eif_exact,
    eif_variance,
    eif_variance_for_graph,
    eif_variance_terms,
    front_door_exact,
    g_functional_exact,
    g_functional_for_graph,
    plugin_adjustment,
    plugin_g,
)
from .formula import Factor, GFormula, derive_gformula, evaluate, parse_json, render
from .simulate import (
    SimConfig,
    SimRow,
    SimTable,
    SkippedReplication,
    build_benchmark_dgp,
    run_simulation,
)

__version__ = "0.1.0"
