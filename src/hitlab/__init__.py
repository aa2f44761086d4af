"""Small hitting sets for every maximum independent set.

For graphs with no induced K_{s,t}, a randomly sampled core inside one
maximum independent set excludes most of the graph from any other
maximum independent set; the leftovers are absorbed by an averaging
step.  This package makes that argument executable: it constructs the
hitting set, emits a replayable certificate, verifies it with the exact
alpha oracle (T meets every maximum independent set iff
alpha(G - T) < alpha(G)), and measures the expectation bounds the
argument leans on.
"""

from .drc import DrcTrace, codegree_scan, drc_clique, matching_audit, maximal_missing_matching
from .errors import (
    ConfigError,
    EnumerationCapError,
    FreenessViolationError,
    GraphFormatError,
    HitlabError,
    InfeasibleParamsError,
    PreconditionError,
    VerificationFailure,
    VertexRangeError,
)
from .graph import (
    Graph,
    InducedEmbedding,
    VertexSet,
    complement,
    find_induced_kst,
    gen_c4_free_process,
    gen_cluster,
    gen_cycle,
    gen_gnp,
    gen_path,
    min_degree_vertex,
)
from .hitting import (
    AsymptoticSchedule,
    HittingCertificate,
    ParamSchedule,
    SampleHitResult,
    asymptotic_schedule,
    auto_bins,
    budget,
    certificate_from_text,
    certificate_to_text,
    closed_neighborhood_hitting,
    construct_hitting_set,
    min_hitting_set,
    replay_check,
    sample_hitting_set,
    size_bound_check,
    validate_certificate,
    verify_hitting_set,
)
from .io import load_graph, parse_dimacs, parse_edge_list, save_graph
from .mis import MisFamily, alpha_with_witness, enumerate_mis, independence_check, kernel
from .analysis import (
    ExperimentConfig,
    ExperimentRecord,
    McEstimate,
    analytic_e_bound,
    expected_residual_edges,
    hypergeom_tail,
    load_config,
    monte_carlo_e,
    prob_low_intersection,
    records_to_csv,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticSchedule",
    "ConfigError",
    "DrcTrace",
    "EnumerationCapError",
    "ExperimentConfig",
    "ExperimentRecord",
    "FreenessViolationError",
    "Graph",
    "GraphFormatError",
    "HitlabError",
    "HittingCertificate",
    "InducedEmbedding",
    "InfeasibleParamsError",
    "McEstimate",
    "MisFamily",
    "ParamSchedule",
    "PreconditionError",
    "SampleHitResult",
    "VerificationFailure",
    "VertexRangeError",
    "VertexSet",
    "alpha_with_witness",
    "analytic_e_bound",
    "asymptotic_schedule",
    "auto_bins",
    "budget",
    "certificate_from_text",
    "certificate_to_text",
    "closed_neighborhood_hitting",
    "codegree_scan",
    "complement",
    "construct_hitting_set",
    "drc_clique",
    "enumerate_mis",
    "expected_residual_edges",
    "find_induced_kst",
    "gen_c4_free_process",
    "gen_cluster",
    "gen_cycle",
    "gen_gnp",
    "gen_path",
    "hypergeom_tail",
    "independence_check",
    "kernel",
    "load_config",
    "load_graph",
    "matching_audit",
    "maximal_missing_matching",
    "min_degree_vertex",
    "min_hitting_set",
    "monte_carlo_e",
    "parse_dimacs",
    "parse_edge_list",
    "prob_low_intersection",
    "records_to_csv",
    "replay_check",
    "run_experiment",
    "sample_hitting_set",
    "save_graph",
    "size_bound_check",
    "validate_certificate",
    "verify_hitting_set",
    "__version__",
]
