"""Weighted counting, sampling and asymptotics for graphs from minor-closed classes."""

from .errors import EmptySliceError, ResourceCapError
from .graphs import (
    Graph,
    InducedSubgraph,
    RootedGraph,
    Weighting,
    big_frag_split,
    bridge_partition,
    component_count,
    complete_bipartite,
    complete_graph,
    copies,
    cycle_graph,
    disjoint_union,
    empty_graph,
    graph_from_text,
    graph_to_text,
    overlapping_pendant_appearances,
    path_graph,
    pendant_appearances,
    star_graph,
    two_core,
    weight,
)
from .canon import CanonicalCode, automorphism_count, canonicalize
from .minors import has_minor
from .families import (
    FamilyFlags,
    GraphFamily,
    builtin_family,
    dichotomy_scan,
    excluded_minor_family,
    family_from_spec,
    freely_addable_at_scale,
    limited_at_scale,
    load_family,
    member,
    verify_bridge_addable,
    verify_decomposable,
    verify_trimmable,
)
from .enumeration import (
    UnlabelledCensus,
    WeightTable,
    brute_force_tau,
    build_census,
    compute_weight_table,
    egf_lift,
    f_nk,
    f_nk_bruteforce,
    factorial_growth_check,
    falling_moment_check,
    forest_table,
    ratio_sequence,
)
from .asymptotics import (
    AsymptoticConstants,
    SeriesEvaluation,
    census_series_eval,
    constants_from_gamma,
    forest_limit_pack,
    frag_size_distribution,
    pendant_limit,
    planar_constants,
    solve_alpha,
    solve_beta,
    tree_series_eval,
)
from .sampling import (
    BoltzmannConfig,
    SampleStats,
    boltzmann_config,
    boltzmann_poisson_sample,
    collect_stats,
    exact_sample,
    mcmc_sample,
    random_tree_sample,
)

__version__ = "0.1.0"
