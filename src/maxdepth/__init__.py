"""Exact engine for depth, mdepth and maximal-depth invariants of monomial quotients."""

from .ideals import (
    F2,
    FieldSpec,
    Limits,
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    QQ,
    RingDescriptor,
    associated_primes,
    irreducible_decomposition,
    limited,
    parse_generators,
    polarize,
    primary_decomposition,
    quotient_by_variable,
    ring,
    tensor_join,
    unit_ideal,
)
from .complexes import (
    SimplicialComplex,
    cone_vertices,
    cycle_edge_ideal,
    from_squarefree_ideal,
    link,
    parse_edge_list,
    to_ideal,
)
from .linalg import reduced_homology
from .invariants import (
    ModuleProfile,
    direct_sum_profile,
    localization_profile,
    profile,
    projdim,
)
from .filtration import (
    DimensionFiltration,
    ProbeConfig,
    att_report,
    dimension_filtration,
    is_sequentially_cm,
    mdepth_chain,
    probe_open_question,
    psupp_monomial,
    quotient_depth_intervals,
)

__version__ = "0.1.0"
