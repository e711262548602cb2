"""Certified windowed estimates for the lp dimension of invariant subspaces.

The package is layered: groups and windows, packing and quasi-tiling,
subspace descriptions with inner/outer window models, width counts with
certified brackets, the dimension grid with its duality and positivity
cross-checks, and a scenario registry feeding the command line harness and
the property suite.
"""

from ._util import conjugate_exponent, format_p, lp_norm, parse_p, rng_for
from .dimension import (
    D_and_N,
    DimensionEstimate,
    GridCell,
    PositivityReport,
    ProjectionInvariants,
    build_Q,
    dual_dimension,
    estimate_dimension,
    positivity_bound,
)
from .errors import (
    CapabilityError,
    CertificateInversion,
    SolverFailure,
    StructureError,
    TailBoundError,
)
from .groups import FiniteSubset, GroupSpec, folner_window, parse_group
from .scenarios import REGISTRY, Scenario, get_scenario, scenario_names
from .spaces import (
    Annihilator,
    ConvImage,
    ConvKernel,
    ConvolutionKernel,
    CyclicTranslates,
    DirectSum,
    Full,
    Induced,
    KerPeriodization,
    PeriodicInfty,
    Reduced,
    SubspaceSpec,
    SupportedMap,
    UnionPeriodic,
    WindowModel,
    Zero,
    adjoint_kernel,
    annihilator_spec,
    convolve,
    fourier_oracle_dim,
    induce_spec,
    inner_window_model,
    outer_rank,
    outer_window_model,
    pairing,
    reduce_spec,
)
from .suite import CheckResult, SuiteReport, property_suite
from .tiling import (
    DisjointnessResult,
    PackingResult,
    QuasiTiling,
    alpha,
    alpha_fraction,
    boundary,
    greedy_pack,
    is_eps_disjoint,
    quasi_tile,
)
from .widths import (
    BracketProfile,
    KernelDefectReport,
    NearestPointResult,
    SolverSettings,
    WidthCounts,
    bracket_counts,
    bracket_profile,
    entrywise_norm,
    four_widths,
    inscribed_l1_radius,
    kernel_defect_check,
    ldim_bracket,
    ldim_hilbert,
    mazur,
    nearest_point,
    operator_norm,
    singular_profile,
)

__version__ = "0.1.0"
