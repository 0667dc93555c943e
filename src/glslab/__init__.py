"""Numerical laboratory for the Gaussian logarithmic Sobolev inequality.

Entropy, Fisher information and deficit of test densities against the
standard Gaussian measure; exact Ornstein-Uhlenbeck evolution by Gaussian
averaging; log-concavity certification; explicit stability bounds with
their improved constants; and constrained searches over the families.
"""

from types import ModuleType as _ModuleType

from .errors import (
    CapacityError,
    ConstraintError,
    DomainError,
    FlowError,
    IntegrationError,
    LabError,
    NormalizationError,
    PositivityError,
)
from .measure import GaussianMeasureSpec, QuadratureGrid, build_grid, integrate
from .functions import (
    Affine,
    Bump,
    GaussianProfile,
    HermiteExpansion,
    TestFunction,
    Tilt,
    TwoBumps,
    build_function,
    center_mass,
    first_moment,
    l2_norm,
    normalize,
    second_moment_gap,
)
from .functionals import (
    FunctionalReport,
    IdentityResult,
    PressureData,
    bochner_identity,
    fisher_flux_identity,
    pinsker_gap,
    pressure_integrals,
    report,
)
from .ou_flow import (
    EvolvedDensity,
    FlowState,
    entropy_production_check,
    evolve,
    fisher_dissipation_check,
    flow_csv_rows,
    flow_curve,
    mehler_density,
    q_ode_check,
)
from .logconcavity import (
    LogConcavityCertificate,
    certify,
    certify_along_flow,
)
from .stability import (
    C_STAR,
    Figures,
    GAUSSIAN_CHEEGER,
    HALVED_CDC,
    POINCARE_LOGCONCAVE,
    PipelineResult,
    PoincareEstimate,
    StabilityBound,
    TailWeight,
    cheeger_sandwich,
    compact_improvement_pipeline,
    constants_table,
    excess_moment_decay_check,
    improved_constant_compact,
    lambda1_tail_lower,
    phi,
    phi_inv,
    poincare_chain,
    psi,
    q0_lower_bound,
    t_star_compact,
    t_star_tail,
    tail_weight,
    tau_of_t,
    verify_bounds,
    verify_compact_support,
    verify_entropy_squared,
    verify_fisher_gap,
    verify_gaussian_tail,
    verify_kappa_weighted,
    verify_log_concave,
)
from .search import (
    ExpansionFit,
    SearchProblem,
    SearchResult,
    affine_manifold_distance_sq,
    epsilon_expansion,
    run_search,
)
from . import corpus

__version__ = "0.1.0"

# every public name imported above; of the submodules only corpus is API
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and (name == "corpus" or not isinstance(value, _ModuleType))
)
