"""Reduced-rank Bayesian inference for multivariate spatio-temporal areal data."""

from .basis import (
    BasisSystem,
    build_basis_system,
    confounding_report,
    mi_basis,
)
from .data import (
    AlignedData,
    ArealGraph,
    DesignSet,
    Observation,
    ObservationSet,
    StudyDesign,
    TransformSpec,
    align_observations,
    apply_transform,
    assemble_design,
    build_adjacency,
    load_observations,
)
from .prior import (
    PriorStructure,
    best_positive_approximant,
    build_prior_structure,
    car_precision,
    frobenius_objective,
    kstar_pooled,
    wstar,
)
from .sampler import (
    Hyperparams,
    ModelState,
    PosteriorChain,
    backward_sample,
    gibbs_run,
    kalman_filter,
    sample_beta,
    sample_sigma_k,
    sample_sigma_xi,
    sample_xi,
)
from .predict import (
    PredictionSurface,
    posterior_y,
    rls,
    simulate,
)

__version__ = "0.1.0"
