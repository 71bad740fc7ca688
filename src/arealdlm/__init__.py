"""Reduced-rank Bayesian inference for multivariate spatio-temporal areal data."""

import os

# BLAS thread pools are sized from these when numpy is first imported. One thread unless
# the environment says otherwise: with more, a multithreaded BLAS rounds differently with
# each thread count, so the bytes of a fit would depend on how many CPUs it may use. The
# names set here are removed once numpy is imported, so they reach no other library and
# no child process.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_set_here = [name for name in _BLAS_THREAD_VARIABLES if name not in os.environ]
os.environ.update(dict.fromkeys(_set_here, "1"))
import numpy as _numpy  # noqa: E402, F401  (sizes the BLAS pools)

for _name in _set_here:
    os.environ.pop(_name, None)

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
