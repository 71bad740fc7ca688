"""Frobenius-optimal prior covariances steered toward target precisions.

The latent-coefficient prior covariance K*_t is chosen so that the implied
reduced-rank structure is as close as possible (Frobenius norm) to a target
precision matrix, typically the graph Laplacian. Innovation covariances W*_t
follow from the first-order dynamics and are lifted to the nearest positive
semi-definite matrix when the recursion turns them indefinite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSystem
from .data import ArealGraph, DesignSet
from .errors import ValidationError
from .linops import PSD_FLOOR, symmetrize

log = logging.getLogger(__name__)

PRIOR_FORMS = ("inverted", "direct")


def car_precision(graph: ArealGraph, t: int | None = None) -> np.ndarray:
    """Graph-Laplacian precision D - A over the units active at time t."""
    a = graph.adjacency(graph.active_units(t) if t is not None else None)
    return np.diag(a.sum(axis=1)) - a


def best_positive_approximant(r_mat: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: symmetrize, clip negative eigenvalues."""
    b = symmetrize(np.asarray(r_mat, dtype=float))
    values, vectors = np.linalg.eigh(b)
    clipped = np.clip(values, 0.0, None)
    return symmetrize((vectors * clipped) @ vectors.T)


def frobenius_objective(
    p_mat: np.ndarray, s_mat: np.ndarray, c_mat: np.ndarray, inverted: bool = True
) -> float:
    """||P - S C^-1 S'||_F^2 (inverted) or ||P - S C S'||_F^2.

    Brute-force evaluation of the matrix-nearness objective; used as the
    independent check on the closed-form minimizers.
    """
    c_mat = np.asarray(c_mat, dtype=float)
    if inverted:
        sv = np.linalg.svd(c_mat, compute_uv=False)
        if sv[-1] <= c_mat.shape[0] * np.finfo(float).eps * sv[0]:
            raise ValidationError("singular C with inverted objective")
        middle = np.linalg.solve(c_mat, s_mat.T)
    else:
        middle = c_mat @ s_mat.T
    resid = p_mat - s_mat @ middle
    return float(np.sum(resid * resid))


def _auto_eps(approximant: np.ndarray) -> float:
    r = approximant.shape[0]
    return 1e-8 * max(float(np.trace(approximant)) / r, 1.0)


def _invert_approximant(
    approximant: np.ndarray, eps: float | None
) -> tuple[np.ndarray, float]:
    """Invert, adding eps*I only when the approximant is singular.

    Returns (inverse, eps_applied) with eps_applied = 0.0 when no
    regularization was needed.
    """
    values = np.linalg.eigvalsh(approximant)
    scale = max(float(values.max()), 1.0)
    if values.min() > PSD_FLOOR * scale:
        return symmetrize(np.linalg.inv(approximant)), 0.0
    applied = _auto_eps(approximant) if eps is None else eps
    if applied <= 0.0:
        raise ValidationError(
            "singular approximant requires a positive regularization epsilon"
        )
    lifted = approximant + applied * np.eye(approximant.shape[0])
    return symmetrize(np.linalg.inv(lifted)), applied


def kstar(
    s_t: np.ndarray, p_t: np.ndarray, eps: float | None = None
) -> tuple[np.ndarray, float]:
    """Optimal prior covariance for one time point (inverted parameterization).

    K* = { A+(S' P S) + eps I }^-1 with eps applied only when the positive
    approximant is singular. Returns (K*, eps_applied).
    """
    middle = best_positive_approximant(s_t.T @ p_t @ s_t)
    return _invert_approximant(middle, eps)


def kstar_pooled(
    s_list: list[np.ndarray], p_list: list[np.ndarray], eps: float | None = None
) -> tuple[np.ndarray, float]:
    """Pooled optimal prior covariance across time points.

    K* = { A+( (1/T) sum_t S_t' P_t S_t ) + eps I }^-1; reduces to the
    single-t form when one pair is supplied.
    """
    if len(s_list) != len(p_list) or not s_list:
        raise ValidationError("need matching nonempty basis and target lists")
    ranks = {s.shape[1] for s in s_list}
    if len(ranks) != 1:
        raise ValidationError(f"mismatched basis ranks across time: {sorted(ranks)}")
    acc = np.zeros((s_list[0].shape[1],) * 2)
    for s_t, p_t in zip(s_list, p_list):
        acc += s_t.T @ p_t @ s_t
    middle = best_positive_approximant(acc / len(s_list))
    return _invert_approximant(middle, eps)


def kstar_direct(
    s_t: np.ndarray, p_t: np.ndarray
) -> np.ndarray:
    """Non-inverted minimizer: the positive approximant of S' P S itself."""
    return best_positive_approximant(s_t.T @ p_t @ s_t)


def wstar(k_t: np.ndarray, k_prev: np.ndarray) -> tuple[np.ndarray, float | None]:
    """Innovation covariance K*_t - K*_{t-1}, lifted to PSD if needed.

    The transition matrix M_t is I_r (the basis is orthogonal to the design),
    so the innovation is the plain difference of consecutive prior covariances.
    Returns (W*, min_eigenvalue_before_lift or None when no lift happened).
    """
    raw = symmetrize(k_t - k_prev)
    low = float(np.linalg.eigvalsh(raw).min())
    if low < -PSD_FLOOR:
        return best_positive_approximant(raw), low
    return raw, None


@dataclass(frozen=True)
class PriorStructure:
    """Finalized prior covariances with a record of every PSD lift and epsilon.

    ``k_star[t]`` is the r x r prior covariance scale at time t (one shared
    matrix under pooling); ``w_star[t]`` (t >= 2) the innovation covariance
    scale. ``lift_log`` lists (matrix name, min eigenvalue before lift);
    ``eps_log`` lists (matrix name, epsilon added).
    """

    k_star: dict[int, np.ndarray]
    w_star: dict[int, np.ndarray]
    targets: dict[int, np.ndarray] = field(repr=False, default_factory=dict)
    lift_log: tuple[tuple[str, float], ...] = ()
    eps_log: tuple[tuple[str, float], ...] = ()
    form: str = "inverted"
    pooled: bool = False

    @property
    def times(self) -> list[int]:
        return sorted(self.k_star)

    @property
    def innovation_ratio(self) -> dict[int, float]:
        """tr W*_t / tr K*_t for t >= 2: how far eta_t can move per step."""
        return {
            t: float(np.trace(w) / np.trace(self.k_star[t]))
            for t, w in sorted(self.w_star.items())
        }


def _floor_covariance(
    mat: np.ndarray, eps: float | None, name: str, eps_log: list[tuple[str, float]]
) -> np.ndarray:
    """Add eps*I when a covariance is singular at working precision.

    Keeps every emitted covariance invertible so the same matrix can drive
    both simulation and the variance full conditional.
    """
    values = np.linalg.eigvalsh(mat)
    scale = max(float(values.max()), 1.0)
    if values.min() > PSD_FLOOR * scale:
        return mat
    applied = _auto_eps(mat) if eps is None else eps
    if applied <= 0.0:
        raise ValidationError(f"{name} is singular and epsilon is zero")
    eps_log.append((name, applied))
    return mat + applied * np.eye(mat.shape[0])


def _unchanged(k_t: np.ndarray, k_prev: np.ndarray) -> bool:
    """True when K*_t and K*_{t-1} agree at working precision."""
    scale = max(float(np.max(np.abs(k_t))), float(np.max(np.abs(k_prev))))
    return float(np.max(np.abs(k_t - k_prev))) <= k_t.shape[0] * np.finfo(float).eps * scale


def build_prior_structure(
    design_set: DesignSet,
    basis: BasisSystem,
    targets: dict[int, np.ndarray] | None = None,
    form: str = "inverted",
    pooled: bool = False,
    eps: float | None = None,
) -> PriorStructure:
    """Assemble K*_t and W*_t from the basis and per-time target precisions.

    Targets default to the stacked graph-Laplacian precision. All emitted
    matrices are invertible: singular approximants and singular post-lift
    innovation covariances receive a recorded eps*I floor. Logs one warning
    when K*_t never changes over time, since W* is then the floor alone.
    """
    if form not in PRIOR_FORMS:
        raise ValidationError(f"unknown prior form {form!r}")
    design = design_set.design
    times = list(range(1, design.T + 1))
    if targets is None:
        targets = {t: design_set.stacked_car_precision(t) for t in times}
    lift_log: list[tuple[str, float]] = []
    eps_log: list[tuple[str, float]] = []

    k_star: dict[int, np.ndarray] = {}
    if pooled:
        if form == "inverted":
            shared, applied = kstar_pooled(
                [basis.s[t] for t in times], [targets[t] for t in times], eps
            )
            if applied:
                eps_log.append(("K*", applied))
        else:
            acc = np.zeros((basis.r, basis.r))
            for t in times:
                acc += basis.s[t].T @ targets[t] @ basis.s[t]
            shared = best_positive_approximant(acc / len(times))
            shared = _floor_covariance(shared, eps, "K*", eps_log)
        for t in times:
            k_star[t] = shared
    else:
        for t in times:
            if form == "inverted":
                k_star[t], applied = kstar(basis.s[t], targets[t], eps)
                if applied:
                    eps_log.append((f"K*_{t}", applied))
            else:
                k_star[t] = _floor_covariance(
                    kstar_direct(basis.s[t], targets[t]), eps, f"K*_{t}", eps_log
                )

    if len(times) > 1 and all(_unchanged(k_star[t], k_star[t - 1]) for t in times[1:]):
        log.warning(
            "K*_t - K*_{t-1} is zero for every t (constant covariates or pooled "
            "prior): W* is only the epsilon floor and the latent path is frozen"
        )
    w_star: dict[int, np.ndarray] = {}
    for t in times[1:]:
        w_t, lifted_from = wstar(k_star[t], k_star[t - 1])
        if lifted_from is not None:
            lift_log.append((f"W*_{t}", lifted_from))
            log.info("lifted W*_%d to PSD (min eigenvalue was %.3e)", t, lifted_from)
        w_star[t] = _floor_covariance(w_t, eps, f"W*_{t}", eps_log)

    return PriorStructure(
        k_star=k_star,
        w_star=w_star,
        targets=targets,
        lift_log=tuple(lift_log),
        eps_log=tuple(eps_log),
        form=form,
        pooled=pooled,
    )
