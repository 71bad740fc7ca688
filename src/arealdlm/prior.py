"""Frobenius-optimal prior covariances steered toward target precisions.

The latent-coefficient prior covariance K*_t is chosen so that the implied
reduced-rank structure is as close as possible (Frobenius norm) to a target
precision matrix, typically the graph Laplacian. Every K* is built on one
path: the middle matrix S'PS (averaged over t when pooled) goes through
``best_positive_approximant``, then ``_floor_covariance``, then is inverted
for the inverted form. Innovation covariances W*_t follow from the
first-order dynamics and are lifted to the nearest positive semi-definite
matrix when the recursion turns them indefinite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .basis import BasisSystem
from .data import ArealGraph, DesignSet
from .errors import ValidationError
from .linops import PSD_FLOOR, symmetrize

log = logging.getLogger(__name__)

PRIOR_FORMS = ("inverted", "direct")


def car_precision(graph: ArealGraph) -> np.ndarray:
    """Graph-Laplacian precision D - A over all units."""
    a = graph.adjacency()
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


def _laplacian_middle(s: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """S'(D - A)S from the edge list (each edge once), with no N x N matrix.

    It equals (S' diag(deg)) S - C - C' with C = S[rows]' S[cols], at a cost
    of O(N r^2 + E r^2).
    """
    deg = np.bincount(rows, minlength=s.shape[0]) + np.bincount(cols, minlength=s.shape[0])
    cross = s[rows].T @ s[cols]
    return (s.T * deg) @ s - cross - cross.T


def _pooled_middle(middles: list[np.ndarray]) -> np.ndarray:
    """(1/T) sum_t S_t' P_t S_t from the r x r terms S_t' P_t S_t, accumulated in list order."""
    acc = np.zeros_like(middles[0])
    for middle in middles:
        acc += middle
    return acc / len(middles)


def _kstar(
    middle: np.ndarray,
    form: str,
    eps: float | None,
    name: str,
    eps_log: list[tuple[str, float]],
) -> np.ndarray:
    """K* from the middle matrix S'PS: A+(S'PS), floored, inverted when form == "inverted"."""
    k = _floor_covariance(best_positive_approximant(middle), eps, name, eps_log)
    return symmetrize(np.linalg.inv(k)) if form == "inverted" else k


def kstar_pooled(
    s_list: list[np.ndarray], p_list: list[np.ndarray], eps: float | None = None
) -> tuple[np.ndarray, float]:
    """Pooled optimal prior covariance across time points (inverted form).

    K* = { A+( (1/T) sum_t S_t' P_t S_t ) + eps I }^-1 with eps applied only
    when the positive approximant is singular; one pair gives the single-t
    minimizer. Returns (K*, eps_applied).
    """
    if len(s_list) != len(p_list) or not s_list:
        raise ValidationError("need matching nonempty basis and target lists")
    ranks = {s.shape[1] for s in s_list}
    if len(ranks) != 1:
        raise ValidationError(f"mismatched basis ranks across time: {sorted(ranks)}")
    middle = _pooled_middle([s.T @ p @ s for s, p in zip(s_list, p_list)])
    eps_log: list[tuple[str, float]] = []
    k = _kstar(middle, "inverted", eps, "K*", eps_log)
    return k, eps_log[0][1] if eps_log else 0.0


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

    Targets default to the stacked graph-Laplacian precision, whose middle
    S_t'(D - A)S_t comes from the time-t edge index without any N_t x N_t
    matrix; explicit ``targets`` are dense N_t x N_t precisions. All
    emitted matrices are invertible: singular approximants and singular
    post-lift innovation covariances receive a recorded eps*I floor. Logs one
    warning when K*_t never changes over time, since W* is then the floor alone.
    """
    if form not in PRIOR_FORMS:
        raise ValidationError(f"unknown prior form {form!r}")
    design = design_set.design
    times = list(range(1, design.T + 1))
    lift_log: list[tuple[str, float]] = []
    eps_log: list[tuple[str, float]] = []

    def middle(t: int) -> np.ndarray:
        if targets is None:
            return _laplacian_middle(basis.s[t], *design_set.edge_index(t))
        return basis.s[t].T @ targets[t] @ basis.s[t]

    if pooled:
        shared = _kstar(_pooled_middle([middle(t) for t in times]), form, eps, "K*", eps_log)
        k_star = {t: shared for t in times}
    else:
        k_star = {t: _kstar(middle(t), form, eps, f"K*_{t}", eps_log) for t in times}

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
        lift_log=tuple(lift_log),
        eps_log=tuple(eps_log),
        form=form,
        pooled=pooled,
    )
