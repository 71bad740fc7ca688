"""Gibbs sampler with a Kalman forward filter and a simulation smoother.

The latent coefficient path is drawn jointly: one forward filter, then the
mean-correction draw of Durbin & Koopman (2002). The fine-scale field,
regression coefficients, and the two variance parameters have conjugate full
conditionals. All observation-side updates exploit the diagonal measurement
covariance, so every dense factorization in the per-iteration path is r x r
or p x p.

The forward filter's loop updates the covariances only, one r x r inverse per
time (``_filter_core``); these T inverses are the only factorizations of a
sweep. The smoother's one forward pass carries the filter means with the draw,
and its one backward pass the correction: matrix-vector products on the stored
filter matrices, with the factors of K*_1, W*_t and each S_t'V_t^-1 S_t built
once per chain. Everything else is a (T, r, r) or (T, p, p) stack handled by
one batched call, such as the conjugate draws. Within a sweep the cell arrays
are flat over all observed cells, time-major, with one ``(start, stop)`` row
block per time (the layout of ``AlignedData`` and ``PosteriorChain.xi``);
``sample_xi``, ``sample_beta`` and ``sample_sigma_xi`` take those blocks and
draw every time in one call, bit for bit the per-time calls in time order.

Each observed-cell array is held once (the observed rows of X_t and S_t, z
and v); V is diagonal, so S'V^-1 y is S'(y / v) per row block. Each constant
has one builder: ``_gram`` gives S'V^-1 S, ``_beta_moments`` the stacked
regression-coefficient posterior covariances and their factors, and
``_scale_factors`` the factors of K*_1 and W*_t and their inverses. The
public conditionals call them on every call; ``_Precomputed`` calls them
once per chain, and ``_sweep`` passes the results in. It forms X_t beta_t
once for the filter and ``sample_xi``, and S_t eta_t once for
``sample_xi`` and ``sample_beta`` (both ``_basis_term``). A time with
nothing observed needs no branch: the empty products give zero information.

The latent path follows eta_1 ~ N(0, sigma_k2 K*_1) and eta_t = M_t
eta_{t-1} + u_t with u_t ~ N(0, sigma_k2 W*_t). ``_transitions`` is the one
source of the M_t stack, for the filter, the smoother (which reads the
filter's ``FilterResult.m``), the scale update and the prior draws alike.
``_draw_path`` is the one prior draw of a path, from the factors of
``_path_factors``: the chain's initial state uses it at unit scale, and
``predict.simulate`` at the true scale.

``_sweep`` is the one Gibbs sweep, a pure function of the constants, the
frozen ``ModelState`` and the generator: path, fine-scale field, regression
coefficients, scale variance, fine-scale variances (the last four for all
times at once). ``draw_shapes`` declares that order and each group's shape.
``gibbs_run`` only checks each state for non-finite values and stores the
kept draws in a buffer of the draws stored since the last flush. With a
``chainio.ChainWriter`` the buffer holds ``_flush_rows`` rows (those of
``FLUSH_EVERY`` iterations, fewer where they would exceed ``CHUNK_BYTES`` in
the widest group, at least one), and the writer appends them every
``_flush_rows`` x ``thin`` iterations, so a fit holds at most one flush of
draws. With no writer nothing is flushed: the buffer holds the whole chain,
and is returned as a ``PosteriorChain``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import BasisSystem
from .data import AlignedData, DesignSet, ObservationSet, align_observations
from .errors import ChainStateError, ValidationError
from .linops import chol_psd, inv, inv_spd
from .prior import PriorStructure

log = logging.getLogger(__name__)

# Iterations between two appends of a chain writer, unless CHUNK_BYTES allows fewer rows.
FLUSH_EVERY = 100
# Bytes of the widest block of draws held in memory: one group's rows of one
# flush here, one block of draws in ``predict.posterior_y``.
CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class Hyperparams:
    """Conjugate prior settings (defaults are the vague choices)."""

    mu_beta: float | np.ndarray = 0.0
    sigma_beta2: float = 1e15
    alpha_xi: float = 2.0
    beta_xi: float = 1.0
    alpha_k: float = 2.0
    beta_k: float = 1.0

    def __post_init__(self):
        for name in ("sigma_beta2", "alpha_xi", "beta_xi", "alpha_k", "beta_k"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"hyperparameter {name} must be positive")

    def mu_beta_vector(self, p: int) -> np.ndarray:
        mu = np.asarray(self.mu_beta, dtype=float)
        if mu.ndim == 0:
            return np.full(p, float(mu))
        if mu.shape != (p,):
            raise ValidationError(f"mu_beta must be scalar or length {p}")
        return mu


@dataclass(frozen=True)
class ModelState:
    """One configuration of all latent variables and variance parameters."""

    eta: np.ndarray  # (T, r)
    xi: np.ndarray  # flat over observed cells, time-major (see PosteriorChain)
    beta: np.ndarray  # (T, p)
    sigma_k2: float
    sigma_xi2: np.ndarray  # (T,)


@dataclass(frozen=True)
class FilterResult:
    """Kalman filter covariances per time (index i is time i+1), with what the smoother reuses.

    ``covs_pred`` is R, ``shrink`` (I + R G)^-1 and ``covs_filt`` P = shrink R;
    ``h``, ``g``, ``m``, ``k1`` and ``w`` are the filter's inputs. The means are
    formed when first read: ``means_pred`` a is the smoother's forward pass with
    no noise (u = 0, data = h), and ``means_filt`` is shrink a + P h.
    """

    covs_filt: np.ndarray  # (T, r, r)
    covs_pred: np.ndarray  # (T, r, r)
    shrink: np.ndarray  # (T, r, r)
    h: np.ndarray  # (T, r)
    g: np.ndarray  # (T, r, r)
    m: np.ndarray  # (T-1, r, r)
    k1: np.ndarray  # (r, r)
    w: np.ndarray  # (T-1, r, r)

    @cached_property
    def means_pred(self) -> np.ndarray:
        return _forward(self, np.zeros(self.h.shape), self.h)[0]

    @cached_property
    def means_filt(self) -> np.ndarray:
        a, h = self.means_pred[..., None], self.h[..., None]
        return (self.shrink @ a + self.covs_filt @ h)[..., 0]


def _gram(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """S' V^-1 S for diagonal V; zeros when nothing is observed."""
    return (s.T / v) @ s


def _stack(mats, r: int) -> np.ndarray:
    """A list of r x r matrices (possibly empty) as one (k, r, r) array."""
    return np.reshape(np.asarray(mats, dtype=float), (-1, r, r))


def _filter_core(
    h_seq: list[np.ndarray],
    g_seq: list[np.ndarray],
    m_seq: list[np.ndarray],
    k1: np.ndarray,
    w_seq: list[np.ndarray],
) -> FilterResult:
    """Covariance-form filter from the observation sufficient statistics.

    h_seq[i] = S_i' V_i^-1 z_i and g_seq[i] = S_i' V_i^-1 S_i (see
    ``_gram``); m_seq[i] propagates state i to i+1. The loop updates the
    covariances only, by one r x r inverse per time: from the predicted R,
    shrink = (I + R G)^-1 and the filtered P = shrink R. I + R G is
    nonsingular for any PSD R, so a singular innovation needs no special
    case, and a time with nothing observed (G = 0) keeps P = R exactly.
    """
    T, r = len(h_seq), k1.shape[0]
    ident, m = np.eye(r), _stack(m_seq, r)
    covs_filt, covs_pred, shrink = np.empty((3, T, r, r))
    covs_pred[0] = k1
    for i, cov in enumerate(covs_pred):
        if i > 0:
            np.matmul(m[i - 1] @ covs_filt[i - 1], m[i - 1].T, out=cov)
            cov += w_seq[i - 1]
        i_rg = cov @ g_seq[i]
        i_rg += ident
        shrink[i] = inv(i_rg)
        np.matmul(shrink[i], cov, out=covs_filt[i])
    h = np.reshape(h_seq, (T, r))
    return FilterResult(covs_filt, covs_pred, shrink, h, _stack(g_seq, r), m, k1, _stack(w_seq, r))


def kalman_filter(
    z_tilde: list[np.ndarray],
    s_seq: list[np.ndarray],
    m_seq: list[np.ndarray],
    k1: np.ndarray,
    w_seq: list[np.ndarray],
    v_seq: list[np.ndarray],
) -> FilterResult:
    """Forward filter for the shifted observations.

    Parameters
    ----------
    z_tilde : list of (n_i,) arrays
        Observations with fixed effects and the fine-scale field already
        subtracted; an empty array marks a time with nothing observed.
    s_seq : list of (n_i, r) arrays
        Observation matrices (basis values at the observed cells).
    m_seq, w_seq : lists of (r, r) arrays, length T-1
        Transition matrices and innovation covariances; entry i propagates
        state i to state i+1.
    k1 : (r, r) array
        Prior covariance of the initial state (mean zero).
    v_seq : list of (n_i,) arrays
        Diagonals of the known measurement covariance.

    Returns
    -------
    FilterResult
        Filtered and one-step-ahead covariances per time (the means when read),
        with the filter's gains and inputs. ``backward_sample`` and
        ``smoother_means`` need nothing else: no predicted covariance is
        ever inverted, so a singular one needs no fallback.
    """
    T = len(z_tilde)
    if not (len(s_seq) == len(v_seq) == T and len(m_seq) == len(w_seq) == T - 1):
        raise ValidationError("sequence lengths are inconsistent with T")
    r = k1.shape[0]
    h_seq, g_seq = [], []
    for i in range(T):
        z = np.asarray(z_tilde[i], dtype=float)
        s = np.asarray(s_seq[i], dtype=float)
        v = np.asarray(v_seq[i], dtype=float)
        if s.shape != (z.size, r) or v.shape != (z.size,):
            raise ValidationError(f"non-conformable observation block at index {i}")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(s)) and np.all(np.isfinite(v))):
            raise ValidationError(f"non-finite filter input at index {i}")
        if not np.all(v > 0):
            raise ValidationError(f"measurement variances must be positive at index {i}")
        h_seq.append(s.T @ (z / v))
        g_seq.append(_gram(s, v))
    return _filter_core(h_seq, g_seq, m_seq, k1, w_seq)


def _forward(filtered: FilterResult, u, data) -> tuple[np.ndarray, np.ndarray]:
    """In u: y_1 = u_1, y_{i+1} = trans_i y_i + u_{i+1} + M_i P_i data_i, trans_i = M_i shrink_i."""
    trans = filtered.m @ filtered.shrink[:-1]
    u[1:] += (filtered.m @ (filtered.covs_filt[:-1] @ data[:-1, :, None]))[..., 0]
    for i in range(len(trans)):
        u[i + 1] += trans[i] @ u[i]
    return u, trans


def _smoothed(filtered: FilterResult, u, data) -> np.ndarray:
    """y + R q, y from ``_forward`` and q_i = shrink_i' e_i + trans_i' q_{i+1}, e = data - G y."""
    y, trans = _forward(filtered, u, data)
    e = data - (filtered.g @ y[..., None])[..., 0]
    q = (filtered.shrink.swapaxes(-1, -2) @ e[..., None])[..., 0]
    for i in range(len(trans) - 1, -1, -1):
        q[i] += trans[i].T @ q[i + 1]
    return y + (filtered.covs_pred @ q[..., None])[..., 0]


def _check_transitions(filtered: FilterResult, m_seq) -> None:
    """An ``m_seq`` other than the filter's transitions ``filtered.m`` is a ValidationError."""
    m = filtered.m
    if m_seq is not m and not (np.size(m_seq) == m.size
                               and np.array_equal(np.reshape(m_seq, m.shape), m)):
        raise ValidationError("m_seq differs from the transitions the filter was run with")


def backward_sample(
    filtered: FilterResult,
    m_seq: list[np.ndarray],
    rng: np.random.Generator,
    factors: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Draw one state trajectory from the joint smoothing distribution.

    The mean-correction simulation smoother (Durbin & Koopman 2002), from the
    filter's matrices alone: nothing is factored when ``factors`` = (F, L)
    is given, F the factors of K_1 and each W_t (``_path_factors``), L those
    of each G_t. From one (2, T, r) block of normals (nu, eps), the forward
    pass runs on u = F nu and data h - L eps, so y is the filter means plus
    the prediction error of the prior's pseudo-data; the draw is y + R q.
    An ``m_seq`` other than the filter's transitions is a ValidationError.
    """
    _check_transitions(filtered, m_seq)
    path, gram = factors or (_path_factors(filtered.k1, filtered.w), chol_psd(filtered.g))
    nu, eps = rng.standard_normal((2, *filtered.h.shape))
    u = (path @ nu[..., None])[..., 0]
    return _smoothed(filtered, u, filtered.h - (gram @ eps[..., None])[..., 0])


def smoother_means(filtered: FilterResult, m_seq: list[np.ndarray]) -> np.ndarray:
    """Smoothed means a + R q: ``backward_sample``'s check and passes with no noise."""
    _check_transitions(filtered, m_seq)
    return _smoothed(filtered, np.zeros(filtered.h.shape), filtered.h)


def _one_block(n: int, *per_time):
    """The single-time call as a one-block call: blocks, then each per-time value as a row."""
    return [(0, n)], *(np.reshape(value, (1, -1)) for value in per_time)


def _basis_term(s: np.ndarray, eta: np.ndarray, blocks: list[tuple[int, int]]) -> np.ndarray:
    """S_t eta_t for every cell, one product per row block (also X_t beta_t, from x and beta)."""
    out = np.empty(s.shape[0])
    for i, (a, b) in enumerate(blocks):
        out[a:b] = s[a:b] @ eta[i]
    return out


def sample_xi(
    z_t: np.ndarray,
    x_t: np.ndarray,
    beta_t: np.ndarray,
    s_t: np.ndarray,
    eta_t: np.ndarray,
    v_t: np.ndarray,
    sigma_xi2_t: float,
    rng: np.random.Generator,
    blocks: list[tuple[int, int]] | None = None,
    basis_term: np.ndarray | None = None,
    fixed_term: np.ndarray | None = None,
) -> np.ndarray:
    """Fine-scale field full conditional: elementwise Gaussian.

    Posterior precision is 1/v + 1/sigma_xi2 per observed cell, with mean
    pulled toward the residual after fixed effects and the basis term.

    With ``blocks`` (one ``(start, stop)`` row range per time) the cell
    arrays hold several times in the flat time-major layout, and ``beta_t``,
    ``eta_t`` and ``sigma_xi2_t`` hold one row or entry per time. The draw is
    that of the per-time calls in time order, bit for bit, with or without
    ``basis_term`` and ``fixed_term`` (``_basis_term`` of s_t, eta_t and x_t, beta_t).
    """
    if blocks is None:
        blocks, beta_t, eta_t, sigma_xi2_t = _one_block(z_t.shape[0], beta_t, eta_t, sigma_xi2_t)
    if basis_term is None:
        basis_term = _basis_term(s_t, eta_t, blocks)
    if fixed_term is None:
        fixed_term = _basis_term(x_t, beta_t, blocks)
    resid = z_t - fixed_term - basis_term
    sigma2 = np.repeat(np.ravel(sigma_xi2_t), [b - a for a, b in blocks])
    var = 1.0 / (1.0 / v_t + 1.0 / sigma2)
    mean = var * resid / v_t
    return mean + np.sqrt(var) * rng.standard_normal(resid.shape[0])


def _beta_moments(
    x: np.ndarray,
    v: np.ndarray,
    hyper: Hyperparams,
    blocks: list[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """(posterior covariances, their factors) of the coefficients.

    Both are (k, p, p) stacks, one per row block, each from one batched call.
    """
    gram = np.stack([_gram(x[a:b], v[a:b]) for a, b in blocks])
    cov = inv_spd(gram + np.eye(x.shape[1]) / hyper.sigma_beta2)
    return cov, chol_psd(cov)


def sample_beta(
    z_t: np.ndarray,
    x_t: np.ndarray,
    xi_t: np.ndarray,
    s_t: np.ndarray,
    eta_t: np.ndarray,
    v_t: np.ndarray,
    hyper: Hyperparams,
    rng: np.random.Generator,
    precomputed: tuple[np.ndarray, np.ndarray] | None = None,
    blocks: list[tuple[int, int]] | None = None,
    basis_term: np.ndarray | None = None,
) -> np.ndarray:
    """Regression-coefficient full conditional (conjugate Gaussian).

    ``precomputed`` optionally carries ``_beta_moments(x_t, v_t, hyper,
    blocks)`` so repeated calls inside the sampler skip the constant
    factorizations; results are identical either way. ``blocks`` and
    ``basis_term`` work as in ``sample_xi``; with ``blocks`` the result has
    one row per time.
    """
    single = blocks is None
    if single:
        blocks, eta_t = _one_block(z_t.shape[0], eta_t)
    if basis_term is None:
        basis_term = _basis_term(s_t, eta_t, blocks)
    p = x_t.shape[1]
    cov, factor = precomputed or _beta_moments(x_t, v_t, hyper, blocks)
    w = (z_t - xi_t - basis_term) / v_t
    info = np.stack([x_t[a:b].T @ w[a:b] for a, b in blocks])
    mean = (cov @ (info + hyper.mu_beta_vector(p) / hyper.sigma_beta2)[..., None])[..., 0]
    draw = mean + (factor @ rng.standard_normal((len(blocks), p))[..., None])[..., 0]
    return draw[0] if single else draw


def _transitions(basis: BasisSystem) -> np.ndarray:
    """The (T-1, r, r) stack of M_2..M_T, each I_r (see ``basis``)."""
    r = basis.r
    return np.broadcast_to(np.eye(r), (len(basis.times) - 1, r, r))


def _path_factors(k1_star: np.ndarray, w_star_seq, sigma_k2: float = 1.0) -> np.ndarray:
    """Factors of sigma_k2 K*_1 and each sigma_k2 W*_t from one chol_psd; a zero scale is legal."""
    r = k1_star.shape[0]
    return chol_psd(sigma_k2 * np.concatenate((k1_star[None], _stack(w_star_seq, r))))


def _draw_path(factors: np.ndarray, m_seq: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """eta_1 = F_1 z_1, eta_t = M_t eta_{t-1} + F_t z_t, with the T x r normals as one block."""
    T, r, _ = factors.shape
    normals = rng.standard_normal((T, r))
    eta = np.zeros((T, r))
    eta[0] = factors[0] @ normals[0]
    for i in range(T - 1):
        eta[i + 1] = m_seq[i] @ eta[i] + factors[i + 1] @ normals[i + 1]
    return eta


def _scale_factors(
    k1_star: np.ndarray, w_star_seq: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """``_path_factors`` at unit scale, and the inverses of those factors.

    The initial path uses the factors and the scale update the inverses.
    """
    factors = _path_factors(k1_star, w_star_seq)
    return factors, inv(factors)


def sigma_k_posterior(
    eta: np.ndarray,
    k1_star: np.ndarray,
    w_star_seq: list[np.ndarray],
    m_seq: list[np.ndarray],
    hyper: Hyperparams,
    scale_factors: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, float]:
    """(shape, rate) of the inverse-gamma full conditional for the scale variance.

    ``scale_factors`` optionally carries ``_scale_factors(k1_star,
    w_star_seq)``; the quadratic forms are then products with the inverse
    factors, with no solve.
    """
    T, r = eta.shape
    _, inverses = scale_factors or _scale_factors(k1_star, w_star_seq)
    innovations = eta.copy()
    innovations[1:] -= (_stack(m_seq, r) @ eta[:-1, :, None])[..., 0]
    whitened = (inverses @ innovations[..., None])[..., 0]
    shape = T * r / 2.0 + hyper.alpha_k
    rate = hyper.beta_k + float(np.vdot(whitened, whitened)) / 2.0
    return shape, rate


def sample_sigma_k(
    eta: np.ndarray,
    k1_star: np.ndarray,
    w_star_seq: list[np.ndarray],
    m_seq: list[np.ndarray],
    hyper: Hyperparams,
    rng: np.random.Generator,
    scale_factors: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    shape, rate = sigma_k_posterior(eta, k1_star, w_star_seq, m_seq, hyper, scale_factors)
    return rate / rng.gamma(shape)


def sigma_xi_posterior(
    xi_t: np.ndarray, hyper: Hyperparams, blocks: list[tuple[int, int]] | None = None
):
    """(shape, rate) of the inverse-gamma full conditional for one time point.

    With ``blocks`` (as in ``sample_xi``) shape and rate are arrays, one
    entry per time. Sums of squares accumulate in cell order either way, so
    both forms give the same bits.
    """
    per_time = blocks is None
    if per_time:
        blocks = [(0, xi_t.shape[0])]
    counts = np.array([b - a for a, b in blocks])
    cell_time = np.repeat(np.arange(len(blocks)), counts)
    squares = np.bincount(cell_time, weights=xi_t * xi_t, minlength=len(blocks))
    shape = counts / 2.0 + hyper.alpha_xi
    rate = hyper.beta_xi + squares / 2.0
    return (float(shape[0]), float(rate[0])) if per_time else (shape, rate)


def sample_sigma_xi(
    xi_t: np.ndarray,
    hyper: Hyperparams,
    rng: np.random.Generator,
    blocks: list[tuple[int, int]] | None = None,
):
    shape, rate = sigma_xi_posterior(xi_t, hyper, blocks)
    return rate / rng.gamma(shape)


def _kept_draws(iterations: int, burn_in: int, thin: int) -> int:
    """How many draws a run stores: every ``thin``-th iteration from ``burn_in`` on."""
    return (iterations - burn_in + thin - 1) // thin


def draw_shapes(T: int, r: int, p: int, n: int) -> dict[str, tuple[int, ...]]:
    """The shape of one draw of each parameter group, in sweep order.

    The one declaration of a draw: the chain's arrays, the store loop, the
    manifest's ``sweep_order`` and the chain files (``chainio``) all follow it.
    """
    return {"eta": (T, r), "xi": (n,), "beta": (T, p), "sigma_k2": (), "sigma_xi2": (T,)}


def _flush_rows(shapes: dict[str, tuple[int, ...]], thin: int) -> int:
    """Rows of one flush: those of ``FLUSH_EVERY`` iterations, capped by ``CHUNK_BYTES``.

    The cap applies to the widest group's draws; a flush holds at least one row.
    """
    widest = max(math.prod(shape) for shape in shapes.values())
    return min(-(-FLUSH_EVERY // thin), max(1, CHUNK_BYTES // (8 * widest)))


@dataclass(frozen=True)
class PosteriorChain:
    """Stored draws (post burn-in, thinned) held in memory, plus run metadata.

    ``xi`` is flat over all observed cells, time-major; ``xi_offsets[t]``
    gives the start of time t's block (1-based times). The arrays hold rows
    ``[start, num_draws)`` of the chain: all of them unless this is the
    window of a streamed run, the rows stored since its last flush.
    ``read`` gives rows as ``chainio.StoredChain.read`` gives them from disk.
    """

    eta: np.ndarray  # (J, T, r)
    beta: np.ndarray  # (J, T, p)
    xi: np.ndarray  # (J, n)
    sigma_k2: np.ndarray  # (J,)
    sigma_xi2: np.ndarray  # (J, T)
    xi_offsets: dict[int, tuple[int, int]]
    seed: int
    iterations: int
    burn_in: int
    thin: int
    meta: dict = field(default_factory=dict)
    start: int = 0

    @property
    def num_draws(self) -> int:
        return self.start + self.eta.shape[0]

    @property
    def draws(self) -> dict[str, np.ndarray]:
        """The (J, ...) array of each parameter group, keyed and ordered as ``draw_shapes``."""
        return {name: getattr(self, name) for name in self.shapes}

    @property
    def shapes(self) -> dict[str, tuple[int, ...]]:
        """``draw_shapes`` of this chain."""
        _, T, r = self.eta.shape
        return draw_shapes(T, r, self.beta.shape[2], self.xi.shape[1])

    def read(self, name: str, start: int, stop: int):
        """Rows [start, stop) of group ``name``, each draw flattened."""
        if not self.start <= start <= stop <= self.num_draws:
            raise IndexError(f"rows [{start}, {stop}) are not in [{self.start}, {self.num_draws})")
        rows = getattr(self, name)[start - self.start : stop - self.start]
        return rows.reshape(len(rows), -1)


class _Precomputed:
    """Constant pieces reused across every Gibbs iteration.

    Cell arrays are flat over all observed cells, time-major, with
    ``blocks[i]`` the row range of time i (the layout of ``AlignedData``, whose
    ``z`` and ``v`` are used as they are, and of ``PosteriorChain.xi``).
    """

    def __init__(
        self,
        design_set: DesignSet,
        basis: BasisSystem,
        prior: PriorStructure,
        aligned: AlignedData,
        hyper: Hyperparams,
    ):
        design = design_set.design
        self.T = design.T
        self.r = basis.r
        self.p = design.p
        self.xi_offsets = aligned.offsets
        self.blocks = list(self.xi_offsets.values())
        self.z, self.v = aligned.z, aligned.v
        self.n_total = len(self.z)
        # the indices are in range; a checked take copies through a buffer
        self.x = np.empty((self.n_total, self.p))
        self.s = np.empty((self.n_total, self.r))
        for t, (a, b) in self.xi_offsets.items():
            idx = aligned.obs_idx[a:b]
            np.take(design_set.matrices[t], idx, axis=0, out=self.x[a:b], mode="clip")
            np.take(basis.s[t], idx, axis=0, out=self.s[a:b], mode="clip")
        self.g = np.stack([_gram(self.s[a:b], self.v[a:b]) for a, b in self.blocks])
        self.gram_factors = chol_psd(self.g)
        self.beta_pre = _beta_moments(self.x, self.v, hyper, self.blocks)
        self.m_seq = _transitions(basis)
        self.k1_star = prior.k_star[1]
        self.w_star_seq = _stack([prior.w_star[t] for t in range(2, self.T + 1)], self.r)
        self.scale_factors = _scale_factors(self.k1_star, self.w_star_seq)


def _initial_state(pre: _Precomputed, rng: np.random.Generator) -> ModelState:
    """Zero fixed effects and fine-scale field, unit variances, prior coefficients.

    The first sweep overwrites the path before anything reads it; drawing it
    still fixes where the chain's random stream starts.
    """
    return ModelState(
        eta=_draw_path(pre.scale_factors[0], pre.m_seq, rng),
        xi=np.zeros(pre.n_total),
        beta=np.zeros((pre.T, pre.p)),
        sigma_k2=1.0,
        sigma_xi2=np.ones(pre.T),
    )


def check_run_settings(iterations: int, burn_in: int, thin: int, seed: int) -> None:
    """The one rule for a chain's run settings; a ValidationError names the first broken one."""
    for broken, message in (
        (burn_in < 0, f"burn_in must be >= 0, got {burn_in}"),
        (iterations <= burn_in, f"iterations must exceed burn_in, got {iterations} and {burn_in}"),
        (thin < 1, f"thin must be >= 1, got {thin}"),
        (seed < 0, f"seed must be >= 0, got {seed}"),
    ):
        if broken:
            raise ValidationError(message)


def _sweep(
    pre: _Precomputed, state: ModelState, hyper: Hyperparams, rng: np.random.Generator
) -> ModelState:
    """One Gibbs sweep: each full conditional once, in ``draw_shapes`` order.

    The only place the conditionals are put together. Each is called through
    its module-global name, so a wrapper bound to that name sees every sweep.
    """
    # latent coefficient path
    fixed_term = _basis_term(pre.x, state.beta, pre.blocks)
    resid = (pre.z - fixed_term - state.xi) / pre.v
    h_seq = [pre.s[a:b].T @ resid[a:b] for a, b in pre.blocks]
    filt = _filter_core(
        h_seq, pre.g, pre.m_seq, state.sigma_k2 * pre.k1_star, state.sigma_k2 * pre.w_star_seq
    )
    factors = (math.sqrt(state.sigma_k2) * pre.scale_factors[0], pre.gram_factors)
    eta = backward_sample(filt, filt.m, rng, factors)

    # fine-scale field and regression coefficients, all times at once
    basis_term = _basis_term(pre.s, eta, pre.blocks)
    xi = sample_xi(
        pre.z, pre.x, state.beta, pre.s, eta, pre.v, state.sigma_xi2, rng,
        blocks=pre.blocks, basis_term=basis_term, fixed_term=fixed_term,
    )
    beta = sample_beta(
        pre.z, pre.x, xi, pre.s, eta, pre.v, hyper, rng,
        precomputed=pre.beta_pre, blocks=pre.blocks, basis_term=basis_term,
    )

    # variances
    sigma_k2 = sample_sigma_k(
        eta, pre.k1_star, pre.w_star_seq, pre.m_seq, hyper, rng, scale_factors=pre.scale_factors
    )
    sigma_xi2 = sample_sigma_xi(xi, hyper, rng, blocks=pre.blocks)
    return ModelState(eta=eta, xi=xi, beta=beta, sigma_k2=sigma_k2, sigma_xi2=sigma_xi2)


def gibbs_run(
    data: ObservationSet | AlignedData,
    design_set: DesignSet,
    basis: BasisSystem,
    prior: PriorStructure,
    hyper: Hyperparams,
    iterations: int,
    burn_in: int,
    thin: int = 1,
    seed: int = 0,
    writer=None,
):
    """Run one Gibbs chain and return the stored draws.

    ``data`` is an ``ObservationSet``, aligned here, or an ``AlignedData``
    that ``align_observations`` built on this same ``design_set``: its
    ``obs_idx`` is not checked again, and an index outside the design would
    gather a wrong row (``mode="clip"``), not fail.

    With no ``writer`` the draws are returned in memory. With a
    ``chainio.ChainWriter``, the rows stored since its last flush are
    appended to disk every ``thin`` x ``_flush_rows`` iterations, so memory
    holds at most one flush of draws, no group's rows more than
    ``CHUNK_BYTES`` unless one draw is wider, and interrupted runs remain
    inspectable; what ``writer.finalize`` returns (the store it
    wrote) is returned.
    """
    check_run_settings(iterations, burn_in, thin, seed)
    if isinstance(data, ObservationSet):
        data = align_observations(design_set, data)
    pre = _Precomputed(design_set, basis, prior, data, hyper)
    rng = np.random.default_rng(seed)
    state = _initial_state(pre, rng)
    num_draws = _kept_draws(iterations, burn_in, thin)
    shapes = draw_shapes(pre.T, pre.r, pre.p, pre.n_total)
    run = dict(
        xi_offsets=pre.xi_offsets, seed=seed, iterations=iterations, burn_in=burn_in, thin=thin,
        meta={"sweep_order": list(shapes), "move_types": "gibbs",
              "r": pre.r, "p": pre.p, "T": pre.T, "n": pre.n_total},
    )
    # the draws stored since the last flush; with no writer nothing is flushed
    per_flush = _flush_rows(shapes, thin)
    capacity = num_draws if writer is None else min(num_draws, per_flush)
    buffer = {name: np.empty((capacity, *shape)) for name, shape in shapes.items()}
    stored = held = 0

    def window() -> PosteriorChain:
        rows = {name: array[:held] for name, array in buffer.items()}
        return PosteriorChain(**rows, **run, start=stored - held)

    for it in range(iterations):
        state = _sweep(pre, state, hyper, rng)
        if not all(np.all(np.isfinite(getattr(state, name))) for name in shapes):
            raise ChainStateError(f"non-finite sampler state at iteration {it}")
        if it >= burn_in and (it - burn_in) % thin == 0:
            for name, rows in buffer.items():
                rows[held] = getattr(state, name)
            stored += 1
            held += 1
        if writer is not None and (it + 1) % (per_flush * thin) == 0:
            writer.flush(window(), stored, it + 1)
            held = 0

    return window() if writer is None else writer.finalize(window())
