"""Gibbs sampler with Kalman forward filtering / backward sampling.

The latent coefficient path is drawn jointly by FFBS; the fine-scale field,
regression coefficients, and the two variance parameters have conjugate full
conditionals. All observation-side updates exploit the diagonal measurement
covariance, so every dense factorization in the per-iteration path is r x r
or p x p.

Only the step of the forward filter that needs the step before runs once per
time, as one r x r inverse (``_filter_core``). Everything else is a
(T, r, r) or (T, p, p) stack handled by one batched call: the
predicted-covariance inverses, the backward gains, covariances and their
factors, and the conjugate draws. Within a sweep the cell arrays are flat
over all observed cells, time-major, with one ``(start, stop)`` row block per
time (the layout of ``PosteriorChain.xi``); ``sample_xi``, ``sample_beta``
and ``sample_sigma_xi`` take those blocks and draw every time in one call,
bit for bit the per-time calls in time order.

Each constant has one builder: ``_information`` gives S'V^-1 and S'V^-1 S,
``_beta_moments`` the stacked regression-coefficient posterior covariances,
their factors and X'V^-1, and ``_scale_factors`` the factors of K*_1 and
W*_t and their inverses. The public conditionals call them on every call;
``gibbs_run`` calls them once per chain and passes the results in, so one
sweep is the public conditionals with the constants hoisted. A time with
nothing observed needs no branch: the empty products give zero information.

Sweep order per iteration: coefficient path, then the fine-scale field, then
the regression coefficients, then the coefficient-scale variance, then the
fine-scale variances (each of the last four for all times at once, in time
order). ``gibbs_run`` stores each kept draw in the arrays of the
``PosteriorChain`` it returns, and a ``chainio.ChainWriter`` appends the new
rows from those arrays every ``flush_every`` iterations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSystem
from .data import AlignedData, DesignSet, ObservationSet, align_observations
from .errors import ChainStateError, ValidationError
from .linops import chol_psd, inv, inv_spd, symmetrize
from .prior import PriorStructure

log = logging.getLogger(__name__)


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


@dataclass
class ModelState:
    """One configuration of all latent variables and variance parameters."""

    eta: np.ndarray  # (T, r)
    xi: np.ndarray  # flat over observed cells, time-major (see PosteriorChain)
    beta: np.ndarray  # (T, p)
    sigma_k2: float
    sigma_xi2: np.ndarray  # (T,)


@dataclass(frozen=True)
class FilterResult:
    """Kalman filter moments; index i is time i+1."""

    means_filt: np.ndarray  # (T, r)
    means_pred: np.ndarray  # (T, r)
    covs_filt: np.ndarray  # (T, r, r)
    covs_pred: np.ndarray  # (T, r, r)
    covs_pred_inv: np.ndarray = field(repr=False)  # reused by the backward pass


def _information(s: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S' V^-1, S' V^-1 S) for diagonal V; zeros when nothing is observed."""
    sv = s.T / v
    return sv, sv @ s


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
    ``_information``); m_seq[i] propagates state i to i+1. The one step per
    time that needs the step before is a single r x r inverse: from the
    predicted mean a and covariance R, the filtered moments are
    (I + R G)^-1 R and (I + R G)^-1 (a + R h). I + R G is nonsingular for
    any PSD R, so a singular innovation needs no special case, and a time
    with nothing observed (G = 0, h = 0) keeps its predicted moments
    exactly. The covariances are symmetrized after the loop, and the
    predicted-covariance inverses the backward pass needs are one batched
    inverse.
    """
    T = len(h_seq)
    r = k1.shape[0]
    ident = np.eye(r)
    means_filt = np.zeros((T, r))
    means_pred = np.zeros((T, r))
    covs_filt = np.zeros((T, r, r))
    covs_pred = np.zeros((T, r, r))
    mean, cov = np.zeros(r), k1
    for i in range(T):
        if i > 0:
            m = m_seq[i - 1]
            mean = m @ means_filt[i - 1]
            cov = m @ covs_filt[i - 1] @ m.T + w_seq[i - 1]
        means_pred[i] = mean
        covs_pred[i] = cov
        shrink = inv(ident + cov @ g_seq[i])
        covs_filt[i] = shrink @ cov
        means_filt[i] = shrink @ (mean + cov @ h_seq[i])
    covs_pred = symmetrize(covs_pred)
    return FilterResult(
        means_filt, means_pred, symmetrize(covs_filt), covs_pred, inv_spd(covs_pred)
    )


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
        Filtered and one-step-ahead means/covariances per time, plus cached
        predicted-covariance inverses for the backward pass. Singular
        predicted covariances fall back to a logged eigenvalue
        pseudo-inverse, never silently.
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
        sv, g = _information(s, v)
        h_seq.append(sv @ z)
        g_seq.append(g)
    return _filter_core(h_seq, g_seq, m_seq, k1, w_seq)


def _backward_gains(
    filtered: FilterResult, m_seq: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains J_i = P_i M_i' R_{i+1}^-1, offsets, and P_i M_i', stacked over time.

    The mean of state i < T-1 given the filter and state i+1 = x is
    offset_i + J_i x, with offset_i = m_i - J_i a_{i+1}; the last offset is
    the last filtered mean.
    """
    T, r = filtered.means_filt.shape
    cross = filtered.covs_filt[:-1] @ _stack(m_seq, r).swapaxes(-1, -2)
    gains = cross @ filtered.covs_pred_inv[1:]
    offsets = filtered.means_filt.copy()
    offsets[:-1] -= (gains @ filtered.means_pred[1:, :, None])[..., 0]
    return gains, offsets, cross


def backward_sample(
    filtered: FilterResult, m_seq: list[np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Draw one state trajectory from the joint smoothing distribution.

    The gains and the backward covariances P_i - J_i M_i P_i of all times are
    stacks, factored by one stacked Cholesky, so the recursion itself is
    matrix-vector products. The T x r normals are one block, used from the
    last time back: the same stream as one r-vector per time.
    """
    T, r = filtered.means_filt.shape
    gains, offsets, cross = _backward_gains(filtered, m_seq)
    covs = filtered.covs_filt.copy()
    covs[:-1] -= gains @ cross.swapaxes(-1, -2)
    normals = rng.standard_normal((T, r))[::-1]
    draw = offsets + (chol_psd(covs) @ normals[..., None])[..., 0]
    for i in range(T - 2, -1, -1):
        draw[i] += gains[i] @ draw[i + 1]
    return draw


def smoother_means(filtered: FilterResult, m_seq: list[np.ndarray]) -> np.ndarray:
    """Fixed-interval smoothed means implied by the backward recursion."""
    T = filtered.means_filt.shape[0]
    gains, means, _ = _backward_gains(filtered, m_seq)
    for i in range(T - 2, -1, -1):
        means[i] += gains[i] @ means[i + 1]
    return means


def _one_block(n: int, *per_time):
    """The single-time call as a one-block call: blocks, then each per-time value as a row."""
    return [(0, n)], *(np.reshape(value, (1, -1)) for value in per_time)


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
) -> np.ndarray:
    """Fine-scale field full conditional: elementwise Gaussian.

    Posterior precision is 1/v + 1/sigma_xi2 per observed cell, with mean
    pulled toward the residual after fixed effects and the basis term.

    With ``blocks`` (one ``(start, stop)`` row range per time) the cell
    arrays hold several times in the flat time-major layout, and ``beta_t``,
    ``eta_t`` and ``sigma_xi2_t`` hold one row or entry per time. The draw is
    that of the per-time calls in time order, bit for bit.
    """
    if blocks is None:
        blocks, beta_t, eta_t, sigma_xi2_t = _one_block(z_t.shape[0], beta_t, eta_t, sigma_xi2_t)
    resid = np.empty(z_t.shape[0])
    for i, (a, b) in enumerate(blocks):
        resid[a:b] = z_t[a:b] - x_t[a:b] @ beta_t[i] - s_t[a:b] @ eta_t[i]
    sigma2 = np.repeat(np.ravel(sigma_xi2_t), [b - a for a, b in blocks])
    var = 1.0 / (1.0 / v_t + 1.0 / sigma2)
    mean = var * resid / v_t
    return mean + np.sqrt(var) * rng.standard_normal(resid.shape[0])


def _beta_moments(
    x: np.ndarray,
    v: np.ndarray,
    hyper: Hyperparams,
    blocks: list[tuple[int, int]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(posterior covariances, their factors, X' V^-1) of the coefficients.

    The covariances and factors are (k, p, p) stacks, one per row block
    (default: all rows are one time), each from one batched call.
    """
    xv = x.T / v
    gram = np.stack([xv[:, a:b] @ x[a:b] for a, b in blocks or [(0, x.shape[0])]])
    cov = inv_spd(gram + np.eye(x.shape[1]) / hyper.sigma_beta2)
    return cov, chol_psd(cov), xv


def sample_beta(
    z_t: np.ndarray,
    x_t: np.ndarray,
    xi_t: np.ndarray,
    s_t: np.ndarray,
    eta_t: np.ndarray,
    v_t: np.ndarray,
    hyper: Hyperparams,
    rng: np.random.Generator,
    precomputed: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    blocks: list[tuple[int, int]] | None = None,
) -> np.ndarray:
    """Regression-coefficient full conditional (conjugate Gaussian).

    ``precomputed`` optionally carries ``_beta_moments(x_t, v_t, hyper,
    blocks)`` so repeated calls inside the sampler skip the constant
    factorizations; results are identical either way. ``blocks`` works as in
    ``sample_xi``; the result then has one row per time.
    """
    single = blocks is None
    if single:
        blocks, eta_t = _one_block(z_t.shape[0], eta_t)
    p = x_t.shape[1]
    cov, factor, xv = precomputed or _beta_moments(x_t, v_t, hyper, blocks)
    info = np.stack(
        [
            xv[:, a:b] @ (z_t[a:b] - xi_t[a:b] - s_t[a:b] @ eta_t[i])
            for i, (a, b) in enumerate(blocks)
        ]
    )
    mean = (cov @ (info + hyper.mu_beta_vector(p) / hyper.sigma_beta2)[..., None])[..., 0]
    draw = mean + (factor @ rng.standard_normal((len(blocks), p))[..., None])[..., 0]
    return draw[0] if single else draw


def _scale_factors(
    k1_star: np.ndarray, w_star_seq: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Factors of K*_1 and of each W*_t, and the inverses of those factors.

    Both are (T, r, r) stacks with K*_1 first, each from one batched call;
    the initial path uses the factors and the scale update the inverses.
    """
    r = k1_star.shape[0]
    factors = chol_psd(np.concatenate((k1_star[None], _stack(w_star_seq, r))))
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


@dataclass(frozen=True)
class PosteriorChain:
    """Stored draws (post burn-in, thinned) plus run metadata.

    ``xi`` is flat over all observed cells, time-major; ``xi_offsets[t]``
    gives the start of time t's block (1-based times).
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

    @property
    def num_draws(self) -> int:
        return self.eta.shape[0]


class _Precomputed:
    """Constant pieces reused across every Gibbs iteration.

    Cell arrays are flat over all observed cells, time-major, with
    ``blocks[i]`` the row range of time i (the layout of ``PosteriorChain.xi``).
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
        self.times = list(range(1, self.T + 1))
        x_obs, s_obs = [], []
        self.sv = []  # S' V^-1 per time
        self.g = []  # S' V^-1 S per time
        self.xi_offsets = {}
        start = 0
        for t in self.times:
            idx = aligned.obs_idx[t]
            x_obs.append(design_set.matrices[t][idx])
            s_obs.append(basis.s[t][idx])
            sv, g = _information(s_obs[-1], aligned.v[t])
            self.sv.append(sv)
            self.g.append(g)
            self.xi_offsets[t] = (start, start + aligned.n_t(t))
            start += aligned.n_t(t)
        self.n_total = start
        self.blocks = list(self.xi_offsets.values())
        self.x = np.concatenate(x_obs)
        self.s = np.concatenate(s_obs)
        self.z = np.concatenate([aligned.z[t] for t in self.times])
        self.v = np.concatenate([aligned.v[t] for t in self.times])
        self.beta_pre = _beta_moments(self.x, self.v, hyper, self.blocks)
        self.m_seq = np.broadcast_to(np.eye(self.r), (self.T - 1, self.r, self.r))  # M_t = I_r, see basis
        self.k1_star = prior.k_star[1]
        self.w_star_seq = _stack([prior.w_star[t] for t in self.times[1:]], self.r)
        self.scale_factors = _scale_factors(self.k1_star, self.w_star_seq)


def _initial_state(pre: _Precomputed, rng: np.random.Generator) -> ModelState:
    """Zero fixed effects and fine-scale field, unit variances, prior coefficients."""
    factors, _ = pre.scale_factors
    eta = np.zeros((pre.T, pre.r))
    eta[0] = factors[0] @ rng.standard_normal(pre.r)
    for i in range(pre.T - 1):
        eta[i + 1] = pre.m_seq[i] @ eta[i] + factors[i + 1] @ rng.standard_normal(pre.r)
    return ModelState(
        eta=eta,
        xi=np.zeros(pre.n_total),
        beta=np.zeros((pre.T, pre.p)),
        sigma_k2=1.0,
        sigma_xi2=np.ones(pre.T),
    )


def gibbs_run(
    data: ObservationSet,
    design_set: DesignSet,
    basis: BasisSystem,
    prior: PriorStructure,
    hyper: Hyperparams,
    iterations: int,
    burn_in: int,
    thin: int = 1,
    seed: int = 0,
    writer=None,
    flush_every: int = 100,
) -> PosteriorChain:
    """Run one Gibbs chain and return the stored draws.

    When ``writer`` is given (see chainio.ChainWriter), the rows stored since
    its last flush are appended to disk every ``flush_every`` iterations, so
    interrupted runs remain inspectable.
    """
    if iterations <= burn_in:
        raise ValidationError("iterations must exceed burn_in")
    if thin < 1:
        raise ValidationError("thin must be >= 1")
    aligned = align_observations(design_set, data)
    pre = _Precomputed(design_set, basis, prior, aligned, hyper)
    rng = np.random.default_rng(seed)
    state = _initial_state(pre, rng)
    num_draws = (iterations - burn_in + thin - 1) // thin
    chain = PosteriorChain(
        eta=np.zeros((num_draws, pre.T, pre.r)),
        beta=np.zeros((num_draws, pre.T, pre.p)),
        xi=np.zeros((num_draws, pre.n_total)),
        sigma_k2=np.zeros(num_draws),
        sigma_xi2=np.zeros((num_draws, pre.T)),
        xi_offsets=pre.xi_offsets,
        seed=seed,
        iterations=iterations,
        burn_in=burn_in,
        thin=thin,
        meta={
            "sweep_order": ["eta", "xi", "beta", "sigma_k2", "sigma_xi2"],
            "move_types": "gibbs",
            "r": pre.r,
            "p": pre.p,
            "T": pre.T,
            "n": pre.n_total,
        },
    )
    stored = 0

    for it in range(iterations):
        # latent coefficient path
        h_seq = [
            pre.sv[i] @ (pre.z[a:b] - pre.x[a:b] @ state.beta[i] - state.xi[a:b])
            for i, (a, b) in enumerate(pre.blocks)
        ]
        filt = _filter_core(
            h_seq,
            pre.g,
            pre.m_seq,
            state.sigma_k2 * pre.k1_star,
            state.sigma_k2 * pre.w_star_seq,
        )
        state.eta = backward_sample(filt, pre.m_seq, rng)

        # fine-scale field and regression coefficients, all times at once
        state.xi = sample_xi(
            pre.z, pre.x, state.beta, pre.s, state.eta, pre.v, state.sigma_xi2, rng,
            blocks=pre.blocks,
        )
        state.beta = sample_beta(
            pre.z, pre.x, state.xi, pre.s, state.eta, pre.v, hyper, rng,
            precomputed=pre.beta_pre, blocks=pre.blocks,
        )

        # variances
        state.sigma_k2 = sample_sigma_k(
            state.eta,
            pre.k1_star,
            pre.w_star_seq,
            pre.m_seq,
            hyper,
            rng,
            scale_factors=pre.scale_factors,
        )
        state.sigma_xi2 = sample_sigma_xi(state.xi, hyper, rng, blocks=pre.blocks)

        if not (
            np.isfinite(state.sigma_k2)
            and np.all(np.isfinite(state.sigma_xi2))
            and np.all(np.isfinite(state.eta))
            and np.all(np.isfinite(state.beta))
        ):
            raise ChainStateError(f"non-finite sampler state at iteration {it}")

        if it >= burn_in and (it - burn_in) % thin == 0:
            chain.eta[stored] = state.eta
            chain.beta[stored] = state.beta
            chain.xi[stored] = state.xi
            chain.sigma_k2[stored] = state.sigma_k2
            chain.sigma_xi2[stored] = state.sigma_xi2
            stored += 1
        if writer is not None and (it + 1) % flush_every == 0:
            writer.flush(chain, stored, it + 1)

    if writer is not None:
        writer.finalize(chain)
    return chain
