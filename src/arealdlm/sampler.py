"""Gibbs sampler with Kalman forward filtering / backward sampling.

The latent coefficient path is drawn jointly by FFBS; the fine-scale field,
regression coefficients, and the two variance parameters have conjugate full
conditionals. All observation-side updates exploit the diagonal measurement
covariance, so every dense factorization in the per-iteration path is r x r
or p x p.

Each per-time constant has one builder: ``_information`` gives S'V^-1 and
S'V^-1 S, ``_beta_moments`` the regression-coefficient posterior covariance,
its factor and X'V^-1, and ``_scale_factors`` the factors of K*_1 and W*_t.
The public conditionals call them on every call; ``gibbs_run`` calls them
once per chain and passes the results in, so one sweep is the public
conditionals with the constants hoisted. A time with nothing observed needs
no branch: the empty products give zero information.

Sweep order per iteration: coefficient path, then fine-scale field per time,
then regression coefficients per time, then the coefficient-scale variance,
then the per-time fine-scale variances. ``gibbs_run`` stores each kept draw
in the arrays of the ``PosteriorChain`` it returns, and a
``chainio.ChainWriter`` appends the new rows from those arrays every
``flush_every`` iterations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSystem
from .data import AlignedData, DesignSet, ObservationSet, align_observations
from .errors import ChainStateError, ValidationError
from .linops import chol_psd, draw_mvn, inv_spd, symmetrize
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
    xi: list[np.ndarray]  # per time, length n_t
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


def _filter_core(
    h_seq: list[np.ndarray],
    g_seq: list[np.ndarray],
    m_seq: list[np.ndarray],
    k1: np.ndarray,
    w_seq: list[np.ndarray],
) -> FilterResult:
    """Information-form filter from the observation sufficient statistics.

    h_seq[i] = S_i' V_i^-1 z_i and g_seq[i] = S_i' V_i^-1 S_i (see
    ``_information``); m_seq[i] propagates state i to i+1. A time whose
    information is zero keeps its predicted moments.
    """
    T = len(h_seq)
    r = k1.shape[0]
    means_filt = np.zeros((T, r))
    means_pred = np.zeros((T, r))
    covs_filt = np.zeros((T, r, r))
    covs_pred = np.zeros((T, r, r))
    covs_pred_inv = np.zeros((T, r, r))
    for i in range(T):
        if i == 0:
            a = np.zeros(r)
            rr = symmetrize(k1)
        else:
            m = m_seq[i - 1]
            a = m @ means_filt[i - 1]
            rr = symmetrize(m @ covs_filt[i - 1] @ m.T + w_seq[i - 1])
        means_pred[i] = a
        covs_pred[i] = rr
        rr_inv = inv_spd(rr)
        covs_pred_inv[i] = rr_inv
        if not np.any(g_seq[i]):
            means_filt[i] = a
            covs_filt[i] = rr
        else:
            prec = rr_inv + g_seq[i]
            p_filt = inv_spd(prec)
            covs_filt[i] = p_filt
            means_filt[i] = p_filt @ (rr_inv @ a + h_seq[i])
    return FilterResult(means_filt, means_pred, covs_filt, covs_pred, covs_pred_inv)


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


def _backward_step(
    filtered: FilterResult, m: np.ndarray, i: int, following: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gain and mean of state i given the filter and state i+1 = ``following``."""
    gain = filtered.covs_filt[i] @ m.T @ filtered.covs_pred_inv[i + 1]
    return gain, filtered.means_filt[i] + gain @ (following - filtered.means_pred[i + 1])


def backward_sample(
    filtered: FilterResult, m_seq: list[np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Draw one state trajectory from the joint smoothing distribution."""
    T, r = filtered.means_filt.shape
    draw = np.zeros((T, r))
    draw[T - 1] = draw_mvn(rng, filtered.means_filt[T - 1], filtered.covs_filt[T - 1])
    for i in range(T - 2, -1, -1):
        gain, mean = _backward_step(filtered, m_seq[i], i, draw[i + 1])
        cov = symmetrize(
            filtered.covs_filt[i] - gain @ filtered.covs_pred[i + 1] @ gain.T
        )
        draw[i] = draw_mvn(rng, mean, cov)
    return draw


def smoother_means(filtered: FilterResult, m_seq: list[np.ndarray]) -> np.ndarray:
    """Fixed-interval smoothed means implied by the backward recursion."""
    T, r = filtered.means_filt.shape
    means = np.zeros((T, r))
    means[T - 1] = filtered.means_filt[T - 1]
    for i in range(T - 2, -1, -1):
        means[i] = _backward_step(filtered, m_seq[i], i, means[i + 1])[1]
    return means


def sample_xi(
    z_t: np.ndarray,
    x_t: np.ndarray,
    beta_t: np.ndarray,
    s_t: np.ndarray,
    eta_t: np.ndarray,
    v_t: np.ndarray,
    sigma_xi2_t: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fine-scale field full conditional: elementwise Gaussian.

    Posterior precision is 1/v + 1/sigma_xi2 per observed cell, with mean
    pulled toward the residual after fixed effects and the basis term.
    """
    resid = z_t - x_t @ beta_t - s_t @ eta_t
    var = 1.0 / (1.0 / v_t + 1.0 / sigma_xi2_t)
    mean = var * resid / v_t
    return mean + np.sqrt(var) * rng.standard_normal(resid.shape[0])


def _beta_moments(
    x: np.ndarray, v: np.ndarray, hyper: Hyperparams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(posterior covariance, its factor, X' V^-1) of the coefficients at one time."""
    xv = x.T / v
    cov = inv_spd(xv @ x + np.eye(x.shape[1]) / hyper.sigma_beta2)
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
) -> np.ndarray:
    """Regression-coefficient full conditional (conjugate Gaussian).

    ``precomputed`` optionally carries ``_beta_moments(x_t, v_t, hyper)`` so
    repeated calls inside the sampler skip the constant factorizations;
    results are identical either way.
    """
    p = x_t.shape[1]
    cov, factor, xv = precomputed or _beta_moments(x_t, v_t, hyper)
    resid = z_t - xi_t - s_t @ eta_t
    mean = cov @ (xv @ resid + hyper.mu_beta_vector(p) / hyper.sigma_beta2)
    return mean + factor @ rng.standard_normal(p)


def _scale_factors(
    k1_star: np.ndarray, w_star_seq: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Factors of K*_1 and of each W*_t, shared by the scale update and the initial path."""
    return chol_psd(k1_star), [chol_psd(w) for w in w_star_seq]


def _quad_form_spd(chol_factor: np.ndarray, vec: np.ndarray) -> float:
    """vec' A^-1 vec given the cholesky factor of A."""
    y = np.linalg.solve(chol_factor, vec)
    return float(y @ y)


def sigma_k_posterior(
    eta: np.ndarray,
    k1_star: np.ndarray,
    w_star_seq: list[np.ndarray],
    m_seq: list[np.ndarray],
    hyper: Hyperparams,
    chol_factors: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> tuple[float, float]:
    """(shape, rate) of the inverse-gamma full conditional for the scale variance."""
    T, r = eta.shape
    k1_factor, w_factors = chol_factors or _scale_factors(k1_star, w_star_seq)
    shape = T * r / 2.0 + hyper.alpha_k
    rate = hyper.beta_k + _quad_form_spd(k1_factor, eta[0]) / 2.0
    for i in range(T - 1):
        u = eta[i + 1] - m_seq[i] @ eta[i]
        rate += _quad_form_spd(w_factors[i], u) / 2.0
    return shape, rate


def sample_sigma_k(
    eta: np.ndarray,
    k1_star: np.ndarray,
    w_star_seq: list[np.ndarray],
    m_seq: list[np.ndarray],
    hyper: Hyperparams,
    rng: np.random.Generator,
    chol_factors: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> float:
    shape, rate = sigma_k_posterior(eta, k1_star, w_star_seq, m_seq, hyper, chol_factors)
    return rate / rng.gamma(shape)


def sigma_xi_posterior(xi_t: np.ndarray, hyper: Hyperparams) -> tuple[float, float]:
    """(shape, rate) of the inverse-gamma full conditional for one time point."""
    n_t = xi_t.shape[0]
    return n_t / 2.0 + hyper.alpha_xi, hyper.beta_xi + float(xi_t @ xi_t) / 2.0


def sample_sigma_xi(
    xi_t: np.ndarray, hyper: Hyperparams, rng: np.random.Generator
) -> float:
    shape, rate = sigma_xi_posterior(xi_t, hyper)
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
    """Constant per-time pieces reused across every Gibbs iteration."""

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
        self.x_obs = []
        self.s_obs = []
        self.z = []
        self.v = []
        self.sv = []  # S' V^-1
        self.g = []  # S' V^-1 S
        self.beta_pre = []  # (cov, factor, X' V^-1)
        self.xi_offsets = {}
        start = 0
        for t in self.times:
            idx = aligned.obs_idx[t]
            x_t = design_set.matrices[t][idx]
            s_t = basis.s[t][idx]
            v_t = aligned.v[t]
            self.x_obs.append(x_t)
            self.s_obs.append(s_t)
            self.z.append(aligned.z[t])
            self.v.append(v_t)
            sv, g = _information(s_t, v_t)
            self.sv.append(sv)
            self.g.append(g)
            self.beta_pre.append(_beta_moments(x_t, v_t, hyper))
            self.xi_offsets[t] = (start, start + aligned.n_t(t))
            start += aligned.n_t(t)
        self.n_total = start
        self.m_seq = [np.eye(self.r) for _ in self.times[1:]]  # M_t = I_r, see basis
        self.k1_star = prior.k_star[1]
        self.w_star_seq = [prior.w_star[t] for t in self.times[1:]]
        self.scale_factors = _scale_factors(self.k1_star, self.w_star_seq)


def _initial_state(pre: _Precomputed, rng: np.random.Generator) -> ModelState:
    """Zero fixed effects and fine-scale field, unit variances, prior coefficients."""
    k1_factor, w_factors = pre.scale_factors
    eta = np.zeros((pre.T, pre.r))
    eta[0] = k1_factor @ rng.standard_normal(pre.r)
    for i in range(pre.T - 1):
        eta[i + 1] = pre.m_seq[i] @ eta[i] + w_factors[i] @ rng.standard_normal(pre.r)
    return ModelState(
        eta=eta,
        xi=[np.zeros(z.size) for z in pre.z],
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
            pre.sv[i] @ (pre.z[i] - pre.x_obs[i] @ state.beta[i] - state.xi[i])
            for i in range(pre.T)
        ]
        filt = _filter_core(
            h_seq,
            pre.g,
            pre.m_seq,
            state.sigma_k2 * pre.k1_star,
            [state.sigma_k2 * w for w in pre.w_star_seq],
        )
        state.eta = backward_sample(filt, pre.m_seq, rng)

        # fine-scale field
        for i in range(pre.T):
            state.xi[i] = sample_xi(
                pre.z[i],
                pre.x_obs[i],
                state.beta[i],
                pre.s_obs[i],
                state.eta[i],
                pre.v[i],
                state.sigma_xi2[i],
                rng,
            )

        # regression coefficients
        for i in range(pre.T):
            state.beta[i] = sample_beta(
                pre.z[i],
                pre.x_obs[i],
                state.xi[i],
                pre.s_obs[i],
                state.eta[i],
                pre.v[i],
                hyper,
                rng,
                precomputed=pre.beta_pre[i],
            )

        # variances
        state.sigma_k2 = sample_sigma_k(
            state.eta,
            pre.k1_star,
            pre.w_star_seq,
            pre.m_seq,
            hyper,
            rng,
            chol_factors=pre.scale_factors,
        )
        for i in range(pre.T):
            state.sigma_xi2[i] = sample_sigma_xi(state.xi[i], hyper, rng)

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
            chain.xi[stored] = np.concatenate(state.xi)
            chain.sigma_k2[stored] = state.sigma_k2
            chain.sigma_xi2[stored] = state.sigma_xi2
            stored += 1
        if writer is not None and (it + 1) % flush_every == 0:
            writer.flush(chain, stored, it + 1)

    if writer is not None:
        writer.finalize(chain)
    return chain
