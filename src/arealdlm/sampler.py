"""Gibbs sampler with Kalman forward filtering / backward sampling.

The latent coefficient path is drawn jointly by FFBS; the fine-scale field,
regression coefficients, and the two variance parameters have conjugate full
conditionals. All observation-side updates exploit the diagonal measurement
covariance, so every dense factorization in the per-iteration path is r x r
or p x p.

Sweep order per iteration: coefficient path, then fine-scale field per time,
then regression coefficients per time, then the coefficient-scale variance,
then the per-time fine-scale variances.
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
    covs_pred_inv: np.ndarray = field(repr=False, default=None)  # cached for reuse


def _filter_core(
    h_seq: list[np.ndarray],
    g_seq: list[np.ndarray],
    m_seq: list[np.ndarray],
    k1: np.ndarray,
    w_seq: list[np.ndarray],
) -> FilterResult:
    """Information-form filter from the observation sufficient statistics.

    h_seq[i] = S_i' V_i^-1 z_i (zeros when nothing observed), g_seq[i] =
    S_i' V_i^-1 S_i; m_seq[i] propagates state i to i+1.
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
        if h_seq[i].size == 0 or not np.any(g_seq[i]):
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
        if z.size and not (
            np.all(np.isfinite(z)) and np.all(np.isfinite(s)) and np.all(np.isfinite(v))
        ):
            raise ValidationError(f"non-finite filter input at index {i}")
        if z.size and not np.all(v > 0):
            raise ValidationError(f"measurement variances must be positive at index {i}")
        sv = s.T / v if z.size else np.zeros((r, 0))
        h_seq.append(sv @ z if z.size else np.zeros(r))
        g_seq.append(sv @ s if z.size else np.zeros((r, r)))
    return _filter_core(h_seq, g_seq, m_seq, k1, w_seq)


def backward_sample(
    filtered: FilterResult, m_seq: list[np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Draw one state trajectory from the joint smoothing distribution."""
    T, r = filtered.means_filt.shape
    draw = np.zeros((T, r))
    draw[T - 1] = draw_mvn(rng, filtered.means_filt[T - 1], filtered.covs_filt[T - 1])
    for i in range(T - 2, -1, -1):
        rr_inv = filtered.covs_pred_inv[i + 1]
        gain = filtered.covs_filt[i] @ m_seq[i].T @ rr_inv
        mean = filtered.means_filt[i] + gain @ (draw[i + 1] - filtered.means_pred[i + 1])
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
        gain = filtered.covs_filt[i] @ m_seq[i].T @ filtered.covs_pred_inv[i + 1]
        means[i] = filtered.means_filt[i] + gain @ (means[i + 1] - filtered.means_pred[i + 1])
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

    ``precomputed`` optionally carries (posterior covariance, its cholesky
    factor, X' V^-1) so repeated calls inside the sampler skip the constant
    factorizations; results are identical either way.
    """
    p = x_t.shape[1]
    if precomputed is None:
        xv = x_t.T / v_t
        cov = inv_spd(xv @ x_t + np.eye(p) / hyper.sigma_beta2)
        factor = chol_psd(cov)
    else:
        cov, factor, xv = precomputed
    resid = z_t - xi_t - s_t @ eta_t
    mean = cov @ (xv @ resid + hyper.mu_beta_vector(p) / hyper.sigma_beta2)
    return mean + factor @ rng.standard_normal(p)


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
    if chol_factors is None:
        k1_factor = chol_psd(k1_star)
        w_factors = [chol_psd(w) for w in w_star_seq]
    else:
        k1_factor, w_factors = chol_factors
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
        for t in self.times:
            idx = aligned.obs_idx[t]
            x_t = design_set.matrices[t][idx]
            s_t = basis.s[t][idx]
            v_t = aligned.v[t]
            self.x_obs.append(x_t)
            self.s_obs.append(s_t)
            self.z.append(aligned.z[t])
            self.v.append(v_t)
            if idx.size:
                sv = s_t.T / v_t
                xv = x_t.T / v_t
                self.sv.append(sv)
                self.g.append(sv @ s_t)
                cov = inv_spd(xv @ x_t + np.eye(self.p) / hyper.sigma_beta2)
                self.beta_pre.append((cov, chol_psd(cov), xv))
            else:
                self.sv.append(np.zeros((self.r, 0)))
                self.g.append(np.zeros((self.r, self.r)))
                cov = np.eye(self.p) * hyper.sigma_beta2
                self.beta_pre.append((cov, chol_psd(cov), np.zeros((self.p, 0))))
        self.m_seq = [np.eye(self.r) for _ in self.times[1:]]  # M_t = I_r, see basis
        self.k1_star = prior.k_star[1]
        self.w_star_seq = [prior.w_star[t] for t in self.times[1:]]
        self.k1_factor = chol_psd(self.k1_star)
        self.w_factors = [chol_psd(w) for w in self.w_star_seq]
        self.n_by_t = [aligned.n_t(t) for t in self.times]
        self.n_total = int(sum(self.n_by_t))
        offsets = {}
        start = 0
        for t, n_t in zip(self.times, self.n_by_t):
            offsets[t] = (start, start + n_t)
            start += n_t
        self.xi_offsets = offsets


def _initial_state(pre: _Precomputed, rng: np.random.Generator) -> ModelState:
    """Zero fixed effects and fine-scale field, unit variances, prior coefficients."""
    eta = np.zeros((pre.T, pre.r))
    eta[0] = draw_mvn(rng, np.zeros(pre.r), pre.k1_star)
    for i in range(pre.T - 1):
        eta[i + 1] = pre.m_seq[i] @ eta[i] + draw_mvn(
            rng, np.zeros(pre.r), pre.w_star_seq[i]
        )
    return ModelState(
        eta=eta,
        xi=[np.zeros(n) for n in pre.n_by_t],
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

    When ``writer`` is given (see chainio.ChainWriter), stored draws are
    streamed to disk every ``flush_every`` iterations so interrupted runs
    remain inspectable.
    """
    if iterations <= burn_in:
        raise ValidationError("iterations must exceed burn_in")
    if thin < 1:
        raise ValidationError("thin must be >= 1")
    aligned = align_observations(design_set, data)
    pre = _Precomputed(design_set, basis, prior, aligned, hyper)
    rng = np.random.default_rng(seed)
    state = _initial_state(pre, rng)
    meta = {
        "sweep_order": ["eta", "xi", "beta", "sigma_k2", "sigma_xi2"],
        "move_types": "gibbs",
        "r": pre.r,
        "p": pre.p,
        "T": pre.T,
        "n": pre.n_total,
    }
    if writer is not None:
        writer.configure(
            seed=seed,
            iterations=iterations,
            burn_in=burn_in,
            thin=thin,
            xi_offsets={str(t): list(v) for t, v in pre.xi_offsets.items()},
            **meta,
        )

    num_draws = (iterations - burn_in + thin - 1) // thin
    eta_draws = np.zeros((num_draws, pre.T, pre.r))
    beta_draws = np.zeros((num_draws, pre.T, pre.p))
    xi_draws = np.zeros((num_draws, pre.n_total))
    sk_draws = np.zeros(num_draws)
    sx_draws = np.zeros((num_draws, pre.T))
    stored = 0

    for it in range(iterations):
        # latent coefficient path
        h_seq = []
        for i in range(pre.T):
            if pre.n_by_t[i]:
                z_tilde = pre.z[i] - pre.x_obs[i] @ state.beta[i] - state.xi[i]
                h_seq.append(pre.sv[i] @ z_tilde)
            else:
                h_seq.append(np.zeros(pre.r))
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
            if pre.n_by_t[i]:
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
            chol_factors=(pre.k1_factor, pre.w_factors),
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
            eta_draws[stored] = state.eta
            beta_draws[stored] = state.beta
            xi_draws[stored] = (
                np.concatenate(state.xi) if pre.n_total else np.zeros(0)
            )
            sk_draws[stored] = state.sigma_k2
            sx_draws[stored] = state.sigma_xi2
            if writer is not None:
                writer.append_draw(
                    eta_draws[stored],
                    beta_draws[stored],
                    xi_draws[stored],
                    sk_draws[stored],
                    sx_draws[stored],
                )
            stored += 1
        if writer is not None and (it + 1) % flush_every == 0:
            writer.flush(completed_iterations=it + 1)

    chain = PosteriorChain(
        eta=eta_draws,
        beta=beta_draws,
        xi=xi_draws,
        sigma_k2=sk_draws,
        sigma_xi2=sx_draws,
        xi_offsets=pre.xi_offsets,
        seed=seed,
        iterations=iterations,
        burn_in=burn_in,
        thin=thin,
        meta=meta,
    )
    if writer is not None:
        writer.finalize(chain)
    return chain
