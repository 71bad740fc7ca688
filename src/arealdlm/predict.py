"""Posterior prediction, survey-fusion scoring, trace selectors, and the simulator.

Predictions of the latent field are assembled draw by draw from the stored
chain; the fine-scale term comes from its stored draw at observed cells and
from its prior at never-observed cells, so uncertainty at unobserved
locations carries the fine-scale variance floor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import BasisSystem
from .chainio import write_csv
from .data import (
    AlignedData,
    DesignSet,
    Observation,
    ObservationSet,
    TransformSpec,
)
from .errors import ChainStateError, ValidationError
from .prior import PriorStructure
from .sampler import PosteriorChain, _draw_path, _path_factors, _transitions


@dataclass(frozen=True)
class PredictionSurface:
    """Posterior mean and variance of the latent field per location."""

    locations: tuple[tuple[int, int, str], ...]
    yhat: np.ndarray
    mspe: np.ndarray
    yhat_backtransformed: np.ndarray | None
    mspe_backtransformed: np.ndarray | None
    num_draws: int
    draws: np.ndarray | None = None  # (J, n_locations) when requested


def posterior_y(
    chain: PosteriorChain,
    design_set: DesignSet,
    basis: BasisSystem,
    aligned: AlignedData,
    locations: list[tuple[int, int, str]] | None = None,
    transforms: dict[int, TransformSpec] | None = None,
    rng: np.random.Generator | None = None,
    keep_draws: bool = False,
) -> PredictionSurface:
    """Per-draw latent-field reconstruction, summarized per location.

    Each draw evaluates fixed effects plus the basis term plus the fine-scale
    term (stored at observed cells, drawn from its prior elsewhere);
    back-transformed summaries invert the declared link per draw before
    averaging. A chain whose fine-scale block at some t is wider or narrower
    than the observed cells there was fitted to other observations: that is
    a ``ChainStateError``.
    """
    design = design_set.design
    if locations is None:
        locations = [
            (ell, t, design_set.graph.units[u])
            for t in range(1, design.T + 1)
            for ell, u in design_set.layout[t]
        ]
    for loc in locations:
        if loc not in design_set.row_lookup:
            raise ValidationError(f"location {loc} is not a prediction location")
    for t in range(1, design.T + 1):
        lo, hi = chain.xi_offsets.get(t, (0, 0))
        if hi - lo != aligned.n_t(t):
            raise ChainStateError(
                f"the chain holds {hi - lo} fine-scale cells at t={t} but the "
                f"observations have {aligned.n_t(t)}; refit after changing the observations"
            )
    if rng is None:
        rng = np.random.default_rng(chain.seed + 1)

    J = chain.num_draws
    n_loc = len(locations)
    yhat = np.zeros(n_loc)
    mspe = np.zeros(n_loc)
    want_bt = transforms is not None
    yhat_bt = np.zeros(n_loc) if want_bt else None
    mspe_bt = np.zeros(n_loc) if want_bt else None
    all_draws = np.zeros((J, n_loc)) if keep_draws else None

    by_time: dict[int, list[int]] = {}
    for i, (_, t, _) in enumerate(locations):
        by_time.setdefault(t, []).append(i)

    for t, loc_idx in sorted(by_time.items()):
        rows = np.array([design_set.row_lookup[locations[i]] for i in loc_idx])
        x_rows = design_set.matrices[t][rows]
        s_rows = basis.s[t][rows]
        t0 = t - 1
        draws_t = chain.beta[:, t0, :] @ x_rows.T
        draws_t += chain.eta[:, t0, :] @ s_rows.T

        # fine-scale term: stored draw where observed, prior draw elsewhere;
        # column[row] is the chain's xi column of a prediction row, -1 if unobserved
        lo, _ = chain.xi_offsets[t]
        column = np.full(design_set.N_t(t), -1)
        column[aligned.obs_idx[t]] = lo + np.arange(aligned.n_t(t))
        cols = column[rows]
        observed = cols >= 0
        unobserved = ~observed
        draws_t[:, observed] += chain.xi[:, cols[observed]]
        if unobserved.any():
            sd = np.sqrt(chain.sigma_xi2[:, t0])[:, None]
            draws_t[:, unobserved] += sd * rng.standard_normal((J, np.count_nonzero(unobserved)))

        yhat[loc_idx] = draws_t.mean(axis=0)
        mspe[loc_idx] = draws_t.var(axis=0)
        if want_bt:
            variables = np.array([locations[i][0] for i in loc_idx])
            specs = {
                int(ell): transforms.get(int(ell), TransformSpec("identity"))
                for ell in np.unique(variables)
            }
            if all(spec.kind == "identity" for spec in specs.values()):
                yhat_bt[loc_idx], mspe_bt[loc_idx] = yhat[loc_idx], mspe[loc_idx]
            else:
                bt = np.empty_like(draws_t)
                for ell, spec in specs.items():
                    at = variables == ell
                    bt[:, at] = spec.inverse(draws_t[:, at])
                yhat_bt[loc_idx] = bt.mean(axis=0)
                mspe_bt[loc_idx] = bt.var(axis=0)
        if keep_draws:
            all_draws[:, loc_idx] = draws_t

    return PredictionSurface(
        locations=tuple(locations),
        yhat=yhat,
        mspe=mspe,
        yhat_backtransformed=yhat_bt,
        mspe_backtransformed=mspe_bt,
        num_draws=J,
        draws=all_draws,
    )


def rls(
    truth_draws: np.ndarray,
    full_predictions: np.ndarray,
    survey_predictions: dict[int, np.ndarray],
) -> dict[int, float]:
    """Relative leave-one-survey-out criterion per survey.

    RLS(m) = sum_j sum_cells (Y_draw - single_survey_mean_m)^2
           / sum_j sum_cells (Y_draw - full_mean)^2,
    with the draws taken from the full-data chain and both sums over the same
    cells. Values above 1 mean fusing surveys beats survey m alone.
    """
    truth_draws = np.asarray(truth_draws, dtype=float)
    full_predictions = np.asarray(full_predictions, dtype=float)
    n = truth_draws.shape[1]
    if full_predictions.shape != (n,):
        raise ValidationError("full predictions are misaligned with the truth draws")
    denom = float(np.sum((truth_draws - full_predictions) ** 2))
    if denom == 0.0:
        raise ValidationError("degenerate criterion: full-chain residuals are all zero")
    out = {}
    for m, pred in survey_predictions.items():
        pred = np.asarray(pred, dtype=float)
        if pred.shape != (n,):
            raise ValidationError(f"survey {m} predictions are misaligned with the truth draws")
        out[m] = float(np.sum((truth_draws - pred) ** 2)) / denom
    return out


@dataclass(frozen=True)
class SyntheticTruth:
    """Forward-simulated latent fields plus the noisy observations they emit."""

    eta: np.ndarray  # (T, r)
    y: dict[int, np.ndarray]  # latent field per time, prediction-row order
    observations: ObservationSet


def simulate(
    design_set: DesignSet,
    basis: BasisSystem,
    prior: PriorStructure,
    true_beta: np.ndarray,
    true_sigma_k2: float,
    true_sigma_xi2: float | np.ndarray,
    v_schedule: float | dict[int, float],
    missing_mask: set[tuple[int, int, str]] | None = None,
    seed: int = 0,
) -> SyntheticTruth:
    """Draw one world from the generative model and emit its observations.

    The coefficient path is the sampler's prior path draw on the finalized
    prior covariances (so fitting the emitted data is fitting the
    exactly-matching model); measurement noise variance comes from
    ``v_schedule`` (scalar or per-variable). The normals are drawn in a fixed
    order: the path, then per time the fine-scale field and one noise draw
    per prediction row.
    """
    design = design_set.design
    rng = np.random.default_rng(seed)
    missing_mask = missing_mask or set()
    T = design.T
    beta = np.asarray(true_beta, dtype=float)
    if beta.ndim == 1:
        beta = np.tile(beta, (T, 1))
    if beta.shape != (T, design.p):
        raise ValidationError(f"true_beta must be (p,) or (T,p), got {beta.shape}")
    sigma_xi2 = np.asarray(true_sigma_xi2, dtype=float)
    if sigma_xi2.ndim == 0:
        sigma_xi2 = np.full(T, float(sigma_xi2))
    if np.any(sigma_xi2 < 0) or true_sigma_k2 < 0:
        raise ValidationError("variances must be nonnegative")

    def v_for(variable: int) -> float:
        if isinstance(v_schedule, dict):
            return float(v_schedule[variable])
        return float(v_schedule)

    w_star = [prior.w_star[t] for t in range(2, T + 1)]
    factors = _path_factors(prior.k_star[1], w_star, true_sigma_k2)
    eta = _draw_path(factors, _transitions(basis), rng)

    y: dict[int, np.ndarray] = {}
    observations: list[Observation] = []
    for t in range(1, T + 1):
        xi_t = np.sqrt(sigma_xi2[t - 1]) * rng.standard_normal(design_set.N_t(t))
        y[t] = design_set.matrices[t] @ beta[t - 1] + basis.s[t] @ eta[t - 1] + xi_t
        # one noise draw per prediction row, consumed even for masked cells,
        # so the realized world is invariant to the mask
        for pos, (ell, u) in enumerate(design_set.layout[t]):
            unit = design_set.graph.units[u]
            noise = rng.standard_normal()
            if (ell, t, unit) in missing_mask:
                continue
            v = v_for(ell)
            z = float(y[t][pos] + np.sqrt(v) * noise)
            observations.append(Observation(ell, t, unit, z, v))
    return SyntheticTruth(eta, y, ObservationSet(design, tuple(observations)))


_SELECTOR_RE = re.compile(r"^(?:sigma_k2|sigma_xi2\[(\d+)\]|(beta|eta|xi)\[(\d+),(\d+)\])$")


def selector_column(
    selector: str, T: int, r: int, p: int, xi_offsets: dict[int, tuple[int, int]]
) -> tuple[str, int | None, int | None, int]:
    """The parameter ``selector`` names, as (group, t, index, column of the flattened draw).

    Selectors: ``sigma_k2``, ``sigma_xi2[t]``, ``beta[t,j]``, ``eta[t,k]``,
    ``xi[t,i]`` with 1-based t and 0-based within-time indices; t and index
    are None where the selector has none. ``xi_offsets`` is the chain's layout
    of observed cells. A malformed selector or one outside these shapes is a
    ValidationError.
    """
    m = _SELECTOR_RE.match(selector.replace(" ", ""))
    if not m:
        raise ValidationError(f"unknown parameter selector {selector!r}")
    if m.group(1) is None and m.group(2) is None:
        return "sigma_k2", None, None, 0
    name = m.group(2) or "sigma_xi2"
    t, i = int(m.group(1) or m.group(3)), int(m.group(4) or 0)
    lo, hi = xi_offsets.get(t, (0, 0))
    width = {"sigma_xi2": 1, "beta": p, "eta": r, "xi": hi - lo}[name]
    if not (1 <= t <= T and i < width):
        raise ValidationError(
            f"selector {selector!r} is out of range: t must lie in 1..{T} "
            f"and the index below {width}"
        )
    column = (lo if name == "xi" else (t - 1) * width) + i
    return name, t, None if name == "sigma_xi2" else i, column


def select_series(chain: PosteriorChain, selector: str) -> np.ndarray:
    """Per-draw series of one scalar parameter (selectors as ``selector_column``)."""
    _, T, r = chain.eta.shape
    name, *_, column = selector_column(selector, T, r, chain.beta.shape[2], chain.xi_offsets)
    draws = chain.draws[name]
    return draws.reshape(len(draws), -1)[:, column]


def write_predictions_csv(surface: PredictionSurface, path: str | Path) -> None:
    """One row per location; the back-transformed fields are empty when not computed."""
    empty = [None] * len(surface.locations)
    columns = zip(
        surface.locations,
        surface.yhat,
        surface.mspe,
        empty if surface.yhat_backtransformed is None else surface.yhat_backtransformed,
        empty if surface.mspe_backtransformed is None else surface.mspe_backtransformed,
    )
    header = ["variable", "time", "unit", "yhat", "mspe", "yhat_backtransformed",
              "mspe_backtransformed"]
    write_csv(path, header, ((*location, *values) for location, *values in columns))
