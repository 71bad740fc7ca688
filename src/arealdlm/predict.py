"""Posterior prediction, survey-fusion scoring, trace selectors, and the simulator.

Predictions of the latent field are assembled draw by draw from the stored
chain; the fine-scale term comes from its stored draw at observed cells and
from its prior at never-observed cells, so uncertainty at unobserved
locations carries the fine-scale variance floor. ``posterior_y`` and
``select_series`` (every selector at once) read the chain through its
``read`` method, the same for a chain in memory (``sampler.PosteriorChain``)
and one on disk (``chainio.StoredChain``), in one pass of blocks of whole rows
(``_blocks``): at most ``CHUNK_BYTES`` (the budget of ``sampler``,
which also caps the draws a fit holds between two flushes) of the widest
row but at least ``MIN_BLOCK_DRAWS`` rows, one read per group and block.
``posterior_y`` merges each time's per-location moments block by block, so
its memory does not grow with the chain. The prior normals of time t come
from a child generator of their own, spawned from ``prediction_rng``, so
the result does not depend on the block size. ``rls`` needs only those moments.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import BasisSystem
from .chainio import StoredChain, csv_fields, write_csv
from .data import (
    AlignedData,
    DesignSet,
    Observation,
    ObservationSet,
    TransformSpec,
)
from .errors import ChainStateError, ValidationError
from .export import FLOAT_FMT
from .prior import PriorStructure
from .sampler import CHUNK_BYTES, PosteriorChain, _draw_path, _path_factors, _transitions

# Fewest draws in a block of ``posterior_y``: each block costs every time a few
# small products and generator calls. 16 draws of xi at 45 k cells are 5.8 MB.
MIN_BLOCK_DRAWS = 16


def _blocks(num_draws: int, widest: int) -> list[tuple[int, int]]:
    """The row ranges [a, b) of a chain read whose widest row holds ``widest`` values."""
    step = max(MIN_BLOCK_DRAWS, CHUNK_BYTES // (8 * widest))
    return [(a, min(a + step, num_draws)) for a in range(0, num_draws, step)]


def prediction_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The generator of the prior draws at unobserved cells for the run seed ``seed``.

    Stream 0 serves ``predict`` and the full-data chain of ``rls``, stream m
    the chain of survey m. Each is the child ``spawn_key=(stream,)`` of
    ``SeedSequence(seed)``; a chain's sampler uses ``default_rng(seed + i)``,
    whose spawn key is empty, so no chain's stream is a prediction stream.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


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


class _Moments:
    """Per-location mean and variance of draws that arrive in blocks of rows.

    A later block is added to the running sum row by row in draw order, as
    ``np.mean(axis=0)`` adds the rows of a block with more than one column,
    so the mean is bit for bit that of all rows at once. The sums of squared
    deviations merge block by block (Chan, Golub & LeVeque 1979). One block
    gives ``np.mean`` and ``np.var`` bit for bit.
    """

    def __init__(self, width: int):
        self.count = 0
        self.total = np.zeros(width)
        self.m2 = np.zeros(width)

    def add(self, rows: np.ndarray) -> None:
        n = len(rows)
        total = rows.sum(axis=0)
        m2 = np.square(rows - total / n).sum(axis=0)
        if self.count:
            delta = total / n - self.total / self.count
            m2 += self.m2 + np.square(delta) * (self.count * n / (self.count + n))
            total = np.concatenate((self.total[None], rows)).sum(axis=0)
        self.total, self.m2 = total, m2
        self.count += n

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """(mean, variance) over every row added."""
        return self.total / self.count, self.m2 / self.count


class _TimeDraws:
    """The draws at the locations of one time: their constants and running moments.

    ``loc_idx`` are the positions of those locations in the surface; ``rng``
    draws the prior normals of the unobserved ones in draw order.
    """

    def __init__(self, t, loc_idx, locations, design_set, basis, aligned, chain, transforms, rng):
        r, p = chain.shapes["eta"][1], chain.shapes["beta"][1]
        self.t0, self.loc_idx = t - 1, loc_idx
        self.beta_cols, self.eta_cols = slice((t - 1) * p, t * p), slice((t - 1) * r, t * r)
        rows = np.array([design_set.row_lookup[locations[i]] for i in loc_idx])
        self.x_rows = design_set.matrices[t][rows]
        self.s_rows = basis.s[t][rows]

        # fine-scale term: stored draw where observed, prior draw elsewhere;
        # column[row] is the row's column in a draw of xi, -1 if unobserved
        column = np.full(design_set.N_t(t), -1)
        column[aligned.obs_idx[slice(*aligned.offsets[t])]] = np.arange(*chain.xi_offsets[t])
        cols = column[rows]
        self.observed = cols >= 0
        self.xi_cols = cols[self.observed]
        self.unobserved = ~self.observed
        self.n_unobserved = np.count_nonzero(self.unobserved)
        self.rng = rng

        self.specs = {}
        if transforms is not None:
            self.variables = np.array([locations[i][0] for i in loc_idx])
            self.specs = {
                ell: transforms.get(ell, TransformSpec("identity"))
                for ell in sorted(set(self.variables.tolist()))
            }
        self.linked = any(spec.kind != "identity" for spec in self.specs.values())
        self.moments, self.moments_bt = _Moments(len(loc_idx)), _Moments(len(loc_idx))

    def add(self, beta, eta, xi, sigma_xi2) -> np.ndarray:
        """Form the draws of one block of whole rows of each group, add them, return them."""
        draws = beta[:, self.beta_cols] @ self.x_rows.T
        draws += eta[:, self.eta_cols] @ self.s_rows.T
        draws[:, self.observed] += xi[:, self.xi_cols]
        if self.n_unobserved:
            sd = np.sqrt(sigma_xi2[:, self.t0])[:, None]
            draws[:, self.unobserved] += sd * self.rng.standard_normal(
                (len(draws), self.n_unobserved)
            )
        self.moments.add(draws)
        if self.linked:
            bt = np.empty_like(draws)
            for ell, spec in self.specs.items():
                at = self.variables == ell
                bt[:, at] = spec.inverse(draws[:, at])
            self.moments_bt.add(bt)
        return draws


def posterior_y(
    chain: PosteriorChain | StoredChain,
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
    averaging. The chain is read in one pass, in the blocks of whole rows of
    ``_blocks``, one ``read`` per group and block; within a block each time's
    draws are formed and added to its moments. So memory does not grow with the
    number of draws (except the draws that ``keep_draws`` returns). The prior normals of time t are drawn
    in draw order from child t − 1 of ``rng.spawn(T)`` (``rng`` defaults to
    ``prediction_rng`` of the chain's seed), so they do not depend on the
    block size. A chain whose fine-scale block at some t is wider or narrower
    than the observed cells there was fitted to other observations, and a
    chain with no stored draws has nothing to average: each is a
    ``ChainStateError``.
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
    if chain.num_draws == 0:
        where = f"at {chain.directory}" if isinstance(chain, StoredChain) else "in memory"
        raise ChainStateError(f"the chain {where} holds no stored draws (its fit stopped "
                              "in burn-in); run fit again")
    T, r = chain.shapes["eta"]
    if rng is None:
        rng = prediction_rng(chain.seed)
    generators = rng.spawn(T)

    by_time: dict[int, list[int]] = {}
    for i, (_, t, _) in enumerate(locations):
        by_time.setdefault(t, []).append(i)
    parts = [
        _TimeDraws(t, loc_idx, locations, design_set, basis, aligned, chain, transforms,
                   generators[t - 1])
        for t, loc_idx in sorted(by_time.items())
    ]

    J = chain.num_draws
    n_loc = len(locations)
    all_draws = np.zeros((J, n_loc)) if keep_draws else None
    p = chain.shapes["beta"][1]
    widest = max(T * max(r, p), chain.shapes["xi"][0], *map(len, by_time.values()), 1)
    for a, b in _blocks(J, widest):
        rows = [chain.read(name, a, b) for name in ("beta", "eta", "xi", "sigma_xi2")]
        for part in parts:
            draws = part.add(*rows)
            if keep_draws:
                all_draws[a:b, part.loc_idx] = draws

    yhat, mspe = np.zeros(n_loc), np.zeros(n_loc)
    want_bt = transforms is not None
    yhat_bt = np.zeros(n_loc) if want_bt else None
    mspe_bt = np.zeros(n_loc) if want_bt else None
    for part in parts:
        yhat[part.loc_idx], mspe[part.loc_idx] = part.moments.result()
        if want_bt:
            source = part.moments_bt if part.linked else part.moments
            yhat_bt[part.loc_idx], mspe_bt[part.loc_idx] = source.result()

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
    """Relative leave-one-survey-out criterion per survey, from the full-data chain's draws.

    RLS(m) = sum_j sum_cells (Y_draw - single_survey_mean_m)^2
           / sum_j sum_cells (Y_draw - full_mean)^2,
    with the draws taken from the full-data chain and both sums over the same
    cells. Values above 1 mean fusing surveys beats survey m alone. The
    draws enter only through their per-cell mean and variance
    (``rls_from_moments``).
    """
    truth_draws = np.asarray(truth_draws, dtype=float)
    return rls_from_moments(
        truth_draws.mean(axis=0), truth_draws.var(axis=0), full_predictions, survey_predictions
    )


def rls_from_moments(
    yhat: np.ndarray,
    mspe: np.ndarray,
    full_predictions: np.ndarray,
    survey_predictions: dict[int, np.ndarray],
) -> dict[int, float]:
    """``rls`` from the per-cell mean ``yhat`` and variance ``mspe`` of the truth draws.

    Over J draws, sum_j (Y_j - f)^2 = J * mspe + J * (yhat - f)^2 per cell,
    and J cancels in the ratio, so ``posterior_y``'s moments are enough.
    """
    yhat, mspe = np.asarray(yhat, dtype=float), np.asarray(mspe, dtype=float)
    full_predictions = np.asarray(full_predictions, dtype=float)
    n = len(yhat)
    if full_predictions.shape != (n,):
        raise ValidationError("full predictions are misaligned with the truth draws")
    denom = float(np.sum(mspe + (yhat - full_predictions) ** 2))
    if denom == 0.0:
        raise ValidationError("degenerate criterion: full-chain residuals are all zero")
    out = {}
    for m, pred in survey_predictions.items():
        pred = np.asarray(pred, dtype=float)
        if pred.shape != (n,):
            raise ValidationError(f"survey {m} predictions are misaligned with the truth draws")
        out[m] = float(np.sum(mspe + (yhat - pred) ** 2)) / denom
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


def select_series(chain: PosteriorChain | StoredChain, selectors: list[str]) -> np.ndarray:
    """Per-draw series of scalar parameters (selectors as ``selector_column``), one column per
    selector, from one pass of the ``_blocks`` of the widest group they name: one ``read``
    per group and block."""
    T, r = chain.shapes["eta"]
    picks = [selector_column(selector, T, r, chain.shapes["beta"][1], chain.xi_offsets)
             for selector in selectors]
    names = dict.fromkeys(name for name, *_ in picks)
    series = np.empty((chain.num_draws, len(picks)))
    widest = max((math.prod(chain.shapes[name]) for name in names), default=1)
    for a, b in _blocks(chain.num_draws, widest):
        rows = {name: chain.read(name, a, b) for name in names}
        for i, (name, *_, column) in enumerate(picks):
            series[a:b, i] = rows[name][:, column]
    return series


def write_predictions_csv(surface: PredictionSurface, path: str | Path) -> None:
    """One row per location; the back-transformed fields are empty when not computed.

    Each row is one %-format line, floats with 17 significant digits, and the
    unit is quoted once per distinct unit, as ``csv.writer`` would quote it.
    """
    columns = [surface.yhat, surface.mspe]
    if surface.yhat_backtransformed is not None:
        columns += [surface.yhat_backtransformed, surface.mspe_backtransformed]
    fields = ["%d", "%d", "%s"] + [FLOAT_FMT] * len(columns)
    line = ",".join(fields + [""] * (7 - len(fields))) + "\n"
    quoted = csv_fields(unit for _, _, unit in surface.locations)
    rows = (
        (ell, t, quoted[unit], *values)
        for (ell, t, unit), *values in zip(surface.locations, *(c.tolist() for c in columns))
    )
    header = ["variable", "time", "unit", "yhat", "mspe", "yhat_backtransformed",
              "mspe_backtransformed"]
    write_csv(path, header, rows, line)
