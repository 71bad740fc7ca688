import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from arealdlm import predict
from arealdlm.chainio import ChainWriter, StoredChain, read_chain
from arealdlm.cli import main
from arealdlm.data import TransformSpec, align_observations
from arealdlm.errors import ChainStateError, ValidationError
from arealdlm.predict import (
    posterior_y,
    rls,
    select_series,
    simulate,
)
from arealdlm.sampler import Hyperparams, PosteriorChain, gibbs_run

from test_cli import write_project
from util import every_draw, toy_structures


def constant_chain(value_eta, T, r, p, n, J=7):
    """A chain whose draws are all identical."""
    xi_offsets = {t: ((t - 1) * (n // T), t * (n // T)) for t in range(1, T + 1)}
    return PosteriorChain(
        eta=np.full((J, T, r), value_eta),
        beta=np.zeros((J, T, p)),
        xi=np.zeros((J, n)),
        sigma_k2=np.full(J, 1.0),
        sigma_xi2=np.full((J, T), 1e-12),
        xi_offsets=xi_offsets,
        seed=0,
        iterations=J,
        burn_in=0,
        thin=1,
    )


def oracle_draws(chain, design_set, basis, aligned, seed):
    """Every draw at every default prediction location, built from the chain's arrays at once.

    The prior normals at the unobserved cells of time t are the first J rows
    of child t - 1 of ``prediction_rng(seed).spawn(T)``.
    """
    columns = []
    generators = predict.prediction_rng(seed).spawn(design_set.design.T)
    for t in range(1, design_set.design.T + 1):
        y = chain.beta[:, t - 1] @ design_set.matrices[t].T + chain.eta[:, t - 1] @ basis.s[t].T
        lo, hi = chain.xi_offsets[t]
        observed = aligned.obs_idx[slice(*aligned.offsets[t])]
        y[:, observed] += chain.xi[:, lo:hi]
        unobserved = np.setdiff1d(np.arange(design_set.N_t(t)), observed)
        if len(unobserved):
            normals = generators[t - 1].standard_normal(
                (chain.num_draws, len(unobserved))
            )
            y[:, unobserved] += np.sqrt(chain.sigma_xi2[:, t - 1])[:, None] * normals
        columns.append(y)
    return np.hstack(columns)


@pytest.fixture(scope="module")
def fitted_toy():
    graph, design, design_set, basis, prior = toy_structures(
        n_units=8, T=3, p=2, r=2, seed=50
    )
    truth = simulate(
        design_set, basis, prior, np.array([0.4, 0.3]), 1.0, 1e-10, 1e-8, seed=51
    )
    chain = gibbs_run(
        truth.observations, design_set, basis, prior,
        Hyperparams(alpha_xi=1e8, beta_xi=1e-2),
        iterations=1500, burn_in=500, seed=52,
    )
    aligned = align_observations(design_set, truth.observations)
    return design_set, basis, prior, truth, chain, aligned


class TestPosteriorY:
    def test_degenerate_chain_zero_mspe(self, fitted_toy):
        design_set, basis, _, truth, chain, aligned = fitted_toy
        n = chain.xi.shape[1]
        degenerate = replace(
            constant_chain(0.5, T=3, r=2, p=2, n=n),
            xi_offsets=chain.xi_offsets,  # real offsets so observed cells index correctly
            sigma_xi2=np.full((7, 3), 1e-30),
        )
        surface = posterior_y(degenerate, design_set, basis, aligned)
        assert np.max(surface.mspe) < 1e-12

    def test_zero_noise_fit_matches_truth(self, fitted_toy):
        design_set, basis, _, truth, chain, aligned = fitted_toy
        surface = posterior_y(chain, design_set, basis, aligned)
        observed = {
            (o.variable, o.time, o.unit) for o in truth.observations.observations
        }
        for i, loc in enumerate(surface.locations):
            if loc in observed:
                truth_y = truth.y[loc[1]][design_set.row_lookup[loc]]
                assert abs(surface.yhat[i] - truth_y) < 1e-2

    def test_variance_matches_two_pass(self, fitted_toy):
        design_set, basis, _, _, chain, aligned = fitted_toy
        surface = posterior_y(chain, design_set, basis, aligned)
        draws = oracle_draws(chain, design_set, basis, aligned, chain.seed)
        two_pass = ((draws - draws.mean(axis=0)) ** 2).mean(axis=0)
        assert np.max(np.abs(surface.yhat - draws.mean(axis=0))) < 1e-12
        assert np.max(np.abs(surface.mspe - two_pass)) < 1e-12

    def test_unobserved_cells_have_larger_mspe(self):
        # mask one unit entirely: its cells carry the fine-scale prior floor
        graph, design, design_set, basis, prior = toy_structures(
            n_units=10, T=2, p=2, r=3, seed=53
        )
        masked_unit = graph.units[0]
        mask = {(1, t, masked_unit) for t in (1, 2)}
        truth = simulate(
            design_set, basis, prior, np.array([0.3, 0.1]), 1.0, 0.2, 0.05,
            missing_mask=mask, seed=54,
        )
        chain = gibbs_run(
            truth.observations, design_set, basis, prior, Hyperparams(),
            iterations=800, burn_in=200, seed=55,
        )
        aligned = align_observations(design_set, truth.observations)
        surface = posterior_y(chain, design_set, basis, aligned)
        mspe = dict(zip(surface.locations, surface.mspe))
        masked_mspe = np.mean([mspe[(1, t, masked_unit)] for t in (1, 2)])
        other_mspe = np.mean(
            [v for k, v in mspe.items() if k[2] != masked_unit]
        )
        assert np.isfinite(masked_mspe)
        assert masked_mspe > other_mspe

    def test_backtransform_is_per_draw_monotone(self, fitted_toy):
        design_set, basis, _, _, chain, aligned = fitted_toy
        transforms = {1: TransformSpec("logit")}
        surface = posterior_y(chain, design_set, basis, aligned, transforms=transforms)
        draws = oracle_draws(chain, design_set, basis, aligned, chain.seed)
        expit = TransformSpec("logit").inverse
        manual = np.array([expit(draws[:, i]).mean() for i in range(5)])
        assert np.allclose(surface.yhat_backtransformed[:5], manual, atol=1e-12)
        # per-draw inverse link preserves ordering of draws at each location
        i = 0
        order = np.argsort(draws[:, i])
        assert np.all(np.diff(expit(draws[order, i])) >= 0)

    def test_location_outside_prediction_set(self, fitted_toy):
        design_set, basis, _, _, chain, aligned = fitted_toy
        with pytest.raises(ValidationError, match="not a prediction location"):
            posterior_y(chain, design_set, basis, aligned, locations=[(1, 1, "zz")])

    def test_chain_fitted_to_other_cells_refused(self, fitted_toy):
        # one observed cell fewer at t=2 than the chain's fine-scale block there
        design_set, basis, _, truth, chain, _ = fitted_toy
        at_2 = [o for o in truth.observations.observations if o.time == 2]
        fewer = replace(
            truth.observations,
            observations=tuple(o for o in truth.observations.observations if o != at_2[0]),
        )
        aligned = align_observations(design_set, fewer)
        message = "holds 8 fine-scale cells at t=2 but the observations have 7"
        with pytest.raises(ChainStateError, match=message):
            posterior_y(chain, design_set, basis, aligned)


class TestStreamedReader:
    """``posterior_y`` reads a stored chain in blocks of draws, as it reads one in memory."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        # one unit never observed, so its cells take prior draws of the fine-scale term
        graph, design, design_set, basis, prior = toy_structures(
            n_units=10, T=2, p=2, r=3, seed=53
        )
        mask = {(1, t, graph.units[0]) for t in (1, 2)}
        truth = simulate(
            design_set, basis, prior, np.array([0.3, 0.1]), 1.0, 0.2, 0.05,
            missing_mask=mask, seed=54,
        )
        chain = gibbs_run(
            truth.observations, design_set, basis, prior, Hyperparams(),
            iterations=230, burn_in=30, seed=55,
        )
        directory = tmp_path_factory.mktemp("streamed") / "chain"
        ChainWriter(directory).finalize(chain)
        aligned = align_observations(design_set, truth.observations)
        return chain, directory, design_set, basis, aligned

    def _surfaces(self, stored, **kwargs):
        chain, directory, design_set, basis, aligned = stored
        args = (design_set, basis, aligned)
        kwargs.update(transforms={1: TransformSpec("logit")}, keep_draws=True)
        in_memory = posterior_y(chain, *args, rng=predict.prediction_rng(3), **kwargs)
        return in_memory, posterior_y(
            read_chain(directory), *args, rng=predict.prediction_rng(3), **kwargs
        )

    def test_one_block_is_bit_identical(self, stored):
        chain, _, design_set, basis, aligned = stored
        a, b = self._surfaces(stored)
        for name in ("yhat", "mspe", "yhat_backtransformed", "mspe_backtransformed", "draws"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        # the prior normals of time t are the first rows of prediction_rng(3).spawn(T)[t - 1]
        draws = oracle_draws(chain, design_set, basis, aligned, seed=3)
        assert np.max(np.abs(a.draws - draws)) < 1e-12
        assert np.max(np.abs(a.yhat - draws.mean(axis=0))) < 1e-12

    def test_blocks_that_do_not_divide_the_draws(self, stored, monkeypatch):
        # three block sizes, none dividing the draws; the widest row is a draw of xi
        chain, _, design_set, basis, aligned = stored
        whole, _ = self._surfaces(stored)
        unobserved = [i for i, loc in enumerate(whole.locations) if loc[2] == "u0"]
        assert unobserved and np.all(whole.mspe[unobserved] > 0)
        monkeypatch.setattr(predict, "MIN_BLOCK_DRAWS", 1)  # blocks narrower than the floor
        for rows in (7, 13, 64):
            assert chain.num_draws % rows != 0
            monkeypatch.setattr(predict, "CHUNK_BYTES", 8 * chain.xi.shape[1] * rows)
            in_memory, streamed = self._surfaces(stored)
            for surface in (in_memory, streamed):
                for name in ("yhat", "yhat_backtransformed", "draws"):
                    assert np.array_equal(getattr(surface, name), getattr(whole, name)), name
                for name in ("mspe", "mspe_backtransformed"):
                    new, old = getattr(surface, name), getattr(whole, name)
                    assert np.max(np.abs(new - old) / np.abs(old)) <= 1e-12, name

    def test_wide_draws_read_in_blocks_of_at_least_the_floor(self, stored, monkeypatch):
        # one draw of xi is more than half of CHUNK_BYTES, so the byte budget
        # alone would read one draw a block; the floor keeps the reads per group
        # at ceil(J / MIN_BLOCK_DRAWS), and the surface does not change
        chain, directory, design_set, basis, aligned = stored
        whole, _ = self._surfaces(stored)
        monkeypatch.setattr(predict, "CHUNK_BYTES", 8 * chain.xi.shape[1] * 3 // 2)
        reads = {}
        original = StoredChain.read

        def counted(self, name, *args, **kwargs):
            reads[name] = reads.get(name, 0) + 1
            return original(self, name, *args, **kwargs)

        monkeypatch.setattr(StoredChain, "read", counted)
        _, streamed = self._surfaces(stored)
        most = -(-chain.num_draws // predict.MIN_BLOCK_DRAWS)
        assert reads and all(0 < count <= most for count in reads.values()), reads
        for name in ("yhat", "yhat_backtransformed", "draws"):
            assert np.array_equal(getattr(streamed, name), getattr(whole, name)), name

    @pytest.mark.parametrize("floor, budget_rows, step", [(7, 0, 7), (1, 13, 13)],
                             ids=["floor", "budget"])
    @pytest.mark.parametrize("selector", ["xi[2,3]", "eta[2,1]", "sigma_k2"])
    def test_series_read_in_blocks_of_whole_rows(self, stored, monkeypatch, selector, floor,
                                                 budget_rows, step):
        # blocks of `step` rows, sized by the floor or by the byte budget of the
        # group's row; neither divides the draws, so the last block is short
        chain, directory, *_ = stored
        opened = read_chain(directory)
        name = selector.split("[")[0]
        width = chain.read(name, 0, 1).shape[1]
        monkeypatch.setattr(predict, "MIN_BLOCK_DRAWS", floor)
        monkeypatch.setattr(predict, "CHUNK_BYTES", 8 * width * budget_rows)
        J = chain.num_draws
        assert J % step and -(-J // step) >= 3
        draws = every_draw(chain)
        lo, _ = chain.xi_offsets[2]
        want = {"xi[2,3]": draws["xi"][:, lo + 3], "eta[2,1]": draws["eta"][:, 1, 1],
                "sigma_k2": draws["sigma_k2"]}[selector]
        reads = []
        original = StoredChain.read

        def counted(self, *args):
            reads.append(args)
            return original(self, *args)

        monkeypatch.setattr(StoredChain, "read", counted)
        for source in (chain, opened):
            assert np.array_equal(select_series(source, [selector])[:, 0], want)
        assert reads == [(name, a, min(a + step, J)) for a in range(0, J, step)]

    @pytest.mark.parametrize("name", ["xi", "eta"])
    def test_store_cut_after_opening_refused(self, stored, tmp_path, name):
        import shutil

        chain, directory, design_set, basis, aligned = stored
        shutil.copytree(directory, tmp_path / "chain")
        opened = read_chain(tmp_path / "chain")
        path = tmp_path / "chain" / f"{name}.npy"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ChainStateError, match=f"the chain store {path} is short"):
            if name == "xi":
                # the cut takes the last row's last cell
                T = opened.shapes["eta"][0]
                lo, hi = opened.xi_offsets[T]
                select_series(opened, [f"xi[{T},{hi - lo - 1}]"])
            else:
                posterior_y(opened, design_set, basis, aligned)


def test_prediction_streams_are_not_chain_streams():
    # fit --chains N samples chain i with default_rng(seed + i); the prior
    # draws of predict and rls must come from none of those streams
    seed = 5
    streams = [
        child.standard_normal(8)
        for m in range(4)
        for child in predict.prediction_rng(seed, m).spawn(3)
    ]
    chains = [np.random.default_rng(seed + i).standard_normal(8) for i in range(100)]
    for k, stream in enumerate(streams):
        assert not any(np.array_equal(stream, other) for other in chains + streams[:k])


class TestRls:
    def test_identical_predictors_give_one(self):
        rng = np.random.default_rng(60)
        draws = rng.normal(size=(20, 6))
        mean = draws.mean(axis=0)
        values = rls(draws, mean, {1: mean})
        assert values[1] == pytest.approx(1.0)

    def test_hand_toy_ratio(self):
        # hand arithmetic oracle, one draw over two locations:
        # numerator (1-(-1))^2 + (1-(-1))^2 = 8, denominator 1^2 + 1^2 = 2
        draws = np.array([[1.0, 1.0]])
        full = np.array([0.0, 0.0])
        single = np.array([-1.0, -1.0])
        values = rls(draws, full, {2: single})
        assert values[2] == pytest.approx(4.0)

    def test_common_rescaling_invariance(self):
        rng = np.random.default_rng(61)
        draws = rng.normal(size=(15, 4))
        full = rng.normal(size=4)
        single = rng.normal(size=4)
        base = rls(draws, full, {1: single})[1]
        scaled = rls(3.0 * draws, 3.0 * full, {1: 3.0 * single})[1]
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_moment_form_matches_draw_form(self):
        rng = np.random.default_rng(62)
        draws = rng.normal(loc=2.0, size=(300, 9))
        full = draws.mean(axis=0) + rng.normal(scale=0.1, size=9)
        surveys = {m: rng.normal(loc=2.0, size=9) for m in (1, 2)}
        denom = np.sum((draws - full) ** 2)
        direct = {m: np.sum((draws - pred) ** 2) / denom for m, pred in surveys.items()}
        moments = predict.rls_from_moments(draws.mean(axis=0), draws.var(axis=0), full, surveys)
        for values in (rls(draws, full, surveys), moments):
            for m in surveys:
                assert values[m] == pytest.approx(direct[m], rel=1e-12, abs=0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError, match="misaligned"):
            rls(np.zeros((3, 2)) + 1.0, np.zeros(2), {1: np.zeros(3)})


class TestSimulate:
    def test_noise_free_equals_fixed_effects(self):
        _, _, design_set, basis, prior = toy_structures(n_units=6, T=2, p=2, r=2, seed=62)
        truth = simulate(
            design_set, basis, prior, np.array([0.7, -0.3]), 0.0, 0.0, 0.0, seed=63
        )
        for o in truth.observations.observations:
            x = design_set.matrices[o.time][design_set.row_lookup[(o.variable, o.time, o.unit)]]
            assert o.z == pytest.approx(float(x @ np.array([0.7, -0.3])), abs=1e-12)

    def test_eta_covariance_matches_prior(self):
        # MC covariance oracle over repeated single-period simulations
        _, _, design_set, basis, prior = toy_structures(n_units=6, T=1, p=2, r=2, seed=64)
        sigma = 1.7
        n_sims = 100_000
        draws = np.array(
            [
                simulate(design_set, basis, prior, np.zeros(2), sigma, 0.0, 0.0, seed=s).eta[0]
                for s in range(n_sims)
            ]
        )
        target = sigma * prior.k_star[1]
        emp = np.cov(draws.T, ddof=1)
        for i in range(2):
            for j in range(2):
                se = np.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / n_sims)
                assert abs(emp[i, j] - target[i, j]) <= 3 * se

    def test_innovation_covariance_matches_prior(self):
        # MC covariance oracle for the step of the path: eta_2 - eta_1 ~ N(0, sigma W*_2)
        _, _, design_set, basis, prior = toy_structures(
            n_units=6, T=2, p=2, r=2, seed=64, time_varying=True
        )
        sigma = 1.7
        n_sims = 50_000
        steps = np.array(
            [
                np.diff(
                    simulate(design_set, basis, prior, np.zeros(2), sigma, 0.0, 0.0, seed=s).eta,
                    axis=0,
                )[0]
                for s in range(n_sims)
            ]
        )
        target = sigma * prior.w_star[2]
        emp = np.cov(steps.T, ddof=1)
        for i in range(2):
            for j in range(2):
                se = np.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / n_sims)
                assert abs(emp[i, j] - target[i, j]) <= 3 * se

    def test_seed_reproducibility(self):
        _, _, design_set, basis, prior = toy_structures(n_units=6, T=2, p=2, r=2, seed=65)
        a = simulate(design_set, basis, prior, np.array([0.1, 0.2]), 1.0, 0.1, 0.05, seed=66)
        b = simulate(design_set, basis, prior, np.array([0.1, 0.2]), 1.0, 0.1, 0.05, seed=66)
        assert np.array_equal(a.eta, b.eta)
        assert all(np.array_equal(a.y[t], b.y[t]) for t in a.y)
        assert a.observations == b.observations

    def test_mask_changes_coverage_not_world(self):
        _, _, design_set, basis, prior = toy_structures(n_units=6, T=2, p=2, r=2, seed=67)
        full = simulate(design_set, basis, prior, np.zeros(2), 1.0, 0.1, 0.05, seed=68)
        masked = simulate(
            design_set, basis, prior, np.zeros(2), 1.0, 0.1, 0.05,
            missing_mask={(1, 1, "u0")}, seed=68,
        )
        assert masked.observations.n == full.observations.n - 1
        kept = {(o.variable, o.time, o.unit): o.z for o in masked.observations.observations}
        for o in full.observations.observations:
            key = (o.variable, o.time, o.unit)
            if key in kept:
                assert kept[key] == o.z


class TestTraceSummary:
    """The selectors of the series that ``fit --trace`` writes."""

    def test_unknown_selector(self):
        chain = constant_chain(0.0, T=2, r=1, p=1, n=4)
        with pytest.raises(ValidationError, match="unknown parameter selector"):
            select_series(chain, ["gamma[1]"])
        for selector in ("eta[5,0]", "eta[0,0]", "sigma_xi2[0]", "beta[1,1]", "xi[2,2]"):
            with pytest.raises(ValidationError, match="out of range"):
                select_series(chain, [selector])

    def test_selectors_address_expected_values(self):
        chain = constant_chain(1.0, T=2, r=2, p=1, n=4)
        chain.eta[:, 1, 1] = 9.0
        assert np.all(select_series(chain, ["eta[2,1]"])[:, 0] == 9.0)
        chain.xi[:, chain.xi_offsets[2][0]] = 4.0
        assert np.all(select_series(chain, ["xi[2,0]"])[:, 0] == 4.0)
        chain.sigma_xi2[:, 1] = 3.0
        assert np.all(select_series(chain, ["sigma_xi2[2]"])[:, 0] == 3.0)
        chain.beta[:, 1, 0] = 5.0
        assert np.all(select_series(chain, ["beta[2, 0]"])[:, 0] == 5.0)
        assert np.all(select_series(chain, ["sigma_k2"])[:, 0] == 1.0)


class TestFusedCoverageDirection:
    def test_doubly_observed_units_have_smaller_mspe(self):
        # two variables sharing the coefficient path: variable 1 observed at
        # half the units ("doubly covered" there, only variable 2 elsewhere);
        # variable-1 MSPE is smaller where variable 1 itself is observed
        from arealdlm.basis import build_basis_system
        from arealdlm.data import StudyDesign
        from arealdlm.prior import build_prior_structure
        from util import make_design_set, random_connected_graph

        graph = random_connected_graph(16, 16, seed=70)
        design = StudyDesign(2, ((1, 4), (1, 4)), 2, 5)
        design_set = make_design_set(graph, design, seed=71)
        basis = build_basis_system(design_set)
        prior = build_prior_structure(design_set, basis)
        covered = {f"u{i}" for i in range(8)}
        mask = {
            (1, t, u)
            for t in range(1, 5)
            for u in graph.units
            if u not in covered
        }
        truth = simulate(
            design_set, basis, prior, np.array([0.3, -0.2]), 1.0, 0.05, 0.02,
            missing_mask=mask, seed=72,
        )
        chain = gibbs_run(
            truth.observations, design_set, basis, prior, Hyperparams(),
            iterations=1200, burn_in=300, seed=73,
        )
        aligned = align_observations(design_set, truth.observations)
        surface = posterior_y(chain, design_set, basis, aligned)
        mspe = dict(zip(surface.locations, surface.mspe))
        both = np.mean([v for (ell, t, u), v in mspe.items() if ell == 1 and u in covered])
        single = np.mean([v for (ell, t, u), v in mspe.items() if ell == 1 and u not in covered])
        assert both < single


@pytest.mark.parametrize("backtransformed", [False, True], ids=["model-scale", "backtransformed"])
def test_predictions_csv_bytes_match_the_csv_writer(tmp_path, backtransformed):
    from arealdlm.chainio import write_csv

    rng = np.random.default_rng(70)
    units = ["u0", 'County 1, "FL"', "a\nb", "a\rb", "", " padded ", "x'y", "semi;colon",
             "tab\there"]
    locations = tuple((ell, t, unit) for t in (1, 2) for ell in (1, 2) for unit in units)
    n = len(locations)
    values = rng.normal(scale=1e3, size=(4, n)) * 10.0 ** rng.integers(-12, 12, size=(4, n))
    values[0, :3] = [0.0, -0.0, 1 / 3]
    surface = predict.PredictionSurface(
        locations, values[0], np.abs(values[1]),
        values[2] if backtransformed else None,
        np.abs(values[3]) if backtransformed else None,
        num_draws=5,
    )
    predict.write_predictions_csv(surface, tmp_path / "fast.csv")
    empty = [None] * n
    columns = zip(
        locations, values[0], np.abs(values[1]),
        values[2] if backtransformed else empty, np.abs(values[3]) if backtransformed else empty,
    )
    header = ["variable", "time", "unit", "yhat", "mspe", "yhat_backtransformed",
              "mspe_backtransformed"]
    write_csv(tmp_path / "csv.csv", header, ((*loc, *rest) for loc, *rest in columns))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()
    assert not list(tmp_path.glob("*.partial"))


def test_predict_refuses_a_fit_stopped_in_burn_in(tmp_path, capsys):
    # a fit interrupted after a flush in burn-in leaves a manifest with
    # stored_draws 0; predict must not average over no draws (it used to write
    # nan in every field) but exit 4 with one error line and write nothing
    cfg = write_project(tmp_path, iterations=100_000, burn_in=99_000)
    assert main(["simulate", "--config", str(cfg)]) == 0
    manifest = tmp_path / "out" / "chain0" / "manifest.json"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    fit = subprocess.Popen(
        [sys.executable, "-m", "arealdlm.cli", "fit", "--config", str(cfg)],
        env=env, stderr=subprocess.DEVNULL, process_group=0,
    )
    deadline = time.monotonic() + 120
    while not manifest.exists() and time.monotonic() < deadline:  # the first flush
        time.sleep(0.01)
    os.killpg(fit.pid, signal.SIGINT)
    assert fit.wait(timeout=120) != 0
    assert json.loads(manifest.read_text())["stored_draws"] == 0

    capsys.readouterr()
    assert main(["predict", "--config", str(cfg)]) == 4
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: "), errors
    assert "holds no stored draws" in errors[0] and "run fit again" in errors[0]
    assert str(manifest.parent) in errors[0]
    assert not (tmp_path / "out" / "predictions.csv").exists()
