import copy
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from arealdlm import sampler
from arealdlm.data import align_observations
from arealdlm.errors import ChainStateError, ValidationError
from arealdlm.linops import chol_psd, track_dense_solves
from arealdlm.predict import simulate
from arealdlm.sampler import (
    Hyperparams,
    _initial_state,
    _Precomputed,
    _sweep,
    backward_sample,
    gibbs_run,
    kalman_filter,
    sample_beta,
    sample_sigma_k,
    sample_sigma_xi,
    sample_xi,
    sigma_k_posterior,
    sigma_xi_posterior,
    smoother_means,
)

from util import toy_structures


def dense_joint_prior(m_seq, k1, w_seq):
    """Stacked prior covariance of the coefficient path (T*r x T*r)."""
    T = len(w_seq) + 1
    r = k1.shape[0]
    var = [k1]
    for i in range(T - 1):
        var.append(m_seq[i] @ var[-1] @ m_seq[i].T + w_seq[i])
    big = np.zeros((T * r, T * r))
    for a in range(T):
        big[a * r : (a + 1) * r, a * r : (a + 1) * r] = var[a]
        prod = np.eye(r)
        for b in range(a + 1, T):
            prod = m_seq[b - 1] @ prod
            cov_ba = prod @ var[a]
            big[b * r : (b + 1) * r, a * r : (a + 1) * r] = cov_ba
            big[a * r : (a + 1) * r, b * r : (b + 1) * r] = cov_ba.T
    return big


def dense_condition(z_tilde, s_list, m_seq, k1, w_seq, v_list, upto=None):
    """Condition the stacked Gaussian prior on the first `upto` time blocks.

    Returns (posterior mean, posterior covariance) of the full stacked path.
    """
    T = len(s_list)
    r = k1.shape[0]
    upto = T if upto is None else upto
    big = dense_joint_prior(m_seq, k1, w_seq)
    rows = []
    obs_mats = []
    v_all = []
    for t in range(upto):
        n_t = len(z_tilde[t])
        h = np.zeros((n_t, T * r))
        h[:, t * r : (t + 1) * r] = s_list[t]
        obs_mats.append(h)
        rows.append(z_tilde[t])
        v_all.append(v_list[t])
    h = np.vstack(obs_mats)
    z = np.concatenate(rows)
    v = np.concatenate(v_all)
    gram = h @ big @ h.T + np.diag(v)
    gain = big @ h.T @ np.linalg.inv(gram)
    mean = gain @ z
    cov = big - gain @ h @ big
    return mean, cov


def random_instance(rng, T, r, n_per_t, p=0):
    """A well-conditioned random state-space instance."""
    s_list = [np.linalg.qr(rng.normal(size=(n_per_t, r)))[0] for _ in range(T)]
    m_seq = [np.linalg.qr(rng.normal(size=(r, r)))[0] for _ in range(T - 1)]
    k1 = random_pd(rng, r)
    w_seq = [random_pd(rng, r) for _ in range(T - 1)]
    v_list = [rng.uniform(0.2, 1.0, size=n_per_t) for _ in range(T)]
    z = [rng.normal(size=n_per_t) for _ in range(T)]
    return z, s_list, m_seq, k1, w_seq, v_list


def random_pd(rng, n):
    g = rng.normal(size=(n, n))
    return g @ g.T + 0.3 * np.eye(n)


def degenerate_instance():
    """T=5, r=3: rotating M, rank-1 W, one time wholly unobserved and one with n_t < r."""
    rng = np.random.default_rng(49)
    T, r, counts = 5, 3, (4, 5, 0, 2, 4)
    s = [rng.normal(size=(n, r)) for n in counts]
    m_seq = [np.linalg.qr(rng.normal(size=(r, r)))[0] for _ in range(T - 1)]
    k1 = random_pd(rng, r)
    w = [np.outer(col, col) for col in rng.normal(size=(T - 1, r))]
    v = [rng.uniform(0.2, 1.0, size=n) for n in counts]
    z = [rng.normal(size=n) for n in counts]
    return z, s, m_seq, k1, w, v


ORACLE_INSTANCES = {
    "degenerate": degenerate_instance,
    "T20-r20": lambda: random_instance(np.random.default_rng(54), T=20, r=20, n_per_t=25),
}


def mean_update_filter(z, s, m_seq, k1, w_seq, v):
    """The covariance-form filter with the mean update in its loop: an oracle.

    Per time, from the predicted mean a and covariance R: shrink =
    (I + R G)^-1, P = shrink R, filtered mean shrink (a + R h); the
    innovations are h - G a.
    """
    T, r = len(z), k1.shape[0]
    h = np.reshape([s_t.T @ (z_t / v_t) for z_t, s_t, v_t in zip(z, s, v)], (T, r))
    g = np.reshape([(s_t.T / v_t) @ s_t for s_t, v_t in zip(s, v)], (T, r, r))
    ref = {name: np.empty((T, r)) for name in ("means_filt", "means_pred")}
    ref.update({name: np.empty((T, r, r)) for name in ("covs_filt", "covs_pred", "shrink")})
    mean, cov = np.zeros(r), k1
    for i in range(T):
        if i > 0:
            mean = m_seq[i - 1] @ ref["means_filt"][i - 1]
            cov = m_seq[i - 1] @ ref["covs_filt"][i - 1] @ m_seq[i - 1].T + w_seq[i - 1]
        ref["means_pred"][i], ref["covs_pred"][i] = mean, cov
        ref["shrink"][i] = np.linalg.inv(np.eye(r) + cov @ g[i])
        ref["covs_filt"][i] = ref["shrink"][i] @ cov
        ref["means_filt"][i] = ref["shrink"][i] @ (mean + cov @ h[i])
    ref.update(g=g, innovations=h - (g @ ref["means_pred"][..., None])[..., 0])
    return ref


def x_recursion_smoother(ref, m_seq, u, pseudo):
    """a + x + R q from the filter oracle's moments: the mean-correction smoother on x = y - a.

    x_1 = u_1 and x_{i+1} = M_i shrink_i x_i + u_{i+1} - M_i P_i pseudo_i;
    q_i = shrink_i' e_i + (M_i shrink_i)' q_{i+1} on e = innovations - G x - pseudo.
    Zero noise gives the smoothed means.
    """
    T, r = u.shape
    x = u.copy()
    for i in range(T - 1):
        x[i + 1] += m_seq[i] @ (ref["shrink"][i] @ x[i] - ref["covs_filt"][i] @ pseudo[i])
    e = ref["innovations"] - (ref["g"] @ x[..., None])[..., 0] - pseudo
    q = np.zeros((T, r))
    for i in range(T - 1, -1, -1):
        q[i] = ref["shrink"][i].T @ e[i]
        if i < T - 1:
            q[i] += (m_seq[i] @ ref["shrink"][i]).T @ q[i + 1]
    return ref["means_pred"] + x + (ref["covs_pred"] @ q[..., None])[..., 0]


def relative(new, old):
    return float(np.max(np.abs(new - old)) / np.max(np.abs(old)))


class TestKalmanFilter:
    def test_scalar_bayes_rule(self):
        k, v, z = 2.0, 0.5, 1.3
        out = kalman_filter(
            [np.array([z])],
            [np.ones((1, 1))],
            [],
            np.array([[k]]),
            [],
            [np.array([v])],
        )
        assert out.means_filt[0, 0] == pytest.approx(k * z / (k + v), rel=1e-12)
        assert out.covs_filt[0, 0, 0] == pytest.approx(k * v / (k + v), rel=1e-12)

    def test_uninformative_observations(self):
        rng = np.random.default_rng(0)
        z, s, m_seq, k1, w, v = random_instance(rng, T=3, r=2, n_per_t=4)
        v = [np.full(4, 1e12) for _ in range(3)]
        out = kalman_filter(z, s, m_seq, k1, w, v)
        assert np.max(np.abs(out.means_filt)) < 1e-3

    def test_matches_dense_conditioning(self):
        # dense joint-Gaussian oracle: filtered moments equal conditioning on
        # the observation prefix, final state block compared at every t
        rng = np.random.default_rng(1)
        z, s, m_seq, k1, w, v = random_instance(rng, T=3, r=2, n_per_t=4)
        out = kalman_filter(z, s, m_seq, k1, w, v)
        r = 2
        for t in range(1, 4):
            mean, cov = dense_condition(z, s, m_seq, k1, w, v, upto=t)
            blk = slice((t - 1) * r, t * r)
            assert np.allclose(out.means_filt[t - 1], mean[blk], atol=1e-8)
            assert np.allclose(out.covs_filt[t - 1], cov[blk, blk], atol=1e-8)

    def test_smoother_means_match_dense(self):
        rng = np.random.default_rng(2)
        z, s, m_seq, k1, w, v = random_instance(rng, T=4, r=2, n_per_t=3)
        out = kalman_filter(z, s, m_seq, k1, w, v)
        sm = smoother_means(out, m_seq)
        mean, _ = dense_condition(z, s, m_seq, k1, w, v)
        assert np.allclose(sm.ravel(), mean, atol=1e-8)

    def test_empty_time_blocks(self):
        rng = np.random.default_rng(3)
        z, s, m_seq, k1, w, v = random_instance(rng, T=3, r=2, n_per_t=3)
        z[1] = np.zeros(0)
        s[1] = np.zeros((0, 2))
        v[1] = np.zeros(0)
        out = kalman_filter(z, s, m_seq, k1, w, v)
        assert np.array_equal(out.means_filt[1], out.means_pred[1])
        mean, cov = dense_condition(
            [z[0], z[2]],
            [s[0], s[2]],
            [m_seq[1] @ m_seq[0]],
            k1,
            [m_seq[1] @ w[0] @ m_seq[1].T + w[1]],
            [v[0], v[2]],
        )
        assert np.allclose(out.means_filt[2], mean[2:4], atol=1e-8)

    def test_covariances_symmetric_psd(self):
        rng = np.random.default_rng(4)
        z, s, m_seq, k1, w, v = random_instance(rng, T=5, r=3, n_per_t=6)
        out = kalman_filter(z, s, m_seq, k1, w, v)
        for mats in (out.covs_filt, out.covs_pred):
            for mat in mats:
                assert np.max(np.abs(mat - mat.T)) < 1e-10
                assert np.linalg.eigvalsh(mat).min() >= -1e-10

    @pytest.mark.parametrize("instance", sorted(ORACLE_INSTANCES))
    def test_moments_match_the_mean_update_loop(self, instance):
        # the covariance-only loop, with the means from the smoother's
        # forward pass, gives the moments of the loop that updated the means
        z, s, m_seq, k1, w, v = ORACLE_INSTANCES[instance]()
        out = kalman_filter(z, s, m_seq, k1, w, v)
        ref = mean_update_filter(z, s, m_seq, k1, w, v)
        for name in ("means_filt", "means_pred", "covs_filt", "covs_pred", "shrink"):
            assert relative(getattr(out, name), ref[name]) < 1e-12, name
        zeros = np.zeros((len(z), k1.shape[0]))
        smoothed = x_recursion_smoother(ref, m_seq, zeros, zeros)
        assert relative(smoother_means(out, m_seq), smoothed) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            kalman_filter(
                [np.array([np.nan])],
                [np.ones((1, 1))],
                [],
                np.eye(1),
                [],
                [np.ones(1)],
            )

    def test_nonconformable_rejected(self):
        with pytest.raises(ValidationError, match="non-conformable"):
            kalman_filter(
                [np.ones(2)],
                [np.ones((3, 1))],
                [],
                np.eye(1),
                [],
                [np.ones(2)],
            )


class TestBackwardSample:
    def test_degenerate_dynamics_constant_path(self):
        # W = 0 and identity transitions pin the whole path to one value
        rng = np.random.default_rng(5)
        z, s, _, k1, _, v = random_instance(rng, T=3, r=2, n_per_t=4)
        m_seq = [np.eye(2), np.eye(2)]
        w_seq = [np.zeros((2, 2)), np.zeros((2, 2))]
        out = kalman_filter(z, s, m_seq, k1, w_seq, v)
        draw = backward_sample(out, m_seq, np.random.default_rng(6))
        assert np.allclose(draw[0], draw[1], atol=1e-10)
        assert np.allclose(draw[1], draw[2], atol=1e-10)

    def test_moments_match_joint_smoother(self):
        # joint-Gaussian oracle + MC: empirical mean/cov of draws vs the
        # smoothing distribution, within 3 MC standard errors
        rng = np.random.default_rng(7)
        z, s, m_seq, k1, w, v = random_instance(rng, T=2, r=1, n_per_t=3)
        out = kalman_filter(z, s, m_seq, k1, w, v)
        draw_rng = np.random.default_rng(8)
        n_draws = 50_000
        draws = np.array(
            [backward_sample(out, m_seq, draw_rng).ravel() for _ in range(n_draws)]
        )
        mean, cov = dense_condition(z, s, m_seq, k1, w, v)
        se_mean = np.sqrt(np.diag(cov) / n_draws)
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 3 * se_mean)
        emp_cov = np.cov(draws.T, ddof=1)
        for i in range(2):
            for j in range(2):
                se = np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n_draws)
                assert abs(emp_cov[i, j] - cov[i, j]) <= 3 * se

    def test_degenerate_instance_matches_dense_conditioning(self):
        # rotating dynamics, rank-1 innovation covariances, time 2 wholly
        # unobserved and time 3 with fewer cells than states: the smoothed
        # means to 1e-8 and 50k-draw moments within 3 MC se of the joint law
        z, s, m_seq, k1, w, v = degenerate_instance()
        T, r = len(z), k1.shape[0]
        assert not np.allclose(m_seq[0], np.eye(r))
        out = kalman_filter(z, s, m_seq, k1, w, v)
        mean, cov = dense_condition(z, s, m_seq, k1, w, v)
        assert np.linalg.matrix_rank(cov, tol=1e-8) < T * r
        assert np.allclose(smoother_means(out, m_seq).ravel(), mean, rtol=0, atol=1e-8)

        n_draws = 50_000
        draw_rng = np.random.default_rng(50)
        draws = np.array([backward_sample(out, m_seq, draw_rng).ravel() for _ in range(n_draws)])
        sd = np.sqrt(np.diag(cov))
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 3 * sd / np.sqrt(n_draws))
        se_cov = np.sqrt((np.outer(sd**2, sd**2) + cov**2) / n_draws)
        assert np.all(np.abs(np.cov(draws.T, ddof=1) - cov) <= 3 * se_cov)

    def test_sweep_factors_only_in_the_filter(self):
        # one sweep records the filter's T inverses of r x r and nothing
        # else; the backward pass with its factors given factors nothing
        _, _, design_set, basis, prior = toy_structures(
            n_units=8, T=4, p=2, r=3, seed=51, time_varying=True
        )
        truth = simulate(design_set, basis, prior, np.array([0.3, -0.2]), 1.0, 0.05, 0.1, seed=52)
        hyper = Hyperparams()
        pre = _Precomputed(
            design_set, basis, prior, align_observations(design_set, truth.observations), hyper
        )
        rng = np.random.default_rng(53)
        state = _initial_state(pre, rng)
        with track_dense_solves() as tracker:
            state = _sweep(pre, state, hyper, rng)
        assert tracker.dims == [3] * 4

        z, s, v = ([cells[a:b] for a, b in pre.blocks] for cells in (pre.z, pre.s, pre.v))
        filt = kalman_filter(z, s, pre.m_seq, pre.k1_star, pre.w_star_seq, v)
        with track_dense_solves() as tracker:
            backward_sample(filt, pre.m_seq, rng, (pre.scale_factors[0], pre.gram_factors))
        assert tracker.dims == []

    @pytest.mark.parametrize("instance", sorted(ORACLE_INSTANCES))
    def test_draw_matches_the_x_recursion_smoother(self, instance):
        # from one generator state, the draw equals the x-recursion smoother's
        # on the same (2, T, r) block of normals, and both consume only it
        z, s, m_seq, k1, w, v = ORACLE_INSTANCES[instance]()
        out = kalman_filter(z, s, m_seq, k1, w, v)
        ref = mean_update_filter(z, s, m_seq, k1, w, v)
        rng, ref_rng = np.random.default_rng(55), np.random.default_rng(55)
        draw = backward_sample(out, m_seq, rng)
        nu, eps = ref_rng.standard_normal((2, len(z), k1.shape[0]))
        u = (sampler._path_factors(k1, w) @ nu[..., None])[..., 0]
        pseudo = (chol_psd(ref["g"]) @ eps[..., None])[..., 0]
        assert relative(draw, x_recursion_smoother(ref, m_seq, u, pseudo)) < 1e-12
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_sweep_never_evaluates_the_filter_means(self, monkeypatch):
        # the sweep reads the filter's covariances and gains only; the means
        # of the FilterResult it drew the path from are never formed
        _, _, design_set, basis, prior = toy_structures(
            n_units=8, T=4, p=2, r=3, seed=51, time_varying=True
        )
        truth = simulate(design_set, basis, prior, np.array([0.3, -0.2]), 1.0, 0.05, 0.1, seed=52)
        hyper = Hyperparams()
        pre = _Precomputed(
            design_set, basis, prior, align_observations(design_set, truth.observations), hyper
        )
        rng = np.random.default_rng(53)
        state = _initial_state(pre, rng)
        results = []

        def kept(*args, _original=sampler._filter_core, **kwargs):
            results.append(_original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(sampler, "_filter_core", kept)
        _sweep(pre, state, hyper, rng)
        assert len(results) == 1
        assert not {"means_filt", "means_pred"} & set(vars(results[0]))
        assert np.all(np.isfinite(results[0].means_filt))
        assert {"means_filt", "means_pred"} <= set(vars(results[0]))

    def test_transitions_other_than_the_filters_refused(self):
        # the smoother reads the filter's transitions; the list the filter was
        # given passes, any other m_seq is refused before a normal is drawn
        z, s, m_seq, k1, w, v = degenerate_instance()
        out = kalman_filter(z, s, m_seq, k1, w, v)
        assert np.array_equal(smoother_means(out, m_seq), smoother_means(out, out.m))
        draws = [backward_sample(out, m, np.random.default_rng(56)) for m in (m_seq, out.m)]
        assert np.array_equal(*draws)
        r = k1.shape[0]
        others = {
            "identity": [np.eye(r)] * len(m_seq),
            "transposed": [m.T for m in m_seq],
            "one short": m_seq[:-1],
            "empty": [],
        }
        rng = np.random.default_rng(57)
        state = copy.deepcopy(rng.bit_generator.state)
        for label, other in others.items():
            with pytest.raises(ValidationError, match="transitions the filter"):
                smoother_means(out, other)
            with pytest.raises(ValidationError, match="transitions the filter"):
                backward_sample(out, other, rng)
            assert rng.bit_generator.state == state, label

    def test_fixed_seed_bit_identical(self):
        rng = np.random.default_rng(9)
        z, s, m_seq, k1, w, v = random_instance(rng, T=3, r=2, n_per_t=4)
        out = kalman_filter(z, s, m_seq, k1, w, v)
        d1 = backward_sample(out, m_seq, np.random.default_rng(10))
        d2 = backward_sample(out, m_seq, np.random.default_rng(10))
        assert np.array_equal(d1, d2)


class TestSampleXi:
    def test_prior_collapse(self):
        rng = np.random.default_rng(11)
        z = np.array([5.0, -3.0])
        x = np.ones((2, 1))
        s = np.ones((2, 1))
        draw = sample_xi(z, x, np.zeros(1), s, np.zeros(1), np.ones(2), 1e-14, rng)
        assert np.max(np.abs(draw)) < 1e-5

    def test_scalar_conjugacy(self):
        # v=1, sigma^2=1, residual=2 -> posterior N(1, 1/2)
        draws = []
        rng = np.random.default_rng(12)
        for _ in range(50_000):
            draws.append(
                sample_xi(
                    np.array([2.0]),
                    np.zeros((1, 1)),
                    np.zeros(1),
                    np.zeros((1, 1)),
                    np.zeros(1),
                    np.ones(1),
                    1.0,
                    rng,
                )[0]
            )
        draws = np.asarray(draws)
        assert abs(draws.mean() - 1.0) <= 3 * np.sqrt(0.5 / 50_000)
        assert abs(draws.var(ddof=1) - 0.5) <= 3 * 0.5 * np.sqrt(2 / 50_000)

    def test_moments_match_closed_form(self):
        rng = np.random.default_rng(13)
        z = np.array([1.0, -2.0, 0.5])
        x = np.hstack([np.ones((3, 1)), rng.normal(size=(3, 1))])
        beta = np.array([0.3, -0.1])
        s = rng.normal(size=(3, 2))
        eta = np.array([0.5, 0.2])
        v = np.array([0.5, 1.0, 2.0])
        sigma2 = 0.7
        resid = z - x @ beta - s @ eta
        var = 1.0 / (1.0 / v + 1.0 / sigma2)
        mu = var * resid / v
        n_draws = 50_000
        draws = np.array(
            [sample_xi(z, x, beta, s, eta, v, sigma2, rng) for _ in range(n_draws)]
        )
        assert np.all(np.abs(draws.mean(axis=0) - mu) <= 3 * np.sqrt(var / n_draws))
        assert np.all(
            np.abs(draws.var(axis=0, ddof=1) - var) <= 3 * var * np.sqrt(2 / n_draws)
        )


class TestSampleBeta:
    def test_prior_collapse_to_mean(self):
        rng = np.random.default_rng(14)
        z = rng.normal(size=4)
        x = np.ones((4, 1))
        draw = sample_beta(
            z,
            x,
            np.zeros(4),
            np.zeros((4, 1)),
            np.zeros(1),
            np.ones(4),
            Hyperparams(sigma_beta2=1e-12),
            rng,
        )
        assert abs(draw[0]) < 1e-4

    def test_intercept_only_vague(self):
        # residual mean over n obs with unit variance -> N(rbar, 1/n)
        rng = np.random.default_rng(15)
        z = np.array([1.0, 2.0, 3.0, 6.0])
        x = np.ones((4, 1))
        n_draws = 50_000
        draws = np.array(
            [
                sample_beta(
                    z,
                    x,
                    np.zeros(4),
                    np.zeros((4, 1)),
                    np.zeros(1),
                    np.ones(4),
                    Hyperparams(),
                    rng,
                )[0]
                for _ in range(n_draws)
            ]
        )
        assert abs(draws.mean() - 3.0) <= 3 * np.sqrt(0.25 / n_draws)
        assert abs(draws.var(ddof=1) - 0.25) <= 3 * 0.25 * np.sqrt(2 / n_draws)

    def test_moments_match_closed_form(self):
        rng = np.random.default_rng(16)
        n, p = 6, 2
        z = rng.normal(size=n)
        x = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 1))])
        xi = rng.normal(size=n) * 0.1
        s = rng.normal(size=(n, 2))
        eta = np.array([0.2, -0.4])
        v = rng.uniform(0.5, 1.5, size=n)
        hyper = Hyperparams(mu_beta=np.array([0.5, -0.5]), sigma_beta2=2.0)
        cov = np.linalg.inv(x.T @ np.diag(1 / v) @ x + np.eye(p) / hyper.sigma_beta2)
        mu = cov @ (
            x.T @ np.diag(1 / v) @ (z - xi - s @ eta)
            + hyper.mu_beta_vector(p) / hyper.sigma_beta2
        )
        n_draws = 50_000
        draws = np.array(
            [sample_beta(z, x, xi, s, eta, v, hyper, rng) for _ in range(n_draws)]
        )
        se_mean = np.sqrt(np.diag(cov) / n_draws)
        assert np.all(np.abs(draws.mean(axis=0) - mu) <= 3 * se_mean)
        emp = np.cov(draws.T, ddof=1)
        for i in range(p):
            for j in range(p):
                se = np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n_draws)
                assert abs(emp[i, j] - cov[i, j]) <= 3 * se


class TestSigmaConditionals:
    def test_sigma_k_zero_state(self):
        shape, rate = sigma_k_posterior(
            np.zeros((1, 1)), np.eye(1), [], [], Hyperparams()
        )
        assert (shape, rate) == (2.5, 1.0)

    def test_sigma_k_hand_quadratic(self):
        # T=2, r=1, K*=W*=1, M=1, eta=(1,1): shape 3, rate 1.5
        shape, rate = sigma_k_posterior(
            np.ones((2, 1)), np.eye(1), [np.eye(1)], [np.eye(1)], Hyperparams()
        )
        assert shape == pytest.approx(3.0)
        assert rate == pytest.approx(1.5)

    def test_sigma_k_mc_mean(self):
        rng = np.random.default_rng(17)
        eta = np.array([[1.0, -0.5], [0.3, 0.8]])
        k1 = random_pd(rng, 2)
        w = [random_pd(rng, 2)]
        m = [np.linalg.qr(rng.normal(size=(2, 2)))[0]]
        shape, rate = sigma_k_posterior(eta, k1, w, m, Hyperparams())
        n_draws = 50_000
        draws = np.array(
            [sample_sigma_k(eta, k1, w, m, Hyperparams(), rng) for _ in range(n_draws)]
        )
        expected_mean = rate / (shape - 1)
        expected_var = rate**2 / ((shape - 1) ** 2 * (shape - 2))
        assert abs(draws.mean() - expected_mean) <= 3 * np.sqrt(expected_var / n_draws)

    def test_sigma_xi_zero_field(self):
        assert sigma_xi_posterior(np.zeros(4), Hyperparams()) == (4.0, 1.0)

    def test_sigma_xi_hand_values(self):
        assert sigma_xi_posterior(np.ones(2), Hyperparams()) == (3.0, 2.0)

    def test_sigma_xi_mc_mean(self):
        rng = np.random.default_rng(18)
        xi = np.array([0.5, -1.0, 0.2, 0.4])
        shape, rate = sigma_xi_posterior(xi, Hyperparams())
        n_draws = 50_000
        draws = np.array([sample_sigma_xi(xi, Hyperparams(), rng) for _ in range(n_draws)])
        expected_mean = rate / (shape - 1)
        expected_var = rate**2 / ((shape - 1) ** 2 * (shape - 2))
        assert abs(draws.mean() - expected_mean) <= 3 * np.sqrt(expected_var / n_draws)


class TestGibbsRun:
    def test_draw_count_and_determinism(self):
        graph, design, design_set, basis, prior = toy_structures(
            n_units=6, T=2, p=2, r=2, seed=19
        )
        truth = simulate(design_set, basis, prior, np.array([0.5, -0.2]), 1.0, 0.05, 0.1, seed=20)
        kwargs = dict(iterations=300, burn_in=100, thin=2, seed=21)
        chain1 = gibbs_run(truth.observations, design_set, basis, prior, Hyperparams(), **kwargs)
        chain2 = gibbs_run(truth.observations, design_set, basis, prior, Hyperparams(), **kwargs)
        assert chain1.num_draws == 100
        assert np.array_equal(chain1.eta, chain2.eta)
        assert np.array_equal(chain1.xi, chain2.xi)
        assert np.array_equal(chain1.beta, chain2.beta)
        assert np.array_equal(chain1.sigma_k2, chain2.sigma_k2)
        assert np.array_equal(chain1.sigma_xi2, chain2.sigma_xi2)

    def test_interpolates_noise_free_data(self):
        # near-noise-free synthetic data: the posterior mean of the smooth
        # part reproduces the observations. The fine-scale prior encodes the
        # known-tiny generating scale; a vague prior would let the fine-scale
        # field absorb the fixed effects in sweep 0 and release them only at
        # rate v / sigma_xi^2 per sweep.
        graph, design, design_set, basis, prior = toy_structures(
            n_units=8, T=3, p=2, r=2, seed=22
        )
        truth = simulate(
            design_set, basis, prior, np.array([0.4, 0.3]), 1.0, 1e-10, 1e-8, seed=23
        )
        chain = gibbs_run(
            truth.observations,
            design_set,
            basis,
            prior,
            Hyperparams(alpha_xi=1e8, beta_xi=1e-2),
            iterations=2000,
            burn_in=500,
            seed=24,
        )
        aligned = align_observations(design_set, truth.observations)
        for t in range(1, 4):
            cells = slice(*aligned.offsets[t])
            idx = aligned.obs_idx[cells]
            x = design_set.matrices[t][idx]
            s = basis.s[t][idx]
            smooth = chain.beta[:, t - 1, :] @ x.T + chain.eta[:, t - 1, :] @ s.T
            assert np.max(np.abs(smooth.mean(axis=0) - aligned.z[cells])) < 1e-3

    def test_first_draw_replays_public_conditionals(self):
        # the sweep is the public conditionals: iteration 0 replayed through
        # them on one generator, with no precomputed constants, gives the
        # stored draw bit for bit; time 2 is wholly unobserved
        graph, design, design_set, basis, prior = toy_structures(
            n_units=6, T=3, p=2, r=2, seed=31
        )
        mask = {(ell, 2, graph.units[u]) for ell, u in design_set.layout[2]}
        truth = simulate(
            design_set, basis, prior, np.array([0.3, -0.2]), 1.0, 0.05, 0.1,
            missing_mask=mask, seed=32,
        )
        hyper = Hyperparams()
        chain = gibbs_run(
            truth.observations, design_set, basis, prior, hyper,
            iterations=1, burn_in=0, seed=33,
        )

        aligned = align_observations(design_set, truth.observations)
        assert aligned.n_t(2) == 0
        T, r, p = 3, 2, 2
        cells = [slice(*aligned.offsets[t]) for t in range(1, T + 1)]
        idx = [aligned.obs_idx[c] for c in cells]
        x = [design_set.matrices[t][idx[t - 1]] for t in range(1, T + 1)]
        s = [basis.s[t][idx[t - 1]] for t in range(1, T + 1)]
        z = [aligned.z[c] for c in cells]
        v = [aligned.v[c] for c in cells]
        m_seq = [np.eye(r) for _ in range(T - 1)]
        k1 = prior.k_star[1]
        w = [prior.w_star[t] for t in range(2, T + 1)]
        rng = np.random.default_rng(33)
        # initial path from the prior: one (T, r) block of normals (the first
        # sweep overwrites the path)
        rng.standard_normal((T, r))
        beta = np.zeros((T, p))
        xi = [np.zeros(z_t.size) for z_t in z]
        sigma_k2, sigma_xi2 = 1.0, np.ones(T)

        z_tilde = [z[i] - x[i] @ beta[i] - xi[i] for i in range(T)]
        filt = kalman_filter(z_tilde, s, m_seq, sigma_k2 * k1, [sigma_k2 * w_t for w_t in w], v)
        eta = backward_sample(filt, m_seq, rng)
        xi = [
            sample_xi(z[i], x[i], beta[i], s[i], eta[i], v[i], sigma_xi2[i], rng)
            for i in range(T)
        ]
        for i in range(T):
            beta[i] = sample_beta(z[i], x[i], xi[i], s[i], eta[i], v[i], hyper, rng)
        sigma_k2 = sample_sigma_k(eta, k1, w, m_seq, hyper, rng)
        sigma_xi2 = np.array([sample_sigma_xi(xi_t, hyper, rng) for xi_t in xi])

        assert chain.num_draws == 1
        assert np.array_equal(chain.eta[0], eta)
        assert np.array_equal(chain.xi[0], np.concatenate(xi))
        assert np.array_equal(chain.beta[0], beta)
        assert chain.sigma_k2[0] == sigma_k2
        assert np.array_equal(chain.sigma_xi2[0], sigma_xi2)

    def test_burn_in_validation(self):
        graph, design, design_set, basis, prior = toy_structures(n_units=6, T=2, p=2, r=2, seed=25)
        truth = simulate(design_set, basis, prior, np.array([0.0, 0.0]), 1.0, 0.1, 0.1, seed=26)
        with pytest.raises(ValidationError, match="iterations must exceed burn_in"):
            gibbs_run(
                truth.observations, design_set, basis, prior, Hyperparams(),
                iterations=100, burn_in=100, seed=27,
            )

    @pytest.mark.parametrize(
        "settings, message",
        [
            (dict(iterations=10, burn_in=-5), "burn_in must be >= 0"),
            (dict(iterations=10, burn_in=0, thin=0), "thin must be >= 1"),
            (dict(iterations=10, burn_in=0, seed=-1), "seed must be >= 0"),
        ],
        ids=["negative-burn-in", "zero-thin", "negative-seed"],
    )
    def test_run_settings_refused(self, settings, message):
        # a negative burn_in used to return, and write, all-zero draws
        graph, design, design_set, basis, prior = toy_structures(n_units=6, T=2, p=2, r=2, seed=25)
        truth = simulate(design_set, basis, prior, np.array([0.0, 0.0]), 1.0, 0.1, 0.1, seed=26)
        with pytest.raises(ValidationError, match=message):
            gibbs_run(truth.observations, design_set, basis, prior, Hyperparams(), **settings)

    def test_resume_from_saved_state_and_generator(self):
        # k sweeps, then the state and the generator's state saved and a fresh
        # generator continued from them: the draws are those of one
        # uninterrupted run, bit for bit
        graph, design, design_set, basis, prior = toy_structures(
            n_units=6, T=3, p=2, r=2, seed=37
        )
        truth = simulate(design_set, basis, prior, np.array([0.3, -0.2]), 1.0, 0.05, 0.1, seed=38)
        hyper = Hyperparams()
        iterations, k = 12, 5
        chain = gibbs_run(
            truth.observations, design_set, basis, prior, hyper,
            iterations=iterations, burn_in=0, seed=39,
        )

        pre = _Precomputed(
            design_set, basis, prior, align_observations(design_set, truth.observations), hyper
        )
        rng = np.random.default_rng(39)
        states = [_initial_state(pre, rng)]
        for _ in range(k):
            states.append(_sweep(pre, states[-1], hyper, rng))
        saved_state = copy.deepcopy(states[-1])
        saved_generator = copy.deepcopy(rng.bit_generator.state)
        del rng

        resumed = np.random.default_rng()
        resumed.bit_generator.state = saved_generator
        state = saved_state
        for _ in range(iterations - k):
            state = _sweep(pre, state, hyper, resumed)
            states.append(state)

        with pytest.raises(FrozenInstanceError):
            state.sigma_k2 = 1.0
        for name, rows in chain.draws.items():
            assert np.array_equal(rows, np.array([getattr(s, name) for s in states[1:]])), name

    def test_sweep_components_dispatched_by_module_name(self, monkeypatch):
        # a wrapper bound to a component's module-global name sees every sweep,
        # which is how the benchmark times each layer of the sweep
        graph, design, design_set, basis, prior = toy_structures(n_units=6, T=2, p=2, r=2, seed=44)
        truth = simulate(design_set, basis, prior, np.array([0.2, 0.1]), 1.0, 0.05, 0.1, seed=45)
        names = ("_filter_core", "backward_sample", "sample_xi", "sample_beta",
                 "sample_sigma_k", "sample_sigma_xi")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _original=getattr(sampler, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(sampler, name, counted)
        sampler.gibbs_run(
            truth.observations, design_set, basis, prior, Hyperparams(),
            iterations=7, burn_in=2, seed=46,
        )
        assert calls == dict.fromkeys(names, 7)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_state_aborts_with_iteration(self):
        graph, design, design_set, basis, prior = toy_structures(n_units=6, T=2, p=2, r=2, seed=28)
        truth = simulate(design_set, basis, prior, np.array([0.0, 0.0]), 1.0, 0.1, 0.1, seed=29)
        # poison one observation variance so the first update overflows
        from arealdlm.data import Observation, ObservationSet

        rows = list(truth.observations.observations)
        rows[0] = Observation(rows[0].variable, rows[0].time, rows[0].unit, 1e300, 1e-300)
        poisoned = ObservationSet(design, tuple(rows))
        with pytest.raises(ChainStateError, match="iteration 0"):
            gibbs_run(
                poisoned, design_set, basis, prior, Hyperparams(),
                iterations=10, burn_in=1, seed=30,
            )

    def test_tracker_sees_every_factorization(self, monkeypatch):
        # each np.linalg factorization call inside one chain (on one matrix or
        # one stack) is at most max(r, p) = 3 wide, and the tracker holds at
        # least one entry per call, so no factorization escapes it
        graph, design, design_set, basis, prior = toy_structures(
            n_units=8, T=4, p=2, r=3, seed=34, time_varying=True
        )
        truth = simulate(design_set, basis, prior, np.array([0.3, -0.2]), 1.0, 0.05, 0.1, seed=35)
        calls = []
        for name in ("cholesky", "solve", "inv", "eigh"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, **kwargs):
                calls.append(np.shape(a)[-1])
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        with track_dense_solves() as tracker:
            gibbs_run(
                truth.observations, design_set, basis, prior, Hyperparams(),
                iterations=20, burn_in=5, seed=36,
            )
        assert calls
        assert len(tracker.dims) >= len(calls)
        assert max(calls) <= 3 and tracker.max_dim <= 3


def test_precomputed_holds_the_observed_design_once():
    # the sampler's constants peak near the bytes of the arrays it keeps: the
    # observed rows of X_t and S_t, z and v, and the per-time stacks. No
    # S'V^-1 or X'V^-1 copy and no per-time list of gathered rows; what is
    # left above them is one time's transient Gram product (r x n_t)
    import tracemalloc

    _, _, design_set, basis, prior = toy_structures(
        n_units=400, T=8, p=2, r=10, seed=47, time_varying=True
    )
    truth = simulate(design_set, basis, prior, np.array([0.2, -0.1]), 1.0, 0.05, 0.1, seed=48)
    aligned = align_observations(design_set, truth.observations)
    hyper = Hyperparams()
    _Precomputed(design_set, basis, prior, aligned, hyper)  # first calls allocate caches once
    tracemalloc.start()
    try:
        pre = _Precomputed(design_set, basis, prior, aligned, hyper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = (pre.x, pre.s, pre.z, pre.v, pre.g, *pre.beta_pre, *pre.scale_factors, pre.w_star_seq)
    assert pre.s.shape == (3200, 10)
    assert peak <= 1.2 * sum(a.nbytes for a in kept)
