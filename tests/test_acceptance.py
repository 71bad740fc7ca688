"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`. The recovery and scale
criteria run full-length samplers and take a few minutes combined.
"""

import time

import numpy as np
import pytest

from arealdlm.basis import build_basis_system, confounding_report, mi_basis
from arealdlm.cli import main
from arealdlm.data import (
    Observation,
    ObservationSet,
    StudyDesign,
    align_observations,
)
from arealdlm.linops import track_dense_solves
from arealdlm.predict import posterior_y, rls, simulate
from arealdlm.prior import (
    best_positive_approximant,
    build_prior_structure,
    car_precision,
    frobenius_objective,
    kstar_pooled,
    wstar,
)
from arealdlm.sampler import (
    Hyperparams,
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

from test_sampler import dense_condition
from util import make_design_set, random_connected_graph


def _report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS  ({detail})")


def random_orthonormal(rng, n, r):
    return np.linalg.qr(rng.normal(size=(n, r)))[0]


def random_pd(rng, n, jitter=0.2):
    g = rng.normal(size=(n, n))
    return g @ g.T + jitter * np.eye(n)


def batched_objective(p_list, phi_list, cands):
    """Sum over k of ||P_k - Phi_k C^-1 Phi_k'||_F^2 for a batch of C."""
    inv = np.linalg.inv(cands)
    total = np.zeros(cands.shape[0])
    for p_k, phi in zip(p_list, phi_list):
        tmp = np.einsum("ar,brc->bac", phi, inv)
        rep = np.einsum("bac,dc->bad", tmp, phi)
        resid = p_k[None, :, :] - rep
        total += np.einsum("bij,bij->b", resid, resid)
    return total


def test_criterion_1_minimizer_optimality():
    # closed-form Frobenius minimizer never beaten by random PD candidates
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    n_candidates = 10_000
    for instance in range(100):
        n = int(rng.integers(3, 9))
        r = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        phi_list = [random_orthonormal(rng, n, r) for _ in range(k)]
        p_list = [random_pd(rng, n) for _ in range(k)]
        c_star, _ = kstar_pooled(phi_list, p_list)
        best = sum(
            frobenius_objective(p_k, phi, c_star, inverted=True)
            for p_k, phi in zip(p_list, phi_list)
        )
        half = n_candidates // 2
        rot = np.linalg.qr(rng.normal(size=(half, r, r)))[0]
        eigs = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=(half, r)))
        scale = np.trace(c_star) / r
        wild = np.einsum("bij,bj,bkj->bik", rot, eigs * scale, rot)
        bump = rng.normal(scale=0.05, size=(half, r, r))
        factors = np.eye(r)[None] + bump
        near = np.einsum("bij,jk,blk->bil", factors, c_star, factors)
        near += 1e-6 * scale * np.eye(r)[None]
        cands = np.concatenate([wild, near], axis=0)
        assert best <= batched_objective(p_list, phi_list, cands).min() + 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(1, f"100 instances x {n_candidates} candidates in {elapsed:.1f}s")


def test_criterion_2_projected_laplacian_needs_no_clip():
    # with an intercept the projected Laplacian is PD, so the positive
    # approximant returns it unchanged
    worst = 0.0
    for seed, p in ((2001, 1), (2002, 3)):
        rng = np.random.default_rng(seed)
        graph = random_connected_graph(30, 25, seed=seed)
        x = np.ones((30, p))
        if p > 1:
            x[:, 1:] = rng.normal(size=(30, p - 1))
        s, _ = mi_basis(x, graph.adjacency(), r=6)
        q = car_precision(graph)
        middle = s.T @ q @ s
        assert np.linalg.eigvalsh(middle).min() > 0
        worst = max(worst, float(np.max(np.abs(best_positive_approximant(middle) - middle))))
    assert worst <= 1e-10
    _report(2, f"max |A+(S'QS) - S'QS| = {worst:.2e}")


def test_criterion_3_non_confounding():
    worst_sx = 0.0
    rng = np.random.default_rng(3001)
    for instance in range(20):
        n_units = int(rng.integers(8, 20))
        L = int(rng.integers(1, 3))
        p = int(rng.integers(1, 4))
        seed = int(rng.integers(0, 2**31))
        graph = random_connected_graph(n_units, n_units, seed=seed)
        max_r = n_units * L - p
        r = int(rng.integers(2, min(max_r, 8) + 1))
        design = StudyDesign(L, tuple((1, 3) for _ in range(L)), p, r)
        design_set = make_design_set(graph, design, seed=seed + 1, time_varying=True)
        basis = build_basis_system(design_set)
        worst_sx = max(worst_sx, confounding_report(basis, design_set.matrices))
    assert worst_sx <= 1e-10
    _report(3, f"20 instances, max ||S'X|| = {worst_sx:.2e}")


def test_criterion_4_ffbs_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(4001)
    worst = 0.0
    # filter and smoother means vs dense joint-Gaussian conditioning
    for T, r in ((3, 2), (4, 3), (12, 1), (3, 4)):
        s_list = [random_orthonormal(rng, 5, r) for _ in range(T)]
        m_seq = [random_orthonormal(rng, r, r) for _ in range(T - 1)]
        k1 = random_pd(rng, r)
        w_seq = [random_pd(rng, r) for _ in range(T - 1)]
        v_list = [rng.uniform(0.2, 1.0, size=5) for _ in range(T)]
        z = [rng.normal(size=5) for _ in range(T)]
        out = kalman_filter(z, s_list, m_seq, k1, w_seq, v_list)
        for t in range(1, T + 1):
            mean, _ = dense_condition(z, s_list, m_seq, k1, w_seq, v_list, upto=t)
            blk = slice((t - 1) * r, t * r)
            worst = max(worst, float(np.max(np.abs(out.means_filt[t - 1] - mean[blk]))))
        sm = smoother_means(out, m_seq)
        full_mean, _ = dense_condition(z, s_list, m_seq, k1, w_seq, v_list)
        worst = max(worst, float(np.max(np.abs(sm.ravel() - full_mean))))
    assert worst <= 1e-8

    # backward-sampler draw moments vs the joint smoothing law
    T, r = 3, 2
    s_list = [random_orthonormal(rng, 4, r) for _ in range(T)]
    m_seq = [random_orthonormal(rng, r, r) for _ in range(T - 1)]
    k1 = random_pd(rng, r)
    w_seq = [random_pd(rng, r) for _ in range(T - 1)]
    v_list = [rng.uniform(0.2, 1.0, size=4) for _ in range(T)]
    z = [rng.normal(size=4) for _ in range(T)]
    out = kalman_filter(z, s_list, m_seq, k1, w_seq, v_list)
    mean, cov = dense_condition(z, s_list, m_seq, k1, w_seq, v_list)
    n_draws = 50_000
    draw_rng = np.random.default_rng(4002)
    draws = np.array(
        [backward_sample(out, m_seq, draw_rng).ravel() for _ in range(n_draws)]
    )
    se_mean = np.sqrt(np.diag(cov) / n_draws)
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= 3 * se_mean)
    emp = np.cov(draws.T, ddof=1)
    dim = T * r
    for i in range(dim):
        for j in range(dim):
            se = np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n_draws)
            assert abs(emp[i, j] - cov[i, j]) <= 3 * se
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(4, f"means to {worst:.1e}, 50k-draw moments within 3 MC se, {elapsed:.1f}s")


def test_criterion_5_full_conditional_conjugacy():
    rng = np.random.default_rng(5001)
    n_draws = 50_000

    # fine-scale field
    z = np.array([0.8, -1.1, 0.4])
    x = np.hstack([np.ones((3, 1)), rng.normal(size=(3, 1))])
    beta = np.array([0.2, -0.3])
    s = rng.normal(size=(3, 2))
    eta = np.array([0.4, -0.1])
    v = np.array([0.6, 1.2, 0.9])
    sigma2 = 0.5
    resid = z - x @ beta - s @ eta
    var = 1.0 / (1.0 / v + 1.0 / sigma2)
    mu = var * resid / v
    draws = np.array([sample_xi(z, x, beta, s, eta, v, sigma2, rng) for _ in range(n_draws)])
    assert np.all(np.abs(draws.mean(axis=0) - mu) <= 3 * np.sqrt(var / n_draws))
    assert np.all(np.abs(draws.var(axis=0, ddof=1) - var) <= 3 * var * np.sqrt(2 / n_draws))

    # regression coefficients
    hyper = Hyperparams(mu_beta=np.array([0.1, -0.2]), sigma_beta2=3.0)
    xi = rng.normal(size=3) * 0.1
    cov = np.linalg.inv(x.T @ np.diag(1 / v) @ x + np.eye(2) / hyper.sigma_beta2)
    mub = cov @ (x.T @ np.diag(1 / v) @ (z - xi - s @ eta) + hyper.mu_beta_vector(2) / hyper.sigma_beta2)
    draws = np.array([sample_beta(z, x, xi, s, eta, v, hyper, rng) for _ in range(n_draws)])
    assert np.all(np.abs(draws.mean(axis=0) - mub) <= 3 * np.sqrt(np.diag(cov) / n_draws))
    emp = np.cov(draws.T, ddof=1)
    for i in range(2):
        for j in range(2):
            se = np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n_draws)
            assert abs(emp[i, j] - cov[i, j]) <= 3 * se

    # coefficient-scale variance
    eta_path = np.array([[0.9, -0.4], [0.2, 0.7], [-0.5, 0.1]])
    k1 = random_pd(rng, 2)
    w_seq = [random_pd(rng, 2) for _ in range(2)]
    m_seq = [random_orthonormal(rng, 2, 2) for _ in range(2)]
    shape, rate = sigma_k_posterior(eta_path, k1, w_seq, m_seq, Hyperparams())
    draws = np.array(
        [sample_sigma_k(eta_path, k1, w_seq, m_seq, Hyperparams(), rng) for _ in range(n_draws)]
    )
    ig_mean = rate / (shape - 1)
    ig_var = rate**2 / ((shape - 1) ** 2 * (shape - 2))
    assert abs(draws.mean() - ig_mean) <= 3 * np.sqrt(ig_var / n_draws)

    # fine-scale variance
    xi_t = np.array([0.7, -0.2, 0.5, 0.1])
    shape, rate = sigma_xi_posterior(xi_t, Hyperparams())
    draws = np.array([sample_sigma_xi(xi_t, Hyperparams(), rng) for _ in range(n_draws)])
    ig_mean = rate / (shape - 1)
    ig_var = rate**2 / ((shape - 1) ** 2 * (shape - 2))
    assert abs(draws.mean() - ig_mean) <= 3 * np.sqrt(ig_var / n_draws)
    _report(5, "xi, beta, sigma_k2, sigma_xi2 all match closed forms (50k draws)")


@pytest.fixture(scope="module")
def desk_scale_structures():
    graph = random_connected_graph(25, 30, seed=6000)
    design = StudyDesign(2, ((1, 10), (1, 10)), 3, 10)
    design_set = make_design_set(graph, design, seed=6001, time_varying=True)
    basis = build_basis_system(design_set)
    prior = build_prior_structure(design_set, basis)
    return design_set, basis, prior


def test_criterion_6_simulate_fit_recovery(desk_scale_structures):
    design_set, basis, prior = desk_scale_structures
    true_beta = np.array([0.5, -0.3, 0.2])
    true_sigma_k2 = 1.0
    inside = 0
    total = 0
    sk_means = []
    slowest = 0.0
    for seed in range(20):
        truth = simulate(
            design_set, basis, prior, true_beta, true_sigma_k2, 0.05, 0.01, seed=6100 + seed
        )
        start = time.perf_counter()
        chain = gibbs_run(
            truth.observations, design_set, basis, prior, Hyperparams(),
            iterations=10_000, burn_in=1_000, seed=6200 + seed,
        )
        slowest = max(slowest, time.perf_counter() - start)
        lo = np.quantile(chain.beta, 0.025, axis=0)
        hi = np.quantile(chain.beta, 0.975, axis=0)
        hits = (true_beta >= lo) & (true_beta <= hi)
        inside += int(hits.sum())
        total += hits.size
        sk_means.append(chain.sigma_k2.mean())
    coverage = inside / total
    avg_sk = float(np.mean(sk_means))
    assert slowest <= 300.0
    assert coverage >= 0.85
    assert abs(avg_sk / true_sigma_k2 - 1.0) <= 0.25
    _report(
        6,
        f"coverage {coverage:.3f} (>=0.85), avg sigma_k2 {avg_sk:.3f} "
        f"(truth 1.0), slowest fit {slowest:.0f}s",
    )


def test_criterion_7_survey_fusion_direction():
    graph = random_connected_graph(24, 26, seed=7000)
    design = StudyDesign(1, ((1, 6),), 3, 8)
    design_set = make_design_set(graph, design, seed=7001)
    basis = build_basis_system(design_set)
    prior = build_prior_structure(design_set, basis)
    units1 = {f"u{i}" for i in range(12)}
    v1, v2 = 0.01, 0.04  # survey 2 is 4x noisier

    truth = simulate(
        design_set, basis, prior, np.array([0.4, -0.2, 0.1]), 1.0, 0.02, v1, seed=7002
    )
    rng = np.random.default_rng(7003)
    obs1, obs2, fused = [], [], []
    for o in truth.observations.observations:
        if o.unit in units1:
            obs1.append(o)
            fused.append(o)
        else:
            widened = Observation(
                o.variable, o.time, o.unit,
                o.z + rng.standard_normal() * np.sqrt(v2 - v1), v2,
            )
            obs2.append(widened)
            fused.append(widened)
    sets = {
        "fused": ObservationSet(design, tuple(fused)),
        1: ObservationSet(design, tuple(obs1)),
        2: ObservationSet(design, tuple(obs2)),
    }
    chains = {
        name: gibbs_run(
            obs, design_set, basis, prior, Hyperparams(),
            iterations=4_000, burn_in=1_000, seed=7004,
        )
        for name, obs in sets.items()
    }
    cells = sorted((o.variable, o.time, o.unit) for o in obs1)
    aligned = {name: align_observations(design_set, obs) for name, obs in sets.items()}
    full_surface = posterior_y(
        chains["fused"], design_set, basis, aligned["fused"],
        locations=cells, rng=np.random.default_rng(1), keep_draws=True,
    )
    survey_means = {
        m: posterior_y(
            chains[m], design_set, basis, aligned[m],
            locations=cells, rng=np.random.default_rng(1 + m),
        ).yhat
        for m in (1, 2)
    }
    values = rls(full_surface.draws, full_surface.yhat, survey_means)
    assert values[1] > 1.0
    assert values[2] > 1.0
    assert values[2] > values[1]  # the noisier survey benefits more from fusion
    _report(7, f"RLS(1) = {values[1]:.3f}, RLS(2) = {values[2]:.3f}")


def test_criterion_8_psd_lifting(desk_scale_structures):
    # pipeline: every emitted innovation covariance is PSD at the floor
    _, _, prior = desk_scale_structures
    floor = min(float(np.linalg.eigvalsh(w).min()) for w in prior.w_star.values())
    assert floor >= -1e-10

    # constructed indefinite case: exactly one lift
    rng = np.random.default_rng(8001)
    graph = random_connected_graph(10, 10, seed=8002)
    design = StudyDesign(1, ((1, 2),), 1, 3)
    design_set = make_design_set(graph, design, seed=8003)
    basis = build_basis_system(design_set)
    targets = {1: 0.5 * np.eye(10), 2: 2.0 * np.eye(10)}
    structure = build_prior_structure(design_set, basis, targets=targets)
    # K*_1 = 2 I, K*_2 = 0.5 I, M = I: raw innovation = -1.5 I, lifted once
    assert len(structure.lift_log) == 1
    assert structure.lift_log[0][0] == "W*_2"
    assert structure.lift_log[0][1] == pytest.approx(-1.5, abs=1e-9)
    assert np.linalg.eigvalsh(structure.w_star[2]).min() >= -1e-10

    raw_check, lifted_from = wstar(0.5 * np.eye(3), 2.0 * np.eye(3))
    assert lifted_from == pytest.approx(-1.5)
    assert np.max(np.abs(raw_check)) < 1e-12
    _report(8, f"pipeline floor {floor:.1e}, constructed case lifted exactly once")


def test_criterion_9_determinism(tmp_path):
    from test_cli import write_project

    cfg = write_project(tmp_path, n_units=12, T=4, p=2, r=3, iterations=500, burn_in=100)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["fit", "--config", str(cfg), "--output", str(tmp_path / "runA")]) == 0
    assert main(["fit", "--config", str(cfg), "--output", str(tmp_path / "runB")]) == 0
    for name in ("eta", "beta", "xi", "sigma_k2", "sigma_xi2"):
        a = (tmp_path / "runA" / "chain0" / f"{name}.csv").read_bytes()
        b = (tmp_path / "runB" / "chain0" / f"{name}.csv").read_bytes()
        assert a == b
    _report(9, "two fits with identical config and seed are byte-identical")


def test_criterion_10_scale_profile():
    start = time.perf_counter()
    graph = random_connected_graph(10, 12, seed=10_000)
    L, T, p, r = 10, 20, 3, 20
    design = StudyDesign(L, tuple((1, T) for _ in range(L)), p, r)
    design_set = make_design_set(graph, design, seed=10_001, time_varying=True)
    assert design_set.N_t(1) == 100
    basis = build_basis_system(design_set)
    prior = build_prior_structure(design_set, basis)
    truth = simulate(
        design_set, basis, prior, np.array([0.5, -0.3, 0.2]), 1.0, 0.05, 0.01, seed=10_002
    )
    with track_dense_solves() as tracker:
        chain = gibbs_run(
            truth.observations, design_set, basis, prior, Hyperparams(),
            iterations=10_000, burn_in=1_000, seed=10_003,
        )
    elapsed = time.perf_counter() - start
    assert chain.num_draws == 9_000
    assert elapsed < 1800.0
    assert tracker.max_dim <= max(r, p)  # reduced-rank hot path: nothing at N_t
    _report(
        10,
        f"L=10, T=20, N_t=100, r=20 fit in {elapsed:.0f}s; "
        f"max dense factorization dim {tracker.max_dim} <= {max(r, p)}",
    )
