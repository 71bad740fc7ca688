import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arealdlm.basis import build_basis_system, mi_basis
from arealdlm.data import ArealGraph, StudyDesign
from arealdlm.errors import ValidationError
from arealdlm.linops import symmetrize
from arealdlm.prior import (
    _laplacian_middle,
    best_positive_approximant,
    build_prior_structure,
    car_precision,
    frobenius_objective,
    kstar_pooled,
    wstar,
)

from util import (
    cycle_graph,
    gapped_two_variable_design,
    make_design_set,
    random_connected_graph,
    stacked_car_precision,
    toy_structures,
)


def random_orthonormal(rng, n, r):
    q, _ = np.linalg.qr(rng.normal(size=(n, r)))
    return q


def random_pd(rng, n, jitter=0.1):
    g = rng.normal(size=(n, n))
    return g @ g.T + jitter * np.eye(n)


class TestCarPrecision:
    def test_single_edge(self):
        graph = ArealGraph(("a", "b"), frozenset({(0, 1)}))
        assert np.array_equal(car_precision(graph), [[1, -1], [-1, 1]])

    def test_empty_graph(self):
        graph = ArealGraph(("a", "b", "c"), frozenset())
        assert np.array_equal(car_precision(graph), np.zeros((3, 3)))

    def test_four_cycle_eigenvalues(self):
        # dense eigensolver oracle
        q = car_precision(cycle_graph())
        assert np.allclose(np.sort(np.linalg.eigvalsh(q)), [0, 2, 2, 4], atol=1e-12)

    def test_connected_null_vector(self):
        graph = random_connected_graph(11, 7, seed=0)
        q = car_precision(graph)
        assert np.array_equal(q @ np.ones(11), np.zeros(11))


class TestBestPositiveApproximant:
    def test_psd_fixed_point(self):
        rng = np.random.default_rng(1)
        mat = random_pd(rng, 5)
        assert np.max(np.abs(best_positive_approximant(mat) - mat)) < 1e-12

    def test_eigenvalue_clip(self):
        assert np.allclose(
            best_positive_approximant(np.diag([2.0, -1.0])), np.diag([2.0, 0.0]), atol=1e-14
        )

    def test_symmetrize_then_clip(self):
        out = best_positive_approximant(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert np.allclose(out, np.ones((2, 2)), atol=1e-14)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_output_psd_and_nearest(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        mat = rng.normal(size=(n, n))
        out = best_positive_approximant(mat)
        sym = (mat + mat.T) / 2
        assert np.linalg.eigvalsh(out).min() >= -1e-12
        base = np.linalg.norm(sym - out, "fro")
        for _ in range(25):
            cand = best_positive_approximant(rng.normal(size=(n, n)))
            assert base <= np.linalg.norm(sym - cand, "fro") + 1e-10


class TestFrobeniusObjective:
    def test_exact_representation(self):
        rng = np.random.default_rng(2)
        s = random_orthonormal(rng, 5, 2)
        p = s @ s.T
        assert frobenius_objective(p, s, np.eye(2), inverted=True) == pytest.approx(0.0, abs=1e-20)

    def test_hand_computation(self):
        p = np.eye(2)
        s = np.array([[1.0], [0.0]])
        assert frobenius_objective(p, s, np.array([[1.0]]), inverted=True) == pytest.approx(1.0)

    def test_singular_inverted_rejected(self):
        with pytest.raises(ValidationError, match="singular C"):
            frobenius_objective(np.eye(2), np.eye(2), np.zeros((2, 2)), inverted=True)


class TestKstar:
    def test_complete_basis(self):
        rng = np.random.default_rng(3)
        s = random_orthonormal(rng, 4, 4)
        p = random_pd(rng, 4)
        k, eps = kstar_pooled([s], [p])
        assert eps == 0.0
        assert np.allclose(k, np.linalg.inv(s.T @ p @ s), atol=1e-10)
        assert frobenius_objective(p, s, k, inverted=True) < 1e-18

    def test_intercept_design_target_already_pd(self):
        # with an intercept in the design the projected Laplacian is positive
        # definite and the approximant is the identity map on it
        graph = random_connected_graph(9, 9, seed=4)
        a = graph.adjacency()
        x = np.ones((9, 1))
        s, _ = mi_basis(x, a, r=4)
        q = car_precision(graph)
        middle = s.T @ q @ s
        assert np.linalg.eigvalsh(middle).min() > 1e-8
        assert np.max(np.abs(best_positive_approximant(middle) - middle)) < 1e-10

    def test_random_search_oracle(self):
        # no PD candidate beats the closed form by more than 1e-8
        rng = np.random.default_rng(5)
        s = random_orthonormal(rng, 6, 2)
        p = random_pd(rng, 6)
        k, _ = kstar_pooled([s], [p])
        best = frobenius_objective(p, s, k, inverted=True)
        for _ in range(10_000):
            cand = random_pd(rng, 2, jitter=float(rng.uniform(0.01, 1.0)))
            assert best <= frobenius_objective(p, s, cand, inverted=True) + 1e-8

    def test_singular_approximant_uses_eps(self):
        rng = np.random.default_rng(6)
        s = random_orthonormal(rng, 5, 2)
        # target supported on the second basis column only: S'PS = diag(0, 1)
        p = np.outer(s[:, 1], s[:, 1])
        k, eps = kstar_pooled([s], [p])
        assert eps > 0
        assert np.all(np.isfinite(k))
        assert np.linalg.eigvalsh(k).min() > 0


class TestKstarPooled:
    def test_reduces_to_single(self):
        rng = np.random.default_rng(7)
        s = random_orthonormal(rng, 6, 3)
        p = random_pd(rng, 6)
        single = symmetrize(np.linalg.inv(best_positive_approximant(s.T @ p @ s)))
        pooled, _ = kstar_pooled([s], [p])
        assert np.array_equal(single, pooled)

    def test_duplication_matches_single(self):
        rng = np.random.default_rng(8)
        s = random_orthonormal(rng, 6, 3)
        p = random_pd(rng, 6)
        single, _ = kstar_pooled([s], [p])
        pooled, _ = kstar_pooled([s, s], [p, p])
        assert np.allclose(pooled, single, atol=1e-12)

    def test_random_search_oracle_summed(self):
        rng = np.random.default_rng(9)
        s1, s2 = (random_orthonormal(rng, 5, 2) for _ in range(2))
        p1, p2 = (random_pd(rng, 5) for _ in range(2))
        pooled, _ = kstar_pooled([s1, s2], [p1, p2])

        def total(c):
            return frobenius_objective(p1, s1, c, inverted=True) + frobenius_objective(
                p2, s2, c, inverted=True
            )

        best = total(pooled)
        for _ in range(10_000):
            cand = random_pd(rng, 2, jitter=float(rng.uniform(0.01, 1.0)))
            assert best <= total(cand) + 1e-8

    def test_mismatched_rank_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValidationError, match="mismatched basis ranks"):
            kstar_pooled(
                [random_orthonormal(rng, 5, 2), random_orthonormal(rng, 5, 3)],
                [np.eye(5), np.eye(5)],
            )


class TestWstar:
    def test_zero_propagation(self):
        rng = np.random.default_rng(11)
        k = random_pd(rng, 3)
        w, lifted = wstar(k, np.zeros((3, 3)))
        assert lifted is None
        assert np.allclose(w, k, atol=1e-14)

    def test_isometry_case(self):
        w, lifted = wstar(np.eye(3), np.eye(3))
        assert lifted is None
        assert np.max(np.abs(w)) < 1e-12

    def test_indefinite_lifted_to_zero(self):
        # eigen-clip oracle: raw = -I lifts to the zero matrix
        w, lifted = wstar(np.eye(2), 2 * np.eye(2))
        assert lifted == pytest.approx(-1.0)
        assert np.max(np.abs(w)) < 1e-14

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_output_floor(self, seed):
        rng = np.random.default_rng(seed)
        r = 3
        k_t = random_pd(rng, r)
        k_prev = random_pd(rng, r)
        w, _ = wstar(k_t, k_prev)
        assert np.linalg.eigvalsh(w).min() >= -1e-10


class TestBuildPriorStructure:
    def test_constant_design_innovations_floored(self):
        # constant covariates give identical K*_t and raw zero innovations, which the structure floors (recorded)
        _, _, design_set, basis, prior = toy_structures(
            n_units=9, T=3, p=2, r=3, seed=13, time_varying=False
        )
        for t in (2, 3):
            assert np.linalg.eigvalsh(prior.w_star[t]).min() > 0
        assert any(name.startswith("W*") for name, _ in prior.eps_log)

    def test_time_varying_design_lifts_logged(self):
        _, _, design_set, basis, prior = toy_structures(
            n_units=12, T=4, p=3, r=4, seed=14, time_varying=True
        )
        assert prior.lift_log  # indefinite raw innovations must be recorded
        for t in prior.w_star:
            assert np.linalg.eigvalsh(prior.w_star[t]).min() >= -1e-10
        for t in prior.k_star:
            assert np.linalg.eigvalsh(prior.k_star[t]).min() > 0

    def test_direct_form_and_pooled_modes(self):
        graph = random_connected_graph(10, 9, seed=15)
        design = StudyDesign(1, ((1, 3),), 2, 3)
        design_set = make_design_set(graph, design, seed=16, time_varying=True)
        basis = build_basis_system(design_set)
        direct = build_prior_structure(design_set, basis, form="direct")
        pooled = build_prior_structure(design_set, basis, pooled=True)
        assert direct.form == "direct"
        assert pooled.pooled
        assert np.array_equal(pooled.k_star[1], pooled.k_star[2])
        with pytest.raises(ValidationError, match="unknown prior form"):
            build_prior_structure(design_set, basis, form="banana")


def _isolated_unit_design():
    """L = 1, T = 3 time-varying design whose graph has two units without edges."""
    connected = random_connected_graph(14, 12, seed=60)
    graph = ArealGraph(connected.units + ("lone_a", "lone_b"), connected.edges)
    return make_design_set(graph, StudyDesign(1, ((1, 3),), 3, 4), seed=61, time_varying=True)


class TestSparseTargetMiddle:
    """The default middle S_t'(D - A)S_t from the edge index against the dense Laplacian."""

    DESIGNS = {
        "time-varying": lambda: make_design_set(
            random_connected_graph(20, 18, seed=62), StudyDesign(2, ((1, 4), (2, 4)), 3, 5),
            seed=63, time_varying=True,
        ),
        "gapped": lambda: gapped_two_variable_design(40, r=6, seed=64),
        "isolated-unit": _isolated_unit_design,
    }

    @pytest.mark.parametrize("pooled", [False, True], ids=["per-time", "pooled"])
    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_matches_dense_oracle(self, name, pooled):
        design_set = self.DESIGNS[name]()
        basis = build_basis_system(design_set)
        targets = {t: stacked_car_precision(design_set, t) for t in basis.times}
        sparse = build_prior_structure(design_set, basis, pooled=pooled)
        dense = build_prior_structure(design_set, basis, targets=targets, pooled=pooled)
        for t in basis.times:
            mid = basis.s[t].T @ targets[t] @ basis.s[t]
            got = _laplacian_middle(basis.s[t], *design_set.edge_index(t))
            assert np.max(np.abs(got - mid)) <= 1e-12 * np.max(np.abs(mid))
            for k_sparse, k_dense in ((sparse.k_star, dense.k_star), (sparse.w_star, dense.w_star)):
                if t in k_dense:
                    scale = np.max(np.abs(k_dense[t]))
                    assert np.max(np.abs(k_sparse[t] - k_dense[t])) <= 1e-12 * scale
        assert [n for n, _ in sparse.lift_log] == [n for n, _ in dense.lift_log]
        assert [n for n, _ in sparse.eps_log] == [n for n, _ in dense.eps_log]


def test_large_n_setup_memory():
    # the LEHD scale: about 3,000 counties with L = 2 stacked, N_t near 6,000;
    # one dense N_t x N_t target is 288 MB
    import tracemalloc

    design_set = gapped_two_variable_design(3000, r=30, seed=65)
    assert design_set.N_t(1) == 6000 and design_set.N_t(2) == 5700
    tracemalloc.start()
    try:
        basis = build_basis_system(design_set)
        prior = build_prior_structure(design_set, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.provenance["solver"] == {1: "lanczos", 2: "lanczos"}
    assert prior.k_star[2].shape == (30, 30)
    assert peak < 500e6


class TestFormRelations:
    """How the inverted, direct and pooled modes relate on one design."""

    @pytest.fixture
    def design(self):
        graph = random_connected_graph(12, 10, seed=30)
        design = StudyDesign(1, ((1, 4),), 2, 3)
        design_set = make_design_set(graph, design, seed=31, time_varying=True)
        return design_set, build_basis_system(design_set)

    def test_inverted_is_inverse_of_direct(self, design):
        design_set, basis = design
        inverted = build_prior_structure(design_set, basis, form="inverted")
        direct = build_prior_structure(design_set, basis, form="direct")
        for prior in (inverted, direct):
            assert not [name for name, _ in prior.eps_log if name.startswith("K*")]
        for t in inverted.times:
            assert np.array_equal(
                inverted.k_star[t], symmetrize(np.linalg.inv(direct.k_star[t]))
            )

    def test_pooled_matches_kstar_pooled(self, design):
        design_set, basis = design
        times = basis.times
        targets = {t: stacked_car_precision(design_set, t) for t in times}
        prior = build_prior_structure(design_set, basis, targets=targets, pooled=True)
        assert not [name for name, _ in prior.eps_log if name.startswith("K*")]
        expected, applied = kstar_pooled(
            [basis.s[t] for t in times], [targets[t] for t in times]
        )
        assert applied == 0.0
        for t in times:
            assert np.array_equal(prior.k_star[t], expected)

    @pytest.mark.parametrize("form", ["inverted", "direct"])
    def test_zero_eps_on_singular_approximant_raises(self, design, form):
        design_set, basis = design
        zero = {t: np.zeros((design_set.N_t(t),) * 2) for t in basis.times}
        with pytest.raises(ValidationError, match="K\\*_1 is singular and epsilon is zero"):
            build_prior_structure(design_set, basis, targets=zero, form=form, eps=0.0)


class TestFrozenPathWarning:
    """One warning per build when W* is nothing but the epsilon floor."""

    def _build(self, caplog, time_varying, pooled=False):
        graph = random_connected_graph(12, 10, seed=20)
        design = StudyDesign(1, ((1, 5),), 2, 3)
        design_set = make_design_set(graph, design, seed=21, time_varying=time_varying)
        basis = build_basis_system(design_set)
        with caplog.at_level(logging.WARNING, logger="arealdlm.prior"):
            prior = build_prior_structure(design_set, basis, pooled=pooled)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        return prior, warnings

    def test_constant_design_warns_once(self, caplog):
        prior, warnings = self._build(caplog, time_varying=False)
        assert len(warnings) == 1
        assert "latent path is frozen" in warnings[0].getMessage()
        assert set(prior.innovation_ratio) == {2, 3, 4, 5}
        assert max(prior.innovation_ratio.values()) < 1e-6

    def test_pooled_prior_warns_once(self, caplog):
        prior, warnings = self._build(caplog, time_varying=True, pooled=True)
        assert len(warnings) == 1
        assert max(prior.innovation_ratio.values()) < 1e-6

    def test_time_varying_design_does_not_warn(self, caplog):
        prior, warnings = self._build(caplog, time_varying=True)
        assert warnings == []
        assert min(prior.innovation_ratio.values()) > 1e-3
