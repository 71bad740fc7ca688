import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arealdlm.basis import (
    build_basis_system,
    confounding_report,
    mi_basis,
    mi_operator,
)
from arealdlm.data import StudyDesign
from arealdlm.errors import ValidationError

from util import cycle_graph, make_design_set, random_connected_graph, toy_structures


class TestMiOperator:
    def test_zero_adjacency(self):
        x = np.ones((4, 1))
        assert np.array_equal(mi_operator(x, np.zeros((4, 4))), np.zeros((4, 4)))

    def test_hand_two_by_two(self):
        # hand matrix-product oracle: intercept over N=2, single edge
        x = np.ones((2, 1))
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = np.array([[-0.5, 0.5], [0.5, -0.5]])
        assert np.allclose(mi_operator(x, a), expected, atol=1e-14)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_annihilates_design_columns(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 7, 2
        x = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p - 1))])
        a = rng.integers(0, 2, size=(n, n)).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        g = mi_operator(x, a)
        assert np.max(np.abs(g @ x)) < 1e-12 * max(np.abs(a).max(), 1.0) * n
        assert np.max(np.abs(g - g.T)) < 1e-12

    def test_singular_design_rejected(self):
        x = np.ones((4, 2))  # duplicated intercept
        with pytest.raises(ValidationError, match="rank-deficient design"):
            mi_operator(x, np.zeros((4, 4)))


class TestMiBasis:
    def test_four_cycle_spectrum(self):
        # dense eigensolver oracle on the 4x4 operator: for the cycle graph
        # with an intercept the non-structural spectrum is {0, 0, -2} and the
        # alternating contrast pairs with -2
        graph = cycle_graph()
        a = graph.adjacency()
        x = np.ones((4, 1))
        g = mi_operator(x, a)
        oracle_vals, oracle_vecs = np.linalg.eigh(g)
        assert np.allclose(sorted(oracle_vals), [-2.0, 0.0, 0.0, 0.0], atol=1e-12)
        contrast = np.array([0.5, -0.5, 0.5, -0.5])
        low = oracle_vecs[:, np.argmin(oracle_vals)]
        assert np.allclose(np.abs(low), np.abs(contrast), atol=1e-12)

        s, vals = mi_basis(x, a, r=3)
        # top of the restricted spectrum is the degenerate zero cluster; the
        # contrast is retained last with eigenvalue -2 under the sign convention
        assert np.allclose(vals, [0.0, 0.0, -2.0], atol=1e-12)
        assert np.allclose(s[:, 2], contrast, atol=1e-12)
        assert np.max(np.abs(s.T @ x)) < 1e-12

    def test_columns_orthonormal(self):
        graph = random_connected_graph(12, 10, seed=3)
        rng = np.random.default_rng(4)
        x = np.hstack([np.ones((12, 1)), rng.normal(size=(12, 2))])
        s, _ = mi_basis(x, graph.adjacency(), r=5)
        assert np.max(np.abs(s.T @ s - np.eye(5))) < 1e-10

    def test_rank_too_large_reports_max(self):
        x = np.ones((4, 1))
        with pytest.raises(ValidationError, match="max admissible rank is 3"):
            mi_basis(x, np.zeros((4, 4)), r=4)

    def test_eigenpair_residual(self):
        graph = random_connected_graph(15, 14, seed=5)
        rng = np.random.default_rng(6)
        x = np.hstack([np.ones((15, 1)), rng.normal(size=(15, 2))])
        a = graph.adjacency()
        g = mi_operator(x, a)
        s, vals = mi_basis(x, a, r=6)
        for i in range(6):
            resid = np.linalg.norm(g @ s[:, i] - vals[i] * s[:, i])
            assert resid <= 1e-8 * np.linalg.norm(g, "fro")

    def test_sign_convention_deterministic(self):
        graph = random_connected_graph(10, 8, seed=7)
        rng = np.random.default_rng(8)
        x = np.hstack([np.ones((10, 1)), rng.normal(size=(10, 1))])
        s1, _ = mi_basis(x, graph.adjacency(), r=4)
        s2, _ = mi_basis(x, graph.adjacency(), r=4)
        assert np.array_equal(s1, s2)
        for j in range(4):
            first = s1[np.abs(s1[:, j]) > 1e-12, j][0]
            assert first > 0

    def test_time_variation_tracks_design(self):
        # varying covariates give varying bases; constant covariates give
        # bit-identical bases across time
        graph = random_connected_graph(9, 8, seed=9)
        design = StudyDesign(1, ((1, 3),), 2, 3)
        varying = make_design_set(graph, design, seed=10, time_varying=True)
        constant = make_design_set(graph, design, seed=10, time_varying=False)
        basis_v = build_basis_system(varying)
        basis_c = build_basis_system(constant)
        assert np.max(np.abs(basis_v.s[1] - basis_v.s[2])) > 1e-3
        assert np.array_equal(basis_c.s[1], basis_c.s[2])
        assert np.array_equal(basis_c.s[2], basis_c.s[3])


class TestConfoundingReport:
    def test_fresh_system_clean(self):
        _, _, design_set, basis, _ = toy_structures(
            n_units=10, T=3, p=2, r=4, seed=15, time_varying=True
        )
        assert confounding_report(basis, design_set.matrices) <= 1e-10

    def test_wrong_design_reports_nonzero(self):
        _, _, design_set, basis, _ = toy_structures(n_units=10, T=2, p=2, r=4, seed=16)
        rng = np.random.default_rng(17)
        wrong = {t: rng.normal(size=m.shape) for t, m in design_set.matrices.items()}
        assert confounding_report(basis, wrong) > 1e-6

    def test_state_scale_two_variable_config(self):
        # two variables over a 49-unit graph, p=7, r=12
        graph = random_connected_graph(49, 60, seed=18)
        design = StudyDesign(2, ((1, 3), (1, 3)), 7, 12)
        design_set = make_design_set(graph, design, seed=19, time_varying=True)
        basis = build_basis_system(design_set)
        assert confounding_report(basis, design_set.matrices) <= 1e-10
