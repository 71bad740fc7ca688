import hashlib
import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arealdlm.basis as basis_module
from arealdlm.basis import (
    _lanczos_ncv,
    _lanczos_pairs,
    build_basis_system,
    confounding_report,
    mi_basis,
)
from arealdlm.data import StudyDesign
from arealdlm.errors import ValidationError
from arealdlm.linops import CLUSTER_GAP, order_eigh_descending, symmetrize

from util import (
    cycle_graph,
    gapped_two_variable_design,
    make_design_set,
    mi_operator,
    random_connected_graph,
    stacked_adjacency,
    toy_structures,
)


def lanczos_basis(x, rows, cols, r):
    values, vectors = _lanczos_pairs(x, rows, cols, r)
    return vectors[:, :r], values[:r]


def max_principal_sine(s1, s2):
    """sin of the largest principal angle between col(s1) and col(s2)."""
    return float(np.linalg.norm(s2 - s1 @ (s1.T @ s2), 2))


def run_python(code):
    """Run code in a fresh interpreter that sees the package and tests/util.py."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here)] + sys.path
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    return out.stdout.strip()


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


LANCZOS_CASE = """
import hashlib
from arealdlm.basis import _lanczos_pairs
from arealdlm.data import StudyDesign
from util import make_design_set, random_connected_graph
graph = random_connected_graph(600, 700, seed=40)
design_set = make_design_set(graph, StudyDesign(1, ((1, 1),), 3, 20), seed=41)
values, vectors = _lanczos_pairs(design_set.matrices[1], *design_set.edge_index(1), 20)
print(hashlib.sha256(vectors[:, :20].tobytes()).hexdigest())
"""


class TestLanczosBasis:
    """The matrix-free solve against the dense oracle at N_t = 600."""

    R = 20

    @pytest.fixture(scope="class")
    def case(self):
        graph = random_connected_graph(600, 700, seed=40)
        design_set = make_design_set(graph, StudyDesign(1, ((1, 1),), 3, self.R), seed=41)
        x = design_set.matrices[1]
        rows, cols = design_set.edge_index(1)
        a = stacked_adjacency(design_set, 1)
        return x, rows, cols, a, lanczos_basis(x, rows, cols, self.R)

    def test_subspace_matches_dense(self, case):
        x, _, _, a, (s, vals) = case
        s_dense, vals_dense = mi_basis(x, a, self.R)
        assert max_principal_sine(s_dense, s) <= 1e-8
        assert np.max(np.abs(vals - vals_dense)) <= 1e-10

    def test_eigenpair_residual(self, case):
        x, _, _, a, (s, vals) = case
        g = mi_operator(x, a)
        bound = 1e-8 * np.linalg.norm(g, "fro")
        for i in range(self.R):
            assert np.linalg.norm(g @ s[:, i] - vals[i] * s[:, i]) <= bound

    def test_orthogonal_to_design_and_orthonormal(self, case):
        x, _, _, _, (s, _) = case
        assert np.max(np.abs(s.T @ x)) <= 1e-10
        assert np.max(np.abs(s.T @ s - np.eye(self.R))) <= 1e-10
        for j in range(self.R):
            assert s[np.abs(s[:, j]) > 1e-12, j][0] > 0

    def test_same_messages_as_dense(self, case):
        x, rows, cols, a, _ = case
        with pytest.raises(ValidationError, match="max admissible rank is 597"):
            mi_basis(x, a, 598)
        with pytest.raises(ValidationError, match="max admissible rank is 597"):
            lanczos_basis(x, rows, cols, 598)
        duplicated = np.hstack([x, x[:, :1]])
        with pytest.raises(ValidationError, match="rank-deficient design"):
            mi_operator(duplicated, a)
        with pytest.raises(ValidationError, match="rank-deficient design"):
            lanczos_basis(duplicated, rows, cols, self.R)

    def test_stacked_design_with_gaps_and_isolated_unit(self):
        design_set = gapped_two_variable_design(320, r=15, seed=42)
        assert design_set.N_t(1) == 640 and design_set.N_t(2) == 608
        basis = build_basis_system(design_set)
        assert basis.provenance["solver"] == {1: "lanczos", 2: "lanczos"}
        for t in (1, 2):
            x = design_set.matrices[t]
            s_dense, vals_dense = mi_basis(x, stacked_adjacency(design_set, t), 15)
            assert max_principal_sine(s_dense, basis.s[t]) <= 1e-8
            assert np.max(np.abs(basis.eigvals[t] - vals_dense)) <= 1e-10
            assert np.max(np.abs(basis.s[t].T @ x)) <= 1e-10

    def test_bytes_do_not_depend_on_process_or_call_history(self, case):
        # two fresh processes, and this one after earlier ARPACK calls
        *_, (s, _) = case
        digests = {run_python(LANCZOS_CASE) for _ in range(2)}
        assert digests == {hashlib.sha256(s.tobytes()).hexdigest()}

    def test_no_convergence_falls_back_to_dense(self, monkeypatch, caplog):
        # no restart allowed: one Lanczos cycle cannot converge 21 pairs at N_t = 600
        monkeypatch.setattr(basis_module, "LANCZOS_MAX_RESTARTS", 0)
        graph = random_connected_graph(600, 700, seed=40)
        design_set = make_design_set(graph, StudyDesign(1, ((1, 1),), 3, self.R), seed=41)
        with caplog.at_level(logging.WARNING, logger="arealdlm.basis"):
            basis = build_basis_system(design_set)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["Lanczos did not converge at t=1; using the dense eigensolver"]
        assert basis.provenance["solver"] == {1: "dense"}
        s_dense, _ = mi_basis(design_set.matrices[1], stacked_adjacency(design_set, 1), self.R)
        assert np.array_equal(basis.s[1], s_dense)


def test_provenance_counts_lanczos_work():
    # per Lanczos t: products with the operator, thick restarts, probes for
    # a missed copy of a repeated eigenvalue; dense times are not listed
    graph = random_connected_graph(600, 700, seed=40)
    design = StudyDesign(1, ((1, 2),), 3, 20)
    design_set = make_design_set(graph, design, seed=41, time_varying=True)
    basis = build_basis_system(design_set)
    assert basis.provenance["solver"] == {1: "lanczos", 2: "lanczos"}
    assert sorted(basis.provenance["lanczos"]) == [1, 2]
    for t, counts in basis.provenance["lanczos"].items():
        direct = {}
        _lanczos_pairs(design_set.matrices[t], *design_set.edge_index(t), 20, direct)
        assert counts == direct
        assert counts["probes"] >= 1
        assert counts["matvecs"] >= _lanczos_ncv(21, 600) + counts["restarts"]
    small = make_design_set(random_connected_graph(12, 10, seed=3), StudyDesign(1, ((1, 2),), 3, 4))
    assert build_basis_system(small).provenance["lanczos"] == {}


def test_probe_recovers_a_missed_copy(monkeypatch):
    # intercept-only 600-cycle: the top eigenvalue 2cos(2 pi / 600) is double.
    # At a loose tolerance Lanczos stops before rounding reveals the second
    # copy; the probe must find it and merge it.
    monkeypatch.setattr(basis_module, "LANCZOS_TOL", 1e-8)
    graph = cycle_graph(tuple(f"u{i}" for i in range(600)))
    design_set = make_design_set(graph, StudyDesign(1, ((1, 1),), 1, 1), seed=0)
    counts = {}
    values, vectors = _lanczos_pairs(design_set.matrices[1], *design_set.edge_index(1), 1, counts)
    assert counts["probes"] == 2
    assert np.max(np.abs(values - 2 * np.cos(2 * np.pi / 600))) <= 1e-10
    assert np.max(np.abs(vectors.T @ vectors - np.eye(2))) <= 1e-10
    assert np.max(np.abs(vectors.T @ design_set.matrices[1])) <= 1e-10


class TestStraddleWarning:
    """A degenerate cluster across rank r is reported once per build."""

    def _warnings(self, caplog, graph, r):
        design_set = make_design_set(graph, StudyDesign(1, ((1, 2),), 1, r), seed=0)
        with caplog.at_level(logging.WARNING, logger="arealdlm.basis"):
            basis = build_basis_system(design_set)
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        return basis, messages

    def test_dense_zero_cluster_straddles_r1(self, caplog):
        # intercept-only 4-cycle: the restricted spectrum is {0, 0, -2}
        basis, messages = self._warnings(caplog, cycle_graph(), r=1)
        assert basis.provenance["solver"] == {1: "dense", 2: "dense"}
        assert len(messages) == 1
        assert "eigenvalues 1 and 2 coincide at t=1,2" in messages[0]

    def test_dense_no_warning_when_cluster_inside(self, caplog):
        _, messages = self._warnings(caplog, cycle_graph(), r=2)
        assert messages == []

    def test_lanczos_cycle_pair_straddles_r1(self, caplog):
        # intercept-only 600-cycle: the top eigenvalue 2cos(2 pi / 600) is double
        graph = cycle_graph(tuple(f"u{i}" for i in range(600)))
        basis, messages = self._warnings(caplog, graph, r=1)
        assert basis.provenance["solver"] == {1: "lanczos", 2: "lanczos"}
        assert len(messages) == 1
        assert "eigenvalues 1 and 2 coincide at t=1,2" in messages[0]


def test_small_builds_do_not_import_scipy():
    # the criterion-10 profile size (N_t = 100) stays on the dense path
    code = """
    import sys
    import arealdlm.cli
    from arealdlm.basis import build_basis_system
    from arealdlm.data import StudyDesign
    from arealdlm.prior import build_prior_structure
    from util import make_design_set, random_connected_graph
    graph = random_connected_graph(10, 12, seed=1)
    design_set = make_design_set(graph, StudyDesign(10, ((1, 3),) * 10, 3, 20), seed=2)
    basis = build_basis_system(design_set)
    build_prior_structure(design_set, basis)
    print(sorted(set(basis.provenance["solver"].values())), "scipy" in sys.modules)
    """
    assert run_python(code) == "['dense'] False"


@pytest.mark.parametrize("n, r", [(8, 2), (8, 4), (12, 2), (12, 4), (12, 6)])
def test_restricted_ordering_keeps_the_leading_columns_of_full_ordering(n, r):
    # intercept-only n-cycle: the restricted eigenvalues 2cos(2 pi k / n) come
    # in pairs, so at these r a degenerate pair straddles pair r+1, and the
    # lexicographic order inside it must see both of its columns
    x = np.ones((n, 1))
    a = np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)
    values, vectors = basis_module._dense_pairs(x, a, r)
    comp = basis_module._complement_basis(x)
    all_values, all_vectors = np.linalg.eigh(symmetrize(comp.T @ a @ comp))
    full_values, full_vectors = order_eigh_descending(all_values, comp @ all_vectors)
    assert full_values[r] - full_values[r + 1] < CLUSTER_GAP  # a pair straddles r+1
    assert np.array_equal(values, full_values[: r + 1])
    assert np.array_equal(vectors, full_vectors[:, : r + 1])
