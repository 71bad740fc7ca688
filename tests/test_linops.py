import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arealdlm.linops import (
    chol_psd,
    draw_mvn,
    inv,
    inv_spd,
    order_eigh_descending,
    sign_fix_columns,
    track_dense_solves,
)


class TestSignFix:
    def test_flips_leading_negative(self):
        vecs = np.array([[-1.0, 0.0], [0.0, 2.0]])
        out = sign_fix_columns(vecs)
        assert np.array_equal(out, np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_skips_subthreshold_leading_entries(self):
        vecs = np.array([[1e-13], [-1.0]])
        out = sign_fix_columns(vecs)
        assert out[1, 0] == 1.0

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_and_sign_invariant(self, seed):
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(5, 3))
        fixed = sign_fix_columns(vecs)
        assert np.array_equal(sign_fix_columns(fixed), fixed)
        assert np.array_equal(sign_fix_columns(-vecs), fixed)


class TestEighDescending:
    def test_identity_stays_identity(self):
        vals, vecs = order_eigh_descending(*np.linalg.eigh(np.eye(4)))
        assert np.array_equal(vecs, np.eye(4))
        assert np.array_equal(vals, np.ones(4))

    def test_descending_order_and_reconstruction(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 6))
        a = (a + a.T) / 2
        vals, vecs = order_eigh_descending(*np.linalg.eigh(a))
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, a, atol=1e-10)


class TestSpdHelpers:
    def test_solve_and_inverse(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(5, 5))
        a = g @ g.T + 0.5 * np.eye(5)
        b = rng.normal(size=5)
        assert np.allclose(a @ (inv_spd(a) @ b), b, atol=1e-10)
        assert np.allclose(inv_spd(a) @ a, np.eye(5), atol=1e-10)

    def test_inverse_of_singular_is_pseudo(self):
        a = np.diag([2.0, 0.0])
        out = inv_spd(a)
        assert np.allclose(out, np.diag([0.5, 0.0]), atol=1e-12)

    def test_indefinite_rejected(self):
        with pytest.raises(np.linalg.LinAlgError, match="indefinite"):
            inv_spd(np.diag([1.0, -1.0]))

    def test_chol_psd_of_singular(self):
        a = np.ones((2, 2))
        f = chol_psd(a)
        assert np.allclose(f @ f.T, a, atol=1e-12)

    def test_draw_mvn_moments(self):
        rng = np.random.default_rng(3)
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.6], [0.6, 0.5]])
        draws = np.array([draw_mvn(rng, mean, cov) for _ in range(40_000)])
        assert np.allclose(draws.mean(axis=0), mean, atol=0.05)
        assert np.allclose(np.cov(draws.T), cov, atol=0.06)


class TestTracker:
    def test_records_factorization_dims(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=(7, 7))
        a = g @ g.T + np.eye(7)
        with track_dense_solves() as tracker:
            inv_spd(a)
            chol_psd(np.eye(3))
        assert tracker.max_dim == 7
        assert sorted(tracker.dims) == [3, 7]

    def test_nested_trackers_both_record(self):
        with track_dense_solves() as outer:
            inv_spd(np.eye(2))
            with track_dense_solves() as inner:
                inv_spd(np.eye(4))
        assert outer.max_dim == 4
        assert inner.dims == [4]


class TestStacks:
    @staticmethod
    def stack(k=6, r=5, singular=None):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(k, r, r))
        a = g @ g.swapaxes(-1, -2) + 0.3 * np.eye(r)
        if singular is not None:
            a[singular] = np.diag([2.0] + [0.0] * (r - 1))
        return a

    @pytest.mark.parametrize("singular", [None, 2])
    def test_equal_to_per_matrix_calls(self, singular, caplog):
        a = self.stack(singular=singular)
        with caplog.at_level(logging.WARNING, logger="arealdlm.linops"):
            with track_dense_solves() as tracker:
                inv_stack, chol_stack = inv_spd(a), chol_psd(a)
        assert tracker.dims == [5] * 12
        stack_warnings = len(caplog.records)
        assert stack_warnings == (0 if singular is None else 1)
        for i, matrix in enumerate(a):
            assert np.array_equal(inv_stack[i], inv_spd(matrix))
            assert np.array_equal(chol_stack[i], chol_psd(matrix))
        assert len(caplog.records) == 2 * stack_warnings

    def test_singular_member_takes_the_fallback(self):
        a = self.stack(singular=2)
        f = chol_psd(a)
        assert np.allclose(f @ f.swapaxes(-1, -2), a, atol=1e-12)
        assert np.allclose(inv_spd(a)[2], np.diag([0.5] + [0.0] * 4), atol=1e-12)

    def test_inv_of_stack(self):
        a = self.stack()
        with track_dense_solves() as tracker:
            out = inv(a)
        assert tracker.dims == [5] * 6
        assert np.allclose(out @ a, np.eye(5), atol=1e-10)
