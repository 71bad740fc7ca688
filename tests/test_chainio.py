import json

import numpy as np
import pytest

from arealdlm.chainio import ChainWriter, read_chain, read_structures, write_json
from arealdlm.errors import ChainStateError
from arealdlm.predict import simulate
from arealdlm.sampler import Hyperparams, gibbs_run

from util import toy_structures


@pytest.fixture(scope="module")
def small_chain():
    _, _, design_set, basis, prior = toy_structures(n_units=6, T=2, p=2, r=2, seed=40)
    truth = simulate(design_set, basis, prior, np.array([0.2, -0.1]), 1.0, 0.05, 0.1, seed=41)
    chain = gibbs_run(
        truth.observations, design_set, basis, prior, Hyperparams(),
        iterations=250, burn_in=50, seed=42,
    )
    return chain


def assert_chains_equal(a, b):
    assert np.array_equal(a.eta, b.eta)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.xi, b.xi)
    assert np.array_equal(a.sigma_k2, b.sigma_k2)
    assert np.array_equal(a.sigma_xi2, b.sigma_xi2)
    assert a.xi_offsets == b.xi_offsets
    assert (a.seed, a.iterations, a.burn_in, a.thin) == (b.seed, b.iterations, b.burn_in, b.thin)


class TestRoundTrip:
    def test_write_then_read(self, small_chain, tmp_path):
        ChainWriter(tmp_path / "chain").finalize(small_chain)
        loaded = read_chain(tmp_path / "chain")
        assert_chains_equal(small_chain, loaded)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ChainStateError, match="no chain manifest"):
            read_chain(tmp_path / "nope")

    @pytest.mark.parametrize(
        "damage",
        [lambda text: text[:100], lambda text: text.replace('"seed"', '"seeds"'), lambda _: "[]"],
        ids=["truncated", "missing-key", "not-an-object"],
    )
    def test_unreadable_manifest_refused(self, small_chain, tmp_path, damage):
        ChainWriter(tmp_path / "chain").finalize(small_chain)
        path = tmp_path / "chain" / "manifest.json"
        path.write_text(damage(path.read_text()))
        with pytest.raises(ChainStateError, match="cannot read the chain manifest at"):
            read_chain(tmp_path / "chain")

    def test_streaming_matches_one_shot(self, tmp_path):
        _, _, design_set, basis, prior = toy_structures(n_units=6, T=2, p=2, r=2, seed=43)
        truth = simulate(design_set, basis, prior, np.array([0.0, 0.0]), 1.0, 0.1, 0.1, seed=44)
        writer = ChainWriter(tmp_path / "streamed")
        chain = gibbs_run(
            truth.observations, design_set, basis, prior, Hyperparams(),
            iterations=230, burn_in=30, seed=45, writer=writer,
        )
        loaded = read_chain(tmp_path / "streamed")
        assert_chains_equal(chain, loaded)
        ChainWriter(tmp_path / "one_shot").finalize(chain)
        for name in ("eta", "beta", "xi", "sigma_k2", "sigma_xi2", "manifest"):
            suffix = ".json" if name == "manifest" else ".csv"
            assert (tmp_path / "streamed" / f"{name}{suffix}").read_bytes() == (
                tmp_path / "one_shot" / f"{name}{suffix}"
            ).read_bytes()

    def test_partial_flush_is_readable(self, small_chain, tmp_path):
        # simulate an interrupted run: flush mid-way, never finalize
        ChainWriter(tmp_path / "partial").flush(small_chain, 100, 100)
        partial = read_chain(tmp_path / "partial")
        assert partial.num_draws == 100  # only the flushed rows are on disk
        assert np.array_equal(partial.eta, small_chain.eta[:100])
        manifest = json.loads((tmp_path / "partial" / "manifest.json").read_text())
        assert manifest["completed_iterations"] == 100
        assert "num_draws" not in manifest  # written once the run completes

    def test_byte_identical_for_same_chain(self, small_chain, tmp_path):
        ChainWriter(tmp_path / "a").finalize(small_chain)
        ChainWriter(tmp_path / "b").finalize(small_chain)
        for name in ("eta", "beta", "xi", "sigma_k2", "sigma_xi2"):
            assert (tmp_path / "a" / f"{name}.csv").read_bytes() == (
                tmp_path / "b" / f"{name}.csv"
            ).read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "manifest.json"
        ).read_bytes()

    def test_manifest_fields(self, small_chain, tmp_path):
        ChainWriter(tmp_path / "chain").finalize(small_chain)
        manifest = json.loads((tmp_path / "chain" / "manifest.json").read_text())
        for key in ("format_version", "seed", "iterations", "burn_in", "thin",
                    "sweep_order", "move_types", "r", "p", "T", "n"):
            assert key in manifest
        assert manifest["move_types"] == "gibbs"
        assert manifest["completed_iterations"] == small_chain.iterations


class TestStructuresFile:
    def test_unreadable_structures_refused(self, tmp_path):
        with pytest.raises(ChainStateError, match="no fitted structures"):
            read_structures(tmp_path / "none.npz")
        (tmp_path / "bad.npz").write_bytes(b"not an archive")
        with pytest.raises(ChainStateError, match="cannot read the fitted structures"):
            read_structures(tmp_path / "bad.npz")


class TestWriteJson:
    def test_sorted_indented_and_replaced_whole(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old contents that are longer than the new ones")
        write_json(path, {"b": [1, 2.5], "a": {"y": None, "x": "s"}})
        assert path.read_text() == (
            '{\n  "a": {\n    "x": "s",\n    "y": null\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
        )
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
