import csv
import json
import signal
import time

import numpy as np
import pytest

from arealdlm import chainio, sampler
from arealdlm.basis import build_basis_system
from arealdlm.chainio import ChainWriter, read_chain, read_structures, write_json, write_structures
from arealdlm.data import StudyDesign, assemble_design
from arealdlm.errors import ChainStateError
from arealdlm.predict import simulate
from arealdlm.sampler import Hyperparams, gibbs_run

from util import (
    assert_export_matches_store,
    cycle_graph,
    every_draw,
    make_design_set,
    toy_structures,
)

# one chain file per parameter group; the names do not depend on the sizes
CHAIN_FILES = tuple(sampler.draw_shapes(T=1, r=1, p=1, n=1))


@pytest.fixture(scope="module")
def small_chain():
    _, _, design_set, basis, prior = toy_structures(n_units=6, T=2, p=2, r=2, seed=40)
    truth = simulate(design_set, basis, prior, np.array([0.2, -0.1]), 1.0, 0.05, 0.1, seed=41)
    chain = gibbs_run(
        truth.observations, design_set, basis, prior, Hyperparams(),
        iterations=250, burn_in=50, seed=42,
    )
    return chain


def assert_same_chain_files(a, b):
    """The chain directories ``a`` and ``b`` hold the same stores, exports and manifest."""
    names = [f"{name}{suffix}" for name in CHAIN_FILES for suffix in (".csv", ".npy")]
    for name in names + ["manifest.json"]:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def assert_chains_equal(a, b):
    a_draws, b_draws = every_draw(a), every_draw(b)
    assert sorted(a_draws) == sorted(b_draws) == sorted(CHAIN_FILES)
    for name in CHAIN_FILES:
        assert np.array_equal(a_draws[name], b_draws[name])
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
        run = dict(iterations=230, burn_in=30, seed=45)
        streamed = gibbs_run(
            truth.observations, design_set, basis, prior, Hyperparams(), **run,
            writer=ChainWriter(tmp_path / "streamed"),
        )
        chain = gibbs_run(truth.observations, design_set, basis, prior, Hyperparams(), **run)
        assert_chains_equal(chain, streamed)
        assert_chains_equal(chain, read_chain(tmp_path / "streamed"))
        ChainWriter(tmp_path / "one_shot").finalize(chain)
        assert_same_chain_files(tmp_path / "streamed", tmp_path / "one_shot")

    def test_flushes_capped_by_the_byte_budget(self, tmp_path, monkeypatch):
        # a budget of 5 rows of the widest group (xi): each flush holds at
        # most 5 stored draws and comes every 5 x thin iterations, and the
        # store is still the one-shot store, byte for byte
        _, _, design_set, basis, prior = toy_structures(n_units=6, T=2, p=2, r=2, seed=43)
        truth = simulate(design_set, basis, prior, np.array([0.0, 0.0]), 1.0, 0.1, 0.1, seed=44)
        n = len(truth.observations.observations)
        monkeypatch.setattr(sampler, "CHUNK_BYTES", 8 * n * 5 + 7)
        flushes = []

        class Recording(ChainWriter):
            def flush(self, chain, stored, completed_iterations):
                flushes.append((chain.eta.shape[0], completed_iterations))
                super().flush(chain, stored, completed_iterations)

        run = dict(iterations=230, burn_in=30, thin=3, seed=45)
        streamed = gibbs_run(
            truth.observations, design_set, basis, prior, Hyperparams(), **run,
            writer=Recording(tmp_path / "streamed"),
        )
        *periodic, last = flushes
        assert [done for _, done in periodic] == list(range(15, 230, 15))
        assert last[1] == 230
        assert max(held for held, _ in flushes) == 5
        assert sum(held for held, _ in flushes) == streamed.num_draws == 67
        chain = gibbs_run(truth.observations, design_set, basis, prior, Hyperparams(), **run)
        ChainWriter(tmp_path / "one_shot").finalize(chain)
        assert_same_chain_files(tmp_path / "streamed", tmp_path / "one_shot")

    def test_partial_flush_is_readable(self, small_chain, tmp_path):
        # simulate an interrupted run: flush mid-way, never finalize
        with ChainWriter(tmp_path / "partial") as writer:
            writer.flush(small_chain, 100, 100)
        partial = read_chain(tmp_path / "partial")
        assert partial.num_draws == 100  # only the flushed rows are on disk
        for name, rows in every_draw(partial).items():
            assert np.array_equal(rows, getattr(small_chain, name)[:100])
        manifest = json.loads((tmp_path / "partial" / "manifest.json").read_text())
        assert manifest["completed_iterations"] == 100
        assert manifest["stored_draws"] == 100
        assert "num_draws" not in manifest  # written once the run completes
        # the rows a later flush appends are read once the manifest records them
        with ChainWriter(tmp_path / "flushed_twice") as writer:
            writer.flush(small_chain, 100, 100)
            writer.flush(small_chain, 150, 150)
        assert read_chain(tmp_path / "flushed_twice").num_draws == 150
        assert_export_matches_store(tmp_path / "flushed_twice", 150)

    def test_byte_identical_for_same_chain(self, small_chain, tmp_path):
        ChainWriter(tmp_path / "a").finalize(small_chain)
        ChainWriter(tmp_path / "b").finalize(small_chain)
        for name in CHAIN_FILES:
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
        assert manifest["stored_draws"] == manifest["num_draws"] == small_chain.num_draws


class TestExportProcess:
    def _structures(self):
        _, _, design_set, basis, prior = toy_structures(n_units=6, T=2, p=2, r=2, seed=43)
        truth = simulate(design_set, basis, prior, np.array([0.0, 0.0]), 1.0, 0.1, 0.1, seed=44)
        return truth.observations, design_set, basis, prior

    def _started(self, monkeypatch):
        started = []

        def start(*args):
            started.append(start_export(*args))
            return started[-1]

        start_export = chainio._start_export
        monkeypatch.setattr(chainio, "_start_export", start)
        return started

    def test_failing_fit_leaves_a_consistent_export_and_no_process(self, tmp_path, monkeypatch):
        started = self._started(monkeypatch)
        draw = sampler.sample_sigma_xi
        calls = []

        def non_finite_after_first_flush(*args, **kwargs):
            calls.append(None)
            value = draw(*args, **kwargs)
            return value * np.nan if len(calls) > 150 else value

        monkeypatch.setattr(sampler, "sample_sigma_xi", non_finite_after_first_flush)
        writer = ChainWriter(tmp_path / "chain")
        with pytest.raises(ChainStateError, match="non-finite sampler state at iteration 150"):
            with writer:
                gibbs_run(*self._structures(), Hyperparams(), iterations=230, burn_in=30,
                          seed=45, writer=writer)
        assert len(started) == 1 and started[0].returncode == 0
        manifest = json.loads((tmp_path / "chain" / "manifest.json").read_text())
        assert manifest["stored_draws"] == 70  # the rows of the flush at iteration 100
        assert_export_matches_store(tmp_path / "chain", 70)

    @pytest.mark.parametrize("lag", [0, 1])
    def test_export_falls_at_most_lag_flushes_behind(self, small_chain, tmp_path, monkeypatch,
                                                     lag):
        monkeypatch.setattr(chainio, "_export_lag", lambda: lag)
        with ChainWriter(tmp_path / "chain") as writer:
            for k in range(1, 5):
                writer.flush(small_chain, 50 * k, 50 * k)
                for name in CHAIN_FILES:
                    exported = len((tmp_path / "chain" / f"{name}.csv").read_text().splitlines())
                    assert 50 * (k - lag) <= exported - 1 <= 50 * k
        assert_export_matches_store(tmp_path / "chain", 200)

    def test_flush_of_no_rows_exports_the_headers(self, small_chain, tmp_path):
        with ChainWriter(tmp_path / "chain") as writer:
            writer.flush(small_chain, 0, 50)  # still in burn-in
            writer.close()
            for name in CHAIN_FILES:
                assert len((tmp_path / "chain" / f"{name}.csv").read_text().splitlines()) == 1
            writer.flush(small_chain, 30, 80)
        assert_export_matches_store(tmp_path / "chain", 30)

    def _block(self, path):
        path.unlink()
        path.mkdir()

    def test_unwritable_export_is_a_chain_state_error(self, small_chain, tmp_path, monkeypatch):
        started = self._started(monkeypatch)
        (tmp_path / "chain" / "xi.csv").mkdir(parents=True)
        with pytest.raises(ChainStateError) as info:
            ChainWriter(tmp_path / "chain").finalize(small_chain)
        assert str(info.value).startswith("cannot write the chain CSV export")
        assert str(tmp_path / "chain" / "xi.csv") in str(info.value)
        assert started == []

    def test_failing_export_process_is_a_chain_state_error(self, small_chain, tmp_path,
                                                           monkeypatch):
        started = self._started(monkeypatch)
        writer = ChainWriter(tmp_path / "chain")
        writer.flush(small_chain, 0, 50)  # the header rows
        self._block(tmp_path / "chain" / "xi.csv")
        with pytest.raises(ChainStateError) as info:
            writer.finalize(small_chain)
        assert str(info.value).startswith("cannot write the chain CSV export")
        assert str(tmp_path / "chain" / "xi.csv") in str(info.value)
        assert "\n" not in str(info.value)
        assert started[0].returncode != 0

    def test_an_error_inside_the_block_is_not_masked(self, small_chain, tmp_path, monkeypatch):
        monkeypatch.setattr(chainio, "_export_lag", lambda: 1)  # the flush does not wait
        with pytest.raises(KeyError, match="sampler"):
            with ChainWriter(tmp_path / "chain") as writer:
                writer.flush(small_chain, 0, 10)
                self._block(tmp_path / "chain" / "xi.csv")
                writer.flush(small_chain, 10, 10)
                raise KeyError("sampler")

    def test_export_process_ignores_sigint(self, small_chain, tmp_path, monkeypatch):
        started = self._started(monkeypatch)
        writer = ChainWriter(tmp_path / "chain")
        writer.flush(small_chain, 100, 100)
        deadline = time.monotonic() + 60
        eta_csv = tmp_path / "chain" / "eta.csv"
        while len(eta_csv.read_text().splitlines()) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)  # the process ignores SIGINT from its first statement on
        started[0].send_signal(signal.SIGINT)
        writer.finalize(small_chain)
        assert started[0].returncode == 0
        assert_export_matches_store(tmp_path / "chain", small_chain.num_draws)


class TestBinaryStore:
    def test_store_equals_the_csv_export(self, small_chain, tmp_path):
        # nothing in the package reads the CSVs; this keeps the export honest
        ChainWriter(tmp_path / "chain").finalize(small_chain)
        for name in CHAIN_FILES:
            stored = np.load(tmp_path / "chain" / f"{name}.npy")
            exported = np.loadtxt(
                tmp_path / "chain" / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2
            )
            assert stored.dtype == np.dtype("<f8")
            assert stored.shape == exported.shape == (small_chain.num_draws, stored.shape[1])
            assert stored.tobytes() == exported.tobytes()

    def _damaged(self, small_chain, tmp_path, damage):
        ChainWriter(tmp_path / "chain").finalize(small_chain)
        damage(tmp_path / "chain")
        with pytest.raises(ChainStateError) as info:
            read_chain(tmp_path / "chain")
        return str(info.value)

    def test_truncated_store_refused(self, small_chain, tmp_path):
        def truncate(directory):
            path = directory / "xi.npy"
            path.write_bytes(path.read_bytes()[:-8])

        assert "xi.npy is short" in self._damaged(small_chain, tmp_path, truncate)

    def test_wrong_shape_header_refused(self, small_chain, tmp_path):
        def reshape(directory):
            rows = np.load(directory / "eta.npy")
            np.save(directory / "eta.npy", rows.reshape(-1, rows.shape[1] // 2, 2))

        message = self._damaged(small_chain, tmp_path, reshape)
        assert "eta.npy has the .npy version, shape" in message
        assert "((1, 0), (200, 2, 2), False, '<f8'), where" in message
        assert "implies ((1, 0), (200, 4), False, '<f8')" in message

    def test_transposed_store_refused(self, small_chain, tmp_path):
        def transpose(directory):
            rows = np.load(directory / "beta.npy")
            np.save(directory / "beta.npy", np.asfortranarray(rows))

        message = self._damaged(small_chain, tmp_path, transpose)
        assert "((1, 0), (200, 4), True, '<f8'), where" in message

    def test_missing_store_refused(self, small_chain, tmp_path):
        message = self._damaged(small_chain, tmp_path, lambda d: (d / "sigma_xi2.npy").unlink())
        assert "cannot read the chain store" in message and "No such file" in message

    def test_not_a_store_refused(self, small_chain, tmp_path):
        message = self._damaged(
            small_chain, tmp_path, lambda d: (d / "sigma_k2.npy").write_bytes(b"sigma_k2\n1.0\n")
        )
        assert "cannot read the chain store" in message

    def test_version_2_chain_refused(self, small_chain, tmp_path):
        def downgrade(directory):
            manifest = json.loads((directory / "manifest.json").read_text())
            manifest["format_version"] = 2
            del manifest["stored_draws"]
            write_json(directory / "manifest.json", manifest)

        message = self._damaged(small_chain, tmp_path, downgrade)
        assert "has format_version 2, but this version reads 4; run fit again" in message

    def test_claimed_rows_beyond_the_chain_refused(self, small_chain, tmp_path):
        def overclaim(directory):
            manifest = json.loads((directory / "manifest.json").read_text())
            manifest["stored_draws"] = manifest["num_draws"] + 1
            write_json(directory / "manifest.json", manifest)

        assert "eta.npy is short: 800 of the 804 values" in self._damaged(
            small_chain, tmp_path, overclaim
        )


def test_memory_does_not_grow_with_stored_draws(tmp_path):
    # one design, 200 and then 2000 stored draws: fit holds at most one flush
    # of draws and predict one block, so the traced peaks barely move (in
    # memory, 2000 draws of the 800 cells would be 12.8 MB)
    import tracemalloc

    from arealdlm import predict
    from arealdlm.data import align_observations

    _, _, design_set, basis, prior = toy_structures(n_units=400, T=2, p=2, r=3, seed=46)
    truth = simulate(design_set, basis, prior, np.array([0.2, -0.1]), 1.0, 0.05, 0.1, seed=47)
    aligned = align_observations(design_set, truth.observations)
    assert 200 * 8 * len(design_set.layout[1]) > predict.CHUNK_BYTES  # 200 draws fill a block

    def peaks(draws: int) -> tuple[int, int]:
        directory = tmp_path / f"chain{draws}"
        tracemalloc.start()
        try:
            gibbs_run(truth.observations, design_set, basis, prior, Hyperparams(),
                      iterations=draws, burn_in=0, seed=48, writer=ChainWriter(directory))
            fit = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            chain = read_chain(directory)
            predict.posterior_y(chain, design_set, basis, aligned)
            return fit, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peaks(20)  # first calls allocate what any run needs once (imports, caches)
    (fit_200, predict_200), (fit_2000, predict_2000) = peaks(200), peaks(2000)
    assert abs(fit_2000 - fit_200) < 0.1 * fit_200
    assert abs(predict_2000 - predict_200) < 0.1 * predict_200


def layout_lookup(design_set):
    """The row of each (variable, t, unit name), built by hand from the layout."""
    lookup = {}
    for t, rows in design_set.layout.items():
        for pos, (ell, u) in enumerate(rows):
            lookup[(ell, t, design_set.graph.units[u])] = pos
    return lookup


class TestStructuresFile:
    def test_unreadable_structures_refused(self, tmp_path):
        with pytest.raises(ChainStateError, match="no fitted structures"):
            read_structures(tmp_path / "none.npz")
        (tmp_path / "bad.npz").write_bytes(b"not an archive")
        with pytest.raises(ChainStateError, match="cannot read the fitted structures"):
            read_structures(tmp_path / "bad.npz")

    def test_stored_design_is_the_assembled_design(self, tmp_path):
        # variable 2's window starts at t=2; unit names hold a comma and a quote
        units = ["e", 'b"2', "a,1", "d 4", "c"]
        rng = np.random.default_rng(3)
        with (tmp_path / "cov.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["variable", "time", "unit", "x1", "x2"])
            for t in (3, 1, 2):
                for ell in (2, 1) if t > 1 else (1,):
                    for u in units[::-1] if ell == 2 else units:
                        writer.writerow([ell, t, u, 1.0, repr(float(rng.normal()))])
        with (tmp_path / "edges.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["unit_a", "unit_b"])
            writer.writerows([(units[k], units[k - 1]) for k in range(len(units))])
            writer.writerow([units[0], units[2]])
        design = StudyDesign(num_variables=2, windows=((1, 3), (2, 3)), p=2, r=2)
        built = assemble_design(tmp_path / "cov.csv", design, tmp_path / "edges.csv")
        basis = build_basis_system(built)
        write_structures(tmp_path / "s.npz", built, basis, {"covariates": "digest"})

        stored = read_structures(tmp_path / "s.npz")
        loaded = stored.design_set(design)
        assert stored.inputs == {"covariates": "digest"}
        assert loaded.design == design
        assert loaded.graph.units == built.graph.units == tuple(units[::-1])  # first seen
        assert loaded.graph.edges == built.graph.edges
        assert loaded.layout == built.layout
        assert loaded.row_lookup == built.row_lookup == layout_lookup(built)
        assert [loaded.N_t(t) for t in (1, 2, 3)] == [5, 10, 10]
        assert sorted(loaded.matrices) == sorted(built.matrices) == [1, 2, 3]
        for t in (1, 2, 3):
            for got, want in ((loaded.matrices[t], built.matrices[t]),
                              (stored.basis.s[t], basis.s[t]),
                              (stored.basis.eigvals[t], basis.eigvals[t])):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

        # a design built in code, from its layout alone, finds every row too
        made = make_design_set(cycle_graph(units), design, seed=4)
        write_structures(tmp_path / "made.npz", made, build_basis_system(made), {})
        loaded = read_structures(tmp_path / "made.npz").design_set(design)
        assert loaded.row_lookup == made.row_lookup == layout_lookup(made)
        assert len(made.row_lookup) == 25


class TestWriteJson:
    def test_sorted_indented_and_replaced_whole(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old contents that are longer than the new ones")
        write_json(path, {"b": [1, 2.5], "a": {"y": None, "x": "s"}})
        assert path.read_text() == (
            '{\n  "a": {\n    "x": "s",\n    "y": null\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
        )
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
