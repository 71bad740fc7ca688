import csv
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from arealdlm.cli import main

from util import assert_export_matches_store, random_connected_graph


def _write_lines(path, rows):
    """``rows`` of strings as CSV lines ending in ``\\n``, quoted where needed."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_project(tmp_path, n_units=8, T=3, p=2, seed=0, iterations=80, burn_in=20, r=2,
                  truth_extra="", model_extra="", unit_names=None):
    """A tiny self-contained project directory: covariates, edges, config.

    ``unit_names`` replaces the default names u0, u1, ... in order.
    """
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(n_units, 6, seed)
    units = unit_names or graph.units
    cov_rows = [["variable", "time", "unit", *(f"x{j}" for j in range(1, p + 1))]]
    base = rng.normal(size=(len(units), p - 1))
    for t in range(1, T + 1):
        for i, u in enumerate(units):
            vals = [1.0] + list(base[i])
            cov_rows.append(["1", str(t), u, *(str(v) for v in vals)])
    _write_lines(tmp_path / "cov.csv", cov_rows)
    edge_rows = [["unit_a", "unit_b"]] + [[units[i], units[j]] for i, j in sorted(graph.edges)]
    _write_lines(tmp_path / "edges.csv", edge_rows)
    config = f"""
[paths]
observations = obs.csv
covariates = cov.csv
edges = edges.csv
output = out

[design]
variables = 1
p = {p}
r = {r}
window_1 = 1:{T}

[model]
{model_extra}

[sampler]
iterations = {iterations}
burn_in = {burn_in}
seed = 5

[truth]
beta = {", ".join(["0.4"] + ["0.2"] * (p - 1))}
sigma_k2 = 1.0
sigma_xi2 = 0.05
v = 0.02
seed = 9
{truth_extra}
"""
    (tmp_path / "run.ini").write_text(config)
    return tmp_path / "run.ini"


class TestValidateAndFit:
    def test_full_pipeline(self, tmp_path, capsys):
        cfg = write_project(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "obs.csv").exists()
        assert (tmp_path / "out" / "truth" / "truth_params.json").exists()

        assert main(["validate", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "validation.json").read_text())
        assert report["n"] == 8 * 3
        assert report["r"] == 2
        assert set(report["innovation_ratio"]) == {"2", "3"}

        assert main(["fit", "--config", str(cfg), "--trace", "sigma_k2"]) == 0
        chain_dir = tmp_path / "out" / "chain0"
        assert (chain_dir / "manifest.json").exists()
        assert (chain_dir / "trace_sigma_k2.csv").exists()
        manifest = json.loads((chain_dir / "manifest.json").read_text())
        assert manifest["num_draws"] == 60

        assert main(["predict", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "predictions.csv").read_text().splitlines()
        assert lines[0] == "variable,time,unit,yhat,mspe,yhat_backtransformed,mspe_backtransformed"
        assert len(lines) == 1 + 8 * 3

    def test_same_seed_byte_identical_chains(self, tmp_path):
        cfg = write_project(tmp_path, iterations=60, burn_in=10)
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["fit", "--config", str(cfg), "--output", str(tmp_path / "o1")]) == 0
        assert main(["fit", "--config", str(cfg), "--output", str(tmp_path / "o2")]) == 0
        for name in ("eta", "beta", "xi", "sigma_k2", "sigma_xi2"):
            a = (tmp_path / "o1" / "chain0" / f"{name}.csv").read_bytes()
            b = (tmp_path / "o2" / "chain0" / f"{name}.csv").read_bytes()
            assert a == b

    def test_fit_aligns_the_observations_once(self, tmp_path, monkeypatch):
        # load_data aligns them; every chain's gibbs_run takes that AlignedData
        from arealdlm import data, pipeline, sampler

        cfg = write_project(tmp_path, iterations=40, burn_in=10)
        assert main(["simulate", "--config", str(cfg)]) == 0
        calls = []

        def counted(*args):
            calls.append(args)
            return data.align_observations(*args)

        for module in (pipeline, sampler):
            monkeypatch.setattr(module, "align_observations", counted)
        assert main(["fit", "--config", str(cfg), "--chains", "2"]) == 0
        assert len(calls) == 1

    def test_multiple_chains_derived_seeds(self, tmp_path):
        cfg = write_project(tmp_path, iterations=40, burn_in=10)
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["fit", "--config", str(cfg), "--chains", "2"]) == 0
        m0 = json.loads((tmp_path / "out" / "chain0" / "manifest.json").read_text())
        m1 = json.loads((tmp_path / "out" / "chain1" / "manifest.json").read_text())
        assert m1["seed"] == m0["seed"] + 1
        # chain i of a multi-chain fit is the solo fit with seed + i
        solo = tmp_path / "solo"
        seed = str(m0["seed"] + 1)
        assert main(["fit", "--config", str(cfg), "--seed", seed, "--output", str(solo)]) == 0
        for name in ("eta", "beta", "xi", "sigma_k2", "sigma_xi2"):
            a = (tmp_path / "out" / "chain1" / f"{name}.csv").read_bytes()
            b = (solo / "chain0" / f"{name}.csv").read_bytes()
            assert a == b

    def test_masked_unit_prediction_finite(self, tmp_path):
        cfg = write_project(
            tmp_path, iterations=150, burn_in=50, truth_extra="missing_units = u0\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        obs = (tmp_path / "obs.csv").read_text()
        assert ",u0," not in obs
        assert main(["fit", "--config", str(cfg)]) == 0
        assert main(["predict", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "predictions.csv").read_text().splitlines()[1:]
        masked = [r for r in rows if r.split(",")[2] == "u0"]
        assert masked
        for row in masked:
            mspe = float(row.split(",")[4])
            assert np.isfinite(mspe) and mspe > 0

    def test_unobserved_time_warned_by_validate_and_predict(self, tmp_path, caplog):
        # beta_t at a time with no observations comes from its vague prior alone
        def unobserved_warnings(cfg):
            found = []
            for command in ("validate", "fit", "predict"):
                caplog.clear()
                with caplog.at_level(logging.WARNING):
                    assert main([command, "--config", str(cfg)]) == 0
                found += [
                    (command, r.getMessage())
                    for r in caplog.records
                    if r.levelno == logging.WARNING and "no observations at time" in r.getMessage()
                ]
            return found

        (tmp_path / "plain").mkdir()
        plain = write_project(tmp_path / "plain", iterations=40, burn_in=10)
        assert main(["simulate", "--config", str(plain)]) == 0
        assert unobserved_warnings(plain) == []

        cfg = write_project(tmp_path, iterations=40, burn_in=10)
        assert main(["simulate", "--config", str(cfg)]) == 0
        lines = (tmp_path / "obs.csv").read_text().splitlines()
        kept = [row for row in lines[1:] if row.split(",")[1] != "2"]
        assert len(kept) == 8 * 2
        (tmp_path / "obs.csv").write_text("\n".join([lines[0]] + kept) + "\n")
        found = unobserved_warnings(cfg)
        assert [command for command, _ in found] == ["validate", "predict"]
        assert all("time(s) 2:" in message for _, message in found)
        rows = (tmp_path / "out" / "predictions.csv").read_text().splitlines()
        assert rows[0] == (tmp_path / "plain" / "out" / "predictions.csv").read_text().splitlines()[0]
        assert len(rows) == 1 + 8 * 3


class TestExitCodes:
    def test_usage_error(self):
        assert main(["fit"]) == 1  # --config missing
        assert main([]) == 1

    def test_missing_config(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "none.ini")]) == 2

    def test_rank_deficient_design(self, tmp_path):
        cfg = write_project(tmp_path, p=2)
        main(["simulate", "--config", str(cfg)])
        # overwrite covariates with a duplicated intercept column
        lines = ["variable,time,unit,x1,x2"]
        for t in (1, 2, 3):
            for i in range(8):
                lines.append(f"1,{t},u{i},1.0,1.0")
        (tmp_path / "cov.csv").write_text("\n".join(lines) + "\n")
        assert main(["validate", "--config", str(cfg)]) == 3

    def test_empty_covariate_file_refused_before_the_edges_are_read(self, tmp_path, capsys):
        cfg = write_project(tmp_path)
        (tmp_path / "cov.csv").write_text("variable,time,unit,x1,x2\n")
        (tmp_path / "edges.csv").unlink()
        capsys.readouterr()
        assert main(["validate", "--config", str(cfg)]) == 3
        assert "cov.csv: no covariate rows" in capsys.readouterr().err

    def test_faults_reported_in_file_order(self, tmp_path, capsys):
        # a bad covariate value is reported before a self-loop in the edge file
        cfg = write_project(tmp_path)
        lines = (tmp_path / "cov.csv").read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:3] + ["1.0", "abc"])
        (tmp_path / "cov.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "edges.csv").write_text("unit_a,unit_b\nu0,u0\n")
        capsys.readouterr()
        assert main(["validate", "--config", str(cfg)]) == 3
        assert "cov.csv:2: 'abc' is not a finite number" in capsys.readouterr().err

    def test_burn_in_config_error(self, tmp_path):
        cfg = write_project(tmp_path, iterations=50, burn_in=50)
        assert main(["validate", "--config", str(cfg)]) == 3

    def test_unknown_config_key(self, tmp_path):
        cfg = write_project(tmp_path)
        text = cfg.read_text().replace("seed = 5", "seed = 5\nwalkers = 4")
        cfg.write_text(text)
        assert main(["validate", "--config", str(cfg)]) == 3

    def test_removed_propagator_key_rejected(self, tmp_path, capsys):
        cfg = write_project(tmp_path, model_extra="propagator = default\n")
        assert main(["basis", "--config", str(cfg)]) == 3
        assert "unknown key [model] propagator" in capsys.readouterr().err

    def test_predict_without_chain(self, tmp_path):
        cfg = write_project(tmp_path)
        main(["simulate", "--config", str(cfg)])
        assert main(["predict", "--config", str(cfg)]) == 4

    def test_predict_refuses_chain_fitted_to_other_rows(self, tmp_path, capsys):
        # one observation row fewer shifts every later fine-scale column
        cfg = write_project(tmp_path, iterations=30, burn_in=10)
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["fit", "--config", str(cfg)]) == 0
        lines = (tmp_path / "obs.csv").read_text().splitlines()
        (tmp_path / "obs.csv").write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg)]) == 4
        assert "obs.csv changed since the chain at" in capsys.readouterr().err
        assert not (tmp_path / "out" / "predictions.csv").exists()

    def test_logit_range_error_is_located(self, tmp_path, capsys):
        cfg = write_project(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        lines = (tmp_path / "obs.csv").read_text().splitlines()
        lines[1:] = [",".join(row.split(",")[:3] + ["0.5", "0.01"]) for row in lines[1:]]
        lines[3] = ",".join(lines[3].split(",")[:3] + ["1.5", "0.01"])
        (tmp_path / "obs.csv").write_text("\n".join(lines) + "\n")
        cfg.write_text(cfg.read_text() + "\n[transforms]\nvariable_1 = logit\n")
        capsys.readouterr()
        assert main(["validate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "obs.csv:4: logit transform needs a value in (0,1), got 1.5" in err

    def test_simulate_refuses_transform_before_writing(self, tmp_path):
        cfg = write_project(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        before = (tmp_path / "obs.csv").read_bytes()
        cfg.write_text(cfg.read_text() + "\n[transforms]\nvariable_1 = logit\n")
        assert main(["simulate", "--config", str(cfg)]) == 3
        assert (tmp_path / "obs.csv").read_bytes() == before

    @pytest.mark.parametrize(
        "command, edit, extra, says",
        [
            ("fit", ("burn_in = 20", "burn_in = -5"), [], "burn_in"),
            ("fit", ("seed = 5", "seed = -1"), [], "seed"),
            ("fit", ("", ""), ["--seed", "-1"], "seed"),
            ("simulate", ("seed = 9", "seed = -1"), [], "[truth] seed"),
            ("simulate", ("seed = 9", "seed = 9\nmissing_seed = -1"), [], "[truth] missing_seed"),
            ("simulate", ("v = 0.02", "v = -0.02"), [], "[truth] v"),
            ("simulate", ("v = 0.02", "v = nan"), [], "[truth] v"),
            ("simulate", ("sigma_xi2 = 0.05", "sigma_xi2 = nan"), [], "[truth] sigma_xi2"),
            ("simulate", ("sigma_k2 = 1.0", "sigma_k2 = -1"), [], "[truth] sigma_k2"),
            ("simulate", ("seed = 9", "seed = 9\nmissing_fraction = 1.5"), [],
             "[truth] missing_fraction"),
            ("fit", ("", ""), ["--trace", "sigma_k2", "--trace", "eta[9,0]"], "'eta[9,0]'"),
            ("fit", ("", ""), ["--trace", "gamma[1]"], "'gamma[1]'"),
            # one past the 8 cells observed at t=1
            ("fit", ("", ""), ["--trace", "xi[1,8]"], "'xi[1,8]'"),
            ("fit", ("", ""), ["--chains", "0"], "--chains must be >= 1"),
            ("fit", ("[model]\n", "[model]\npooled = maybe\n"), [],
             "[model] pooled: bad value 'maybe'"),
            ("fit", ("[truth]", "[transforms]\nvariable_2 = logit\n\n[truth]"), [],
             "[transforms] variable_2: no such variable"),
            ("simulate", ("v = 0.02", "v = 0.02, 0.03"), [], "[truth] v needs 1 or 1 values"),
            ("simulate", ("seed = 9", "seed = 9\nmissing_units = nowhere"), [],
             "[truth] missing_units: unknown unit 'nowhere'"),
        ],
        ids=["burn-in", "seed", "seed-flag", "truth-seed", "truth-missing-seed",
             "truth-v-negative", "truth-v-nan", "truth-sigma-xi2-nan", "truth-sigma-k2-negative",
             "truth-missing-fraction",
             "trace-time", "trace-syntax", "trace-observed-cell",
             "chains-zero", "pooled-not-bool", "transform-no-variable", "truth-v-two-values",
             "truth-missing-unit-unknown"],
    )
    def test_bad_run_setting_exits_3_and_writes_nothing(self, tmp_path, capsys, command, edit,
                                                       extra, says):
        cfg = write_project(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        shutil.rmtree(tmp_path / "out")
        cfg.write_text(cfg.read_text().replace(*edit))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main([command, "--config", str(cfg), *extra]) == 3
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == err.splitlines()
        assert len(err.splitlines()) == 1
        assert says in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize(
        "file, edit, where",
        [
            ("run.ini", ("iterations = 80", "iterations = eighty"), "[sampler] iterations"),
            ("run.ini", ("\np = 2\n", "\np = two\n"), "[design] p"),
            ("obs.csv", (3, "abc"), "obs.csv:2"),
            ("cov.csv", (4, "abc"), "cov.csv:2"),
            ("cov.csv", (4, "nan"), "cov.csv:2"),
            ("obs.csv", (4, None), "obs.csv:2"),
        ],
        ids=["config-int", "config-p", "z", "covariate", "nan-covariate", "short-row"],
    )
    def test_malformed_value_is_located(self, tmp_path, capsys, file, edit, where):
        cfg = write_project(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        path = tmp_path / file
        if file == "run.ini":
            path.write_text(path.read_text().replace(*edit))
        else:  # one field of the first data row: replaced, or dropped for None
            lines = path.read_text().splitlines()
            fields = lines[1].split(",")
            fields[edit[0]:edit[0] + 1] = [] if edit[1] is None else [edit[1]]
            lines[1] = ",".join(fields)
            path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["validate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert where in err
        assert "Traceback" not in err


class TestCsvDialect:
    def test_unit_names_with_comma_and_quote_round_trip(self, tmp_path):
        names = tuple(f'County {i}, "FL"' for i in range(8))
        cfg = write_project(tmp_path, unit_names=names)
        for command in ("simulate", "validate", "fit", "predict"):
            assert main([command, "--config", str(cfg)]) == 0
        with (tmp_path / "out" / "predictions.csv").open(newline="", encoding="utf-8") as fh:
            units = [row["unit"] for row in csv.DictReader(fh)]
        assert units == list(names) * 3

    def test_no_csv_ends_a_line_with_carriage_return(self, tmp_path):
        cfg = write_project(tmp_path)
        for command in (["simulate"], ["fit", "--trace", "sigma_k2", "--trace", "eta[1,0]"],
                        ["basis"], ["prior"], ["predict"]):
            assert main([*command, "--config", str(cfg)]) == 0
        written = {p.relative_to(tmp_path).as_posix(): p for p in tmp_path.rglob("*.csv")}
        assert {"obs.csv", "out/truth/truth_y.csv", "out/truth/truth_eta.csv",
                "out/chain0/trace_sigma_k2.csv", "out/chain0/trace_eta_1_0.csv",
                "out/chain0/eta.csv", "out/basis/S_t001.csv", "out/prior/Kstar_t001.csv",
                "out/predictions.csv"} <= set(written)
        assert [name for name, p in written.items() if b"\r" in p.read_bytes()] == []


class TestChainExport:
    def test_one_trace_file_per_parameter(self, tmp_path):
        cfg = write_project(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        argv = ["fit", "--config", str(cfg)]
        for selector in ("eta[1, 0]", "eta[1,0]", "sigma_xi2[ 2]", "sigma_k2", "xi[1,3]"):
            argv += ["--trace", selector]
        assert main(argv) == 0
        chain_dir = tmp_path / "out" / "chain0"
        assert sorted(p.name for p in chain_dir.glob("trace_*")) == [
            "trace_eta_1_0.csv", "trace_sigma_k2.csv", "trace_sigma_xi2_2.csv", "trace_xi_1_3.csv"
        ]
        lines = (chain_dir / "trace_eta_1_0.csv").read_text().splitlines()
        assert lines[0] == 'draw,"eta[1,0]"' and len(lines) == 1 + 60
        assert (chain_dir / "trace_sigma_xi2_2.csv").read_text().startswith("draw,sigma_xi2[2]\n")

    def test_traces_of_a_chain_read_the_store_in_one_pass(self, tmp_path, monkeypatch):
        # two xi traces and a sigma_k2 trace: one read per group and block
        from arealdlm.chainio import StoredChain

        cfg = write_project(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        reads = []
        original = StoredChain.read

        def counted(self, *args):
            reads.append(args)
            return original(self, *args)

        monkeypatch.setattr(StoredChain, "read", counted)
        argv = ["fit", "--config", str(cfg)]
        for selector in ("xi[1,0]", "xi[2,0]", "sigma_k2"):
            argv += ["--trace", selector]
        assert main(argv) == 0
        assert sorted(reads) == [("sigma_k2", 0, 60), ("xi", 0, 60)]
        chain_dir = tmp_path / "out" / "chain0"
        xi = np.load(chain_dir / "xi.npy")
        for name, column in (("xi_1_0", 0), ("xi_2_0", 8)):
            with (chain_dir / f"trace_{name}.csv").open() as fh:
                rows = list(csv.reader(fh))[1:]
            assert [float(value) for _, value in rows] == xi[:, column].tolist()

    def test_failing_export_exits_4_naming_the_file(self, tmp_path, capsys):
        cfg = write_project(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        blocked = tmp_path / "out" / "chain0" / "xi.csv"
        blocked.mkdir(parents=True)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg)]) == 4
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1
        assert errors[0].startswith("error: cannot write the chain CSV export")
        assert str(blocked) in errors[0]

    @pytest.mark.skipif(shutil.which("pgrep") is None, reason="needs pgrep")
    def test_interrupted_fit_leaves_the_rows_of_a_flush_and_no_process(self, tmp_path):
        cfg = write_project(tmp_path, iterations=100_000, burn_in=20)
        assert main(["simulate", "--config", str(cfg)]) == 0
        chain_dir = tmp_path / "out" / "chain0"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        fit = subprocess.Popen(
            [sys.executable, "-m", "arealdlm.cli", "fit", "--config", str(cfg)],
            env=env, stderr=subprocess.DEVNULL, process_group=0,
        )
        deadline = time.monotonic() + 120
        eta_csv = chain_dir / "eta.csv"
        while time.monotonic() < deadline:  # until the export process has written a row
            if eta_csv.exists() and len(eta_csv.read_text().splitlines()) > 1:
                break
            time.sleep(0.01)
        os.killpg(fit.pid, signal.SIGINT)  # a Ctrl-C at the terminal
        assert fit.wait(timeout=120) != 0
        assert subprocess.run(["pgrep", "-f", str(chain_dir)], capture_output=True).stdout == b""
        with (chain_dir / "eta.csv").open() as fh:
            exported = sum(1 for _ in fh) - 1
        manifest = json.loads((chain_dir / "manifest.json").read_text())
        assert 80 <= exported <= manifest["stored_draws"] < 100_000 - 20
        assert_export_matches_store(chain_dir, exported)


class TestBasisPriorDumps:
    def test_basis_dump(self, tmp_path):
        cfg = write_project(tmp_path)
        assert main(["basis", "--config", str(cfg)]) == 0
        out = tmp_path / "out" / "basis"
        for t in (1, 2, 3):
            assert (out / f"S_t{t:03d}.csv").exists()
            assert (out / f"eigvals_t{t:03d}.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["r"] == 2
        s1 = np.loadtxt(out / "S_t001.csv", delimiter=",")
        assert s1.shape == (8, 2)

    def test_lanczos_size_fit_does_not_import_scipy(self, tmp_path):
        # N_t = 600 takes the Lanczos eigensolver, which is numpy only
        cfg = write_project(tmp_path, n_units=600, T=2, r=5, iterations=20, burn_in=5)
        assert main(["simulate", "--config", str(cfg)]) == 0
        code = (
            "import sys; from arealdlm.cli import main; "
            f"codes = main(['fit', '--config', {str(cfg)!r}]), "
            f"main(['basis', '--config', {str(cfg)!r}]); "
            "print(*codes, 'scipy' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines()[-1] == "0 0 False"
        manifest = json.loads((tmp_path / "out" / "basis" / "manifest.json").read_text())
        assert manifest["solver"] == {"1": "lanczos", "2": "lanczos"}
        assert sorted(manifest["lanczos"]["1"]) == ["matvecs", "probes", "restarts"]

    def test_basis_builds_no_prior(self, tmp_path, caplog):
        # constant covariates freeze the prior's latent path; basis must not say so
        cfg = write_project(tmp_path)
        with caplog.at_level(logging.WARNING):
            assert main(["basis", "--config", str(cfg)]) == 0
        assert not [r for r in caplog.records if "latent path is frozen" in r.getMessage()]

    def test_prior_dump_with_lift_log(self, tmp_path):
        cfg = write_project(tmp_path)
        assert main(["prior", "--config", str(cfg)]) == 0
        out = tmp_path / "out" / "prior"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "lift_log" in manifest and "eps_log" in manifest
        # constant covariates: the innovations are only the epsilon floor
        ratio = manifest["innovation_ratio"]
        assert set(ratio) == {"2", "3"}
        assert all(0 < v < 1e-6 for v in ratio.values())
        k1 = np.loadtxt(out / "Kstar_t001.csv", delimiter=",")
        assert k1.shape == (2, 2)


def write_rls_project(tmp_path, iterations, burn_in):
    """The project with two surveys, fitted fused and per survey; returns the rls argv.

    The surveys split the variable-1 cells between them; the fused file is
    their union.
    """
    cfg = write_project(tmp_path, iterations=iterations, burn_in=burn_in)
    main(["simulate", "--config", str(cfg)])
    obs_lines = (tmp_path / "obs.csv").read_text().splitlines()
    header, rows = obs_lines[0], obs_lines[1:]
    survey1 = [r for r in rows if r.split(",")[2] in {"u0", "u1", "u2", "u3"}]
    survey2 = [r for r in rows if r.split(",")[2] not in {"u0", "u1", "u2", "u3"}]
    (tmp_path / "s1.csv").write_text("\n".join([header] + survey1) + "\n")
    (tmp_path / "s2.csv").write_text("\n".join([header] + survey2) + "\n")
    cfg.write_text(cfg.read_text() + "\n[rls]\nsurveys = s1.csv, s2.csv\n")

    assert main(["fit", "--config", str(cfg)]) == 0  # fused
    for m in (1, 2):
        text = cfg.read_text().replace("observations = obs.csv", f"observations = s{m}.csv")
        alt = tmp_path / f"run_s{m}.ini"
        alt.write_text(text)
        assert main(["fit", "--config", str(alt), "--output", str(tmp_path / f"out_s{m}")]) == 0
    chains = f"{tmp_path / 'out_s1' / 'chain0'},{tmp_path / 'out_s2' / 'chain0'}"
    return ["rls", "--config", str(cfg), "--survey-chains", chains]


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    root = tmp_path_factory.mktemp("rls_project")
    argv = write_rls_project(root, iterations=40, burn_in=10)
    return root, argv


@pytest.fixture
def project(fitted, tmp_path):
    """A private copy of the fitted project: (directory, config path, rls argv)."""
    root, argv = fitted
    copy = tmp_path / "project"
    shutil.copytree(root, copy)
    argv = [a.replace(str(root), str(copy)) for a in argv]
    return copy, copy / "run.ini", argv


class TestRlsCommand:
    def test_two_survey_rls(self, tmp_path):
        assert main(write_rls_project(tmp_path, iterations=120, burn_in=40)) == 0
        out = json.loads((tmp_path / "out" / "rls.json").read_text())
        assert set(out["rls"]) == {"1", "2"}
        assert out["cells"] == 4 * 3
        assert all(v > 0 for v in out["rls"].values())

    def test_memory_does_not_grow_with_the_draws(self, tmp_path, monkeypatch, capsys):
        import tracemalloc

        from arealdlm import predict

        # blocks of 50 draws of the fused chain (24 fine-scale cells), 100 of a survey chain
        monkeypatch.setattr(predict, "CHUNK_BYTES", 8 * 24 * 50)
        peaks = {}
        for draws in (200, 2000):
            (tmp_path / str(draws)).mkdir()
            argv = write_rls_project(tmp_path / str(draws), iterations=draws, burn_in=0)
            assert main(argv) == 0  # once untraced, so no first-call cost is counted
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[draws] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[2000] - peaks[200]) < 0.1 * peaks[200], peaks

    def test_rls_requires_section(self, tmp_path):
        cfg = write_project(tmp_path)
        main(["simulate", "--config", str(cfg)])
        main(["fit", "--config", str(cfg)])
        assert main(["rls", "--config", str(cfg), "--survey-chains", "x"]) == 3


class TestIdempotence:
    def test_predict_byte_identical(self, tmp_path):
        cfg = write_project(tmp_path, iterations=60, burn_in=10)
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["fit", "--config", str(cfg)]) == 0
        assert main(["predict", "--config", str(cfg)]) == 0
        first = (tmp_path / "out" / "predictions.csv").read_bytes()
        assert main(["predict", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "predictions.csv").read_bytes() == first


class TestTransformPipeline:
    def test_logit_ingestion_and_backtransform(self, tmp_path):
        import math

        from arealdlm.config import load_config
        from arealdlm.pipeline import build_structures, load_data

        cfg_path = write_project(tmp_path, iterations=120, burn_in=40)
        # raw-scale rates in (0,1) with small survey variances
        rng = np.random.default_rng(80)
        lines = ["variable,time,unit,z,v"]
        for t in (1, 2, 3):
            for i in range(8):
                rate = float(rng.uniform(0.2, 0.8))
                lines.append(f"1,{t},u{i},{rate},0.0004")
        (tmp_path / "obs.csv").write_text("\n".join(lines) + "\n")
        text = cfg_path.read_text() + "\n[transforms]\nvariable_1 = logit\n"
        cfg_path.write_text(text)

        cfg = load_config(cfg_path)
        structures = build_structures(cfg)
        obs, aligned = load_data(cfg, structures)
        raw = [float(line.split(",")[3]) for line in lines[1:9]]
        assert aligned.offsets[1] == (0, 8)
        for k in range(8):
            w = raw[k]
            assert aligned.z[k] == pytest.approx(math.log(w / (1 - w)))
            assert aligned.v[k] == pytest.approx(0.0004 / (w * (1 - w)) ** 2)

        assert main(["fit", "--config", str(cfg_path)]) == 0
        assert main(["predict", "--config", str(cfg_path)]) == 0
        rows = (tmp_path / "out" / "predictions.csv").read_text().splitlines()[1:]
        for row in rows:
            parts = row.split(",")
            back = float(parts[5])
            assert 0.0 < back < 1.0  # inverse link maps into the rate scale


class TestStoredStructures:
    """fit stores the basis with input digests; predict and rls read it.

    Both refuse inputs changed since the fit.
    """

    def test_structures_hold_the_fitted_basis(self, project):
        from arealdlm.chainio import read_structures
        from arealdlm.config import load_config
        from arealdlm.pipeline import build_design_structures

        directory, cfg, _ = project
        stored = read_structures(directory / "out" / "structures.npz")
        basis, record = stored.basis, stored.inputs
        built = build_design_structures(load_config(cfg)).basis
        assert basis.times == built.times == [1, 2, 3]
        for t in built.times:
            assert np.array_equal(basis.s[t], built.s[t])
            assert np.array_equal(basis.eigvals[t], built.eigvals[t])
        manifest = json.loads((directory / "out" / "chain0" / "manifest.json").read_text())
        assert manifest["format_version"] == 4
        digests = manifest["input_sha256"]
        assert set(digests) == {"covariates", "edges", "[design]", "observations", "[transforms]"}
        assert record == {k: digests[k] for k in ("covariates", "edges", "[design]")}

    def test_predict_reads_the_structures_next_to_the_chain(self, project, capsys):
        # fitted with --output elsewhere; predict gets only --chain
        directory, cfg, _ = project
        run = directory / "runA"
        assert main(["fit", "--config", str(cfg), "--output", str(run)]) == 0
        (directory / "out" / "structures.npz").unlink()
        assert main(["predict", "--config", str(cfg), "--chain", str(run / "chain0")]) == 0
        assert (directory / "out" / "predictions.csv").exists()
        (run / "structures.npz").unlink()
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg), "--chain", str(run / "chain0")]) == 4
        assert f"no fitted structures at {run / 'structures.npz'}" in capsys.readouterr().err

    def test_refit_gives_identical_structures(self, project):
        directory, cfg, _ = project
        before = (directory / "out" / "structures.npz").read_bytes()
        assert main(["fit", "--config", str(cfg)]) == 0
        assert (directory / "out" / "structures.npz").read_bytes() == before

    def test_predict_and_rls_do_not_build_the_basis(self, project, monkeypatch):
        import arealdlm.basis
        import arealdlm.pipeline

        def refuse(design_set):
            raise AssertionError("the basis was built again")

        monkeypatch.setattr(arealdlm.basis, "build_basis_system", refuse)
        monkeypatch.setattr(arealdlm.pipeline, "build_basis_system", refuse)
        directory, cfg, rls_argv = project
        assert main(["predict", "--config", str(cfg)]) == 0
        assert main(rls_argv) == 0

    def test_each_input_hashed_and_parsed_once(self, project, monkeypatch):
        import arealdlm.data
        import arealdlm.pipeline

        hashed, parsed = [], []
        file_sha256 = arealdlm.pipeline._file_sha256
        open_csv = arealdlm.data._open_csv

        def hash_once(path):
            hashed.append(Path(path).name)
            return file_sha256(path)

        def parse_once(path, expected_header):
            parsed.append(Path(path).name)
            return open_csv(path, expected_header)

        monkeypatch.setattr(arealdlm.pipeline, "_file_sha256", hash_once)
        monkeypatch.setattr(arealdlm.data, "_open_csv", parse_once)
        directory, cfg, rls_argv = project
        inputs = ["cov.csv", "edges.csv", "obs.csv"]
        # predict and rls read what fit stored instead of parsing the inputs
        for argv, files, parses in [
            (["fit", "--config", str(cfg)], inputs, inputs),
            (["predict", "--config", str(cfg)], inputs, []),
            (rls_argv, inputs + ["s1.csv", "s2.csv"], []),
        ]:
            hashed.clear(), parsed.clear()
            assert main(argv) == 0
            assert sorted(hashed) == files, argv[0]
            assert sorted(parsed) == parses, argv[0]

    def test_predict_and_rls_parse_no_csv(self, project, monkeypatch):
        import arealdlm.data

        directory, cfg, rls_argv = project
        outputs = [directory / "out" / "predictions.csv", directory / "out" / "rls.json"]
        assert main(["predict", "--config", str(cfg)]) == 0
        assert main(rls_argv) == 0
        before = [path.read_bytes() for path in outputs]
        for path in outputs:
            path.unlink()

        def refuse(path, expected_header):
            raise AssertionError(f"{path} was parsed")

        monkeypatch.setattr(arealdlm.data, "_open_csv", refuse)
        assert main(["predict", "--config", str(cfg)]) == 0
        assert main(rls_argv) == 0
        assert [path.read_bytes() for path in outputs] == before

    def test_predict_and_rls_do_not_import_scipy(self, project):
        directory, cfg, rls_argv = project
        code = (
            "import sys; from arealdlm.cli import main; "
            f"codes = main(['predict', '--config', {str(cfg)!r}]), main({rls_argv!r}); "
            "print(*codes, 'scipy' in sys.modules, 'subprocess' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines()[-1] == "0 0 False False"

    def test_predict_does_not_import_numpy_ma(self, project):
        # numpy.ma costs a predict about 13 ms and 1.3 MB; np.unique imports it
        directory, cfg, rls_argv = project
        code = (
            "import sys; from arealdlm.cli import main; "
            f"code = main(['predict', '--config', {str(cfg)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines()[-1] == "0 False"

    def test_edited_covariates_refused(self, project, capsys):
        directory, cfg, rls_argv = project
        path = directory / "cov.csv"
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[-1] = repr(float(fields[-1]) + 0.25)
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg)]) == 4
        assert "cov.csv changed since" in capsys.readouterr().err
        assert main(rls_argv) == 4
        assert "cov.csv changed since" in capsys.readouterr().err
        assert not (directory / "out" / "predictions.csv").exists()
        assert not (directory / "out" / "rls.json").exists()

    def test_edited_observation_value_refused(self, project, capsys):
        # same rows, so the fine-scale widths still match the chain
        directory, cfg, _ = project
        path = directory / "obs.csv"
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[3] = repr(float(fields[3]) + 1.0)
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg)]) == 4
        assert "obs.csv changed since the chain at" in capsys.readouterr().err

    def test_rls_checks_each_survey_chain_against_its_survey(self, project, capsys):
        directory, _, rls_argv = project
        path = directory / "s2.csv"
        path.write_text(path.read_text().replace("0.02\n", "0.03\n", 1))
        capsys.readouterr()
        assert main(rls_argv) == 4
        err = capsys.readouterr().err
        assert "s2.csv changed since the chain at" in err and "out_s2" in err

    def test_edited_transforms_refused(self, project, capsys):
        directory, cfg, _ = project
        cfg.write_text(cfg.read_text() + "\n[transforms]\nvariable_1 = identity\n")
        assert main(["predict", "--config", str(cfg)]) == 0  # same parsed settings
        cfg.write_text(cfg.read_text().replace("variable_1 = identity", "variable_1 = log"))
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg)]) == 4
        assert "the [transforms] settings changed since" in capsys.readouterr().err

    def test_missing_structures_refused(self, project, capsys):
        directory, cfg, rls_argv = project
        (directory / "out" / "structures.npz").unlink()
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg)]) == 4
        assert "no fitted structures at" in capsys.readouterr().err
        assert main(rls_argv) == 4

    def test_format_version_1_chain_refused(self, project, capsys):
        directory, cfg, _ = project
        path = directory / "out" / "chain0" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 1
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg)]) == 4
        assert "has format_version 1, but this version reads 4" in capsys.readouterr().err

    def test_parent_format_structures_refused(self, project, capsys):
        # the archive fit wrote before it stored the design: the basis alone, no format_version
        from arealdlm.chainio import read_structures

        directory, cfg, rls_argv = project
        path = directory / "out" / "structures.npz"
        stored = read_structures(path)
        members = {"r": np.array(stored.basis.r), "inputs": np.array(json.dumps(stored.inputs))}
        for t in stored.basis.times:
            members[f"s_t{t:03d}"] = stored.basis.s[t]
            members[f"eigvals_t{t:03d}"] = stored.basis.eigvals[t]
        np.savez(path, **members)
        capsys.readouterr()
        for argv in (["predict", "--config", str(cfg)], rls_argv):
            assert main(argv) == 4
            err = capsys.readouterr().err
            assert err == (f"error: the fitted structures at {path} have format_version None, "
                           "but this version reads 4; run fit again\n")
        assert not (directory / "out" / "predictions.csv").exists()
        assert not (directory / "out" / "rls.json").exists()

    @pytest.mark.parametrize("fault, message", [
        ("missing", "no stored observations at {path}; run fit again"),
        ("cut", "cannot read the stored observations at {path}: "),
        ("short", "the stored observations {path} do not fit the chain: z has shape (23,), "
                  "where the manifest records n = 24; run fit again"),
    ])
    def test_bad_stored_observations_refused(self, project, capsys, fault, message):
        directory, cfg, _ = project
        path = directory / "out" / "chain0" / "observations.npz"
        if fault == "missing":
            path.unlink()
        elif fault == "cut":
            path.write_bytes(path.read_bytes()[:-100])
        else:
            with np.load(path) as archive:
                members = {name: archive[name] for name in archive.files}
            members["z"] = members["z"][:-1]
            np.savez(path, **members)
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(path=path))
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (directory / "out" / "predictions.csv").exists()

    def test_truncated_chain_store_refused(self, project, capsys):
        directory, cfg, _ = project
        path = directory / "out" / "chain0" / "xi.npy"
        path.write_bytes(path.read_bytes()[:-100])
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert f"the chain store {path} is short" in err
        assert "Traceback" not in err
        assert not (directory / "out" / "predictions.csv").exists()

    def test_store_cut_after_opening_refused(self, project, capsys, monkeypatch):
        # predict reads the store in blocks after opening it; a block cut short is exit 4
        import arealdlm.pipeline

        directory, cfg, _ = project
        path = directory / "out" / "chain0" / "xi.npy"
        read_chain = arealdlm.pipeline.read_chain

        def open_then_cut(chain_dir):
            chain = read_chain(chain_dir)
            path.write_bytes(path.read_bytes()[:-100])
            return chain

        monkeypatch.setattr(arealdlm.pipeline, "read_chain", open_then_cut)
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert f"error: the chain store {path} is short" in err
        assert "Traceback" not in err
        assert not (directory / "out" / "predictions.csv").exists()

    def test_truncated_chain_manifest_refused(self, project, capsys):
        directory, cfg, _ = project
        path = directory / "out" / "chain0" / "manifest.json"
        path.write_bytes(path.read_bytes()[:100])
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert f"cannot read the chain manifest at {path}" in err
        assert "Traceback" not in err
        assert not (directory / "out" / "predictions.csv").exists()

    def test_no_partial_json_left_behind(self, project):
        directory, cfg, rls_argv = project
        for command in ("validate", "basis", "prior", "predict"):
            assert main([command, "--config", str(cfg)]) == 0
        assert main(rls_argv) == 0
        written = {p.name for p in directory.rglob("*.json")}
        assert {"manifest.json", "validation.json", "rls.json", "truth_params.json"} <= written
        assert not list(directory.rglob("*.partial"))


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env_without_blas_threads() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return env


class TestOneBlasThread:
    """Importing arealdlm sets one BLAS thread unless the environment sets another count."""

    def test_import_defaults_blas_threads_to_one(self):
        # what numpy sees when it is imported, then what is left in the environment
        code = (
            "import os, sys\n"
            f"names = {BLAS_THREAD_VARIABLES!r}\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append([os.environ.get(n) for n in names])\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import arealdlm\n"
            "print(seen[0], [os.environ.get(n) for n in names])\n"
        )
        for preset, expected in (
            (None, "['1', '1', '1'] [None, None, None]"),
            ("3", "['3', '1', '1'] ['3', None, None]"),
        ):
            env = _env_without_blas_threads()
            if preset is not None:
                env["OPENBLAS_NUM_THREADS"] = preset
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            assert out.stdout.strip() == expected

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else True,
        reason="needs two usable CPUs",
    )
    def test_fit_bytes_do_not_depend_on_the_cpus(self, tmp_path):
        # a design large enough for multithreaded BLAS to round differently
        cfg = write_project(tmp_path, n_units=300, T=2, p=3, r=20, iterations=30, burn_in=10)
        assert main(["simulate", "--config", str(cfg)]) == 0
        code = (
            "import os, sys\n"
            "if sys.argv[1] == 'one':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from arealdlm.cli import main\n"
            "sys.exit(main(['fit', '--config', sys.argv[2], '--output', sys.argv[3]]))"
        )
        for cpus in ("one", "all"):
            subprocess.run([sys.executable, "-c", code, cpus, str(cfg), str(tmp_path / cpus)],
                           env=_env_without_blas_threads(), capture_output=True, check=True)
        names = ["structures.npz"] + [f"chain0/{g}.npy" for g in
                                      ("eta", "xi", "beta", "sigma_k2", "sigma_xi2")]
        differ = [n for n in names
                  if (tmp_path / "one" / n).read_bytes() != (tmp_path / "all" / n).read_bytes()]
        assert differ == []


# the input files each command reads; rls also reads the files of its surveys
READS = {
    "validate": ("cov.csv", "edges.csv", "obs.csv"),
    "fit": ("cov.csv", "edges.csv", "obs.csv"),
    "predict": ("cov.csv", "edges.csv", "obs.csv"),
    "rls": ("cov.csv", "edges.csv", "obs.csv", "s1.csv", "s2.csv"),
    "basis": ("cov.csv", "edges.csv"),
    "prior": ("cov.csv", "edges.csv"),
    "simulate": ("cov.csv", "edges.csv"),
}


@pytest.mark.parametrize(
    "command, name", [(command, name) for command, names in READS.items() for name in names]
)
def test_missing_input_exits_2_and_names_it(project, capsys, command, name):
    # on a fitted project, so a missing input is reported ahead of the run
    directory, cfg, rls_argv = project
    (directory / name).unlink()
    argv = rls_argv if command == "rls" else [command, "--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"input file not found: {directory / name}" in capsys.readouterr().err


def test_padded_header_names_accepted(tmp_path):
    # spaces around the header names of all three input files
    (tmp_path / "plain").mkdir()
    plain = write_project(tmp_path / "plain")
    assert main(["simulate", "--config", str(plain)]) == 0
    padded = tmp_path / "padded"
    shutil.copytree(tmp_path / "plain", padded)
    shutil.rmtree(padded / "out")
    for name in ("obs.csv", "cov.csv", "edges.csv"):
        lines = (padded / name).read_text().splitlines()
        lines[0] = ",".join(f" {h} " if k % 2 else f"{h} " for k, h in enumerate(lines[0].split(",")))
        (padded / name).write_text("\n".join(lines) + "\n")
    assert (padded / "obs.csv").read_text().startswith("variable , time ,unit , z ,v ")
    for cfg in (plain, padded / "run.ini"):
        assert main(["validate", "--config", str(cfg)]) == 0
    report = (tmp_path / "plain" / "out" / "validation.json").read_bytes()
    assert (padded / "out" / "validation.json").read_bytes() == report
