import json
import logging

import numpy as np
import pytest

from arealdlm.cli import main

from util import random_connected_graph


def write_project(tmp_path, n_units=8, T=3, p=2, seed=0, iterations=80, burn_in=20, r=2,
                  truth_extra="", model_extra=""):
    """A tiny self-contained project directory: covariates, edges, config."""
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(n_units, 6, seed)
    units = graph.units
    cov_lines = ["variable,time,unit," + ",".join(f"x{j}" for j in range(1, p + 1))]
    base = rng.normal(size=(len(units), p - 1))
    for t in range(1, T + 1):
        for i, u in enumerate(units):
            vals = [1.0] + list(base[i])
            cov_lines.append(f"1,{t},{u}," + ",".join(str(v) for v in vals))
    (tmp_path / "cov.csv").write_text("\n".join(cov_lines) + "\n")
    edge_lines = ["unit_a,unit_b"] + [f"{units[i]},{units[j]}" for i, j in sorted(graph.edges)]
    (tmp_path / "edges.csv").write_text("\n".join(edge_lines) + "\n")
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

    def test_missing_edges_file(self, tmp_path):
        cfg = write_project(tmp_path)
        main(["simulate", "--config", str(cfg)])
        (tmp_path / "edges.csv").unlink()
        assert main(["validate", "--config", str(cfg)]) == 2

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


class TestRlsCommand:
    def test_two_survey_rls(self, tmp_path):
        # surveys split variable-1 cells between them; the fused file is their union
        cfg = write_project(tmp_path, iterations=120, burn_in=40)
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

        assert (
            main(
                [
                    "rls",
                    "--config",
                    str(cfg),
                    "--survey-chains",
                    f"{tmp_path / 'out_s1' / 'chain0'},{tmp_path / 'out_s2' / 'chain0'}",
                ]
            )
            == 0
        )
        out = json.loads((tmp_path / "out" / "rls.json").read_text())
        assert set(out["rls"]) == {"1", "2"}
        assert out["cells"] == 4 * 3
        assert all(v > 0 for v in out["rls"].values())

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
        for k in range(8):
            w = raw[k]
            assert aligned.z[1][k] == pytest.approx(math.log(w / (1 - w)))
            assert aligned.v[1][k] == pytest.approx(0.0004 / (w * (1 - w)) ** 2)

        assert main(["fit", "--config", str(cfg_path)]) == 0
        assert main(["predict", "--config", str(cfg_path)]) == 0
        rows = (tmp_path / "out" / "predictions.csv").read_text().splitlines()[1:]
        for row in rows:
            parts = row.split(",")
            back = float(parts[5])
            assert 0.0 < back < 1.0  # inverse link maps into the rate scale
