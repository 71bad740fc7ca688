from dataclasses import replace

import pytest

from arealdlm.config import load_config
from arealdlm.data import TransformSpec
from arealdlm.errors import MissingInputError, ValidationError


BASE = """
[paths]
observations = obs.csv
covariates = cov.csv
edges = edges.csv
output = out

[design]
variables = 2
p = 3
r = 4
window_1 = 1:10
window_2 = 3:10

[transforms]
variable_1 = logit
variable_2 = log

[model]
prior_form = inverted
pooled = false
epsilon = auto

[sampler]
iterations = 500
burn_in = 100
thin = 2
seed = 7

[hyperparams]
sigma_beta2 = 1e12
alpha_xi = 2
beta_xi = 1
alpha_k = 2
beta_k = 1
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_full_parse(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE))
        assert cfg.design.num_variables == 2
        assert cfg.design.windows == ((1, 10), (3, 10))
        assert cfg.design.p == 3 and cfg.design.r == 4
        assert cfg.transforms[1] == TransformSpec("logit")
        assert cfg.transforms[2] == TransformSpec("log")
        assert cfg.iterations == 500 and cfg.burn_in == 100 and cfg.thin == 2
        assert cfg.seed == 7
        assert cfg.hyper.sigma_beta2 == 1e12
        assert cfg.epsilon is None  # auto
        assert cfg.observations == tmp_path / "obs.csv"
        assert cfg.output == tmp_path / "out"

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError):
            load_config(tmp_path / "none.ini")

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ValidationError, match=r"unknown config section \[wild\]"):
            load_config(write_config(tmp_path, BASE + "\n[wild]\nx = 1\n"))

    def test_unknown_key(self, tmp_path):
        bad = BASE.replace("thin = 2", "thin = 2\nthinning = 3")
        with pytest.raises(ValidationError, match=r"unknown key \[sampler\] thinning"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_design_key(self, tmp_path):
        bad = BASE.replace("r = 4", "r = 4\nwindow_3 = 1:10")
        with pytest.raises(ValidationError, match=r"unknown key \[design\] window_3"):
            load_config(write_config(tmp_path, bad))

    def test_burn_in_not_less_than_iterations(self, tmp_path):
        bad = BASE.replace("burn_in = 100", "burn_in = 500")
        with pytest.raises(ValidationError, match="must exceed burn_in"):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("burn_in = 100", "burn_in = -5", "burn_in must be >= 0"),
            ("thin = 2", "thin = 0", "thin must be >= 1"),
            ("seed = 7", "seed = -1", "seed must be >= 0"),
        ],
        ids=["negative-burn-in", "zero-thin", "negative-seed"],
    )
    def test_sampler_settings_refused(self, tmp_path, old, new, message):
        with pytest.raises(ValidationError, match=message):
            load_config(write_config(tmp_path, BASE.replace(old, new)))

    def test_overridden_seed_checked(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE))
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            replace(cfg, seed=-1)

    @pytest.mark.parametrize("key", ["seed", "missing_seed"])
    def test_negative_truth_seed_refused(self, tmp_path, key):
        text = BASE + "\n[truth]\nbeta = 0.5, -0.2, 0.1\nsigma_k2 = 1\nsigma_xi2 = 1\nv = 0.01\n"
        text += f"{key} = -1\n"
        with pytest.raises(ValidationError, match=rf"\[truth\] {key}: .*a seed must be >= 0"):
            load_config(write_config(tmp_path, text))

    def test_bad_window(self, tmp_path):
        bad = BASE.replace("window_1 = 1:10", "window_1 = 10")
        with pytest.raises(ValidationError, match="expected first:last"):
            load_config(write_config(tmp_path, bad))

    def test_unparseable_value_names_its_key(self, tmp_path):
        bad = BASE.replace("alpha_k = 2", "alpha_k = two")
        with pytest.raises(ValidationError, match=r"\[hyperparams\] alpha_k: bad value 'two'"):
            load_config(write_config(tmp_path, bad))

    def test_transform_key_without_variable_number(self, tmp_path):
        bad = BASE.replace("variable_2 = log", "variable_x = log")
        with pytest.raises(ValidationError, match=r"unknown key \[transforms\] variable_x"):
            load_config(write_config(tmp_path, bad))

    def test_window_must_start_at_one(self, tmp_path):
        bad = BASE.replace("window_1 = 1:10", "window_1 = 2:10")
        with pytest.raises(ValidationError, match="earliest window must start at time 1"):
            load_config(write_config(tmp_path, bad))

    def test_truth_block(self, tmp_path):
        text = BASE + (
            "\n[truth]\nbeta = 0.5, -0.2, 0.1\nsigma_k2 = 1.0\nsigma_xi2 = 0.1\n"
            "v = 0.01, 0.04\nmissing_units = u3\nseed = 11\n"
        )
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.truth.beta == (0.5, -0.2, 0.1)
        assert cfg.truth.v == {1: 0.01, 2: 0.04}
        assert cfg.truth.missing_units == ("u3",)

    def test_truth_beta_length_checked(self, tmp_path):
        text = BASE + "\n[truth]\nbeta = 0.5\nsigma_k2 = 1\nsigma_xi2 = 1\nv = 0.01\n"
        with pytest.raises(ValidationError, match="beta needs 3 values"):
            load_config(write_config(tmp_path, text))

    def test_rls_surveys(self, tmp_path):
        text = BASE + "\n[rls]\nsurveys = s1.csv, s2.csv\n"
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.rls_surveys == (tmp_path / "s1.csv", tmp_path / "s2.csv")

    def test_unparseable_ini(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot parse config"):
            load_config(write_config(tmp_path, "not an ini file [ at all"))

    def test_mu_beta_vector(self, tmp_path):
        text = BASE.replace("sigma_beta2 = 1e12", "sigma_beta2 = 1e12\nmu_beta = 0.1, 0.2, 0.3")
        cfg = load_config(write_config(tmp_path, text))
        assert list(cfg.hyper.mu_beta) == [0.1, 0.2, 0.3]
        bad = BASE.replace("sigma_beta2 = 1e12", "sigma_beta2 = 1e12\nmu_beta = 0.1, 0.2")
        with pytest.raises(ValidationError, match="mu_beta needs 1 or 3"):
            load_config(write_config(tmp_path, bad, name="bad.ini"))
