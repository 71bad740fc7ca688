"""Run configuration: an INI file with fixed sections and strict keys.

Unknown sections or keys are errors, so typos cannot silently change a run.
Paths are resolved relative to the config file's directory.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import StudyDesign, TransformSpec
from .errors import MissingInputError, ValidationError
from .sampler import Hyperparams

_SECTIONS = {
    "paths": {"observations", "covariates", "edges", "output"},
    "design": None,  # variables, p, r, window_<ell>
    "transforms": None,  # variable_<ell>
    "model": {"prior_form", "pooled", "epsilon"},
    "sampler": {"iterations", "burn_in", "thin", "seed"},
    "hyperparams": {"mu_beta", "sigma_beta2", "alpha_xi", "beta_xi", "alpha_k", "beta_k"},
    "truth": {
        "beta",
        "sigma_k2",
        "sigma_xi2",
        "v",
        "missing_units",
        "missing_fraction",
        "missing_seed",
        "seed",
    },
    "rls": {"surveys"},
}


@dataclass(frozen=True)
class TruthBlock:
    """Generating parameters for the synthetic-data command."""

    beta: tuple[float, ...]
    sigma_k2: float
    sigma_xi2: float
    v: dict[int, float]  # per variable
    missing_units: tuple[str, ...] = ()
    missing_fraction: float = 0.0
    missing_seed: int = 0
    seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    observations: Path
    covariates: Path
    edges: Path
    output: Path
    design: StudyDesign
    transforms: dict[int, TransformSpec]
    prior_form: str
    pooled: bool
    epsilon: float | None
    iterations: int
    burn_in: int
    thin: int
    seed: int
    hyper: Hyperparams
    truth: TruthBlock | None = None
    rls_surveys: tuple[Path, ...] = ()

    def validate_sampler(self) -> None:
        if self.iterations <= self.burn_in:
            raise ValidationError(
                f"iterations ({self.iterations}) must exceed burn_in ({self.burn_in})"
            )
        if self.thin < 1:
            raise ValidationError("thin must be >= 1")


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ValidationError(f"bad window {text!r}; expected first:last") from None


def _get(parser, section, key, default=None, required=False):
    if parser.has_option(section, key):
        return parser.get(section, key)
    if required:
        raise ValidationError(f"config is missing [{section}] {key}")
    return default


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with path.open(encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ValidationError(f"cannot parse config {path}: {exc}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"unknown config section [{section}]")

    base = path.parent

    # design
    if not parser.has_section("design"):
        raise ValidationError("config is missing the [design] section")
    num_variables = int(_get(parser, "design", "variables", required=True))
    p = int(_get(parser, "design", "p", required=True))
    r = int(_get(parser, "design", "r", required=True))
    windows = []
    design_keys = {"variables", "p", "r"}
    for ell in range(1, num_variables + 1):
        key = f"window_{ell}"
        design_keys.add(key)
        windows.append(_parse_window(_get(parser, "design", key, required=True)))
    for key in parser.options("design"):
        if key not in design_keys:
            raise ValidationError(f"unknown key [design] {key}")
    design = StudyDesign(num_variables, tuple(windows), p, r)

    # paths
    if not parser.has_section("paths"):
        raise ValidationError("config is missing the [paths] section")
    for key in parser.options("paths"):
        if key not in _SECTIONS["paths"]:
            raise ValidationError(f"unknown key [paths] {key}")
    paths = {
        key: base / _get(parser, "paths", key, required=True)
        for key in ("observations", "covariates", "edges", "output")
    }

    # transforms
    transforms = {ell: TransformSpec("identity") for ell in range(1, num_variables + 1)}
    if parser.has_section("transforms"):
        for key in parser.options("transforms"):
            if not key.startswith("variable_"):
                raise ValidationError(f"unknown key [transforms] {key}")
            ell = int(key.split("_", 1)[1])
            if not 1 <= ell <= num_variables:
                raise ValidationError(f"[transforms] {key}: no such variable")
            transforms[ell] = TransformSpec(parser.get("transforms", key))

    # model
    for key in parser.options("model") if parser.has_section("model") else []:
        if key not in _SECTIONS["model"]:
            raise ValidationError(f"unknown key [model] {key}")
    prior_form = _get(parser, "model", "prior_form", "inverted")
    pooled_text = _get(parser, "model", "pooled", "false").lower()
    if pooled_text not in ("true", "false"):
        raise ValidationError(f"[model] pooled must be true or false, got {pooled_text!r}")
    eps_text = _get(parser, "model", "epsilon", "auto")
    epsilon = None if eps_text == "auto" else float(eps_text)

    # sampler
    if not parser.has_section("sampler"):
        raise ValidationError("config is missing the [sampler] section")
    for key in parser.options("sampler"):
        if key not in _SECTIONS["sampler"]:
            raise ValidationError(f"unknown key [sampler] {key}")
    iterations = int(_get(parser, "sampler", "iterations", required=True))
    burn_in = int(_get(parser, "sampler", "burn_in", required=True))
    thin = int(_get(parser, "sampler", "thin", "1"))
    seed = int(_get(parser, "sampler", "seed", "0"))

    # hyperparams
    for key in parser.options("hyperparams") if parser.has_section("hyperparams") else []:
        if key not in _SECTIONS["hyperparams"]:
            raise ValidationError(f"unknown key [hyperparams] {key}")
    mu_parts = [x.strip() for x in _get(parser, "hyperparams", "mu_beta", "0").split(",")]
    if len(mu_parts) == 1:
        mu_beta: float | tuple = float(mu_parts[0])
    elif len(mu_parts) == p:
        mu_beta = np.array([float(x) for x in mu_parts])
    else:
        raise ValidationError(f"[hyperparams] mu_beta needs 1 or {p} values")
    hyper = Hyperparams(
        mu_beta=mu_beta,
        sigma_beta2=float(_get(parser, "hyperparams", "sigma_beta2", "1e15")),
        alpha_xi=float(_get(parser, "hyperparams", "alpha_xi", "2")),
        beta_xi=float(_get(parser, "hyperparams", "beta_xi", "1")),
        alpha_k=float(_get(parser, "hyperparams", "alpha_k", "2")),
        beta_k=float(_get(parser, "hyperparams", "beta_k", "1")),
    )

    # truth
    truth = None
    if parser.has_section("truth"):
        for key in parser.options("truth"):
            if key not in _SECTIONS["truth"]:
                raise ValidationError(f"unknown key [truth] {key}")
        beta = tuple(
            float(x) for x in _get(parser, "truth", "beta", required=True).split(",")
        )
        if len(beta) != p:
            raise ValidationError(f"[truth] beta needs {p} values, got {len(beta)}")
        v_text = _get(parser, "truth", "v", required=True)
        parts = [x.strip() for x in v_text.split(",")]
        if len(parts) == 1:
            v = {ell: float(parts[0]) for ell in range(1, num_variables + 1)}
        elif len(parts) == num_variables:
            v = {ell: float(x) for ell, x in enumerate(parts, start=1)}
        else:
            raise ValidationError(
                f"[truth] v needs 1 or {num_variables} values, got {len(parts)}"
            )
        missing_units = tuple(
            u.strip()
            for u in _get(parser, "truth", "missing_units", "").split(",")
            if u.strip()
        )
        truth = TruthBlock(
            beta=beta,
            sigma_k2=float(_get(parser, "truth", "sigma_k2", required=True)),
            sigma_xi2=float(_get(parser, "truth", "sigma_xi2", required=True)),
            v=v,
            missing_units=missing_units,
            missing_fraction=float(_get(parser, "truth", "missing_fraction", "0")),
            missing_seed=int(_get(parser, "truth", "missing_seed", "0")),
            seed=int(_get(parser, "truth", "seed", "0")),
        )

    # rls
    rls_surveys: tuple[Path, ...] = ()
    if parser.has_section("rls"):
        for key in parser.options("rls"):
            if key not in _SECTIONS["rls"]:
                raise ValidationError(f"unknown key [rls] {key}")
        rls_surveys = tuple(
            base / s.strip()
            for s in _get(parser, "rls", "surveys", required=True).split(",")
            if s.strip()
        )

    cfg = RunConfig(
        observations=paths["observations"],
        covariates=paths["covariates"],
        edges=paths["edges"],
        output=paths["output"],
        design=design,
        transforms=transforms,
        prior_form=prior_form,
        pooled=pooled_text == "true",
        epsilon=epsilon,
        iterations=iterations,
        burn_in=burn_in,
        thin=thin,
        seed=seed,
        hyper=hyper,
        truth=truth,
        rls_surveys=rls_surveys,
    )
    cfg.validate_sampler()
    return cfg
