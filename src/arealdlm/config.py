"""Run configuration: an INI file with fixed sections and strict keys.

Unknown sections or keys are errors, so typos cannot silently change a run.
Paths are resolved relative to the config file's directory.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import StudyDesign, TransformSpec
from .errors import MissingInputError, ValidationError
from .sampler import Hyperparams, check_run_settings

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

    def __post_init__(self):
        # also runs on every dataclasses.replace, so an override is checked too
        check_run_settings(self.iterations, self.burn_in, self.thin, self.seed)


def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError("expected first:last")
    return int(lo), int(hi)


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


def _parse_epsilon(text: str) -> float | None:
    return None if text == "auto" else float(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _parse_seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError("a seed must be >= 0")
    return seed


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _get(parser, section, key, convert=str, default=None):
    """``[section] key`` read by ``convert``; a key without a default is required.

    Every config value goes through here, so a value ``convert`` rejects is a
    ValidationError that names ``[section] key``.
    """
    if parser.has_option(section, key):
        text = parser.get(section, key)
    elif default is None:
        raise ValidationError(f"config is missing [{section}] {key}")
    else:
        text = default
    try:
        return convert(text)
    except ValueError as exc:
        raise ValidationError(f"[{section}] {key}: bad value {text!r} ({exc})") from None


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
        for key in parser.options(section):
            if _SECTIONS[section] is not None and key not in _SECTIONS[section]:
                raise ValidationError(f"unknown key [{section}] {key}")
    for section in ("design", "paths", "sampler"):
        if not parser.has_section(section):
            raise ValidationError(f"config is missing the [{section}] section")

    base = path.parent

    # design
    num_variables = _get(parser, "design", "variables", int)
    p = _get(parser, "design", "p", int)
    r = _get(parser, "design", "r", int)
    windows = []
    design_keys = {"variables", "p", "r"}
    for ell in range(1, num_variables + 1):
        key = f"window_{ell}"
        design_keys.add(key)
        windows.append(_get(parser, "design", key, _parse_window))
    for key in parser.options("design"):
        if key not in design_keys:
            raise ValidationError(f"unknown key [design] {key}")
    design = StudyDesign(num_variables, tuple(windows), p, r)

    paths = {
        key: base / _get(parser, "paths", key)
        for key in ("observations", "covariates", "edges", "output")
    }

    # transforms
    transforms = {ell: TransformSpec("identity") for ell in range(1, num_variables + 1)}
    for key in parser.options("transforms") if parser.has_section("transforms") else []:
        prefix, _, number = key.partition("_")
        if prefix != "variable" or not number.isdigit():
            raise ValidationError(f"unknown key [transforms] {key}")
        if not 1 <= int(number) <= num_variables:
            raise ValidationError(f"[transforms] {key}: no such variable")
        transforms[int(number)] = _get(parser, "transforms", key, TransformSpec)

    # hyperparams
    mu_beta = _get(parser, "hyperparams", "mu_beta", _parse_floats, "0")
    if len(mu_beta) not in (1, p):
        raise ValidationError(f"[hyperparams] mu_beta needs 1 or {p} values")
    hyper = Hyperparams(
        mu_beta=mu_beta[0] if len(mu_beta) == 1 else np.array(mu_beta),
        sigma_beta2=_get(parser, "hyperparams", "sigma_beta2", float, "1e15"),
        alpha_xi=_get(parser, "hyperparams", "alpha_xi", float, "2"),
        beta_xi=_get(parser, "hyperparams", "beta_xi", float, "1"),
        alpha_k=_get(parser, "hyperparams", "alpha_k", float, "2"),
        beta_k=_get(parser, "hyperparams", "beta_k", float, "1"),
    )

    # truth
    truth = None
    if parser.has_section("truth"):
        beta = _get(parser, "truth", "beta", _parse_floats)
        if len(beta) != p:
            raise ValidationError(f"[truth] beta needs {p} values, got {len(beta)}")
        v = _get(parser, "truth", "v", _parse_floats)
        if len(v) == 1:
            v = v * num_variables
        elif len(v) != num_variables:
            raise ValidationError(
                f"[truth] v needs 1 or {num_variables} values, got {len(v)}"
            )
        if not all(math.isfinite(x) and x > 0 for x in v):
            raise ValidationError(f"[truth] v: each value must be finite and > 0, got {v}")
        variances = {key: _get(parser, "truth", key, float) for key in ("sigma_k2", "sigma_xi2")}
        for key, value in variances.items():
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"[truth] {key} must be finite and >= 0, got {value}")
        fraction = _get(parser, "truth", "missing_fraction", float, "0")
        if not 0 <= fraction <= 1:
            raise ValidationError(f"[truth] missing_fraction must lie in [0, 1], got {fraction}")
        truth = TruthBlock(
            beta=beta,
            **variances,
            v=dict(enumerate(v, start=1)),
            missing_units=_get(parser, "truth", "missing_units", _parse_names, ""),
            missing_fraction=fraction,
            missing_seed=_get(parser, "truth", "missing_seed", _parse_seed, "0"),
            seed=_get(parser, "truth", "seed", _parse_seed, "0"),
        )

    # rls
    rls_surveys: tuple[Path, ...] = ()
    if parser.has_section("rls"):
        rls_surveys = tuple(base / s for s in _get(parser, "rls", "surveys", _parse_names))

    return RunConfig(
        observations=paths["observations"],
        covariates=paths["covariates"],
        edges=paths["edges"],
        output=paths["output"],
        design=design,
        transforms=transforms,
        prior_form=_get(parser, "model", "prior_form", str, "inverted"),
        pooled=_get(parser, "model", "pooled", _parse_bool, "false"),
        epsilon=_get(parser, "model", "epsilon", _parse_epsilon, "auto"),
        iterations=_get(parser, "sampler", "iterations", int),
        burn_in=_get(parser, "sampler", "burn_in", int),
        thin=_get(parser, "sampler", "thin", int, "1"),
        seed=_get(parser, "sampler", "seed", int, "0"),
        hyper=hyper,
        truth=truth,
        rls_surveys=rls_surveys,
    )
