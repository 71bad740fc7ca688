"""Batch command-line front end.

Subcommands: validate | fit | predict | simulate | rls | basis | prior.
Exit codes: 0 success, 1 usage, 2 missing input, 3 validation failure,
4 chain/state error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import chainio, predict
from .config import RunConfig, load_config
from .data import AlignedData
from .errors import ChainStateError, MissingInputError, ValidationError
from .pipeline import (
    DESIGN_INPUTS,
    build_design_structures,
    build_structures,
    input_digests,
    load_chain,
    load_data,
    load_design_structures,
)
from .sampler import gibbs_run

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISSING_INPUT = 2
EXIT_VALIDATION = 3
EXIT_STATE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # default argparse exit status collides with code 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="arealdlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="run configuration file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--output", default=None, help="override the config output directory")
        return cmd

    add("validate", "check files, ranks, and windows")
    fit = add("fit", "run the full pipeline and persist chains")
    fit.add_argument("--chains", type=int, default=1, help="number of independent chains")
    fit.add_argument(
        "--trace",
        action="append",
        default=[],
        help="parameter selector to dump as a per-iteration trace CSV (repeatable)",
    )
    pred = add("predict", "emit the prediction surface from a fitted chain")
    pred.add_argument("--chain", default=None, help="chain directory (default: <output>/chain0)")
    add("simulate", "draw synthetic observations from the [truth] block")
    rls_cmd = add("rls", "leave-one-survey-out criterion from fitted chains")
    rls_cmd.add_argument("--chain", default=None, help="full-data chain directory")
    rls_cmd.add_argument(
        "--survey-chains",
        required=True,
        help="comma-separated chain directories, one per survey in [rls] order",
    )
    add("basis", "dump basis matrices and eigenvalues")
    add("prior", "dump prior covariances, the lift log and innovation ratios")
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    from dataclasses import replace

    out = cfg
    if args.seed is not None:
        out = replace(out, seed=args.seed)
    if args.output is not None:
        out = replace(out, output=Path(args.output))
    return out


def _warn_unobserved_times(aligned: AlignedData, T: int) -> None:
    """One WARNING naming every time with no observations at all."""
    empty = [t for t in range(1, T + 1) if aligned.n_t(t) == 0]
    if empty:
        log.warning(
            "no observations at time(s) %s: beta_t there comes from its vague "
            "prior alone, so predictions at those times are not informed by data",
            ", ".join(map(str, empty)),
        )


def cmd_validate(cfg: RunConfig) -> int:
    report = {"config": "ok"}
    structures = build_structures(cfg)
    obs, aligned = load_data(cfg, structures)
    design = cfg.design
    graph = structures.design_set.graph
    _warn_unobserved_times(aligned, design.T)
    report.update(
        {
            "units": len(graph.units),
            "edges": len(graph.edges),
            "variables": design.num_variables,
            "T": design.T,
            "p": design.p,
            "r": design.r,
            "n": obs.n,
            "n_by_time": {str(t): int(aligned.n_t(t)) for t in range(1, design.T + 1)},
            "N_by_time": {str(t): structures.design_set.N_t(t) for t in range(1, design.T + 1)},
            "prior_lifts": len(structures.prior.lift_log),
            "innovation_ratio": {
                str(t): v for t, v in structures.prior.innovation_ratio.items()
            },
        }
    )
    cfg.output.mkdir(parents=True, exist_ok=True)
    chainio.write_json(cfg.output / "validation.json", report)
    print("validation passed")
    for key in ("units", "edges", "variables", "T", "p", "r", "n"):
        print(f"  {key}: {report[key]}")
    print(f"  report: {cfg.output / 'validation.json'}")
    return EXIT_OK


def cmd_fit(cfg: RunConfig, chains: int = 1, trace: list[str] | None = None) -> int:
    inputs = input_digests(cfg)
    structures = build_structures(cfg)
    aligned = load_data(cfg, structures)[1]  # only the aligned cells are kept
    traces = {}  # trace file name -> selector, one per parameter
    for selector in trace or []:
        group, t, index, _ = predict.selector_column(
            selector, cfg.design.T, structures.basis.r, cfg.design.p, aligned.offsets
        )
        indices = [str(i) for i in (t, index) if i is not None]
        label = f"{group}[{','.join(indices)}]" if indices else group
        traces["_".join([group, *indices])] = label
    cfg.output.mkdir(parents=True, exist_ok=True)
    chainio.write_structures(
        cfg.output / chainio.STRUCTURES_FILE,
        structures.design_set,
        structures.basis,
        inputs.record(DESIGN_INPUTS),
    )
    for i in range(chains):
        directory = cfg.output / f"chain{i}"
        with chainio.ChainWriter(directory, inputs.record()) as writer:
            chainio.write_observations(directory, aligned)
            chain = gibbs_run(
                aligned,
                structures.design_set,
                structures.basis,
                structures.prior,
                cfg.hyper,
                iterations=cfg.iterations,
                burn_in=cfg.burn_in,
                thin=cfg.thin,
                seed=cfg.seed + i,
                writer=writer,
            )
        series = predict.select_series(chain, list(traces.values()))
        for (name, selector), column in zip(traces.items(), series.T):
            rows = enumerate(column)
            chainio.write_csv(directory / f"trace_{name}.csv", ["draw", selector], rows)
        print(f"chain written: {directory} ({chain.num_draws} draws)")
    return EXIT_OK


def cmd_predict(cfg: RunConfig, chain_dir: str | None) -> int:
    directory = Path(chain_dir) if chain_dir else cfg.output / "chain0"
    inputs = input_digests(cfg)
    structures = load_design_structures(cfg, directory, inputs)
    chain, aligned = load_chain(directory, inputs)
    _warn_unobserved_times(aligned, cfg.design.T)
    surface = predict.posterior_y(
        chain,
        structures.design_set,
        structures.basis,
        aligned,
        transforms=cfg.transforms,
        rng=predict.prediction_rng(cfg.seed),
    )
    cfg.output.mkdir(parents=True, exist_ok=True)
    out = cfg.output / "predictions.csv"
    predict.write_predictions_csv(surface, out)
    print(f"predictions written: {out} ({len(surface.locations)} locations)")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.truth is None:
        raise ValidationError("simulate needs a [truth] section in the config")
    if any(spec.kind != "identity" for spec in cfg.transforms.values()):
        raise ValidationError(
            "simulate emits model-scale values; use identity transforms "
            "in simulation configs"
        )
    structures = build_structures(cfg)
    design_set = structures.design_set
    truth_cfg = cfg.truth

    units = design_set.graph.units
    for unit in truth_cfg.missing_units:
        if unit not in units:
            raise ValidationError(f"[truth] missing_units: unknown unit {unit!r}")
    # one uniform per prediction row when missing_fraction > 0, whether or
    # not the row's unit is masked anyway
    fraction = truth_cfg.missing_fraction
    mask_rng = np.random.default_rng(truth_cfg.missing_seed)
    mask = {
        (ell, t, units[u])
        for t in range(1, cfg.design.T + 1)
        for ell, u in design_set.layout[t]
        if (fraction > 0 and mask_rng.random() < fraction)
        or units[u] in truth_cfg.missing_units
    }

    truth = predict.simulate(
        design_set,
        structures.basis,
        structures.prior,
        np.asarray(truth_cfg.beta),
        truth_cfg.sigma_k2,
        truth_cfg.sigma_xi2,
        truth_cfg.v,
        missing_mask=mask,
        seed=truth_cfg.seed,
    )

    # identity transforms only (checked above): the model scale is the raw scale
    cfg.observations.parent.mkdir(parents=True, exist_ok=True)
    rows = ((o.variable, o.time, o.unit, o.z, o.v) for o in truth.observations.observations)
    chainio.write_csv(cfg.observations, ["variable", "time", "unit", "z", "v"], rows)

    truth_dir = cfg.output / "truth"
    truth_dir.mkdir(parents=True, exist_ok=True)
    rows = ((ell, t, units[u], y) for t in range(1, cfg.design.T + 1)
            for (ell, u), y in zip(design_set.layout[t], truth.y[t]))
    chainio.write_csv(truth_dir / "truth_y.csv", ["variable", "time", "unit", "y"], rows)
    chainio.write_csv(truth_dir / "truth_eta.csv", None, truth.eta)
    chainio.write_json(
        truth_dir / "truth_params.json",
        {
            "beta": np.asarray(truth_cfg.beta).tolist(),
            "sigma_k2": truth_cfg.sigma_k2,
            "sigma_xi2": truth_cfg.sigma_xi2,
            "v": {str(k): v for k, v in truth_cfg.v.items()},
            "seed": truth_cfg.seed,
            "masked_cells": sorted(f"{ell},{t},{u}" for ell, t, u in mask),
        },
    )
    print(f"observations written: {cfg.observations} ({truth.observations.n} rows)")
    print(f"truth written: {truth_dir}")
    return EXIT_OK


def cmd_rls(cfg: RunConfig, chain_dir: str | None, survey_chain_dirs: list[str]) -> int:
    if not cfg.rls_surveys:
        raise ValidationError("rls needs an [rls] section listing the survey files")
    if len(survey_chain_dirs) != len(cfg.rls_surveys):
        raise ValidationError(
            f"got {len(survey_chain_dirs)} survey chains for {len(cfg.rls_surveys)} surveys"
        )
    directory = Path(chain_dir) if chain_dir else cfg.output / "chain0"
    inputs = input_digests(cfg)
    survey_inputs = [inputs.for_observations(path) for path in cfg.rls_surveys]
    structures = load_design_structures(cfg, directory, inputs)
    full_chain, aligned_full = load_chain(directory, inputs)
    surveys = [load_chain(Path(d), digests)
               for d, digests in zip(survey_chain_dirs, survey_inputs)]

    # evaluation cells: the variable-1 locations survey chain 1 was fitted to
    design_set = structures.design_set
    units = design_set.graph.units
    _, survey1 = surveys[0]
    cells = sorted(
        (ell, t, units[u])
        for t, (start, stop) in survey1.offsets.items()
        for ell, u in (design_set.layout[t][i] for i in survey1.obs_idx[start:stop].tolist())
        if ell == 1
    )
    if not cells:
        raise ValidationError("survey 1 has no variable-1 observations to score")

    full_surface = predict.posterior_y(
        full_chain,
        design_set,
        structures.basis,
        aligned_full,
        locations=cells,
        rng=predict.prediction_rng(cfg.seed),
    )
    survey_means = {}
    for m, (chain_m, aligned_m) in enumerate(surveys, start=1):
        surface_m = predict.posterior_y(
            chain_m,
            design_set,
            structures.basis,
            aligned_m,
            locations=cells,
            rng=predict.prediction_rng(cfg.seed, m),
        )
        survey_means[m] = surface_m.yhat
    values = predict.rls_from_moments(
        full_surface.yhat, full_surface.mspe, full_surface.yhat, survey_means
    )
    cfg.output.mkdir(parents=True, exist_ok=True)
    out = cfg.output / "rls.json"
    chainio.write_json(
        out,
        {
            "rls": {str(m): values[m] for m in sorted(values)},
            "draws": full_chain.num_draws,
            "cells": len(cells),
        },
    )
    print(f"rls written: {out}")
    for m in sorted(values):
        print(f"  RLS({m}) = {values[m]:.6g}")
    return EXIT_OK


def cmd_basis(cfg: RunConfig) -> int:
    structures = build_design_structures(cfg)
    out = cfg.output / "basis"
    out.mkdir(parents=True, exist_ok=True)
    basis = structures.basis
    for t in basis.times:
        chainio.write_csv(out / f"S_t{t:03d}.csv", None, basis.s[t])
        chainio.write_csv(out / f"eigvals_t{t:03d}.csv", None, basis.eigvals[t])
    chainio.write_json(out / "manifest.json", basis.provenance)
    print(f"basis written: {out}")
    return EXIT_OK


def cmd_prior(cfg: RunConfig) -> int:
    structures = build_structures(cfg)
    out = cfg.output / "prior"
    out.mkdir(parents=True, exist_ok=True)
    prior = structures.prior
    for t in prior.times:
        chainio.write_csv(out / f"Kstar_t{t:03d}.csv", None, prior.k_star[t])
        if t in prior.w_star:
            chainio.write_csv(out / f"Wstar_t{t:03d}.csv", None, prior.w_star[t])
    chainio.write_json(
        out / "manifest.json",
        {
            "form": prior.form,
            "pooled": prior.pooled,
            "lift_log": [[name, val] for name, val in prior.lift_log],
            "eps_log": [[name, val] for name, val in prior.eps_log],
            "innovation_ratio": {str(t): v for t, v in prior.innovation_ratio.items()},
        },
    )
    print(f"prior written: {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "fit":
            if args.chains < 1:
                raise ValidationError("--chains must be >= 1")
            return cmd_fit(cfg, chains=args.chains, trace=args.trace)
        if args.command == "predict":
            return cmd_predict(cfg, args.chain)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "rls":
            return cmd_rls(cfg, args.chain, [d.strip() for d in args.survey_chains.split(",")])
        if args.command == "basis":
            return cmd_basis(cfg)
        if args.command == "prior":
            return cmd_prior(cfg)
        raise ValidationError(f"unknown command {args.command!r}")
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ChainStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
