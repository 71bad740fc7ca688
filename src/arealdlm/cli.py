"""Batch command-line front end.

Subcommands: validate | fit | predict | simulate | rls | basis | prior.
Exit codes: 0 success, 1 usage, 2 missing input, 3 validation failure,
4 chain/state error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import chainio, predict
from .config import RunConfig, load_config
from .data import AlignedData, load_observations
from .errors import ChainStateError, MissingInputError, ValidationError
from .pipeline import build_design_structures, build_structures, load_data
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


def _require_inputs(cfg: RunConfig, need_observations: bool = True) -> None:
    needed = [cfg.covariates, cfg.edges]
    if need_observations:
        needed.append(cfg.observations)
    for p in needed:
        if not p.exists():
            raise MissingInputError(f"input file not found: {p}")


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
    _require_inputs(cfg)
    structures = build_structures(cfg)
    obs, aligned = load_data(cfg, structures)
    design = cfg.design
    _warn_unobserved_times(aligned, design.T)
    report.update(
        {
            "units": len(structures.graph.units),
            "edges": len(structures.graph.edges),
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
    (cfg.output / "validation.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("validation passed")
    for key in ("units", "edges", "variables", "T", "p", "r", "n"):
        print(f"  {key}: {report[key]}")
    print(f"  report: {cfg.output / 'validation.json'}")
    return EXIT_OK


def cmd_fit(cfg: RunConfig, chains: int = 1, trace: list[str] | None = None) -> int:
    _require_inputs(cfg)
    structures = build_structures(cfg)
    obs, _ = load_data(cfg, structures)
    cfg.output.mkdir(parents=True, exist_ok=True)
    for i in range(chains):
        directory = cfg.output / f"chain{i}"
        chain = gibbs_run(
            obs,
            structures.design_set,
            structures.basis,
            structures.prior,
            cfg.hyper,
            iterations=cfg.iterations,
            burn_in=cfg.burn_in,
            thin=cfg.thin,
            seed=cfg.seed + i,
            writer=chainio.ChainWriter(directory),
        )
        for selector in trace or []:
            summary = predict.trace_summary(chain, selector)
            safe = selector.replace("[", "_").replace("]", "").replace(",", "_")
            predict.write_trace_csv(summary, directory / f"trace_{safe}.csv")
        print(f"chain written: {directory} ({chain.num_draws} draws)")
    return EXIT_OK


def cmd_predict(cfg: RunConfig, chain_dir: str | None) -> int:
    _require_inputs(cfg)
    directory = Path(chain_dir) if chain_dir else cfg.output / "chain0"
    if not (directory / "manifest.json").exists():
        raise ChainStateError(f"no fitted chain at {directory}")
    chain = chainio.read_chain(directory)
    structures = build_design_structures(cfg)
    _, aligned = load_data(cfg, structures)
    _warn_unobserved_times(aligned, cfg.design.T)
    surface = predict.posterior_y(
        chain,
        structures.design_set,
        structures.basis,
        aligned,
        transforms=cfg.transforms,
        rng=np.random.default_rng(cfg.seed + 1),
    )
    cfg.output.mkdir(parents=True, exist_ok=True)
    out = cfg.output / "predictions.csv"
    predict.write_predictions_csv(surface, out)
    print(f"predictions written: {out} ({len(surface.locations)} locations)")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.truth is None:
        raise ValidationError("simulate needs a [truth] section in the config")
    _require_inputs(cfg, need_observations=False)
    structures = build_structures(cfg)
    design_set = structures.design_set
    truth_cfg = cfg.truth

    mask: set[tuple[int, int, str]] = set()
    for unit in truth_cfg.missing_units:
        if unit not in structures.graph.units:
            raise ValidationError(f"[truth] missing_units: unknown unit {unit!r}")
        for t in range(1, cfg.design.T + 1):
            for ell, u in design_set.layout[t]:
                if structures.graph.units[u] == unit:
                    mask.add((ell, t, unit))
    if truth_cfg.missing_fraction > 0:
        mask_rng = np.random.default_rng(truth_cfg.missing_seed)
        for t in range(1, cfg.design.T + 1):
            for ell, u in design_set.layout[t]:
                if mask_rng.random() < truth_cfg.missing_fraction:
                    mask.add((ell, t, structures.graph.units[u]))

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

    # observation file on the raw scale of the declared transforms
    cfg.observations.parent.mkdir(parents=True, exist_ok=True)
    with cfg.observations.open("w", encoding="utf-8") as fh:
        fh.write("variable,time,unit,z,v\n")
        for o in truth.observations.observations:
            spec = cfg.transforms[o.variable]
            if spec.kind != "identity":
                raise ValidationError(
                    "simulate emits model-scale values; use identity transforms "
                    "in simulation configs"
                )
            fh.write(f"{o.variable},{o.time},{o.unit},{o.z:.17g},{o.v:.17g}\n")

    truth_dir = cfg.output / "truth"
    truth_dir.mkdir(parents=True, exist_ok=True)
    with (truth_dir / "truth_y.csv").open("w", encoding="utf-8") as fh:
        fh.write("variable,time,unit,y\n")
        for t in range(1, cfg.design.T + 1):
            for pos, (ell, u) in enumerate(design_set.layout[t]):
                fh.write(
                    f"{ell},{t},{structures.graph.units[u]},{truth.y[t][pos]:.17g}\n"
                )
    np.savetxt(truth_dir / "truth_eta.csv", truth.eta, fmt="%.17g", delimiter=",")
    (truth_dir / "truth_params.json").write_text(
        json.dumps(
            {
                "beta": np.asarray(truth_cfg.beta).tolist(),
                "sigma_k2": truth_cfg.sigma_k2,
                "sigma_xi2": truth_cfg.sigma_xi2,
                "v": {str(k): v for k, v in truth_cfg.v.items()},
                "seed": truth_cfg.seed,
                "masked_cells": sorted(f"{ell},{t},{u}" for ell, t, u in mask),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
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
    _require_inputs(cfg)
    directory = Path(chain_dir) if chain_dir else cfg.output / "chain0"
    for d in [directory] + [Path(d) for d in survey_chain_dirs]:
        if not (d / "manifest.json").exists():
            raise ChainStateError(f"no fitted chain at {d}")

    structures = build_design_structures(cfg)
    _, aligned_full = load_data(cfg, structures)

    # evaluation cells: variable-1 locations observed by survey 1
    survey1 = load_observations(
        cfg.rls_surveys[0],
        cfg.design,
        transforms=cfg.transforms,
        design_set=structures.design_set,
    )
    cells = sorted(
        (o.variable, o.time, o.unit) for o in survey1.observations if o.variable == 1
    )
    if not cells:
        raise ValidationError("survey 1 has no variable-1 observations to score")

    full_chain = chainio.read_chain(directory)
    rng = np.random.default_rng(cfg.seed + 1)
    full_surface = predict.posterior_y(
        full_chain,
        structures.design_set,
        structures.basis,
        aligned_full,
        locations=cells,
        rng=rng,
        keep_draws=True,
    )
    survey_means = {}
    for m, d in enumerate(survey_chain_dirs, start=1):
        chain_m = chainio.read_chain(Path(d))
        _, aligned_m = load_data(cfg, structures, observations_path=cfg.rls_surveys[m - 1])
        surface_m = predict.posterior_y(
            chain_m,
            structures.design_set,
            structures.basis,
            aligned_m,
            locations=cells,
            rng=np.random.default_rng(cfg.seed + 1 + m),
        )
        survey_means[m] = surface_m.yhat
    values = predict.rls(full_surface.draws, full_surface.yhat, survey_means)
    cfg.output.mkdir(parents=True, exist_ok=True)
    out = cfg.output / "rls.json"
    out.write_text(
        json.dumps(
            {
                "rls": {str(m): values[m] for m in sorted(values)},
                "draws": full_chain.num_draws,
                "cells": len(cells),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"rls written: {out}")
    for m in sorted(values):
        print(f"  RLS({m}) = {values[m]:.6g}")
    return EXIT_OK


def cmd_basis(cfg: RunConfig) -> int:
    _require_inputs(cfg, need_observations=False)
    structures = build_design_structures(cfg)
    out = cfg.output / "basis"
    out.mkdir(parents=True, exist_ok=True)
    basis = structures.basis
    for t in basis.times:
        np.savetxt(out / f"S_t{t:03d}.csv", basis.s[t], fmt="%.17g", delimiter=",")
        np.savetxt(out / f"eigvals_t{t:03d}.csv", basis.eigvals[t], fmt="%.17g", delimiter=",")
    (out / "manifest.json").write_text(
        json.dumps(basis.provenance, indent=2, sort_keys=True) + "\n"
    )
    print(f"basis written: {out}")
    return EXIT_OK


def cmd_prior(cfg: RunConfig) -> int:
    _require_inputs(cfg, need_observations=False)
    structures = build_structures(cfg)
    out = cfg.output / "prior"
    out.mkdir(parents=True, exist_ok=True)
    prior = structures.prior
    for t in prior.times:
        np.savetxt(out / f"Kstar_t{t:03d}.csv", prior.k_star[t], fmt="%.17g", delimiter=",")
        if t in prior.w_star:
            np.savetxt(out / f"Wstar_t{t:03d}.csv", prior.w_star[t], fmt="%.17g", delimiter=",")
    (out / "manifest.json").write_text(
        json.dumps(
            {
                "form": prior.form,
                "pooled": prior.pooled,
                "lift_log": [[name, val] for name, val in prior.lift_log],
                "eps_log": [[name, val] for name, val in prior.eps_log],
                "innovation_ratio": {str(t): v for t, v in prior.innovation_ratio.items()},
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
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
