"""Correctness gates applied to every command's outputs.

Each gate returns a list of failure messages; an empty list means the output
passed. The gates parse the files the CLI wrote themselves, independent of
``arealdlm``'s own readers, so a bug in a reader cannot hide a bad chain.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

CHAIN_FILES = ("eta", "beta", "xi", "sigma_k2", "sigma_xi2")

# Recovery gate: the posterior-mean surface must track the simulated latent
# field. Loose enough that a correct sampler passes on any seed (the baseline
# seeds reach rmse/sd 0.34 at most), tight enough that any constant
# prediction, which scores rmse/sd >= 1, fails.
MIN_COVERAGE = 0.80  # share of cells with |yhat - y| <= COVER_SDS * sqrt(mspe)
COVER_SDS = 4.0
MAX_RMSE_RATIO = 0.5  # rmse(yhat - y) / sd(y)


def _parse_matrix(path: Path, ncols: int) -> tuple[int, list[str]]:
    """Row count of a chain CSV, with failures for bad shape or non-finite values."""
    failures = []
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        body = fh.read()
    got_cols = len(header.split(",")) if header else 0
    if got_cols != ncols:
        failures.append(f"{path.name}: header has {got_cols} columns, expected {ncols}")
    if body and not body.endswith("\n"):
        failures.append(f"{path.name}: last row is cut off")
    lines = body.splitlines()
    short = next((k for k, line in enumerate(lines, start=2) if line.count(",") != ncols - 1), None)
    if short is not None:
        failures.append(f"{path.name}:{short}: wrong number of fields, expected {ncols}")
    elif lines:
        try:
            values = np.array(",".join(lines).split(","), dtype=float)
        except ValueError:
            failures.append(f"{path.name}: unparsable value")
        else:
            if not np.isfinite(values).all():
                failures.append(f"{path.name}: non-finite value")
    return len(lines), failures


def check_chain(
    chain_dir: Path, iterations: int, burn_in: int, thin: int, n_observed: int
) -> list[str]:
    """The chain is complete (every iteration, every draw, every column) and finite."""
    manifest_path = chain_dir / "manifest.json"
    if not manifest_path.exists():
        return [f"{chain_dir.name}: no manifest.json"]
    manifest = json.loads(manifest_path.read_text())
    failures = []
    if manifest.get("completed_iterations") != iterations:
        failures.append(
            f"{chain_dir.name}: completed_iterations {manifest.get('completed_iterations')} "
            f"!= {iterations}"
        )
    draws = (iterations - burn_in + thin - 1) // thin
    if manifest.get("num_draws") != draws:
        failures.append(f"{chain_dir.name}: num_draws {manifest.get('num_draws')} != {draws}")
    if manifest.get("n") != n_observed:
        failures.append(f"{chain_dir.name}: n {manifest.get('n')} != {n_observed} observed cells")
    T, r, p = manifest.get("T", 0), manifest.get("r", 0), manifest.get("p", 0)
    ncols = {"eta": T * r, "beta": T * p, "xi": n_observed, "sigma_k2": 1, "sigma_xi2": T}
    for name in CHAIN_FILES:
        path = chain_dir / f"{name}.csv"
        if not path.exists():
            failures.append(f"{chain_dir.name}: {path.name} missing")
            continue
        rows, bad = _parse_matrix(path, ncols[name])
        failures.extend(f"{chain_dir.name}/{msg}" for msg in bad)
        if rows != draws:
            failures.append(f"{chain_dir.name}/{path.name}: {rows} rows, expected {draws}")
    return failures


def read_keyed_csv(path: Path, value_cols: tuple[str, ...]) -> dict[tuple[int, int, str], tuple]:
    """Rows keyed by (variable, time, unit) with the named columns as floats."""
    out = {}
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["variable"]), int(row["time"]), row["unit"].strip())
            out[key] = tuple(float(row[c]) for c in value_cols)
    return out


def _recovery(rows: dict, truth: dict) -> dict:
    """Coverage of the truth by yhat +- COVER_SDS posterior sd, and rmse / sd(y)."""
    ys = [truth[k][0] for k in rows]
    mean_y = sum(ys) / len(ys)
    sd_y = math.sqrt(sum((y - mean_y) ** 2 for y in ys) / len(ys))
    errors = [(rows[k][0] - truth[k][0], rows[k][1]) for k in rows]
    rmse = math.sqrt(sum(e * e for e, _ in errors) / len(errors))
    covered = sum(abs(e) <= COVER_SDS * math.sqrt(mspe) for e, mspe in errors)
    return {"coverage": covered / len(rows), "rmse_over_sd": rmse / sd_y}


def check_predictions(
    predictions: Path, covariate_keys: set, truth: dict[tuple[int, int, str], tuple]
) -> tuple[list[str], dict]:
    """One finite row per covariate row with mspe > 0, and loose recovery of the truth.

    Returns (failures, recovery statistics).
    """
    if not predictions.exists():
        return ["predictions.csv missing"], {}
    try:
        rows = read_keyed_csv(predictions, ("yhat", "mspe"))
    except (KeyError, ValueError) as exc:
        return [f"predictions.csv unreadable: {exc}"], {}
    with predictions.open(encoding="utf-8") as fh:
        n_lines = sum(1 for _ in fh) - 1
    if n_lines != len(covariate_keys) or set(rows) != covariate_keys:
        return [f"predictions.csv has {n_lines} rows for {len(covariate_keys)} covariate rows"], {}
    bad = [k for k, (yhat, mspe) in rows.items() if not (math.isfinite(yhat) and 0 < mspe < math.inf)]
    if bad:
        return [f"predictions.csv: {len(bad)} rows non-finite or mspe <= 0, e.g. {bad[0]}"], {}
    stats = _recovery(rows, truth)
    failures = []
    if stats["coverage"] < MIN_COVERAGE:
        failures.append(
            f"recovery: {stats['coverage']:.3f} of cells within {COVER_SDS} sd, need {MIN_COVERAGE}"
        )
    if stats["rmse_over_sd"] > MAX_RMSE_RATIO:
        failures.append(f"recovery: rmse / sd(y) = {stats['rmse_over_sd']:.4g} > {MAX_RMSE_RATIO}")
    return failures, stats
