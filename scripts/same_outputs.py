"""Check that two source trees produce the same CLI outputs, byte for byte.

Usage:
    python3 scripts/same_outputs.py OLD_SRC NEW_SRC [--work DIR]

OLD_SRC and NEW_SRC are ``src/`` directories (for example a checkout of the
parent commit and this one). Each case's inputs are written once and copied
into one directory per tree. Both trees then run ``simulate``, ``validate``,
``basis``, ``prior``, ``fit --chains 2`` (``--chains 1`` on ``wide``) and
``predict`` in a fresh process with ``PYTHONPATH`` set to that tree. ``fit``
also writes the ``--trace`` files of ``TRACES``. Both trees get the caller's
environment; a tree from before ``arealdlm`` defaulted to one BLAS thread
gives bytes that depend on the thread count, so compare such a tree with
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1.

Cases: the benchmark inputs of ``perfbench/run.py`` for ``profile`` and
``wide`` (seed 1), and the ``tests/test_cli.py`` project plain, with
``pooled = true``, with ``prior_form = direct`` and with a simulation mask
(``missing_units`` plus ``missing_fraction``).

Every output file (chains, trace CSVs, manifests, predictions, truth,
``basis/``, ``prior/``) is compared byte for byte. Command logs are compared after the
work directory is replaced by a placeholder. The script lists each differing
file and exits 1 on any difference or failed command. A differing CSV file
whose fields line up, or a differing ``.npy`` file of the same shape, is
listed with its largest |new - old| relative to the largest |old| value in
the file; a CSV file whose lines differ only in their endings (``\n`` and
``\r\n``) is listed at delta 0. A ``--work`` directory is kept for inspection; the default
temporary one is removed.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

COMMANDS = ("simulate", "validate", "basis", "prior", "fit", "predict")
TRACES = ("sigma_k2", "beta[1,0]", "eta[1,0]")


def write_cases(inputs: Path, new_src: Path) -> dict[str, int]:
    """Write each case's inputs under ``inputs``; returns case -> chain count."""
    sys.path[:0] = [str(new_src), str(REPO), str(REPO / "tests")]
    from perfbench.run import WORKLOADS, write_inputs
    from test_cli import write_project

    chains = {}
    for name, count in (("profile", 2), ("wide", 1)):
        (inputs / name).mkdir()
        write_inputs(WORKLOADS[name], 1, inputs / name)
        chains[name] = count
    masked = "missing_units = u0\nmissing_fraction = 0.3\nmissing_seed = 4"
    for name, model, truth in (("project", "", ""), ("pooled", "pooled = true", ""),
                               ("direct", "prior_form = direct", ""), ("masked", "", masked)):
        (inputs / name).mkdir()
        write_project(inputs / name, model_extra=model, truth_extra=truth)
        chains[name] = 2
    return chains


def run_tree(src: Path, inputs: Path, tree: Path, chains: dict[str, int]) -> list[str]:
    """Run every command of every case with ``src``; returns the failures."""
    env = dict(os.environ, PYTHONPATH=str(src))
    failures = []
    (tree / "logs").mkdir(parents=True)
    for case, count in chains.items():
        shutil.copytree(inputs / case, tree / case)
        for command in COMMANDS:
            argv = [sys.executable, "-m", "arealdlm.cli", command, "--config", "run.ini"]
            if command == "fit":
                argv += ["--chains", str(count)]
                argv += [arg for selector in TRACES for arg in ("--trace", selector)]
            with (tree / "logs" / f"{case}.{command}.log").open("w", encoding="utf-8") as log:
                code = subprocess.run(argv, cwd=tree / case, env=env, stdout=log,
                                      stderr=subprocess.STDOUT).returncode
            if code != 0:
                failures.append(f"{tree.name}/{case}: {command} exited {code}")
    return failures


def _npy_delta(a: Path, b: Path) -> tuple[float, float] | str:
    """(max |b - a|, max |a|) of two ``.npy`` arrays, or why not."""
    import numpy as np

    try:
        old, new = np.load(a), np.load(b)
    except ValueError as exc:
        return f"unreadable .npy: {exc}"
    if old.shape != new.shape:
        return f"shapes differ: {old.shape} and {new.shape}"
    return float(np.max(np.abs(new - old), initial=0.0)), float(np.max(np.abs(old), initial=0.0))


def _csv_delta(a: Path, b: Path) -> tuple[float, float] | str:
    """(max |b - a|, max |a|) over the numeric fields of two CSV files, or why not.

    Fields are split by the ``csv`` module, so quoted text lines up; files
    that differ only in their line endings read as delta 0.
    """
    with a.open(newline="", encoding="utf-8") as fa, b.open(newline="", encoding="utf-8") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if len(rows_a) != len(rows_b):
        return "row counts differ"
    delta, scale = 0.0, 0.0
    for fields_a, fields_b in zip(rows_a, rows_b):
        if len(fields_a) != len(fields_b):
            return "field counts differ"
        for x, y in zip(fields_a, fields_b):
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                if x != y:
                    return "text differs"
                continue
            delta, scale = max(delta, abs(fy - fx)), max(scale, abs(fx))
    return delta, scale


def relative_delta(a: Path, b: Path) -> str:
    """``max |b - a| / max |a|`` over the values of two CSV or ``.npy`` files, or why not."""
    result = _npy_delta(a, b) if a.suffix == ".npy" else _csv_delta(a, b)
    if isinstance(result, str):
        return result
    delta, scale = result
    return f"max |delta| / max |old| = {delta / scale if scale else delta:.2e}"


def differing_files(old: Path, new: Path) -> list[str]:
    """Relative paths present in only one tree or with different bytes."""
    out = []
    names = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    names |= {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    for rel in sorted(names):
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            out.append(f"{rel} (only in {'old' if a.is_file() else 'new'})")
        elif rel.parts[0] == "logs":
            if a.read_text().replace(str(old), "<work>") != b.read_text().replace(str(new), "<work>"):
                out.append(str(rel))
        elif not filecmp.cmp(a, b, shallow=False):
            numeric = rel.suffix in (".csv", ".npy")
            out.append(f"{rel} ({relative_delta(a, b)})" if numeric else str(rel))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="new directory for inputs and outputs, kept afterwards "
                             "(default: a temporary one, removed)")
    opts = parser.parse_args(argv)
    old_src, new_src = opts.old_src.resolve(), opts.new_src.resolve()
    work = opts.work.resolve() if opts.work else Path(tempfile.mkdtemp(prefix="same_outputs_"))
    work.mkdir(parents=True, exist_ok=True)
    try:
        (work / "inputs").mkdir()
        chains = write_cases(work / "inputs", new_src)
        failures = run_tree(old_src, work / "inputs", work / "old", chains)
        failures += run_tree(new_src, work / "inputs", work / "new", chains)
        diffs = differing_files(work / "old", work / "new")
        for line in failures:
            print(f"FAILED  {line}")
        for rel in diffs:
            print(f"DIFFERS {rel}")
        total = sum(1 for p in (work / "new").rglob("*") if p.is_file())
        print(f"{len(diffs)} of {total} files differ; {len(failures)} failed commands")
        return 1 if diffs or failures else 0
    finally:
        if opts.work:
            print(f"work directory: {work}")
        else:
            shutil.rmtree(work)


if __name__ == "__main__":
    sys.exit(main())
