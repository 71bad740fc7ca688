"""Check that two source trees produce the same CLI outputs, byte for byte.

Usage:
    python3 scripts/same_outputs.py OLD_SRC NEW_SRC [--work DIR]

OLD_SRC and NEW_SRC are ``src/`` directories (for example a checkout of the
parent commit and this one). Each case's inputs are written once and copied
into one directory per tree. Both trees then run ``simulate``, ``validate``,
``basis``, ``prior``, ``fit --chains 2`` (``--chains 1`` on ``wide``) and
``predict``, each in a fresh process with ``PYTHONPATH`` set to that tree.
``fit`` also writes the ``--trace`` files of ``TRACES``. On the ``project``
case both trees then split the simulated observations into two surveys by
unit (``SURVEY_1_UNITS`` and the rest, as ``tests/test_cli.py`` does), fit
each survey into ``out_s1`` and ``out_s2``, and run ``rls``. Both trees get
the caller's environment; a tree from before ``arealdlm`` defaulted to one
BLAS thread gives bytes that depend on the thread count, so compare such a
tree with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1.

Cases: the benchmark inputs of ``perfbench/run.py`` for ``profile`` and
``wide`` (seed 1), and the ``tests/test_cli.py`` project plain, with
``pooled = true``, with ``prior_form = direct`` and with a simulation mask
(``missing_units`` plus ``missing_fraction``).

Every output file (chains, trace CSVs, manifests, ``structures.npz``,
predictions, ``rls.json``, truth, ``basis/``, ``prior/``) is compared byte
for byte. Command logs are compared after the work directory is replaced by
a placeholder. The script lists each differing file, and each file that
only one tree wrote, and exits 1 on any difference or failed command. A
differing CSV file whose fields line up, or a differing ``.npy`` file of the
same shape, is listed with its largest |new - old| relative to the largest
|old| value in the file; a CSV file whose lines differ only in their
endings (``\n`` and ``\r\n``) is listed at delta 0. A differing ``.npz``
archive is compared member by member: the members only one tree wrote are
listed, and so is each common member that differs, with its delta. A
``--work`` directory is kept for inspection; the default temporary one is
removed.
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
TRACES = ("sigma_k2", "beta[1,0]", "eta[1,0]", "xi[1,0]")
SURVEY_1_UNITS = {"u0", "u1", "u2", "u3"}


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


def split_surveys(case: Path) -> list[tuple[str, list[str]]]:
    """Split ``case``'s simulated observations into two surveys by unit, for ``rls``.

    Writes ``s1.csv``, ``s2.csv`` and a config per survey, and adds an
    ``[rls]`` section to ``run.ini``; returns (log name, CLI arguments) of
    the survey fits and of ``rls``.
    """
    header, *rows = (case / "obs.csv").read_text(encoding="utf-8").splitlines()
    config = (case / "run.ini").read_text(encoding="utf-8")
    commands = []
    for m, keep in ((1, True), (2, False)):
        survey = [row for row in rows if (row.split(",")[2] in SURVEY_1_UNITS) == keep]
        (case / f"s{m}.csv").write_text("\n".join([header, *survey]) + "\n", encoding="utf-8")
        (case / f"run_s{m}.ini").write_text(
            config.replace("observations = obs.csv", f"observations = s{m}.csv"), encoding="utf-8"
        )
        commands.append((f"fit_s{m}", ["fit", "--config", f"run_s{m}.ini", "--output", f"out_s{m}"]))
    (case / "run.ini").write_text(config + "\n[rls]\nsurveys = s1.csv, s2.csv\n", encoding="utf-8")
    commands.append(("rls", ["rls", "--config", "run.ini",
                             "--survey-chains", "out_s1/chain0,out_s2/chain0"]))
    return commands


def run_tree(src: Path, inputs: Path, tree: Path, chains: dict[str, int]) -> list[str]:
    """Run every command of every case with ``src``; returns the failures."""
    env = dict(os.environ, PYTHONPATH=str(src))
    failures = []
    (tree / "logs").mkdir(parents=True)

    def run(case: str, name: str, args: list[str]) -> None:
        argv = [sys.executable, "-m", "arealdlm.cli", *args]
        with (tree / "logs" / f"{case}.{name}.log").open("w", encoding="utf-8") as log:
            code = subprocess.run(argv, cwd=tree / case, env=env, stdout=log,
                                  stderr=subprocess.STDOUT).returncode
        if code != 0:
            failures.append(f"{tree.name}/{case}: {name} exited {code}")

    for case, count in chains.items():
        shutil.copytree(inputs / case, tree / case)
        for command in COMMANDS:
            args = [command, "--config", "run.ini"]
            if command == "fit":
                args += ["--chains", str(count)]
                args += [arg for selector in TRACES for arg in ("--trace", selector)]
            run(case, command, args)
        if case == "project":
            for name, args in split_surveys(tree / case):
                run(case, name, args)
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


def _ratio(result: tuple[float, float] | str) -> str:
    if isinstance(result, str):
        return result
    delta, scale = result
    return f"max |delta| / max |old| = {delta / scale if scale else delta:.2e}"


def relative_delta(a: Path, b: Path) -> str:
    """``max |b - a| / max |a|`` over the values of two CSV or ``.npy`` files, or why not."""
    return _ratio(_npy_delta(a, b) if a.suffix == ".npy" else _csv_delta(a, b))


def npz_members(a: Path, b: Path) -> str:
    """The members of two ``.npz`` archives that only one holds or that differ."""
    import numpy as np

    with np.load(a, allow_pickle=False) as old, np.load(b, allow_pickle=False) as new:
        names_a, names_b = set(old.files), set(new.files)
        parts = [f"only in {tree}: {', '.join(sorted(names))}"
                 for tree, names in (("old", names_a - names_b), ("new", names_b - names_a))
                 if names]
        for name in sorted(names_a & names_b):
            x, y = old[name], new[name]
            if x.dtype != y.dtype or x.shape != y.shape:
                parts.append(f"{name} differs: {x.dtype}{x.shape} and {y.dtype}{y.shape}")
            elif x.tobytes() != y.tobytes():
                numeric = x.dtype.kind in "fiu"
                delta = (float(np.max(np.abs(y - x), initial=0.0)),
                         float(np.max(np.abs(x), initial=0.0))) if numeric else "text differs"
                parts.append(f"{name} differs ({_ratio(delta)})")
    return "; ".join(parts) or "members equal"


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
            if rel.suffix == ".npz":
                out.append(f"{rel} ({npz_members(a, b)})")
            elif rel.suffix in (".csv", ".npy"):
                out.append(f"{rel} ({relative_delta(a, b)})")
            else:
                out.append(str(rel))
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
