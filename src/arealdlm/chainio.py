"""Chain directory persistence: manifest.json plus per-parameter CSV matrices.

One CSV row per stored draw; floats are written with 17 significant digits so
values round-trip exactly and identical runs produce byte-identical files.
``ChainWriter.flush`` appends the rows a ``PosteriorChain`` has stored since
the last flush, straight from its draw arrays, and replaces the manifest
whole, so an interrupted run leaves a readable partial chain behind. The
manifest gains ``num_draws`` once every iteration has run. A finished
in-memory chain is written in one shot by
``ChainWriter(directory).finalize(chain)``.

``fit`` also writes ``structures.npz`` once per run: the basis (every S_t
and its eigenvalues) with the digests of the inputs it was built from, so
``predict`` and ``rls`` read it instead of solving the eigenproblems again.

``write_json`` writes every JSON file of a run: the chain manifests and
the reports of the commands.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np

from .basis import BasisSystem
from .errors import ChainStateError
from .sampler import PosteriorChain

# 2: the manifest records the sha256 digests of the fit's inputs
FORMAT_VERSION = 2
STRUCTURES_FILE = "structures.npz"
_FLOAT_FMT = "%.17g"

_FILES = ("eta", "beta", "xi", "sigma_k2", "sigma_xi2")


def _headers(chain: PosteriorChain) -> dict[str, list[str]]:
    _, T, r = chain.eta.shape
    p = chain.beta.shape[2]
    xi_cols = []
    for t in sorted(chain.xi_offsets):
        lo, hi = chain.xi_offsets[t]
        xi_cols.extend(f"t{t}_i{i}" for i in range(hi - lo))
    return {
        "eta": [f"t{t}_k{k}" for t in range(1, T + 1) for k in range(r)],
        "beta": [f"t{t}_j{j}" for t in range(1, T + 1) for j in range(p)],
        "xi": xi_cols,
        "sigma_k2": ["sigma_k2"],
        "sigma_xi2": [f"t{t}" for t in range(1, T + 1)],
    }


def _manifest(chain: PosteriorChain, completed_iterations: int) -> dict:
    """Run metadata of ``chain`` after ``completed_iterations`` iterations."""
    manifest = {
        "format_version": FORMAT_VERSION,
        "seed": chain.seed,
        "iterations": chain.iterations,
        "burn_in": chain.burn_in,
        "thin": chain.thin,
        "xi_offsets": {str(t): list(v) for t, v in chain.xi_offsets.items()},
        **chain.meta,
        "completed_iterations": completed_iterations,
    }
    if completed_iterations == chain.iterations:
        manifest["num_draws"] = chain.num_draws
    return manifest


def write_json(path: str | Path, value) -> None:
    """Write ``value`` as indented JSON with sorted keys, under a temporary name and renamed.

    Equal values give equal bytes, and no reader sees a partial file.
    """
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    partial.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(partial, path)


class ChainWriter:
    """Appends the stored rows of one chain to a chain directory."""

    def __init__(self, directory: str | Path, input_sha256: dict | None = None):
        """``input_sha256`` (``pipeline.InputDigests.record``) goes into the manifest."""
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.input_sha256 = input_sha256
        self._written = None  # rows on disk; None until the headers are written

    def flush(self, chain: PosteriorChain, stored: int, completed_iterations: int) -> None:
        """Append rows [written, stored) of ``chain`` and rewrite the manifest."""
        if self._written is None:
            for name, header in _headers(chain).items():
                path = self.directory / f"{name}.csv"
                path.write_text(",".join(header) + "\n", encoding="utf-8")
            self._written = 0
        if stored > self._written:
            for name in _FILES:
                rows = getattr(chain, name)[self._written : stored]
                with (self.directory / f"{name}.csv").open("a", encoding="utf-8") as fh:
                    np.savetxt(fh, rows.reshape(len(rows), -1), fmt=_FLOAT_FMT, delimiter=",")
            self._written = stored
        manifest = _manifest(chain, completed_iterations)
        if self.input_sha256 is not None:
            manifest["input_sha256"] = self.input_sha256
        write_json(self.directory / "manifest.json", manifest)

    def finalize(self, chain: PosteriorChain) -> None:
        """Write every remaining row and the complete manifest."""
        self.flush(chain, chain.num_draws, chain.iterations)


def _load_csv(path: Path, allow_empty_cols: bool) -> np.ndarray:
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip()
        ncols = len(header.split(",")) if header else 0
        if ncols == 0 and allow_empty_cols:
            return np.zeros((0, 0))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = np.zeros((0, ncols))
    return data


def read_chain(directory: str | Path) -> PosteriorChain:
    """Load a (possibly partial) chain directory back into memory.

    A missing or unreadable manifest, or one of another format version, is a
    ChainStateError.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ChainStateError(f"no chain manifest at {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise ChainStateError(
                f"the chain at {directory} has format_version {version}, but this version "
                f"reads {FORMAT_VERSION}; run fit again"
            )
        T, r, p = manifest["T"], manifest["r"], manifest["p"]
        xi_offsets = {int(t): tuple(v) for t, v in manifest["xi_offsets"].items()}
        run = {k: manifest[k] for k in ("seed", "iterations", "burn_in", "thin")}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ChainStateError(
            f"cannot read the chain manifest at {manifest_path}: {type(exc).__name__} {exc}"
        ) from None
    try:
        eta = _load_csv(directory / "eta.csv", False)
        beta = _load_csv(directory / "beta.csv", False)
        xi = _load_csv(directory / "xi.csv", True)
        sigma_k2 = _load_csv(directory / "sigma_k2.csv", False)
        sigma_xi2 = _load_csv(directory / "sigma_xi2.csv", False)
    except FileNotFoundError as exc:
        raise ChainStateError(f"chain directory {directory} is incomplete: {exc}") from None
    j = min(len(eta), len(beta), len(xi) if xi.shape[1] else len(eta), len(sigma_k2), len(sigma_xi2))
    n = sum(hi - lo for lo, hi in xi_offsets.values())
    meta = {
        k: manifest[k]
        for k in ("sweep_order", "move_types", "r", "p", "T", "n", "input_sha256")
        if k in manifest
    }
    return PosteriorChain(
        eta=eta[:j].reshape(j, T, r),
        beta=beta[:j].reshape(j, T, p),
        xi=xi[:j].reshape(j, n) if n else np.zeros((j, 0)),
        sigma_k2=sigma_k2[:j, 0],
        sigma_xi2=sigma_xi2[:j].reshape(j, T),
        xi_offsets=xi_offsets,
        meta=meta,
        **run,
    )


def write_structures(path: str | Path, basis: BasisSystem, inputs: dict) -> None:
    """Write the basis and the ``inputs`` record (JSON-able) as one .npz archive.

    Every member carries one fixed timestamp (``np.savez`` stamps the current
    time), so equal structures give equal bytes. The archive is written under
    a temporary name and renamed, so no reader sees a partial file.
    """
    path = Path(path)
    arrays = {"r": np.array(basis.r), "inputs": np.array(json.dumps(inputs, sort_keys=True))}
    for t in basis.times:
        arrays[f"s_t{t:03d}"] = basis.s[t]
        arrays[f"eigvals_t{t:03d}"] = basis.eigvals[t]
    partial = path.with_name(path.name + ".partial")
    with zipfile.ZipFile(partial, "w") as archive:
        for name, array in arrays.items():
            member = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(member, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)
    os.replace(partial, path)


def read_structures(path: str | Path) -> tuple[BasisSystem, dict]:
    """The basis and the ``inputs`` record that ``write_structures`` stored."""
    path = Path(path)
    if not path.exists():
        raise ChainStateError(f"no fitted structures at {path}; run fit first")
    try:
        with np.load(path, allow_pickle=False) as archive:
            inputs = json.loads(str(archive["inputs"]))
            times = sorted(int(name[3:]) for name in archive.files if name.startswith("s_t"))
            s = {t: archive[f"s_t{t:03d}"] for t in times}
            eigvals = {t: archive[f"eigvals_t{t:03d}"] for t in times}
            r = int(archive["r"])
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ChainStateError(f"cannot read the fitted structures at {path}: {exc}") from None
    return BasisSystem(r, s, eigvals), inputs
