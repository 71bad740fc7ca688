"""Chain directory persistence: manifest.json, a binary store and a CSV export per parameter.

Each parameter group of ``sampler.draw_shapes`` is stored one float64 row
per stored draw in ``<name>.npy``. ``sampler.gibbs_run`` holds the rows
stored since the last flush in a buffer and flushes each time the iterations
that fill it have run: the buffer holds ``ceil(FLUSH_EVERY / thin)`` rows, or
fewer where that many rows of the widest group would exceed
``sampler.CHUNK_BYTES``. ``ChainWriter.flush`` writes each ``.npy`` header
once with the final shape, appends those rows, then replaces the manifest
whole; its ``stored_draws`` counts the rows on disk, so an interrupted run
leaves a readable partial chain. The manifest gains ``num_draws`` once every
iteration has run; the ``.npy`` files are then standard files that
``np.load`` opens. A finished in-memory chain is written in one shot by
``ChainWriter(directory).finalize(chain)``.

``read_chain`` opens a chain directory: it checks the manifest and the
header and length of every store, and reads no draw. Its ``StoredChain``
then reads rows ``[start, stop)`` of a group, whole rows only, with one
``np.fromfile`` at an offset (not a memmap, whose pages would count toward
the resident set), the way ``sampler.PosteriorChain.read`` gives them from
memory. ``finalize`` returns the ``StoredChain`` it wrote.

``<name>.csv`` is a text export of the same rows, whose 17 significant
digits round-trip exactly. The first flush writes its header row; a second
process per writer (``export.py``, standard library only) appends the rows,
reading them back from the ``.npy`` store while the sampler keeps sweeping.
After each flush the writer sends it the new ``stored_draws``; it lets the
export fall at most one flush behind where a second core can run it, and
none on a single usable core, where the two processes would only take turns
on it (and thrash its caches). The sampler's BLAS runs one thread unless
the environment asks for more (``arealdlm/__init__.py``), so on two cores
the export process has the second core to itself. ``finalize`` (or
``close``) waits for the rest, so the CSVs are complete when ``finalize``
returns and a failed export is a ChainStateError. After an interruption
they hold at most the rows of the last flush. Identical runs give identical
bytes.

``fit`` also writes ``structures.npz`` once per run: the design (units,
edges, each t's layout of prediction rows and each X_t) and the basis (every
S_t and its eigenvalues), with a ``format_version`` and the digests of the
inputs they were built from. Each per-t array is one flat, time-major member
whose rows ``offsets`` splits by t (the eigenvalues are one row per t), so
the archive has the same members whatever T is. Each chain directory gets
``observations.npz``: the ``AlignedData`` it was fitted to, whose flat,
time-major ``obs_idx``, ``z`` and ``v`` are stored as they are; the
manifest's ``xi_offsets`` are their row ranges by t. ``predict`` and
``rls`` read these two files instead of parsing the input CSVs again or
solving the eigenproblems again. Both are written once, under a temporary
name and renamed; an archive of another format version is refused.

``write_json`` and ``write_csv`` write every other file a command emits;
``write_rows`` writes every CSV line, the chain exports' header rows
included, and ``csv_fields`` quotes text fields as it would.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import BasisSystem
from .data import AlignedData, ArealGraph, DesignSet, StudyDesign
from .errors import ChainStateError
from .export import FLOAT_FMT, float_line
from .sampler import PosteriorChain, _kept_draws, draw_shapes

# 3: a .npy store per parameter group, read instead of the CSVs; stored_draws
# 4: the design in structures.npz, which has a format_version too; observations.npz per chain
FORMAT_VERSION = 4
STRUCTURES_FILE = "structures.npz"
OBSERVATIONS_FILE = "observations.npz"
_DTYPE = np.dtype("<f8")


def _headers(chain: PosteriorChain) -> dict[str, list[str]]:
    """The column labels of each group's CSV export."""
    shapes = chain.shapes
    T, r = shapes["eta"]
    times = range(1, T + 1)
    blocks = sorted(chain.xi_offsets.items())
    return {
        "eta": [f"t{t}_k{k}" for t in times for k in range(r)],
        "xi": [f"t{t}_i{i}" for t, (lo, hi) in blocks for i in range(hi - lo)],
        "beta": [f"t{t}_j{j}" for t in times for j in range(shapes["beta"][1])],
        "sigma_k2": ["sigma_k2"],
        "sigma_xi2": [f"t{t}" for t in times],
    }


def _manifest(chain: PosteriorChain, stored: int, completed_iterations: int) -> dict:
    """Run metadata of ``chain`` with ``stored`` rows on disk after ``completed_iterations``."""
    manifest = {
        "format_version": FORMAT_VERSION,
        "seed": chain.seed,
        "iterations": chain.iterations,
        "burn_in": chain.burn_in,
        "thin": chain.thin,
        "xi_offsets": {str(t): list(v) for t, v in chain.xi_offsets.items()},
        **chain.meta,
        "completed_iterations": completed_iterations,
        "stored_draws": stored,
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


def write_rows(fh, rows, line: str | None = None) -> None:
    """Append ``rows`` to the open text file ``fh`` as CSV lines ending in ``\n``.

    A float array is streamed row by row (a 1-D array one value per line);
    other rows mix str, int, float and None, quoted only where needed. Floats
    carry 17 significant digits and None is an empty field. With ``line``, a
    %-format that ends in ``\n``, each row is written as ``line % row`` and
    its fields must already be quoted (``csv_fields``).
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim == 1:
            rows = rows[:, None]
        line = float_line(rows.shape[1])
        rows = (row.tolist() for row in rows)
    if line is not None:
        for row in rows:
            fh.write(line % tuple(row))
        return
    writer = csv.writer(fh, lineterminator="\n")
    for row in rows:
        writer.writerow(
            "" if v is None else FLOAT_FMT % v if isinstance(v, float) else v for v in row
        )


def csv_fields(texts) -> dict[str, str]:
    """Each distinct string of ``texts`` as one field of a line of ``write_rows``, quoted
    exactly where ``csv.writer`` quotes it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    fields = {}
    for text in texts:
        if text not in fields:
            writer.writerow(("", text))  # a lone empty field would be quoted; this one is not
            fields[text] = out.getvalue()[1:-1]
            out.seek(0)
            out.truncate()
    return fields


def write_csv(path: str | Path, header: list[str] | None, rows, line: str | None = None) -> None:
    """Write ``header`` (unless None) and ``rows`` (as ``write_rows``) under a temporary name,
    then rename."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    with partial.open("w", encoding="utf-8", newline="") as fh:
        if header is not None:
            write_rows(fh, [header])
        write_rows(fh, rows, line)
    os.replace(partial, path)


class ChainWriter:
    """Appends the stored rows of one chain to a chain directory.

    The first flush that stores rows starts the export process; ``close``
    (also on leaving a ``with`` block) waits for it.
    """

    def __init__(self, directory: str | Path, input_sha256: dict | None = None):
        """``input_sha256`` (``pipeline.InputDigests.record``) goes into the manifest."""
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.input_sha256 = input_sha256
        self._written = None  # rows on disk; None until the headers are written
        self._manifest = None  # as last written
        self._export = None  # the export process, between the first rows and close
        self._behind = 0  # flushes the export process has not yet confirmed
        self._lag = _export_lag()

    def __enter__(self) -> ChainWriter:
        return self

    def __exit__(self, exc_type, *_) -> None:
        try:
            self.close()
        except ChainStateError:
            if exc_type is None:
                raise

    def flush(self, chain: PosteriorChain, stored: int, completed_iterations: int) -> None:
        """Append rows [written, stored) of ``chain`` to the store and rewrite the manifest.

        ``chain`` holds at least those rows: the whole chain, or the window of
        ``sampler.gibbs_run`` that holds the rows stored since the last flush.
        The export process is then told how many rows are on disk.
        """
        shapes = chain.shapes
        if self._written is None:
            headers = _headers(chain)
            num_draws = _kept_draws(chain.iterations, chain.burn_in, chain.thin)
            for name, draw_shape in shapes.items():
                try:
                    with (self.directory / f"{name}.csv").open("w", encoding="utf-8",
                                                               newline="") as fh:
                        write_rows(fh, [headers[name]])
                except OSError as exc:
                    raise ChainStateError(
                        f"cannot write the chain CSV export of {self.directory}: {exc}"
                    ) from None
                shape = (num_draws, math.prod(draw_shape))
                with (self.directory / f"{name}.npy").open("wb") as fh:
                    np.lib.format.write_array_header_1_0(
                        fh, {"descr": _DTYPE.str, "fortran_order": False, "shape": shape}
                    )
            self._written = 0
        appended = stored > self._written
        if appended:
            for name in shapes:
                rows = chain.read(name, self._written, stored)
                with (self.directory / f"{name}.npy").open("ab") as fh:
                    fh.write(np.ascontiguousarray(rows, dtype=_DTYPE).data)
            self._written = stored
        self._manifest = _manifest(chain, self._written, completed_iterations)
        if self.input_sha256 is not None:
            self._manifest["input_sha256"] = self.input_sha256
        write_json(self.directory / "manifest.json", self._manifest)
        if appended:
            if self._export is None:
                columns = {name: math.prod(shape) for name, shape in shapes.items()}
                self._export = _start_export(self.directory, columns)
            self._send(stored)

    def _send(self, stored: int) -> None:
        """Tell the export process that ``stored`` rows are on disk.

        Then wait until it is at most ``_lag`` flushes behind. An export
        process that ends before its input does has failed, and ``close``
        raises its error.
        """
        try:
            self._export.stdin.write(b"%d\n" % stored)
            self._export.stdin.flush()
        except BrokenPipeError:
            self.close()
        self._behind += 1
        while self._behind > self._lag:
            if not self._export.stdout.readline():
                self.close()
            self._behind -= 1

    def finalize(self, chain: PosteriorChain) -> StoredChain:
        """Write every remaining row and the complete manifest, ``close``, and open the store."""
        self.flush(chain, chain.num_draws, chain.iterations)
        self.close()
        return _open_store(self.directory, self._manifest)

    def close(self) -> None:
        """Close the export process's input and wait until it has exported every row.

        A failed export is a ChainStateError naming the file.
        """
        export, self._export, self._behind = self._export, None, 0
        if export is None:
            return
        _, err = export.communicate()
        if export.returncode != 0:
            raise ChainStateError(
                err.decode(errors="replace").strip()
                or f"the chain CSV export of {self.directory} exited with status "
                f"{export.returncode}"
            )


def _export_lag() -> int:
    """How many flushes the CSV export may fall behind: 1 with a second usable CPU, else 0."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return 1 if cpus > 1 else 0


def _start_export(directory: Path, columns: dict[str, int]):
    """Start ``export.py`` on ``directory``, whose groups have ``columns`` values a row.

    ``-I -S``: the script imports the standard library only, so neither the
    environment nor site-packages are consulted. It runs in its own process
    group, so a Ctrl-C at the terminal interrupts the sampler alone.
    """
    import subprocess  # here only: commands that write no chain do not pay for the import

    script = Path(__file__).with_name("export.py")
    groups = [f"{name}={ncols}" for name, ncols in columns.items()]
    return subprocess.Popen(
        [sys.executable, "-I", "-S", str(script), str(directory), *groups],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        process_group=0,
    )


@dataclass(frozen=True)
class StoredChain:
    """A chain directory opened for reading: the manifest's metadata, no draws.

    ``read`` gives rows of the ``.npy`` stores as ``sampler.PosteriorChain.read``
    gives them from memory, so a reader holds only the block it asks for.
    ``num_draws`` counts the rows on disk (``stored_draws``); ``data_offsets``
    gives where each group's rows start in its store.
    """

    directory: Path
    shapes: dict[str, tuple[int, ...]]
    data_offsets: dict[str, int]
    num_draws: int
    xi_offsets: dict[int, tuple[int, int]]
    seed: int
    iterations: int
    burn_in: int
    thin: int
    meta: dict

    def read(self, name: str, start: int, stop: int):
        """Rows [start, stop) of group ``name``, each draw flattened, from one read of the file.

        A store that has become shorter since ``read_chain`` opened it is a
        ChainStateError naming the file.
        """
        if not 0 <= start <= stop <= self.num_draws:
            raise IndexError(f"rows [{start}, {stop}) are not in [0, {self.num_draws})")
        ncols = math.prod(self.shapes[name])
        path = self.directory / f"{name}.npy"
        first = self.data_offsets[name] + start * ncols * _DTYPE.itemsize
        count = (stop - start) * ncols
        try:
            out = np.fromfile(path, dtype=_DTYPE, count=count, offset=first)
        except OSError as exc:
            raise ChainStateError(f"cannot read the chain store {path}: {exc}") from None
        if out.size < count:
            raise ChainStateError(
                f"the chain store {path} is short: {count - out.size} of the values of rows "
                f"[{start}, {stop}) are missing"
            )
        return out.reshape(stop - start, ncols)


def _store_offset(path: Path, num_draws: int, draw_shape: tuple, stored: int) -> int:
    """Where the rows start in a ``.npy`` store of ``num_draws`` draws of ``draw_shape``.

    The header must match, and the file must hold ``stored`` rows.
    """
    cols = math.prod(draw_shape)
    try:
        with path.open("rb") as fh:
            version = np.lib.format.read_magic(fh)
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            offset = fh.tell()
            values = (os.fstat(fh.fileno()).st_size - offset) // _DTYPE.itemsize
    except (OSError, ValueError) as exc:
        raise ChainStateError(f"cannot read the chain store {path}: {exc}") from None
    header = (version, shape, fortran_order, dtype.str)
    expected = ((1, 0), (num_draws, cols), False, _DTYPE.str)
    if header != expected:
        raise ChainStateError(
            f"the chain store {path} has the .npy version, shape, Fortran order and dtype "
            f"{header}, where the manifest implies {expected}"
        )
    if values < stored * cols:
        raise ChainStateError(
            f"the chain store {path} is short: {values} of the {stored * cols} "
            f"values the manifest records"
        )
    return offset


def read_chain(directory: str | Path) -> StoredChain:
    """Open a (possibly partial) chain directory: its manifest and every ``.npy`` header.

    No draw is read until ``StoredChain.read`` asks for it. A missing or
    unreadable manifest, one of another format version, and a missing,
    mismatched or short store are each a ChainStateError.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ChainStateError(f"no chain manifest at {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
        version = manifest.get("format_version")
    except (ValueError, AttributeError) as exc:
        raise ChainStateError(
            f"cannot read the chain manifest at {manifest_path}: {type(exc).__name__} {exc}"
        ) from None
    if version != FORMAT_VERSION:
        raise ChainStateError(
            f"the chain at {directory} has format_version {version}, but this version "
            f"reads {FORMAT_VERSION}; run fit again"
        )
    return _open_store(directory, manifest)


def _open_store(directory: Path, manifest: dict) -> StoredChain:
    """The chain of ``directory`` whose manifest is ``manifest``, its stores' headers checked."""
    try:
        T, r, p = manifest["T"], manifest["r"], manifest["p"]
        xi_offsets = dict(sorted((int(t), tuple(v)) for t, v in manifest["xi_offsets"].items()))
        run = {k: manifest[k] for k in ("seed", "iterations", "burn_in", "thin")}
        num_draws = _kept_draws(run["iterations"], run["burn_in"], run["thin"])
        stored = int(manifest["stored_draws"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ChainStateError(
            f"cannot read the chain manifest at {directory / 'manifest.json'}: "
            f"{type(exc).__name__} {exc}"
        ) from None
    shapes = draw_shapes(T, r, p, sum(hi - lo for lo, hi in xi_offsets.values()))
    offsets = {name: _store_offset(directory / f"{name}.npy", num_draws, shape, stored)
               for name, shape in shapes.items()}
    meta = {
        k: manifest[k]
        for k in ("sweep_order", "move_types", "r", "p", "T", "n", "input_sha256")
        if k in manifest
    }
    return StoredChain(directory, shapes, offsets, stored, xi_offsets, meta=meta, **run)


def _write_archive(path: Path, members: dict) -> None:
    """Write ``members`` as one .npz archive, under a temporary name and renamed.

    A member is an array, or a list of arrays that agree in dtype and in all
    but their first dimension: those are written one after another as one
    array stacked along its first axis, with no stacked copy in memory. Every
    member carries one fixed timestamp (``np.savez`` stamps the current
    time), so equal members give equal bytes, and no reader sees a partial
    file.
    """
    partial = path.with_name(path.name + ".partial")
    with zipfile.ZipFile(partial, "w") as archive:
        for name, value in members.items():
            member = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(member, "w", force_zip64=True) as fh:
                if isinstance(value, np.ndarray):
                    np.lib.format.write_array(fh, value, allow_pickle=False)
                    continue
                first = value[0]
                if any(part.dtype != first.dtype or part.shape[1:] != first.shape[1:]
                       for part in value):
                    raise ValueError(f"the parts of {name} differ in dtype or shape")
                shape = (sum(len(part) for part in value), *first.shape[1:])
                np.lib.format.write_array_header_1_0(
                    fh, {"descr": first.dtype.str, "fortran_order": False, "shape": shape}
                )
                for part in value:
                    fh.write(np.ascontiguousarray(part).data)
    os.replace(partial, path)


def _read_archive(path: Path, what: str) -> dict[str, np.ndarray]:
    """Every member of the .npz archive at ``path``; an unreadable one is a ChainStateError
    naming ``what`` and the file.

    The file is opened here, not by ``np.load``, so it is closed also when
    the archive is cut short.
    """
    try:
        with path.open("rb") as fh, np.load(fh, allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ChainStateError(f"cannot read {what} at {path}: {exc}") from None


def write_structures(
    path: str | Path, design_set: DesignSet, basis: BasisSystem, inputs: dict
) -> None:
    """Write the design, the basis and the ``inputs`` record (JSON-able) as one .npz archive.

    ``layout`` holds the (variable, unit index) of every prediction row,
    ``x`` and ``s`` the rows of every X_t and S_t, time after time; time t
    has rows ``[offsets[t - 1], offsets[t])``. ``eigvals`` has one row per t.
    """
    times = range(1, design_set.design.T + 1)
    _write_archive(Path(path), {
        "format_version": np.array(FORMAT_VERSION),
        "r": np.array(basis.r),
        "inputs": np.array(json.dumps(inputs, sort_keys=True)),
        # json.dumps escapes to ASCII, so bytes hold it in a quarter of a str array
        "units": np.array(json.dumps(design_set.graph.units).encode()),
        "edges": design_set.graph.edge_array,
        "offsets": np.cumsum([0, *(design_set.N_t(t) for t in times)]),
        "layout": [np.array(design_set.layout[t], dtype=np.int64).reshape(-1, 2)
                   for t in times],
        "x": [design_set.matrices[t] for t in times],
        "s": [basis.s[t] for t in times],
        "eigvals": [basis.eigvals[t][None] for t in times],
    })


@dataclass(frozen=True)
class StoredStructures:
    """What ``write_structures`` stored: the basis, the design's arrays and the inputs record."""

    basis: BasisSystem
    inputs: dict
    units: tuple[str, ...]
    edges: np.ndarray
    offsets: np.ndarray
    layout: np.ndarray
    x: np.ndarray

    def design_set(self, design: StudyDesign) -> DesignSet:
        """The stored design over ``design``, as ``data.assemble_design`` built it.

        Each X_t is a view of the stored rows.
        """
        graph = ArealGraph(self.units, frozenset(map(tuple, self.edges.tolist())))
        layout, matrices = {}, {}
        for t in range(1, len(self.offsets)):
            lo, hi = self.offsets[t - 1], self.offsets[t]
            layout[t] = tuple(map(tuple, self.layout[lo:hi].tolist()))
            matrices[t] = self.x[lo:hi]
        return DesignSet(design, graph, layout, matrices)


def read_structures(path: str | Path) -> StoredStructures:
    """The design, the basis and the ``inputs`` record that ``write_structures`` stored.

    A missing or unreadable archive, and one of another format version
    (every archive written before the design was stored has none), are each
    a ChainStateError.
    """
    path = Path(path)
    if not path.exists():
        raise ChainStateError(f"no fitted structures at {path}; run fit first")
    arrays = _read_archive(path, "the fitted structures")
    version = arrays["format_version"].item() if "format_version" in arrays else None
    if version != FORMAT_VERSION:
        raise ChainStateError(
            f"the fitted structures at {path} have format_version {version}, but this "
            f"version reads {FORMAT_VERSION}; run fit again"
        )
    try:
        offsets = arrays["offsets"]
        times = range(1, len(offsets))
        s, eigvals = arrays["s"], arrays["eigvals"]
        basis = BasisSystem(
            int(arrays["r"]),
            {t: s[offsets[t - 1]:offsets[t]] for t in times},
            {t: eigvals[t - 1] for t in times},
        )
        return StoredStructures(
            basis,
            json.loads(str(arrays["inputs"])),
            tuple(json.loads(arrays["units"].item())),
            arrays["edges"],
            offsets,
            arrays["layout"],
            arrays["x"],
        )
    except (KeyError, ValueError, IndexError) as exc:
        raise ChainStateError(f"cannot read the fitted structures at {path}: {exc}") from None


def write_observations(directory: str | Path, aligned: AlignedData) -> None:
    """Store the observations a chain is fitted to in its directory: the flat, time-major
    ``obs_idx``, ``z`` and ``v`` of ``aligned``."""
    _write_archive(Path(directory) / OBSERVATIONS_FILE,
                   {"obs_idx": aligned.obs_idx, "z": aligned.z, "v": aligned.v})


def read_observations(chain: StoredChain) -> AlignedData:
    """The observations ``chain`` was fitted to, with its ``xi_offsets`` as their offsets.

    A missing or unreadable file, and one that does not hold the manifest's
    ``n`` cells, are each a ChainStateError naming the file.
    """
    path = chain.directory / OBSERVATIONS_FILE
    if not path.exists():
        raise ChainStateError(f"no stored observations at {path}; run fit again")
    arrays = _read_archive(path, "the stored observations")
    n = chain.meta.get("n")
    names = ("obs_idx", "z", "v")
    for name in names:
        if name not in arrays or arrays[name].shape != (n,):
            got = f"has shape {arrays[name].shape}" if name in arrays else "is missing"
            raise ChainStateError(
                f"the stored observations {path} do not fit the chain: {name} {got}, "
                f"where the manifest records n = {n}; run fit again"
            )
    return AlignedData(*(arrays[name] for name in names), offsets=chain.xi_offsets)
