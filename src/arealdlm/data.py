"""Study design, file ingestion, and variance-propagating transforms.

The study is defined over L variables, each observed on its own time window
inside 1..T, on areal units connected by an adjacency graph. Prediction
locations (variable, time, unit) come from the covariate file; observed
locations are a subset of them and carry a response value with a known
measurement-error variance.

All matrices use a fixed row ordering: variables ascending, then units by
their first-seen dense index. Ingestion is pure; every structure here is
immutable after construction.

Each input file is read once, as a stream of rows that are checked as they
are read and not kept: ``assemble_design`` reads the covariate file, then the
edge file over the units it found; ``load_observations`` reads the
observation file. A fault is reported at the first row that has one, so
faults come in file order, and a message names ``file:line``.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import MissingInputError, ValidationError


@dataclass(frozen=True)
class StudyDesign:
    """Dimensions of the study: variable count, time windows, covariate and basis rank."""

    num_variables: int
    windows: tuple[tuple[int, int], ...]  # per variable: (first, last) time, 1-based
    p: int
    r: int

    def __post_init__(self):
        if self.num_variables < 1 or len(self.windows) != self.num_variables:
            raise ValidationError("need one (first, last) window per variable")
        for ell, (lo, hi) in enumerate(self.windows, start=1):
            if lo > hi:
                raise ValidationError(f"variable {ell}: window {lo}..{hi} is empty")
        if min(lo for lo, _ in self.windows) != 1:
            raise ValidationError("earliest window must start at time 1")
        if self.p < 1:
            raise ValidationError("covariate dimension p must be >= 1")
        if self.r < 1:
            raise ValidationError("basis rank r must be >= 1")

    @property
    def T(self) -> int:
        return max(hi for _, hi in self.windows)

    def active_variables(self, t: int) -> list[int]:
        """1-based variables whose window contains t."""
        return [
            ell
            for ell, (lo, hi) in enumerate(self.windows, start=1)
            if lo <= t <= hi
        ]

    def in_window(self, variable: int, t: int) -> bool:
        if not 1 <= variable <= self.num_variables:
            return False
        lo, hi = self.windows[variable - 1]
        return lo <= t <= hi


@dataclass(frozen=True)
class ArealGraph:
    """Areal units and their symmetric adjacency."""

    units: tuple[str, ...]
    edges: frozenset[tuple[int, int]]  # (i, j) with i < j, dense unit indices

    def __post_init__(self):
        n = len(self.units)
        if len(set(self.units)) != n:
            raise ValidationError("duplicate unit identifiers")
        for i, j in self.edges:
            if i == j:
                raise ValidationError(f"self-loop on unit {self.units[i]!r}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError("edge endpoint is not a declared unit")
            if i > j:
                raise ValidationError("edges must be stored as (i, j) with i < j")

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a sorted E x 2 array of (i, j) unit indices.

        Sorted, so the order does not depend on how the edge set was built.
        """
        return np.array(sorted(self.edges), dtype=np.intp).reshape(-1, 2)

    def edge_index(self, unit_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) positions of the edges among the given units, one entry per edge."""
        pos = np.full(len(self.units), -1, dtype=np.intp)
        pos[unit_indices] = np.arange(len(unit_indices))
        i, j = pos[self.edge_array[:, 0]], pos[self.edge_array[:, 1]]
        keep = (i >= 0) & (j >= 0)
        return i[keep], j[keep]

    def adjacency(self) -> np.ndarray:
        """0/1 symmetric adjacency over all units."""
        return dense_adjacency(len(self.units), *self.edge_array.T)


def dense_adjacency(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """n x n 0/1 symmetric matrix with ones at (rows, cols) and (cols, rows)."""
    a = np.zeros((n, n))
    a[rows, cols] = 1.0
    a[cols, rows] = 1.0
    return a


@dataclass(frozen=True)
class Observation:
    variable: int
    time: int
    unit: str
    z: float
    v: float


@dataclass(frozen=True)
class TransformSpec:
    """Per-variable link applied to raw survey estimates and their variances."""

    kind: str  # identity | logit | log

    KINDS = ("identity", "logit", "log")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValidationError(f"unknown transform {self.kind!r}")

    def inverse(self, z: float | np.ndarray):
        if self.kind == "identity":
            return z
        if self.kind == "logit":
            return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))
        return np.exp(z)


def apply_transform(
    raw_value: float, raw_variance: float, spec: TransformSpec
) -> tuple[float, float]:
    """Map a raw estimate and variance to the model scale.

    First-order (delta method) variance propagation:
    logit: z = log(w/(1-w)), v = raw_variance / (w(1-w))^2
    log:   z = log(w),       v = raw_variance / w^2
    """
    w = float(raw_value)
    s = float(raw_variance)
    if spec.kind == "identity":
        return w, s
    if spec.kind == "logit":
        if not 0.0 < w < 1.0:
            raise ValidationError(f"logit transform needs a value in (0,1), got {w}")
        return math.log(w / (1.0 - w)), s / (w * (1.0 - w)) ** 2
    if not w > 0.0:
        raise ValidationError(f"log transform needs a positive value, got {w}")
    return math.log(w), s / w**2


@dataclass(frozen=True)
class ObservationSet:
    """Validated observations plus per-time counts."""

    design: StudyDesign
    observations: tuple[Observation, ...]

    @property
    def n(self) -> int:
        return len(self.observations)


def _open_csv(path: str | Path, expected_header: list[str]):
    """Yield the data rows of a CSV file as (1-based line number, fields).

    Header names may carry surrounding spaces. Blank lines are skipped, so
    the line numbers are read from the reader rather than counted. Each row
    is checked for its field count as it is read, and none is kept.
    """
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected_header:
            raise ValidationError(
                f"{path}: expected header {','.join(expected_header)}, "
                f"got {','.join(header or [])}"
            )
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(expected_header):
                raise ValidationError(
                    f"{path}:{reader.line_num}: expected {len(expected_header)} fields"
                )
            yield reader.line_num, fields


def _finite(text: str, where: str) -> float:
    """``text`` as a finite float, or a ValidationError located at ``where`` (file:line)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"{where}: {text!r} is not a finite number")
    return value


def _index(text: str, where: str) -> int:
    """``text`` as an integer index, or a ValidationError located at ``where``."""
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{where}: bad index {text!r}") from None


def load_observations(
    obs_file: str | Path,
    design: StudyDesign,
    transforms: dict[int, TransformSpec] | None = None,
    design_set: "DesignSet | None" = None,
) -> ObservationSet:
    """Read and validate observations.csv (header variable,time,unit,z,v).

    When ``transforms`` is given, each row's value/variance pair is pushed
    through the declared per-variable transform so the returned set is on the
    model scale. When ``design_set`` is given, every observed location must
    be a prediction location.
    """
    seen: set[tuple[int, int, str]] = set()
    obs: list[Observation] = []
    for k, (variable, time, unit, z, v) in _open_csv(
        obs_file, ["variable", "time", "unit", "z", "v"]
    ):
        where = f"{obs_file}:{k}"
        ell = _index(variable, where)
        t = _index(time, where)
        unit = unit.strip()
        z = _finite(z, where)
        v = _finite(v, where)
        if not design.in_window(ell, t):
            raise ValidationError(
                f"{where}: ({ell},{t}) outside the window for variable {ell}"
            )
        key = (ell, t, unit)
        if key in seen:
            raise ValidationError(f"{where}: duplicate observation {key}")
        seen.add(key)
        if transforms is not None:
            try:
                z, v = apply_transform(z, v, transforms.get(ell, TransformSpec("identity")))
            except ValidationError as exc:
                raise ValidationError(f"{where}: {exc}") from None
        if not v > 0.0:
            raise ValidationError(f"{where}: nonpositive variance for {key}")
        if not (np.isfinite(z) and np.isfinite(v)):
            raise ValidationError(f"{where}: non-finite value for {key}")
        if design_set is not None and key not in design_set.row_lookup:
            raise ValidationError(
                f"{where}: {key} is not a prediction location "
                "(unknown unit or missing covariate row)"
            )
        obs.append(Observation(ell, t, unit, z, v))
    return ObservationSet(design, tuple(obs))


def build_adjacency(edge_file: str | Path, units: list[str]) -> ArealGraph:
    """Read edges.csv (header unit_a,unit_b) into a symmetric, irreflexive graph."""
    index = {u: i for i, u in enumerate(units)}
    if len(index) != len(units):
        raise ValidationError("duplicate unit identifiers")
    edges: set[tuple[int, int]] = set()
    for k, (a, b) in _open_csv(edge_file, ["unit_a", "unit_b"]):
        a, b = a.strip(), b.strip()
        for u in (a, b):
            if u not in index:
                raise ValidationError(f"{edge_file}:{k}: unknown unit {u!r}")
        if a == b:
            raise ValidationError(f"{edge_file}:{k}: self-loop on unit {a!r}")
        i, j = sorted((index[a], index[b]))
        edges.add((i, j))
    return ArealGraph(tuple(units), frozenset(edges))


@dataclass(frozen=True)
class DesignSet:
    """Stacked per-time design matrices and the (variable, unit) row layout.

    ``layout[t]`` lists the prediction rows at time t as (variable, unit
    index) pairs in the canonical order; ``matrices[t]`` is the N_t x p
    covariate matrix over those rows. ``row_lookup``, built from ``layout``
    when first read, gives the row at t of each (variable, t, unit name).
    """

    design: StudyDesign
    graph: ArealGraph
    layout: dict[int, tuple[tuple[int, int], ...]]
    matrices: dict[int, np.ndarray]

    @cached_property
    def row_lookup(self) -> dict[tuple[int, int, str], int]:
        return {(ell, t, self.graph.units[u]): pos
                for t, rows in self.layout.items() for pos, (ell, u) in enumerate(rows)}

    def N_t(self, t: int) -> int:
        return len(self.layout[t])

    def edge_index(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) positions of the time-t edges, one entry per edge.

        Two rows are adjacent when they hold the same variable and their
        units share an edge; the pairs define the block-diagonal adjacency.
        """
        layout = np.asarray(self.layout[t], dtype=np.intp).reshape(-1, 2)
        rows, cols = [], []
        for ell in self.design.active_variables(t):
            (at,) = np.nonzero(layout[:, 0] == ell)
            i, j = self.graph.edge_index(layout[at, 1])
            rows.append(at[i])
            cols.append(at[j])
        empty = np.zeros(0, dtype=np.intp)
        return np.concatenate(rows or [empty]), np.concatenate(cols or [empty])


@dataclass(frozen=True)
class AlignedData:
    """The observed cells, flat and time-major, in the canonical prediction-row order.

    ``offsets[t]`` is the row range (start, stop) of time t; in it
    ``obs_idx`` indexes the observed time-t prediction rows, and ``z`` and
    ``v`` hold the response and its known variance in the same order.
    """

    obs_idx: np.ndarray
    z: np.ndarray
    v: np.ndarray
    offsets: dict[int, tuple[int, int]]

    def n_t(self, t: int) -> int:
        start, stop = self.offsets[t]
        return stop - start


def align_observations(design_set: DesignSet, obs_set: ObservationSet) -> AlignedData:
    """Sort observations by time, then by their prediction row at that time.

    An observation outside the prediction locations, or a second observation
    of one cell, is a ValidationError naming the cell.
    """
    cells = {}  # (t, row at t) -> observation
    for o in obs_set.observations:
        key = (o.variable, o.time, o.unit)
        row = design_set.row_lookup.get(key)
        if row is None:
            raise ValidationError(
                f"observation {key} is not a prediction location"
            )
        if (o.time, row) in cells:
            raise ValidationError(f"duplicate observation {key}")
        cells[(o.time, row)] = o
    order = sorted(cells)
    T = design_set.design.T
    bounds = np.searchsorted([t for t, _ in order], np.arange(1, T + 2)).tolist()
    return AlignedData(
        obs_idx=np.array([row for _, row in order], dtype=int),
        z=np.array([cells[cell].z for cell in order], dtype=float),
        v=np.array([cells[cell].v for cell in order], dtype=float),
        offsets={t: (bounds[t - 1], bounds[t]) for t in range(1, T + 1)},
    )


def _rank(mat: np.ndarray) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > mat.shape[0] * np.finfo(float).eps * s[0]))


def assemble_design(
    covariate_file: str | Path, design: StudyDesign, edge_file: str | Path
) -> DesignSet:
    """Read covariates.csv, then edges.csv, and build the stacked X_t with its checks.

    The covariate file defines the prediction locations, one row per
    (variable, time, unit) with p covariate values, and the units in
    first-seen order; the edge file is read over those units. Every X_t must
    have full column rank and contain an exact-ones intercept column.
    """
    header = ["variable", "time", "unit"] + [f"x{j}" for j in range(1, design.p + 1)]
    unit_index: dict[str, int] = {}
    row_of: dict[tuple[int, int, int], int] = {}  # (variable, time, unit index) -> file row
    units_at: dict[tuple[int, int], list[int]] = {}
    values = array("d")  # the covariate values, row after row in file order
    for k, fields in _open_csv(covariate_file, header):
        where = f"{covariate_file}:{k}"
        ell = _index(fields[0], where)
        t = _index(fields[1], where)
        unit = fields[2].strip()
        if not design.in_window(ell, t):
            raise ValidationError(
                f"{where}: ({ell},{t}) outside the window for variable {ell}"
            )
        u = unit_index.setdefault(unit, len(unit_index))
        if (ell, t, u) in row_of:
            raise ValidationError(f"{where}: duplicate covariate row {(ell, t, unit)}")
        values.extend([_finite(x, where) for x in fields[3:]])
        row_of[(ell, t, u)] = len(row_of)
        units_at.setdefault((ell, t), []).append(u)
    if not row_of:
        raise ValidationError(f"{covariate_file}: no covariate rows")
    graph = build_adjacency(edge_file, list(unit_index))

    x = np.frombuffer(values, dtype=float).reshape(-1, design.p)
    layout: dict[int, tuple[tuple[int, int], ...]] = {}
    matrices: dict[int, np.ndarray] = {}
    for t in range(1, design.T + 1):
        rows_t: list[tuple[int, int]] = []
        for ell in design.active_variables(t):
            units_here = sorted(units_at.get((ell, t), []))
            if not units_here:
                raise ValidationError(
                    f"missing covariate rows for variable {ell} at t={t} (inside its window)"
                )
            rows_t.extend((ell, u) for u in units_here)
        layout[t] = tuple(rows_t)
        x_t = x[[row_of[(ell, t, u)] for ell, u in rows_t]]
        if _rank(x_t) < design.p:
            raise ValidationError(f"design matrix X_t is rank-deficient at t={t}")
        if not np.any(np.all(x_t == 1.0, axis=0)):
            raise ValidationError(f"design matrix X_t at t={t} has no exact-ones intercept column")
        matrices[t] = x_t

    min_capacity = min(len(layout[t]) - design.p for t in layout)
    if design.r > min_capacity:
        raise ValidationError(
            f"basis rank r={design.r} exceeds min over t of (N_t - p) = {min_capacity}"
        )
    return DesignSet(design, graph, layout, matrices)
