"""Shared builders for synthetic graphs, designs, and toy model structures."""

from __future__ import annotations

import numpy as np

from arealdlm.basis import build_basis_system
from arealdlm.chainio import read_chain
from arealdlm.data import (
    ArealGraph,
    DesignSet,
    Observation,
    ObservationSet,
    StudyDesign,
    dense_adjacency,
)
from arealdlm.errors import ValidationError
from arealdlm.linops import symmetrize
from arealdlm.prior import build_prior_structure


def random_connected_graph(n_units: int, extra_edges: int, seed: int) -> ArealGraph:
    """Spanning tree plus extra random edges over units u0..u{n-1}."""
    rng = np.random.default_rng(seed)
    units = tuple(f"u{i}" for i in range(n_units))
    edges = set()
    order = rng.permutation(n_units)
    for k in range(1, n_units):
        a = int(order[k])
        b = int(order[rng.integers(0, k)])
        edges.add((min(a, b), max(a, b)))
    attempts = 0
    while len(edges) < n_units - 1 + extra_edges and attempts < 50 * extra_edges + 50:
        a, b = rng.integers(0, n_units, size=2)
        attempts += 1
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return ArealGraph(units, frozenset(edges))


def cycle_graph(labels=("a", "b", "c", "d")) -> ArealGraph:
    n = len(labels)
    edges = frozenset(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    return ArealGraph(tuple(labels), edges)


def make_design_set(
    graph: ArealGraph,
    design: StudyDesign,
    seed: int = 0,
    time_varying: bool = False,
) -> DesignSet:
    """Random full-rank stacked design with an intercept column.

    Covariates are per-(variable, unit) draws; with ``time_varying`` a
    second draw is blended in with a time-dependent angle so the covariate
    column span (and hence the basis) genuinely changes over time.
    """
    rng = np.random.default_rng(seed)
    shape = (design.num_variables, len(graph.units), design.p - 1)
    base = rng.normal(size=shape)
    drift = rng.normal(size=shape)
    layout = {}
    matrices = {}
    for t in range(1, design.T + 1):
        rows = []
        for ell in design.active_variables(t):
            rows.extend((ell, u) for u in range(len(graph.units)))
        layout[t] = tuple(rows)
        x = np.ones((len(rows), design.p))
        theta = 0.5 * t / design.T if time_varying else 0.0
        for pos, (ell, u) in enumerate(rows):
            x[pos, 1:] = np.cos(theta) * base[ell - 1, u] + np.sin(theta) * drift[ell - 1, u]
        matrices[t] = x
    return DesignSet(design, graph, layout, matrices)


def gapped_two_variable_design(n_units: int, r: int, seed: int = 0) -> DesignSet:
    """L = 2 stacked design (p = 3, T = 2) with gaps and an isolated unit.

    The graph is a random connected graph over n_units - 1 units plus one
    unit without edges; at t = 2 variable 2 has no rows for a tenth of the
    connected units.
    """
    connected = random_connected_graph(n_units - 1, n_units, seed)
    graph = ArealGraph(connected.units + ("isolated",), connected.edges)
    design = StudyDesign(2, ((1, 2), (1, 2)), 3, r)
    rng = np.random.default_rng(seed + 1)
    dropped = set(rng.choice(n_units - 1, size=n_units // 10, replace=False).tolist())
    layout, matrices = {}, {}
    for t in (1, 2):
        rows = [
            (ell, u)
            for ell in (1, 2)
            for u in range(n_units)
            if not (t == 2 and ell == 2 and u in dropped)
        ]
        layout[t] = tuple(rows)
        matrices[t] = np.hstack([np.ones((len(rows), 1)), rng.normal(size=(len(rows), 2))])
    return DesignSet(design, graph, layout, matrices)


def mi_operator(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Dense (I - P_X) A (I - P_X), P_X the projector onto the columns of x.

    The N x N Moran operator whose leading eigenpairs the basis builders
    compute without forming it; the oracle of the basis tests.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    n = x.shape[0]
    if a.shape != (n, n):
        raise ValidationError(f"adjacency must be {n}x{n}, got {a.shape}")
    if not np.allclose(a, a.T):
        raise ValidationError("adjacency matrix must be symmetric")
    gram = x.T @ x
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv.size == 0 or sv[-1] <= x.shape[1] * np.finfo(float).eps * sv[0]:
        raise ValidationError("rank-deficient design")
    proj = x @ np.linalg.solve(gram, x.T)
    resid = np.eye(n) - proj
    return symmetrize(resid @ a @ resid)


def stacked_adjacency(design_set: DesignSet, t: int) -> np.ndarray:
    """Block-diagonal N_t x N_t adjacency over the time-t (variable, unit) rows."""
    return dense_adjacency(design_set.N_t(t), *design_set.edge_index(t))


def stacked_car_precision(design_set: DesignSet, t: int) -> np.ndarray:
    """Dense N_t x N_t Laplacian D - A of the time-t rows.

    The target whose middle S_t'(D - A)S_t the prior forms from the edge
    index; the oracle of the prior tests.
    """
    a = stacked_adjacency(design_set, t)
    return np.diag(a.sum(axis=1)) - a


def toy_structures(
    n_units: int = 8,
    L: int = 1,
    T: int = 3,
    p: int = 2,
    r: int = 3,
    seed: int = 0,
    time_varying: bool = False,
    extra_edges: int = 6,
):
    """Graph + design + basis + prior for a small synthetic problem."""
    graph = random_connected_graph(n_units, extra_edges, seed)
    design = StudyDesign(L, tuple((1, T) for _ in range(L)), p, r)
    design_set = make_design_set(graph, design, seed=seed + 1, time_varying=time_varying)
    basis = build_basis_system(design_set)
    prior = build_prior_structure(design_set, basis)
    return graph, design, design_set, basis, prior


def observations_from_values(
    design: StudyDesign, cells: list[tuple[int, int, str, float, float]]
) -> ObservationSet:
    return ObservationSet(
        design, tuple(Observation(ell, t, u, z, v) for ell, t, u, z, v in cells)
    )


def write_lines(path, header: str, lines: list[str]) -> None:
    path.write_text("\n".join([header] + lines) + "\n")


def every_draw(chain) -> dict[str, np.ndarray]:
    """Every row of each group of ``chain``, in memory or on disk, in the shapes of its draws."""
    return {name: chain.read(name, 0, chain.num_draws).reshape(chain.num_draws, *shape)
            for name, shape in chain.shapes.items()}


def assert_export_matches_store(directory, stored: int) -> None:
    """Each ``<name>.csv`` of a chain holds the first ``stored`` rows of its ``.npy`` store."""
    for name, rows in every_draw(read_chain(directory)).items():
        exported = np.loadtxt(directory / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)
        rows = rows[:stored].reshape(stored, -1)
        assert exported.shape == rows.shape
        assert exported.tobytes() == rows.tobytes()
