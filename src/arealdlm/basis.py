"""Moran's I operator and the reduced-rank spatial basis.

The operator projects the adjacency structure onto the orthogonal complement
of the covariate column space; its leading eigenvectors give spatial basis
functions that cannot be confounded with the fixed effects. Because
S_t' X_t = 0, the covariate image in coefficient space is empty and the
paper's orthonormal transition matrix M_t = eig(I_r - proj(S_t' X_t)) is I_r:
the latent coefficients follow a random walk, eta_t = eta_{t-1} + w_t.

Two eigensolvers give the same leading eigenpairs: a dense eigh on the
complement of the design (all N_t - p pairs, O(N_t^3)) for small N_t, and a
matrix-free Lanczos solve through scipy for large N_t, which touches only
the sparse adjacency and a thin QR of X_t. scipy is imported only there.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import DesignSet, dense_adjacency
from .errors import ValidationError
from .linops import CLUSTER_GAP, order_eigh_descending, symmetrize

log = logging.getLogger(__name__)

# Complement dimension N_t - p from which the leading eigenpairs come from
# Lanczos instead of a dense eigh. Per time point Lanczos is already faster
# from N_t ~ 300, but it costs the scipy import once (~0.3 s, ~33 MB peak
# RSS), which small problems should not pay.
LANCZOS_MIN_DIM = 500


def _complement_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of col(x)."""
    u, s, _ = np.linalg.svd(x, full_matrices=True)
    rank = int(np.sum(s > x.shape[0] * np.finfo(float).eps * (s[0] if s.size else 0.0)))
    return u[:, rank:]


def _check_rank(r: int, max_rank: int, n: int) -> None:
    if not 1 <= r <= max_rank:
        raise ValidationError(
            f"rank r={r} not admissible; max admissible rank is {max_rank} "
            f"(N={n} minus rank of the design)"
        )


def _dense_pairs(
    x: np.ndarray, a: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Leading r+1 eigenpairs of the MI operator on the complement of col(x), by dense eigh.

    Returns r pairs when the complement of col(x) has dimension r.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    comp = _complement_basis(x)
    _check_rank(r, comp.shape[1], x.shape[0])
    reduced = symmetrize(comp.T @ a @ comp)
    values, vectors = np.linalg.eigh(reduced)
    lifted = comp @ vectors
    values, lifted = order_eigh_descending(values, lifted)
    return values[: r + 1], lifted[:, : r + 1]


def mi_basis(
    x: np.ndarray, a: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """First r eigenvectors of the MI operator, largest eigenvalues first.

    The eigenproblem is solved on the orthogonal complement of col(x), which
    yields exact eigenpairs of the operator while excluding its structural
    null directions inside the covariate span; retained columns are therefore
    orthogonal to x at machine precision. Signs follow the
    first-significant-entry-positive convention and degenerate clusters are
    ordered lexicographically.
    """
    values, vectors = _dense_pairs(x, a, r)
    return vectors[:, :r], values[:r]


def _lanczos_ncv(k: int, n: int) -> int:
    """Lanczos basis size for k wanted eigenpairs of an n x n operator."""
    return min(n, max(2 * k + 1, 20))


def _use_lanczos(n: int, p: int, r: int) -> bool:
    """Whether the (r+1)-pair solve at N_t = n goes to Lanczos rather than eigh."""
    dim = n - p
    return dim >= LANCZOS_MIN_DIM and 2 * _lanczos_ncv(r + 1, n) <= dim


def _lanczos_pairs(
    x: np.ndarray, rows: np.ndarray, cols: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The pairs of ``_dense_pairs`` by implicitly restarted Lanczos (ARPACK).

    ``rows``/``cols`` list each edge of the N x N 0/1 adjacency once. The
    solve runs on B = (I - QQ')A(I - QQ') - c QQ' with Q a thin QR of x and
    c = 1 + max degree >= 1 + ||A||_2: B is the MI operator on the
    complement of col(x) and -c on col(x), so its top eigenpairs are those of
    the complement, at O(N p + edges) per product. A rank-deficient x is
    refused rather than deflated. The start vector and the generator for any
    restart are seeded, so every process gets the same bits. Returns None
    when ARPACK does not converge.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    x = np.asarray(x, dtype=float)
    n, p = x.shape
    q, upper = np.linalg.qr(x)
    sv = np.linalg.svd(upper, compute_uv=False)
    if sv.size == 0 or sv[-1] <= n * np.finfo(float).eps * sv[0]:
        raise ValidationError("rank-deficient design")
    _check_rank(r, n - p, n)
    both_ways = (np.concatenate([rows, cols]), np.concatenate([cols, rows]))
    a = csr_matrix((np.ones(both_ways[0].size), both_ways), shape=(n, n))
    shift = 1.0 + float(np.max(np.diff(a.indptr), initial=0))

    def matvec(v: np.ndarray) -> np.ndarray:
        v = v.ravel()
        qv = q.T @ v
        w = a @ (v - q @ qv)
        return w - q @ (q.T @ w) - shift * (q @ qv)

    k = min(r + 1, n - p)
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n)
    v0 -= q @ (q.T @ v0)
    try:
        values, vectors = eigsh(
            LinearOperator((n, n), matvec=matvec, dtype=float),
            k=k, which="LA", tol=0, v0=v0, ncv=_lanczos_ncv(k, n), rng=rng,
        )
    except ArpackNoConvergence:
        return None
    return order_eigh_descending(values, vectors)


@dataclass(frozen=True)
class BasisSystem:
    """Per-time basis matrices and their eigenvalues.

    ``s[t]`` is N_t x r with orthonormal columns orthogonal to the design.
    """

    r: int
    s: dict[int, np.ndarray]
    eigvals: dict[int, np.ndarray]
    provenance: dict = field(default_factory=dict)

    @property
    def times(self) -> list[int]:
        return sorted(self.s)


def build_basis_system(design_set: DesignSet) -> BasisSystem:
    """Construct the rank ``design.r`` basis for every time point.

    Each t takes the dense eigensolver below ``LANCZOS_MIN_DIM`` complement
    dimensions (or when r is not well below N_t - p) and Lanczos above; a
    Lanczos solve that does not converge falls back to the dense one. One
    warning per build names the times whose r-th and (r+1)-th eigenvalues
    are closer than ``CLUSTER_GAP``: there the basis is not unique.
    """
    design = design_set.design
    r = design.r
    s: dict[int, np.ndarray] = {}
    eigvals: dict[int, np.ndarray] = {}
    solver: dict[int, str] = {}
    straddled: list[int] = []
    for t in range(1, design.T + 1):
        x_t = design_set.matrices[t]
        edges = design_set.edge_index(t)
        pairs = None
        if _use_lanczos(*x_t.shape, r):
            pairs = _lanczos_pairs(x_t, *edges, r)
            if pairs is None:
                log.warning("Lanczos did not converge at t=%d; using the dense eigensolver", t)
        solver[t] = "dense" if pairs is None else "lanczos"
        if pairs is None:
            pairs = _dense_pairs(x_t, dense_adjacency(x_t.shape[0], *edges), r)
        values, vectors = pairs
        if values.size > r and values[r - 1] - values[r] < CLUSTER_GAP:
            straddled.append(t)
        # a contiguous copy, so S_t does not keep the solver's eigenvectors alive
        s[t], eigvals[t] = np.ascontiguousarray(vectors[:, :r]), values[:r]
    if straddled:
        log.warning(
            "eigenvalues %d and %d coincide at t=%s: a degenerate cluster "
            "straddles rank r, so the basis is not unique",
            r, r + 1, ",".join(map(str, straddled)),
        )
    provenance = {
        "r": r,
        "ordering": "eigenvalues descending; degenerate clusters lexicographic",
        "sign_convention": "first entry with |entry| > 1e-12 positive",
        "solver": solver,
    }
    return BasisSystem(r, s, eigvals, provenance)


def confounding_report(basis: BasisSystem, x: dict[int, np.ndarray]) -> float:
    """Max over t of ||S_t' X_t||_inf: how far the basis leaks into the design."""
    max_sx = 0.0
    for t in basis.times:
        psi = basis.s[t].T @ x[t]
        if psi.size:
            max_sx = max(max_sx, float(np.max(np.abs(psi))))
    return max_sx
