"""Moran's I operator and the reduced-rank spatial basis.

The operator projects the adjacency structure onto the orthogonal complement
of the covariate column space; its leading eigenvectors give spatial basis
functions that cannot be confounded with the fixed effects. Because
S_t' X_t = 0, the covariate image in coefficient space is empty and the
paper's orthonormal transition matrix M_t = eig(I_r - proj(S_t' X_t)) is I_r:
the latent coefficients follow a random walk, eta_t = eta_{t-1} + w_t.

Two eigensolvers give the same leading eigenpairs: a dense eigh on the
complement of the design (all N_t - p pairs, O(N_t^3)) for small N_t, and a
matrix-free thick-restart Lanczos solve in numpy for large N_t, which
touches only the edge list and a thin QR of X_t.
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
# Lanczos instead of a dense eigh. On random graphs with 1.2 extra edges per
# unit (2-core Xeon, p = 3) the two cost the same at N_t ~ 300 for r = 20 and
# N_t ~ 400 for r = 30; at N_t = 500 Lanczos takes about half the time of
# eigh (39 against 83 ms at r = 20). The threshold stays above the crossover
# so that designs in between keep the dense solver and its exact bits.
LANCZOS_MIN_DIM = 500
# Restarts after which one thick-restart Lanczos run gives up; the build then
# takes the dense eigensolver for that t. A 2000-unit random graph at r = 30
# needs about 20; the 600-cycle at r = 1, whose top eigenvalues lie 1e-4
# apart, about 300.
LANCZOS_MAX_RESTARTS = 1000
# Residual tolerance of a Lanczos pair, relative to c >= ||B||_2 (see
# ``_lanczos_pairs``).
LANCZOS_TOL = 1e-14


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

    Returns r pairs when the complement of col(x) has dimension r. Only the
    leading r+1 pairs, and the rest of a degenerate cluster that straddles
    pair r+1, are ordered: the same leading columns as ordering all pairs.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    comp = _complement_basis(x)
    _check_rank(r, comp.shape[1], x.shape[0])
    reduced = symmetrize(comp.T @ a @ comp)
    values, vectors = np.linalg.eigh(reduced)
    lifted = comp @ vectors
    idx = np.argsort(-values, kind="stable")
    keep = min(r + 1, idx.size)
    while keep < idx.size and values[idx[keep - 1]] - values[idx[keep]] < CLUSTER_GAP:
        keep += 1
    values, lifted = order_eigh_descending(values[idx[:keep]], lifted[:, idx[:keep]])
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


def _orthogonalize(w: np.ndarray, block: np.ndarray, first: int = 0) -> np.ndarray:
    """Remove from ``w``, in place, its components along the orthonormal rows of ``block``.

    Two classical Gram-Schmidt passes: the first against ``block[first:]``,
    the second against every row. Returns the summed coefficients.
    """
    coef = np.zeros(block.shape[0])
    coef[first:] = block[first:] @ w
    w -= coef[first:] @ block[first:]
    again = block @ w
    w -= again @ block
    return coef + again


def _thick_restart(op, fresh, lock, k, ncv, tol, counts, ceiling=-np.inf):
    """Top k eigenpairs of ``op`` on the orthogonal complement of the rows of ``lock``, or None.

    Thick-restart Lanczos (Wu & Simon 2000) with full reorthogonalization:
    each cycle extends the basis to ``ncv`` vectors, takes the Ritz pairs of
    the projected matrix and keeps the largest of them as the start of the
    next cycle: k plus up to half the rest, one for each converged pair
    (ARPACK's rule), or half the basis when k = 1. A pair counts as converged
    when its Lanczos residual estimate is at most ``tol``; the run returns
    once all k have converged and each true residual ||op(x) - theta x|| is
    at most ``tol``. A run with a ``ceiling`` also returns, unconverged, as
    soon as its top Ritz value lies below the ceiling by more than its
    residual estimate. ``fresh(block)`` gives a new unit vector orthogonal to
    the rows of ``block``. Vectors are rows: the result is the values,
    descending, and the vectors; None after ``LANCZOS_MAX_RESTARTS``
    restarts.
    """
    m = lock.shape[0]
    # the locked rows, then the Lanczos basis: one block to orthogonalize against
    v = np.empty((m + ncv + 1, lock.shape[1]))
    v[:m] = lock
    h = np.zeros((ncv, ncv))
    v[m] = fresh(lock)
    start = 0
    for restart in range(LANCZOS_MAX_RESTARTS + 1):
        if restart:
            counts["restarts"] += 1
        for j in range(start, ncv):
            w = op(v[m + j])
            counts["matvecs"] += 1
            # B v_j couples to v_{j-1} and v_j, or to every kept vector right after a restart
            first = m if j == start else m + j - 1
            h[: j + 1, j] = _orthogonalize(w, v[: m + j + 1], first)[m:]
            beta = float(np.sqrt(w @ w))
            if beta > tol:
                v[m + j + 1] = w / beta
            else:  # an invariant subspace: continue from a fresh direction
                beta = 0.0
                v[m + j + 1] = fresh(v[: m + j + 1])
        theta, y = np.linalg.eigh(h, UPLO="U")
        theta, y = theta[::-1], y[:, ::-1]
        estimates = np.abs(beta * y[-1, :k])
        if theta[0] + estimates[0] < ceiling:
            return theta[:k], y[:, :k].T @ v[m : m + ncv]
        n_converged = int(np.count_nonzero(estimates <= tol))
        if n_converged == k:
            x = y[:, :k].T @ v[m : m + ncv]
            counts["matvecs"] += k
            residuals = [op(x[i]) - theta[i] * x[i] for i in range(k)]
            if max(np.sqrt(res @ res) for res in residuals) <= tol:
                return theta[:k], x
        kept = ncv // 2 if k == 1 else k + min(n_converged, (ncv - k) // 2)
        v[m : m + kept] = y[:, :kept].T @ v[m : m + ncv]
        v[m + kept] = v[m + ncv]
        h[:] = 0.0
        h[np.arange(kept), np.arange(kept)] = theta[:kept]
        start = kept
    return None


def _lanczos_pairs(
    x: np.ndarray, rows: np.ndarray, cols: np.ndarray, r: int, counts: dict | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """The pairs of ``_dense_pairs`` by thick-restart Lanczos, matrix-free.

    ``rows``/``cols`` list each edge of the N x N 0/1 adjacency once. The
    solve runs on B = (I - QQ')A(I - QQ') - c QQ' with Q a thin QR of x and
    c = 1 + max degree >= 1 + ||A||_2: B is the MI operator on the
    complement of col(x) and -c on col(x), so its top eigenpairs are those of
    the complement, at O(N p + edges) per product. A rank-deficient x is
    refused rather than deflated.

    A single start vector sees one direction of each eigenspace, so after
    convergence a probe looks for a missed copy of a repeated eigenvalue: a
    Lanczos run on the complement of col(x) and of the k pairs found, which
    stops as soon as its top Ritz value is resolved below the k-th
    eigenvalue. When instead it converges above, its vector joins the pairs
    by Rayleigh-Ritz and the probe runs again. Every start vector comes from
    one seeded generator, so every process gets the same bits. ``counts``,
    when given, receives the numbers of products, restarts and probes.
    Returns None when a run reaches the restart cap.
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    q, upper = np.linalg.qr(x)
    sv = np.linalg.svd(upper, compute_uv=False)
    if sv.size == 0 or sv[-1] <= n * np.finfo(float).eps * sv[0]:
        raise ValidationError("rank-deficient design")
    _check_rank(r, n - p, n)
    qt = np.ascontiguousarray(q.T)
    # each edge in both directions, sorted so that the products read and write in order
    order = np.lexsort((np.concatenate([rows, cols]), np.concatenate([cols, rows])))
    dst = np.concatenate([cols, rows])[order]
    src = np.concatenate([rows, cols])[order]
    shift = 1.0 + float(np.max(np.bincount(src, minlength=n), initial=0))
    tol = LANCZOS_TOL * shift
    if counts is None:
        counts = {}
    counts.update(matvecs=0, restarts=0, probes=0)

    def op(v: np.ndarray) -> np.ndarray:
        qv = qt @ v
        w = np.bincount(dst, weights=np.take(v - qv @ qt, src), minlength=n)
        w -= (qt @ w + shift * qv) @ qt
        return w

    rng = np.random.default_rng(0)

    def fresh(block: np.ndarray) -> np.ndarray:
        v = rng.standard_normal(n)
        _orthogonalize(v, block)
        return v / np.sqrt(v @ v)

    k = min(r + 1, n - p)
    ncv = _lanczos_ncv(k, n)
    found = _thick_restart(op, fresh, qt, k, ncv, tol, counts)
    for _ in range(k):  # each pass merges one missed copy, and at most k - 1 can be missing
        if found is None:
            return None
        values, vectors = found
        counts["probes"] += 1
        lock = np.vstack([qt, vectors])
        probe = _thick_restart(op, fresh, lock, 1, ncv, tol, counts, ceiling=values[-1])
        if probe is None:
            return None
        if probe[0][0] <= values[-1] + tol:
            return order_eigh_descending(values, vectors.T)
        merged = np.vstack([vectors, probe[1]])
        image = np.stack([op(row) for row in merged])
        counts["matvecs"] += k + 1
        theta, y = np.linalg.eigh(symmetrize(merged @ image.T))
        found = theta[:0:-1], y[:, :0:-1].T @ merged
    return None


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
    Lanczos solve that does not converge falls back to the dense one. The
    provenance names each t's solver and, per Lanczos t, its numbers of
    operator products, restarts and probes (converged or not). One
    warning per build names the times whose r-th and (r+1)-th eigenvalues
    are closer than ``CLUSTER_GAP``: there the basis is not unique.
    """
    design = design_set.design
    r = design.r
    s: dict[int, np.ndarray] = {}
    eigvals: dict[int, np.ndarray] = {}
    solver: dict[int, str] = {}
    lanczos: dict[int, dict[str, int]] = {}
    straddled: list[int] = []
    for t in range(1, design.T + 1):
        x_t = design_set.matrices[t]
        edges = design_set.edge_index(t)
        pairs = None
        if _use_lanczos(*x_t.shape, r):
            lanczos[t] = {}
            pairs = _lanczos_pairs(x_t, *edges, r, lanczos[t])
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
        "lanczos": lanczos,
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
