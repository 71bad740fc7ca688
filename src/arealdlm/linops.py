"""Dense linear-algebra helpers shared by the basis, prior, and sampler layers.

Everything here is small-matrix (rank-r or rank-p) work. The solve/inverse
helpers record the dimension of every dense factorization into any active
``SolveTracker`` so tests can assert that the sampler hot path never touches
an N x N system. ``inv``, ``inv_spd`` and ``chol_psd`` also take a
``(k, n, n)`` stack: one batched call, k recorded entries of size n, and the
same result as k separate calls.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

# Eigenvalues above -PSD_FLOOR * scale count as numerical noise; below is
# genuine indefiniteness.
PSD_FLOOR = 1e-10
# Eigenvalues closer than this form one degenerate cluster.
CLUSTER_GAP = 1e-10


@dataclass
class SolveTracker:
    """Records dimensions of dense factorizations (solve/inv/cholesky/eigh)."""

    dims: list[int] = field(default_factory=list)

    def record(self, n: int, count: int = 1) -> None:
        self.dims.extend([int(n)] * count)

    @property
    def max_dim(self) -> int:
        return max(self.dims, default=0)


_active_trackers: list[SolveTracker] = []


@contextmanager
def track_dense_solves():
    """Context manager yielding a tracker of dense-factorization sizes."""
    tracker = SolveTracker()
    _active_trackers.append(tracker)
    try:
        yield tracker
    finally:
        _active_trackers.remove(tracker)


def _record(a: np.ndarray) -> None:
    """Record one entry per square matrix of ``a`` (one matrix or a stack)."""
    count = math.prod(a.shape[:-2])
    for tracker in _active_trackers:
        tracker.record(a.shape[-1], count)


def symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.swapaxes(-1, -2)) / 2.0


def sign_fix_columns(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Flip column signs so the first entry with |entry| > tol is positive.

    Resolves the sign indeterminacy of eigenvectors deterministically.
    """
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > tol)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def order_eigh_descending(
    values: np.ndarray, vectors: np.ndarray, cluster_gap: float = CLUSTER_GAP
) -> tuple[np.ndarray, np.ndarray]:
    """Order eigenpairs by descending eigenvalue with deterministic ties.

    Columns are sign-fixed first; within a cluster of eigenvalues closer than
    ``cluster_gap`` the columns are sorted in descending lexicographic order
    of their entries, so degenerate eigenspaces come out reproducibly (and
    eigh of an exact identity stays the identity).
    """
    idx = np.argsort(-values, kind="stable")
    vals = values[idx]
    vecs = sign_fix_columns(vectors[:, idx])
    # resolve ordering inside degenerate clusters
    start = 0
    n = vals.size
    while start < n:
        stop = start + 1
        while stop < n and vals[stop - 1] - vals[stop] < cluster_gap:
            stop += 1
        if stop - start > 1:
            block = vecs[:, start:stop]
            order = sorted(
                range(block.shape[1]),
                key=lambda j: tuple(block[:, j]),
                reverse=True,
            )
            vecs[:, start:stop] = block[:, order]
            vals[start:stop] = vals[start:stop][order]
        start = stop
    return vals, vecs


def _eigh_psd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenpairs of a symmetric matrix whose Cholesky failed, plus their scale.

    Eigenvalues below -PSD_FLOOR * scale are genuine indefiniteness, an error;
    anything above is numerical noise for the caller to clip.
    """
    values, vectors = np.linalg.eigh(a)
    scale = max(np.max(np.abs(values)), 1.0)
    if values.min() < -PSD_FLOOR * scale:
        raise np.linalg.LinAlgError(
            f"matrix is indefinite (min eigenvalue {values.min():.3e})"
        )
    return values, vectors, scale


def inv(a: np.ndarray) -> np.ndarray:
    """Inverse by LU of a nonsingular square matrix, or of each matrix of a stack."""
    _record(a)
    return np.linalg.inv(a)


def _per_matrix(one, a: np.ndarray) -> np.ndarray:
    """Apply ``one`` to every matrix of a stack (the fallback of a failed batch)."""
    return np.stack([one(m) for m in a]) if a.ndim > 2 else one(a)


def _inv_from_factor(c: np.ndarray) -> np.ndarray:
    y = np.linalg.inv(c)
    return symmetrize(y.swapaxes(-1, -2) @ y)


def _inv_spd_one(a: np.ndarray) -> np.ndarray:
    try:
        c = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        values, vectors, scale = _eigh_psd(a)
        log.warning("inv_spd: cholesky failed, using eigenvalue pseudo-inverse")
        inv_vals = np.zeros_like(values)
        keep = values > PSD_FLOOR * scale
        inv_vals[keep] = 1.0 / values[keep]
        return symmetrize((vectors * inv_vals) @ vectors.T)
    return _inv_from_factor(c)


def inv_spd(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive (semi-)definite matrix, or of each in a stack.

    Cholesky first; if that fails (singular or slightly indefinite input),
    fall back to an eigenvalue pseudo-inverse with tiny negatives clipped and
    one WARNING per such matrix. Genuine indefiniteness (min eigenvalue
    < -PSD_FLOOR * scale) is an error.
    """
    a = symmetrize(a)
    _record(a)
    try:
        c = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return _per_matrix(_inv_spd_one, a)
    return _inv_from_factor(c)


def _chol_psd_one(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        values, vectors, _ = _eigh_psd(a)
        return vectors * np.sqrt(np.clip(values, 0.0, None))


def chol_psd(a: np.ndarray) -> np.ndarray:
    """A factor F with F F' = a for symmetric PSD a, or for each matrix of a stack.

    Cholesky when positive definite, otherwise an eigenvalue square root with
    negatives below the noise floor clipped to zero.
    """
    a = symmetrize(a)
    _record(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return _per_matrix(_chol_psd_one, a)


def draw_mvn(rng: np.random.Generator, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Draw one multivariate normal vector; consumes exactly len(mean) normals."""
    z = rng.standard_normal(mean.shape[0])
    return mean + chol_psd(cov) @ z
