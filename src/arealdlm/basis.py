"""Moran's I operator and the reduced-rank spatial basis.

The operator projects the adjacency structure onto the orthogonal complement
of the covariate column space; its leading eigenvectors give spatial basis
functions that cannot be confounded with the fixed effects. Because
S_t' X_t = 0, the covariate image in coefficient space is empty and the
paper's orthonormal transition matrix M_t = eig(I_r - proj(S_t' X_t)) is I_r:
the latent coefficients follow a random walk, eta_t = eta_{t-1} + w_t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DesignSet
from .errors import ValidationError
from .linops import order_eigh_descending, symmetrize


def mi_operator(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(I - P_X) A (I - P_X) with P_X the projector onto the columns of x."""
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


def _complement_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of col(x)."""
    u, s, _ = np.linalg.svd(x, full_matrices=True)
    rank = int(np.sum(s > x.shape[0] * np.finfo(float).eps * (s[0] if s.size else 0.0)))
    return u[:, rank:]


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
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    comp = _complement_basis(x)
    max_rank = comp.shape[1]
    if not 1 <= r <= max_rank:
        raise ValidationError(
            f"rank r={r} not admissible; max admissible rank is {max_rank} "
            f"(N={x.shape[0]} minus rank of the design)"
        )
    reduced = symmetrize(comp.T @ a @ comp)
    values, vectors = np.linalg.eigh(reduced)
    lifted = comp @ vectors
    values, lifted = order_eigh_descending(values, lifted)
    return lifted[:, :r], values[:r]


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


def build_basis_system(design_set: DesignSet, r: int | None = None) -> BasisSystem:
    """Construct the basis for every time point."""
    design = design_set.design
    r = design.r if r is None else r
    s: dict[int, np.ndarray] = {}
    eigvals: dict[int, np.ndarray] = {}
    for t in range(1, design.T + 1):
        x_t = design_set.matrices[t]
        a_t = design_set.stacked_adjacency(t)
        s[t], eigvals[t] = mi_basis(x_t, a_t, r)
    provenance = {
        "r": r,
        "ordering": "eigenvalues descending; degenerate clusters lexicographic",
        "sign_convention": "first entry with |entry| > 1e-12 positive",
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
