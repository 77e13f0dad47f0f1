"""Adjacent-cone machinery for closed control regions.

At an interior point the cone of admissible directions is the whole
space; on the boundary of a smooth-inequality region satisfying LICQ it
is the polyhedral cone {v : <grad g_i(u), v> <= 0 for active i} of the
region's ``values`` and ``gradients`` (``Halfspaces``, ``Ball`` or
``Quadratics``).  Like them, everything here takes (..., l) node tables,
bit for bit as if row by row.  A cone is its (..., k, l) stack W of
normals with zero rows for inactive inequalities (a zero row leaves {v :
W v <= 0} unchanged; all zero is the full space, as is k = 0 for the
unconstrained region, ``Halfspaces`` with zero rows).  All cone
computations reduce to one nonnegative least-squares fit by the rows of
W (Moreau decomposition against the polar cone they generate), solved
exactly by support enumeration.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .scenario import ControlConstraint, _norm, _rowmat


class LicqError(RuntimeError):
    """Rank-deficient active gradients at ``row``, the index of the
    offending point, which ``place`` names in the message; ``reason``
    says what fails there."""

    def __init__(self, row: tuple, place: str, reason: str):
        super().__init__(f"LICQ fails at {place}: {reason}")
        self.row, self.reason = row, reason


def nnls(A: np.ndarray, b: np.ndarray):
    """min_{x >= 0} ||A x - b|| for each row of a (..., m, k) stack A and
    (..., m) stack b: exact support enumeration.

    Every support of at most min(m, k) columns is solved once for the
    whole stack (pseudo-inverse).  The least residual among the
    nonnegative solutions, the empty support included, is the minimum
    when the nonzero columns are independent (LICQ, which
    ``adjacent_cone`` enforces).  Returns (x, residual_norm).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, k = A.shape[-2:]
    best_x = np.zeros(b.shape[:-1] + (k,))
    best_r = np.asarray(_norm(b))
    for size in range(1, min(m, k) + 1):
        for cols in map(list, combinations(range(k), size)):
            x = np.zeros_like(best_x)
            x[..., cols] = _rowmat(np.linalg.pinv(A[..., cols]), b)
            r = _norm(b - _rowmat(A, x))
            better = np.all(x[..., cols] >= 0.0, axis=-1) & (r < best_r)
            best_x[better], best_r[better] = x[better], r[better]
    return best_x, best_r


def adjacent_cone(constraint: ControlConstraint, u: np.ndarray,
                  activity_tol: float = 1e-8) -> np.ndarray:
    """Normals W, shape (..., k, l), of the cone {v : W v <= 0} of
    admissible directions at each row of u under LICQ; the rows of
    inactive inequalities are zero (all zero at interior points).

    Raises LicqError when the active gradients of a row are rank
    deficient, and ValueError when a row is infeasible; both name the row.
    """
    u = np.asarray(u, dtype=float)
    within, active = constraint.activity(u, activity_tol)
    outside = ~within.all(axis=-1)
    if outside.any():
        row = tuple(np.argwhere(outside)[0].tolist())
        raise ValueError(f"point {row} is outside the control region: "
                         f"g = {constraint.values(u[row])}")
    normals = np.where(active[..., None], constraint.gradients(u), 0.0)
    count = active.sum(axis=-1)
    dependent = np.linalg.matrix_rank(normals, tol=1e-10) < count
    if dependent.any():
        row = tuple(np.argwhere(dependent)[0].tolist())
        raise LicqError(row, f"point {row}",
                        f"{count[row]} active gradients are dependent")
    return normals


def project_polyhedral_cone(normals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of x onto {v : normals @ v <= 0}.

    Moreau decomposition: x = proj_C(x) + proj_polar(x) with the polar
    cone generated by the normals, so proj_C(x) = x - W' lambda with
    lambda the nonnegative least-squares fit of x by the normals.
    """
    x = np.asarray(x, dtype=float)
    Wt = np.swapaxes(normals, -1, -2)
    lam, _ = nnls(Wt, x)
    return x - _rowmat(Wt, lam)


def cone_min_linear(F: np.ndarray, normals: np.ndarray):
    """min_{v in C, |v| <= 1} <F, v> = -||proj_C(-F)|| for each row of F,
    with its argmin.

    Always <= 0 since 0 is a member; the argmin is the normalized
    projection of -F (zero when the projection vanishes).  The norm is
    also the KKT residual min_{lambda >= 0} ||F + W' lambda||.  NNLS
    rounding below 1e-15 (1 + |F|) snaps to 0 where a normal is nonzero;
    the full space (all-zero normals) is exact and only snaps at F = 0.
    """
    F = np.asarray(F, dtype=float)
    proj = project_polyhedral_cone(normals, -F)
    norm = _norm(proj)
    snap = np.where(normals.any(axis=(-2, -1)), 1e-15 * (1.0 + _norm(F)), 0.0)
    zero = norm <= snap
    arg = np.where(zero[..., None], 0.0, proj / np.where(zero, 1.0, norm)[..., None])
    return np.where(zero, 0.0, -norm), arg
