"""Adjacent-cone machinery for closed control regions.

At an interior point the cone of admissible directions is the whole
space; on the boundary of a smooth-inequality region satisfying LICQ it
is the polyhedral cone {v : <grad g_i(u), v> <= 0 for active i}.  A cone
is its (k, l) array W of active normals, k = 0 being the full space.
All cone computations reduce to one nonnegative least-squares fit by the
rows of W (Moreau decomposition against the polar cone they generate);
with k = 0 the fit is empty and the projection is the identity.
"""

from __future__ import annotations

import numpy as np

from .scenario import ControlConstraint


class LicqError(RuntimeError):
    pass


def nnls(A: np.ndarray, b: np.ndarray, max_iter: int | None = None):
    """min_{x >= 0} ||A x - b||: Lawson-Hanson active-set iteration.

    Repeatedly solves the unconstrained least squares on the passive set
    and clips negative entries; exact termination for the small systems
    used here.  Returns (x, residual_norm).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if max_iter is None:
        max_iter = 6 * n + 30
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    resid = b - A @ x
    tol = 1e-12 * (1.0 + float(np.abs(A).max(initial=0.0))) * (
        1.0 + float(np.abs(b).max(initial=0.0)))
    for _ in range(max_iter):
        w = A.T @ resid
        w[passive] = -np.inf
        if np.all(w <= tol):
            break
        passive[int(np.argmax(w))] = True
        while True:
            s = np.zeros(n)
            idx = np.flatnonzero(passive)
            s[idx], *_ = np.linalg.lstsq(A[:, idx], b, rcond=None)
            if np.all(s[idx] > tol):
                x = s
                break
            # step toward s until the first passive entry hits zero
            mask = (s <= tol) & passive
            alpha = np.min(x[mask] / (x[mask] - s[mask]))
            x = x + alpha * (s - x)
            passive &= x > tol
            x[~passive] = 0.0
            if not passive.any():
                x = np.zeros(n)
                break
        resid = b - A @ x
    else:
        raise RuntimeError("nnls iteration cap exceeded")
    return x, float(np.linalg.norm(b - A @ x))


def adjacent_cone(constraint: ControlConstraint, u: np.ndarray,
                  activity_tol: float = 1e-8) -> np.ndarray:
    """Active normals W, shape (k, l), of the cone {v : W v <= 0} of
    admissible directions at u under LICQ; k = 0 at interior points.

    Raises LicqError when the active gradients are rank deficient, and
    ValueError when u is infeasible.
    """
    u = np.asarray(u, dtype=float)
    within, active = constraint.activity(u, activity_tol)
    if not within.all():
        raise ValueError(f"point is outside the control region: "
                         f"g = {constraint.values(u)}")
    normals = constraint.gradients(u)[active]
    if np.linalg.matrix_rank(normals, tol=1e-10) < normals.shape[0]:
        raise LicqError(
            f"LICQ fails: {normals.shape[0]} active gradients are dependent")
    return normals


def project_polyhedral_cone(normals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {v : normals @ v <= 0}.

    Moreau decomposition: x = proj_C(x) + proj_polar(x) with the polar
    cone generated by the normals, so proj_C(x) = x - W' lambda with
    lambda the nonnegative least-squares fit of x by the normals.
    """
    x = np.asarray(x, dtype=float)
    lam, _ = nnls(normals.T, x)
    return x - normals.T @ lam


def cone_min_linear(F: np.ndarray, normals: np.ndarray):
    """min_{v in C, |v| <= 1} <F, v> = -||proj_C(-F)||, with its argmin.

    Always <= 0 since 0 is a member; the argmin is the normalized
    projection of -F (zero when the projection vanishes).  The norm is
    also the KKT residual min_{lambda >= 0} ||F + W' lambda||.  NNLS
    rounding below 1e-15 (1 + |F|) snaps to 0; the full space (k = 0) is
    exact and only snaps at F = 0.
    """
    F = np.asarray(F, dtype=float)
    proj = project_polyhedral_cone(normals, -F)
    norm = float(np.linalg.norm(proj))
    snap = 1e-15 * (1.0 + float(np.linalg.norm(F))) if len(normals) else 0.0
    if norm <= snap:
        return 0.0, np.zeros_like(F)
    return -norm, proj / norm
