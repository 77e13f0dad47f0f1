"""Adjacent-cone machinery for closed control regions.

At an interior point the cone of admissible directions is the whole
space; on the boundary of a smooth-inequality region satisfying LICQ it
is the polyhedral cone {v : <grad g_i(u), v> <= 0 for active i}.  All
cone computations reduce to nonnegative least squares against the active
gradients (Moreau decomposition against the polar cone).
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ConeRep:
    """Adjacent cone: the full space or {v : normals @ v <= 0}.

    0 is always a member; a polyhedral representation with no rows is the
    full space.
    """

    dim: int
    normals: np.ndarray | None = None  # (k, dim) outward normals, or None

    @classmethod
    def full_space(cls, dim: int) -> "ConeRep":
        return cls(dim=dim, normals=None)

    @classmethod
    def polyhedral(cls, normals) -> "ConeRep":
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        return cls(dim=normals.shape[1], normals=normals)

    @property
    def is_full_space(self) -> bool:
        return self.normals is None or self.normals.shape[0] == 0

    def contains(self, v: np.ndarray, tol: float = 1e-10) -> bool:
        if self.is_full_space:
            return True
        scale = 1.0 + float(np.linalg.norm(v))
        return bool(np.all(self.normals @ v <= tol * scale))

    def is_trivial(self, n_probes: int = 8, seed: int = 0) -> bool:
        """Probe whether the cone is {0} (Remark-style triviality check)."""
        if self.is_full_space:
            return False
        rng = np.random.default_rng(seed)
        probes = [e for k in range(self.dim)
                  for e in (np.eye(self.dim)[k], -np.eye(self.dim)[k])]
        probes += [rng.standard_normal(self.dim) for _ in range(n_probes)]
        return all(np.linalg.norm(project_polyhedral_cone(self, p)) <= 1e-12
                   for p in probes)


def adjacent_cone(constraint: ControlConstraint, u: np.ndarray,
                  activity_tol: float = 1e-8) -> ConeRep:
    """Cone of admissible directions at u under LICQ.

    Full space at interior points; otherwise the polyhedral cone of the
    active inequality gradients.  Raises LicqError when the active
    gradients are rank deficient, and ValueError when u is infeasible.
    """
    u = np.asarray(u, dtype=float)
    within, active = constraint.activity(u, activity_tol)
    if not within.all():
        raise ValueError(f"point is outside the control region: "
                         f"g = {constraint.values(u)}")
    if not active.any():
        return ConeRep.full_space(u.size)
    normals = constraint.gradients(u)[active]
    if np.linalg.matrix_rank(normals, tol=1e-10) < normals.shape[0]:
        raise LicqError(
            f"LICQ fails: {normals.shape[0]} active gradients are dependent")
    return ConeRep.polyhedral(normals)


def project_polyhedral_cone(cone: ConeRep, x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {v : normals @ v <= 0}.

    Moreau decomposition: x = proj_C(x) + proj_polar(x) with the polar
    cone generated by the normals, so proj_C(x) = x - W' lambda with
    lambda the nonnegative least-squares fit of x by the normals.
    """
    x = np.asarray(x, dtype=float)
    if cone.is_full_space:
        return x.copy()
    lam, _ = nnls(cone.normals.T, x)
    return x - cone.normals.T @ lam


def cone_min_linear(F: np.ndarray, cone: ConeRep):
    """min_{v in C, |v| <= 1} <F, v> = -||proj_C(-F)||, with its argmin.

    Always <= 0 since 0 is a member; the argmin is the normalized
    projection of -F (zero when the projection vanishes).
    """
    F = np.asarray(F, dtype=float)
    if cone.is_full_space:
        norm = float(np.linalg.norm(F))
        if norm == 0.0:
            return 0.0, np.zeros_like(F)
        return -norm, -F / norm
    proj = project_polyhedral_cone(cone, -F)
    norm = float(np.linalg.norm(proj))
    if norm <= 1e-15 * (1.0 + float(np.linalg.norm(F))):
        return 0.0, np.zeros_like(F)
    return -norm, proj / norm


def kkt_multipliers(F: np.ndarray, active_normals):
    """Multipliers lambda >= 0 minimizing ||F + sum lambda_i w_i||.

    A residual near zero certifies the inclusion form of the first-order
    condition: -F lies in the cone generated by the active gradients.
    """
    F = np.asarray(F, dtype=float)
    W = np.atleast_2d(np.asarray(active_normals, dtype=float))
    if W.shape[0] == 0:
        return np.zeros(0), float(np.linalg.norm(F))
    lam, resid = nnls(W.T, -F)
    return lam, resid


def dist_limit_probe(constraint: ControlConstraint, u: np.ndarray,
                     v: np.ndarray, h_sequence=None, probe_tol: float = 1e-6):
    """Difference quotients dist(u + h v, U) / h along a shrinking h-grid.

    Returns (quotients, member, v_h) where membership extrapolates the
    last two quotients linearly to h = 0 (an admissible tangent direction
    has quotient O(h), an outward one a positive limit) and v_h is the
    feasible perturbation (y_h - u)/h built from a nearest point y_h at
    the smallest h.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if h_sequence is None:
        h_sequence = [2.0 ** -k for k in range(2, 13)]
    quotients = []
    for h in h_sequence:
        point = u + h * v
        y_h = constraint.nearest(point)
        quotients.append(float(np.linalg.norm(y_h - point)) / h)
    limit = (2.0 * quotients[-1] - quotients[-2] if len(quotients) >= 2
             else quotients[-1])
    member = limit <= probe_tol * (1.0 + float(np.linalg.norm(v)))
    v_h = (y_h - u) / h_sequence[-1]
    return quotients, member, v_h
