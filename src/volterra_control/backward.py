"""Backward solvers on the lattice.

Three layers:

* ``solve_bsde``: plain backward recursion with an implicit driver step,
  the BSDE that a BSVIE reduces to when neither its generator nor its
  terminal map depends on t.
* ``solve_bsvie``: C-adapted solutions of nonlinear backward Volterra
  equations via outer Picard iteration on the diagonal Y and one
  parameterized row recursion per grid time, each row solved on the whole
  horizon so that Z(t, s) exists for every s.
* ``solve_linear_backward``: the linear backward Volterra family in
  M-solution form used by the adjoint system and the duality checks.

The BSVIE rows and the linear family share one descending row run,
``_row_run``: a level-by-level martingale step from a leaf field plus an
explicit drift term.

Discrete conventions (used identically by the primal solvers, so that
every duality identity is an exact transpose statement):

* dW sums over ``[t_i, T)`` use steps j = i..N-1 with left-point
  integrands.
* the Y-coupling sum of a backward row may include its own index
  (``include_diag_A``); the exact-transpose partner of a strictly
  lower-triangular forward system excludes it, the partner of the
  conditional-expectation Fredholm equation includes it.
* boundary kernels at s = T multiply theta and its representation
  integrand nu instead of Y and Z rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import AdaptedProcess, Tree, TwoParamProcess
from .scenario import Scenario


class PicardError(RuntimeError):
    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


@dataclass
class BackwardPath:
    """C-adapted BSVIE solution: diagonal Y, full Z rows, and the row
    processes lam with Y(t_i) = lam[i][i]."""

    Y: AdaptedProcess
    Z: TwoParamProcess
    lam: list
    residual_history: list = field(default_factory=list)


@dataclass
class MSolution:
    p: AdaptedProcess
    q: TwoParamProcess


@dataclass
class BackwardSolution:
    Y: AdaptedProcess
    Z: TwoParamProcess
    mu: AdaptedProcess | None = None
    nu: AdaptedProcess | None = None

    def as_msolution(self) -> MSolution:
        return MSolution(p=self.Y, q=self.Z)


def solve_bsde(tree: Tree, terminal: np.ndarray, driver,
               picard_tol: float = 1e-12, picard_max_iter: int = 200):
    """Backward recursion Y_j = E_j[Y_{j+1}] + driver(t_j, Y_j, Z_j) dt.

    Z_j is the representation integrand of Y_{j+1}; the driver step is
    implicit in y and solved by an inner fixed point (contraction for
    dt * Lip < 1).  Returns (Y levels 0..N, Z levels 0..N-1).
    """
    if tree.level_of(terminal) != tree.N:
        raise ValueError("terminal value must be a leaf field")
    y_levels = [None] * (tree.N + 1)
    z_levels = [None] * tree.N
    y_levels[tree.N] = np.asarray(terminal, dtype=float)
    for j in range(tree.N - 1, -1, -1):
        mean, z = tree.repr_step(y_levels[j + 1])
        y = mean.copy()
        for it in range(picard_max_iter):
            y_new = mean + tree.dt * driver(tree.t(j), y, z)
            gap = float(np.abs(y_new - y).max())
            y = y_new
            if gap < picard_tol:
                break
        else:
            raise PicardError(
                f"inner driver fixed point failed to contract at level {j}; "
                f"use a finer grid (dt * Lip must stay below 1)")
        y_levels[j] = y
        z_levels[j] = z
    return AdaptedProcess(y_levels), AdaptedProcess(z_levels)


def _row_run(tree: Tree, leaf: np.ndarray, stop: int, drift=None):
    """Descending row run from a leaf field down to level ``stop``:

        run[r] = E_r[run[r+1]] + dt * drift(r, z_r),   r = N-1..stop,

    with z_r the representation integrand of run[r+1] (no drift term when
    ``drift`` is None).  Returns (run, z) as lists indexed by level;
    entries below ``stop`` are None.
    """
    run = [None] * (tree.N + 1)
    zs = [None] * tree.N
    run[tree.N] = cur = leaf
    for r in range(tree.N - 1, stop - 1, -1):
        mean, z = tree.repr_step(cur)
        zs[r] = z
        cur = mean if drift is None else mean + tree.dt * drift(r, z)
        run[r] = cur
    return run, zs


def _bsvie_row_sweep(tree, terminal_rows, driver, y_prev, rows):
    """One Picard sweep: solve each row BSDE with the previous diagonal."""
    lam_rows, z_rows, diag = [], [], []
    for i in rows:
        lam_run, z_cols = _row_run(
            tree, terminal_rows[i], 0,
            lambda r, z: driver(i, r, y_prev.level(r), z))
        lam_rows.append(lam_run)
        z_rows.append(z_cols)
        diag.append(lam_run[i])
    return lam_rows, z_rows, diag


def solve_bsvie(scenario: Scenario, fwd, u: AdaptedProcess,
                tree: Tree | None = None) -> BackwardPath:
    """C-adapted solution of the controlled backward Volterra equation.

    Outer Picard on the diagonal Y (zero start), inner family of row
    recursions with driver g(t_i, s, X(s), Y_prev(s), Z(t_i, s), u(s));
    every row is run over the full grid.  Residuals must decrease after
    the first sweep and reach picard_tol within picard_max_iter.
    """
    tree = tree or scenario.tree()
    co = scenario.coeffs
    m = scenario.m
    x_leaf = fwd.X.level(tree.N)
    terminal_rows = [co.psi.value(tree.t(i), x_leaf) for i in range(tree.N + 1)]

    def driver(i, r, y_r, z_r):
        return co.g.value(tree.t(i), tree.t(r), x=fwd.X.level(r), y=y_r,
                          z=z_r, u=u.level(r))

    y = AdaptedProcess.zeros(tree.N, m)
    tol = scenario.tolerances.picard_tol
    history = []
    rows = list(range(tree.N + 1))
    for sweep in range(scenario.tolerances.picard_max_iter):
        lam_rows, z_rows, diag = _bsvie_row_sweep(tree, terminal_rows, driver,
                                                  y, rows)
        y_new = AdaptedProcess(diag)
        residual = (y_new - y).sup_norm()
        history.append(residual)
        y = y_new
        if residual < tol:
            return BackwardPath(Y=y, Z=TwoParamProcess(z_rows), lam=lam_rows,
                                residual_history=history)
        if sweep >= 2 and history[-1] >= history[-2] and history[-1] > 1e-13:
            raise PicardError(
                "Picard residuals stopped decreasing before reaching "
                f"picard_tol; history={history}", history)
    raise PicardError(
        f"no contraction within {scenario.tolerances.picard_max_iter} sweeps; "
        f"history={history}", history)


def recompute_bsvie_row(scenario: Scenario, fwd, u: AdaptedProcess,
                        bwd: BackwardPath, i: int, tree: Tree | None = None):
    """Re-run row i from the converged diagonal (uniqueness made executable)."""
    tree = tree or scenario.tree()
    co = scenario.coeffs
    x_leaf = fwd.X.level(tree.N)

    def driver(row, r, y_r, z_r):
        return co.g.value(tree.t(row), tree.t(r), x=fwd.X.level(r), y=y_r,
                          z=z_r, u=u.level(r))

    lam_rows, z_rows, _ = _bsvie_row_sweep(
        tree, [co.psi.value(tree.t(i), x_leaf)], lambda _i, r, yr, zr: driver(
            i, r, yr, zr), bwd.Y, [0])
    return lam_rows[0], z_rows[0]


def solve_linear_backward(tree: Tree, dim: int, psi_rows, A=None, B=None,
                          D=None, theta: np.ndarray | None = None,
                          include_diag_A: bool = True,
                          include_diag_B: bool = False) -> BackwardSolution:
    """Linear backward Volterra family in adapted M-solution form.

    Row i = 0..N-1 (kernels are callables (i, j) -> per-node matrices;
    column j = N is the boundary slot paired with theta and nu):

        Y_i = psi_rows[i] + A(i,N) theta + B(i,N) nu_i
            + dt * sum_{j in A-range} A(i,j) Y_j
            + dt * sum_{j > i}        B(i,j) Z(j, i)
            + dt * sum_{j >= i}       D(i,j) Z(i, j)
            - sum_{j >= i} Z(i, j) dW_j

    with A-range j >= i when ``include_diag_A`` else j > i, and the B-sum
    gaining its diagonal term when ``include_diag_B`` (continuum-form
    convention).  Z below the diagonal is the martingale-representation
    integrand of Y_i, so the M-identity Y_i = E[Y_i] + sum_{j<i} Z(i,j) dW_j
    holds exactly.  theta also yields mu_i = E_i[theta] and the integrands
    nu with theta = E[theta] + sum nu_j dW_j.
    """
    N = tree.N
    if len(psi_rows) != N:
        raise ValueError(f"expected {N} free-term rows, got {len(psi_rows)}")
    mu = nu = None
    if theta is not None:
        _, nus = tree.martingale_repr(theta, 0)
        nu = AdaptedProcess(nus)
        mu = AdaptedProcess([tree.cond_expect(theta, i) for i in range(N + 1)])

    y_levels = [None] * N
    z_rows = [None] * N
    for i in range(N - 1, -1, -1):
        g_leaf = np.array(psi_rows[i], dtype=float)
        if tree.level_of(g_leaf) != N:
            raise ValueError(f"free-term row {i} must be a leaf field")
        if theta is not None:
            if A is not None:
                g_leaf = g_leaf + tree.matvec(A(i, N), theta)
            if B is not None:
                g_leaf = g_leaf + tree.embed(tree.matvec(B(i, N), nu.level(i)), N)
        for j in range(i + 1, N):
            if A is not None:
                g_leaf = g_leaf + tree.dt * tree.embed(
                    tree.matvec(A(i, j), y_levels[j]), N)
            if B is not None:
                g_leaf = g_leaf + tree.dt * tree.embed(
                    tree.matvec(B(i, j), z_rows[j][i]), N)
        # row run down to level i, absorbing the D-terms
        run, z_cols = _row_run(tree, g_leaf, i, None if D is None else (
            lambda r, z: tree.matvec(D(i, r), z)))
        cur = run[i]
        if include_diag_B and B is not None:
            cur = cur + tree.dt * tree.matvec(B(i, i), z_cols[i])
        if include_diag_A and A is not None:
            mats = tree.embed(A(i, i), i)
            lhs = np.eye(dim)[None, :, :] - tree.dt * mats
            cur = np.linalg.solve(lhs, cur[..., None])[..., 0]
        y_levels[i] = cur
        _, z_cols[:i] = tree.martingale_repr(cur, 0)
        z_rows[i] = z_cols
    return BackwardSolution(Y=AdaptedProcess(y_levels),
                            Z=TwoParamProcess(z_rows), mu=mu, nu=nu)


def backward_row_residual(tree: Tree, sol: BackwardSolution, i: int, psi_rows,
                          A=None, B=None, D=None, theta=None,
                          include_diag_A: bool = True,
                          include_diag_B: bool = False) -> float:
    """Node-wise residual of row i of the defining discrete equation."""
    N = tree.N
    rhs = np.array(psi_rows[i], dtype=float)
    if theta is not None:
        if A is not None:
            rhs = rhs + tree.matvec(A(i, N), theta)
        if B is not None:
            rhs = rhs + tree.embed(tree.matvec(B(i, N), sol.nu.level(i)), N)
    lo_A = i if include_diag_A else i + 1
    lo_B = i if include_diag_B else i + 1
    for j in range(lo_A, N):
        if A is not None:
            rhs = rhs + tree.dt * tree.embed(
                tree.matvec(A(i, j), sol.Y.level(j)), N)
    for j in range(lo_B, N):
        if B is not None:
            rhs = rhs + tree.dt * tree.embed(
                tree.matvec(B(i, j), sol.Z.value(j, i)), N)
    for j in range(i, N):
        if D is not None:
            rhs = rhs + tree.dt * tree.embed(
                tree.matvec(D(i, j), sol.Z.value(i, j)), N)
    rhs = rhs - tree.ito_sum(lambda j: sol.Z.value(i, j), i, N)
    return float(np.abs(tree.embed(sol.Y.level(i), N) - rhs).max())


def msolution_identity_residual(tree: Tree, sol: BackwardSolution) -> float:
    """max_i node-wise defect of Y_i = E[Y_i] + sum_{j<i} Z(i,j) dW_j."""
    worst = 0.0
    for i in range(sol.Y.last_level + 1):
        y = sol.Y.level(i)
        recon = np.tile(tree.expectation(y), (tree.n_nodes(i), 1))
        if i > 0:
            recon = recon + tree.cond_expect(
                tree.ito_sum(lambda j: sol.Z.value(i, j), 0, i), i)
        worst = max(worst, float(np.abs(y - recon).max()))
    return worst
