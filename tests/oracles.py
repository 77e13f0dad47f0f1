"""Shared brute-force oracles used by the unit and acceptance tests.

Everything here works on dense leaf-resolution matrices assembled from
the defining discrete equations, on exhaustive finite-dimensional
programs, or one point at a time (control-region geometry, the NC sweep,
KKT multipliers by the Lawson-Hanson iteration, the limit definition of
the adjacent cone, difference quotients of the cost and of the catalog
objects), independently of the package's sweep solvers.  ``solve_bsde`` is the plain BSDE recursion a
time-invariant BSVIE reduces to.  ``per_pair_forward`` and
``per_pair_bsvie`` are the state solvers with every coefficient
evaluated by ``value`` at every time pair, the reference for the
solvers' once-per-level brackets; with ``per_row_linear_backward``, the
linear backward family solved one row at a time, they are the row-by-row
references for the solvers' batched row stacks.  The ``leaf_*``
residuals are the adjoint row checks with every row's sum formed at the
leaves by one ``level_sum``, pair by pair: the reference for the checks'
step-by-step sums and half-by-half leaf comparisons.  ``zero_process``,
``zero_two_param`` and ``grid_points`` are test-only constructors, and
``two_param``, ``backward_solution`` and ``fredholm_solution`` build the
solvers' containers, which store their solutions as level stacks, from
per-row lists.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from volterra_control.adjoint import (FredholmSolution, _lambda0_equation, _pq_kernels,
                                      _pq_rows, _theta_equation, _xi_equation)
from volterra_control.backward import (BackwardPath, BackwardSolution, PicardError,
                                       _implicit_step, _row_run, backward_run_residual,
                                       solve_bsvie, solve_linear_backward)
from volterra_control.cones import adjacent_cone, cone_min_linear
from volterra_control.forward import SimulationError, simulate_forward
from volterra_control.lattice import (AdaptedProcess, ScaledMatrix, Tree,
                                      TwoParamProcess, pair_mean, stack, transpose)
from volterra_control.scenario import (AffineCoefficient, Ball, ControlConstraint,
                                       Halfspaces, ProjectionUnavailable, Scenario)
from volterra_control.verify import (DualityInstance, NCReport, check_duality_1,
                                     check_duality_2, control_pairing,
                                     evaluate_cost, feasible_direction,
                                     full_pipeline, smooth_duality_instance)


def as_table(mat, nodes: int) -> np.ndarray:
    """A matrix field as a dense (nodes, d, e) table.  A constant
    ScaledMatrix becomes a broadcast view; a table or a per-node scale
    with fewer rows is repeated onto ``nodes`` (a finer level)."""
    if isinstance(mat, ScaledMatrix):
        if mat.scale is None:
            return np.broadcast_to(mat.matrix, (nodes,) + mat.matrix.shape)
        return as_table(mat.scale, nodes)[:, None, None] * mat.matrix
    if nodes % mat.shape[0]:
        raise ValueError(f"cannot repeat {mat.shape[0]} rows onto {nodes}")
    return mat if nodes == mat.shape[0] else mat.repeat(nodes // mat.shape[0], axis=0)


def zero_process(last_level: int, dim: int) -> AdaptedProcess:
    """The zero adapted process on levels 0..last_level."""
    return AdaptedProcess([np.zeros((1 << i, dim)) for i in range(last_level + 1)])


def zero_two_param(n_rows: int, n_cols: int, dim: int) -> TwoParamProcess:
    """The zero two-parameter field with n_rows rows of columns 0..n_cols-1."""
    return two_param([[np.zeros((1 << j, dim)) for j in range(n_cols)]
                      for _ in range(n_rows)])


def two_param(rows) -> TwoParamProcess:
    """The two-parameter field of per-row lists rows[i][j] = Z(t_i, t_j),
    one row stack per level j."""
    return TwoParamProcess([stack([row[j] for row in rows])
                            for j in range(len(rows[0]))])


def backward_solution(Y: AdaptedProcess, Z: TwoParamProcess, mu=None,
                      nu=None) -> BackwardSolution:
    """The linear backward solution of rows Y and field Z, its level stacks
    holding each Y_r and the runs E_r[Y_i], i > r, of the later rows made
    by the solver's pair means."""
    N = len(Y.levels)
    levels = [np.empty((N - r, Y.dim, 1 << r)).T for r in range(N)]
    for r in range(N - 1, -1, -1):
        levels[r][..., 0] = Y.level(r)
        if r < N - 1:
            levels[r][..., 1:] = pair_mean(levels[r + 1])
    return BackwardSolution(levels, Z, mu=mu, nu=nu)


def fredholm_solution(runs) -> FredholmSolution:
    """The Fredholm solution of per-row runs runs[i] = [E_i[xi_i], ...,
    E_N[xi_i]], stacked per level."""
    top = len(runs[0]) - 1
    return FredholmSolution([stack([runs[i][r - i] for i in range(min(r + 1, len(runs)))])
                             for r in range(top + 1)])


def grid_points(grid) -> np.ndarray:
    """The grid times t_0..t_N."""
    return np.linspace(0.0, grid.horizon, grid.steps + 1)


def projector(tree, level):
    """Dense matrix of E_level followed by embedding back to the leaves."""
    block = 1 << (tree.N - level)
    return np.kron(np.eye(1 << level), np.full((block, block), 1.0 / block))


def dw_leaf(tree, j):
    """The increment dW_j embedded at the leaves, as a vector."""
    return np.tile(np.repeat(np.array([-tree.sqdt, tree.sqdt]),
                             1 << (tree.N - 1 - j)), 1 << j)


def repr_operator(tree, j):
    """Dense leaf operator for the representation integrand at step j."""
    return projector(tree, j) @ np.diag(dw_leaf(tree, j)) / tree.dt


def dense_bsvie_oracle(scenario, tree, fwd, u):
    """Monolithic linear solve for the C-adapted rows (m = 1 only).

    Unknowns: full-range row fields Q_i = psi_i + dt sum_{j<N} g_ij and the
    leaf-embedded diagonal Y_i; Z(i, j) is the representation integrand of
    Q_i at every step j, and Y_i = E_i[Q_i] - dt sum_{j<i} g_ij.
    """
    assert scenario.m == 1 and scenario.coeffs.g.is_affine
    co = scenario.coeffs
    N, L = tree.N, tree.n_leaves
    n_rows = N + 1
    size = 2 * n_rows * L
    K = np.eye(size)
    rhs = np.zeros(size)
    x_leaf = fwd.X.level(N)
    gy = co.g.matrices["y"][0, 0]
    gz = co.g.matrices["z"][0, 0]

    def g_known(i, j):
        base = co.g.value(tree.t(i), tree.t(j), x=fwd.X.level(j),
                          y=np.zeros((1 << j, 1)), z=np.zeros((1 << j, 1)),
                          u=u.level(j))
        return np.repeat(base[:, 0], 1 << (N - j))

    def q_slice(i):
        return slice(i * L, (i + 1) * L)

    def y_slice(i):
        return slice((n_rows + i) * L, (n_rows + i + 1) * L)

    for i in range(n_rows):
        rhs[q_slice(i)] = co.psi.value(tree.t(i), tree.t(N), x_leaf)[:, 0]
        for j in range(N):
            k = co.g.kernel(tree.t(i), tree.t(j))
            rhs[q_slice(i)] += tree.dt * g_known(i, j)
            K[q_slice(i), y_slice(j)] -= tree.dt * k * gy * projector(tree, j)
            K[q_slice(i), q_slice(i)] -= tree.dt * k * gz * repr_operator(tree, j)
        K[y_slice(i), q_slice(i)] -= projector(tree, i)
        for j in range(i):
            k = co.g.kernel(tree.t(i), tree.t(j))
            rhs[y_slice(i)] -= tree.dt * g_known(i, j)
            K[y_slice(i), y_slice(j)] += tree.dt * k * gy * projector(tree, j)
            K[y_slice(i), q_slice(i)] += tree.dt * k * gz * repr_operator(tree, j)
    sol = np.linalg.solve(K, rhs)
    Y = [sol[y_slice(i)] for i in range(n_rows)]
    Z = [[repr_operator(tree, j) @ sol[q_slice(i)] for j in range(N)]
         for i in range(n_rows)]
    return Y, Z


def _bsvie_row_sweep(tree, terminal_rows, driver, y_prev, rows):
    """One Picard sweep: solve each row BSDE with the previous diagonal."""
    lam_rows, z_rows, diag = [], [], []
    for i in rows:
        lam_run = [None] * tree.N + [terminal_rows[i]]
        z_cols = [None] * tree.N
        for r in range(tree.N - 1, -1, -1):
            mean, z_cols[r] = tree.repr_step(lam_run[r + 1])
            lam_run[r] = mean + tree.dt * driver(i, r, y_prev.level(r),
                                                 z_cols[r])
        lam_rows.append(lam_run)
        z_rows.append(z_cols)
        diag.append(lam_run[i])
    return lam_rows, z_rows, diag


def _bsvie_driver(scenario, tree, fwd, u):
    co = scenario.coeffs
    return lambda i, r, y_r, z_r: co.g.value(
        tree.t(i), tree.t(r), x=fwd.X.level(r), y=y_r, z=z_r, u=u.level(r))


def picard_bsvie_oracle(scenario, fwd, u, tree) -> BackwardPath:
    """C-adapted BSVIE by outer Picard iteration on the diagonal Y.

    The constructive existence argument: from Y = 0, every sweep runs all
    rows over the full grid with the previous diagonal frozen in the
    driver.  Residuals must decrease after the first sweep and reach
    picard_tol within picard_max_iter sweeps; ``residual_history`` holds
    the sup-norm change of the diagonal per sweep.
    """
    x_leaf = fwd.X.level(tree.N)
    terminal_rows = [scenario.coeffs.psi.value(tree.t(i), tree.t(tree.N), x_leaf)
                     for i in range(tree.N + 1)]
    driver = _bsvie_driver(scenario, tree, fwd, u)
    y = zero_process(tree.N, scenario.m)
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
            return BackwardPath(Y=y, Z=two_param(z_rows),
                                residual_history=history)
        if sweep >= 2 and history[-1] >= history[-2] and history[-1] > 1e-13:
            raise PicardError("Picard residuals stopped decreasing before "
                              f"reaching picard_tol; history={history}")
    raise PicardError(
        f"no contraction within {scenario.tolerances.picard_max_iter} sweeps; "
        f"history={history}")


def recompute_bsvie_row(scenario, fwd, u, bwd, i, tree):
    """Re-run row i from the converged diagonal (uniqueness made executable)."""
    x_leaf = fwd.X.level(tree.N)
    lam_rows, z_rows, _ = _bsvie_row_sweep(
        tree, {i: scenario.coeffs.psi.value(tree.t(i), tree.t(tree.N), x_leaf)},
        _bsvie_driver(scenario, tree, fwd, u), bwd.Y, [i])
    return lam_rows[0], z_rows[0]


def per_pair_forward(scenario, u, tree) -> AdaptedProcess:
    """X by the Euler sweep that evaluates b and sigma with ``value`` at
    every pair (t_i, t_j), j < i: N(N+1)/2 evaluations of each."""
    co = scenario.coeffs
    levels = [co.phi.value(tree, 0)]
    for i in range(1, tree.N + 1):
        terms = []
        for j in range(i):
            args = {"x": levels[j], "u": u.level(j)}
            terms += (tree.dt * co.b.value(tree.t(i), tree.t(j), **args),
                      tree.dw_term(co.sigma.value(tree.t(i), tree.t(j), **args), j))
        terms.append(co.phi.value(tree, i))
        levels.append(tree.level_sum(terms, i))
    return AdaptedProcess(levels)


def per_pair_bsvie(scenario, fwd, u, tree) -> BackwardPath:
    """The two-pass BSVIE solve with g evaluated by ``value`` at every
    (t_i, t_r) of every row and in every sweep of the implicit steps.  Row
    i's sweeps start, where g is affine in y, at the solution of Y_i =
    mean + dt g(t_i, t_i, X_i, Y_i, Z(t_i, t_i), u_i), (I - dt k(t_i, t_i)
    G_y) y = mean + dt g0, g0 the g whose G_y is zero, else at the mean."""
    co, tols, N = scenario.coeffs, scenario.tolerances, tree.N
    g = _bsvie_driver(scenario, tree, fwd, u)
    g0 = AffineCoefficient(co.g.name, co.g.slots, co.g.kernel,
                           {**co.g.matrices, "y": np.zeros_like(co.g.matrices["y"])},
                           co.g.quads, co.g.const)
    x_leaf = fwd.X.level(N)
    lam = [[None] * N + [co.psi.value(tree.t(i), tree.t(N), x_leaf)]
           for i in range(N + 1)]
    z_rows = [[None] * N for _ in range(N + 1)]
    y = [None] * N + [lam[N][N]]
    worst = 0.0

    def run(i, start, stop):
        for r in range(start - 1, stop - 1, -1):
            mean, z_rows[i][r] = tree.repr_step(lam[i][r + 1])
            lam[i][r] = mean + tree.dt * g(i, r, y[r], z_rows[i][r])

    for i in range(N - 1, -1, -1):
        run(i, N, i + 1)
        mean, z = tree.repr_step(lam[i][i + 1])
        z_rows[i][i] = z
        start = mean
        if "y" in co.g.constant_slots:
            lhs = ScaledMatrix(None, co.g.kernel(tree.t(i), tree.t(i)) * co.g.matrices["y"])
            start = tree.implicit_solve(lhs, mean + tree.dt * g0.value(
                tree.t(i), tree.t(i), x=fwd.X.level(i), y=mean, z=z, u=u.level(i)))
        y_i, gap = _implicit_step(start, mean, lambda y_i: tree.dt * g(i, i, y_i, z),
                                  tols.picard_tol, tols.picard_max_iter, i)
        y[i] = lam[i][i] = y_i
        worst = max(worst, gap)
    for i in range(1, N + 1):
        run(i, i, 0)
    return BackwardPath(Y=AdaptedProcess(y), Z=two_param(z_rows),
                        residual_history=[worst])


def per_row_linear_backward(tree: Tree, psi_rows, A=None, B=None, D=None,
                            theta=None, include_diag_A: bool = True,
                            include_diag_B: bool = False) -> BackwardSolution:
    """``solve_linear_backward`` one row at a time: each row i = N-1..0
    descends to its diagonal and then on to level 0 by itself, giving
    Z(i, j < i) before row i - 1 reads Z(i, i - 1).  Every kernel is
    applied pair by pair, and each term joins the run on its own level,
    the finer of the kernel value's and the vector's; a level's terms go
    in the solver's order: B(i,j) Z(j,i) and A(i,j) Y_j by ascending j,
    then B(i,N) nu_i, A(i,N) theta and the free terms psi_rows[i] in list
    order, the leaf terms summed in that order to start the run.  mu is
    the run of theta that gives nu."""
    N = tree.N
    mu = nu = None
    if theta is not None:
        mus, nus = [None] * N + [theta], [None] * N
        _row_run(tree, mus, nus, N, 0)
        mu, nu = AdaptedProcess(mus), AdaptedProcess(nus)
    y_levels, z_rows = [None] * N, [None] * N
    for i in range(N - 1, -1, -1):
        terms = []
        for j in range(i + 1, N):
            if B is not None:
                terms.append(tree.dt * tree.matvec(B(i, j), z_rows[j][i]))
            if A is not None:
                terms.append(tree.dt * tree.matvec(A(i, j), y_levels[j]))
        if theta is not None and B is not None:
            terms.append(tree.matvec(B(i, N), nu.level(i)))
        if theta is not None and A is not None:
            terms.append(tree.matvec(A(i, N), theta))
        terms += psi_rows[i]
        by_level = [[term for term in terms if tree.level_of(term) == r]
                    for r in range(N + 1)]
        start = by_level[N][0]
        for term in by_level[N][1:]:
            start = start + term
        run, z_cols = [None] * N + [start], [None] * N
        _row_run(tree, run, z_cols, N, i, None if D is None else (
            lambda r, z: tree.matvec(D(i, r), z)), by_level)
        cur = run[i]
        if include_diag_B and B is not None:
            cur = cur + tree.dt * tree.matvec(B(i, i), z_cols[i])
        if include_diag_A and A is not None:
            cur = tree.implicit_solve(A(i, i), cur)
        run[i] = y_levels[i] = cur
        _row_run(tree, run, z_cols, i, 0)
        z_rows[i] = z_cols
    return backward_solution(AdaptedProcess(y_levels), two_param(z_rows), mu=mu, nu=nu)


def leaf_fredholm_row_residual(tree: Tree, sol: FredholmSolution, i: int, alpha_rows,
                               A=None, B=None, D=None, beta=None,
                               include_diag_A: bool = True) -> float:
    """Row i of ``fredholm_residuals`` as one ``level_sum`` of its terms up
    to the leaves, every kernel applied pair by pair and every dW_j term
    formed by ``dw_term``, then its defect against xi_i, and the run
    defects each formed in full."""
    N = tree.N

    def terms():
        for j in range(i):
            if B is not None:
                proj = tree.cond_expect(tree.tmatvec(B(j, i), sol.cond_exp(j, N)), j)
                yield tree.dw_term(proj, j)
        yield np.array(alpha_rows[i], dtype=float)
        hi = min(i, N - 1) if include_diag_A else i - 1
        for j in range(hi + 1):
            if A is not None:
                yield tree.dt * tree.tmatvec(A(j, i), sol.cond_exp(j, i))
        for j in range(i, N):
            if D is not None:
                yield tree.dw_term(tree.tmatvec(D(i, j), sol.cond_exp(i, j)), j)
        if beta is not None:
            yield tree.ito_sum(lambda j: tree.embed(beta(i, j), j), 0, N)

    defects = [sol.cond_exp(i, N) - tree.level_sum(terms(), N)]
    defects += [sol.cond_exp(i, r) - tree.cond_expect(sol.cond_exp(i, r + 1), r)
                for r in range(i, N)]
    return max(float(np.abs(d).max()) for d in defects)


def leaf_backward_row_residual(tree: Tree, sol: BackwardSolution, i: int, psi_rows,
                               A=None, B=None, D=None, theta=None,
                               include_diag_A: bool = True,
                               include_diag_B: bool = False) -> float:
    """Row i of ``backward_residuals`` as one ``level_sum`` of its terms up
    to the leaves, pair by pair, against Y_i embedded in the leaves; the
    terms go in the check's order."""
    N = tree.N

    def terms():
        if B is not None:
            if theta is not None:
                yield tree.matvec(B(i, N), sol.nu.level(i))
            for j in range(i if include_diag_B else i + 1, N):
                yield tree.dt * tree.matvec(B(i, j), sol.Z.value(j, i))
        for j in range(i, N):
            if A is not None and (include_diag_A or j > i):
                yield tree.dt * tree.matvec(A(i, j), sol.Y.level(j))
            if D is not None:
                yield tree.dt * tree.matvec(D(i, j), sol.Z.value(i, j))
            yield from (term for term in psi_rows[i] if max(tree.level_of(term), i) == j)
            yield -tree.dw_term(sol.Z.value(i, j), j)
        if A is not None and theta is not None:
            yield tree.matvec(A(i, N), theta)
        yield from (term for term in psi_rows[i] if tree.level_of(term) == N)

    return float(np.abs(tree.embed(sol.Y.level(i), N) - tree.level_sum(terms(), N)).max())


def leaf_msolution_identity_residuals(tree: Tree, sol: BackwardSolution) -> list:
    """``msolution_identity_residuals`` with each row's sum formed."""
    out = []
    for i in range(sol.Y.last_level + 1):
        y = sol.Y.level(i)
        recon = tree.level_sum(
            [tree.cond_expect(y, 0)]
            + [tree.dw_term(sol.Z.value(i, j), j) for j in range(i)], i)
        out.append(float(np.abs(y - recon).max()))
    return out


def leaf_adjoint_residuals(scenario: Scenario, bundle, tree: Tree) -> dict:
    """``adjoint_residuals`` from the leaf-summed row checks above, with
    the (p, q) free terms F_i rebuilt from their definition and the mu/nu
    tails formed in full at every step."""
    N, fro = tree.N, bundle.frozen
    lam_rows, lam_kernels = _lambda0_equation(tree, fro)
    res1 = leaf_fredholm_row_residual(tree, bundle.lam, 0, lam_rows, **lam_kernels)
    alpha_rows, xi_kernels = _xi_equation(tree, fro, bundle.lam)
    res2 = max(leaf_fredholm_row_residual(tree, bundle.xi, i, alpha_rows, **xi_kernels)
               for i in range(N))
    xi_stack = bundle.xi.levels[-1]
    theta = _theta_equation(tree, fro, bundle.lambda0, xi_stack)
    p_rows, pq_kernels = _pq_rows(tree, fro, bundle.lam, xi_stack), _pq_kernels(fro, theta)
    pq = bundle.pq
    res3 = 0.0
    tail = np.zeros_like(theta)
    for i in range(N, -1, -1):
        if i < N:
            tail = tail + tree.embed(tree.dw_term(pq.nu.level(i), i), N)
        res3 = max(res3, float(np.abs(
            tree.embed(pq.mu.level(i), N) - (theta - tail)).max()))
    res4 = max(max(leaf_backward_row_residual(tree, pq, i, p_rows, **pq_kernels)
                   for i in range(N)), backward_run_residual(tree, pq))
    return {"lambda0": res1, "xi": res2, "mu_nu": res3, "pq": res4,
            "m_identity": max(leaf_msolution_identity_residuals(tree, pq))}


def solve_bsde(tree: Tree, terminal: np.ndarray, driver,
               picard_tol: float = 1e-12, picard_max_iter: int = 200):
    """Backward recursion Y_j = E_j[Y_{j+1}] + driver(t_j, Y_j, Z_j) dt.

    The BSDE that a BSVIE reduces to when neither its generator nor its
    terminal map depends on t.  Z_j is the representation integrand of
    Y_{j+1}; the driver step is implicit in y and solved by the BSVIE
    solver's ``_implicit_step``.  Returns (Y levels 0..N, Z levels 0..N-1).
    """
    if tree.level_of(terminal) != tree.N:
        raise ValueError("terminal value must be a leaf field")
    y_levels = [None] * (tree.N + 1)
    z_levels = [None] * tree.N
    y_levels[tree.N] = np.asarray(terminal, dtype=float)
    for j in range(tree.N - 1, -1, -1):
        mean, z = tree.repr_step(y_levels[j + 1])
        y_levels[j], _ = _implicit_step(
            mean, mean, lambda y: tree.dt * driver(tree.t(j), y, z),
            picard_tol, picard_max_iter, j)
        z_levels[j] = z
    return AdaptedProcess(y_levels), AdaptedProcess(z_levels)


def jacobian_discrepancies(scenario: Scenario) -> dict:
    """Analytic jacobians of the catalog objects against central finite
    differences: ``"<object>.d<slot>"`` -> relative discrepancy, for every
    slot where it exceeds 1e-6.  Six random probes, all at (t, s) =
    (t_1, t_0); point probes on the grid cannot refute a (t, t')
    continuity modulus, so none is checked."""
    out = {}
    rng = np.random.default_rng(scenario.seed + 1)
    probes = {a: rng.standard_normal((6, d)) for a, d in
              (("x", scenario.n), ("y", scenario.m), ("z", scenario.m),
               ("u", scenario.l))}
    ts = grid_points(scenario.grid)
    t, s = float(ts[1]), float(ts[0])
    tree = scenario.tree()
    for obj in scenario.catalog.values():
        args = {a: probes[a] for a in obj.slots}
        for slot in obj.slots:
            jac = (np.broadcast_to(obj.grid_jacobians(slot, tree)[1, 0],
                                   (6,) + obj.grid_jacobians(slot, tree).shape[2:])
                   if slot in obj.constant_slots else obj.jacobian(slot, t, s, **args))
            fd = np.zeros_like(jac)
            for idx in range(args[slot].shape[1]):
                eps = 1e-5 * (1.0 + float(np.abs(args[slot][:, idx]).max()))
                step = np.zeros_like(args[slot])
                step[:, idx] = eps
                fd[..., idx] = (obj.value(t, s, **{**args, slot: args[slot] + step})
                                - obj.value(t, s, **{**args, slot: args[slot] - step})
                                ) / (2.0 * eps)
            scale = 1.0 + float(np.abs(jac).max())
            err = float(np.abs(jac - fd).max()) / scale
            if not err <= 1e-6:
                out[f"{obj.name}.d{slot}"] = err
    return out


def random_duality_instance(horizon: float, steps: int, m: int,
                            seed: int = 0, scale: float = 0.5) -> DualityInstance:
    """Fully random per-node data at a fixed grid (oracle-sized tests)."""
    tree = Tree.build(horizon, steps)
    rng = np.random.default_rng(seed)

    def kernel_factory():
        mats = {(i, j): rng.uniform(-scale, scale, (1 << j, m, m))
                for i in range(tree.N + 1) for j in range(tree.N + 1)}
        return lambda i, j: mats[(i, j)]

    A, B, D, A_tilde = (kernel_factory() for _ in range(4))
    alpha = [rng.standard_normal((1 << i, m)) for i in range(tree.N + 1)]
    betas = {(i, j): rng.standard_normal((1 << j, m))
             for i in range(tree.N + 1) for j in range(tree.N)}
    return DualityInstance(
        tree=tree, dim=m, alpha=alpha, beta=lambda i, j: betas[(i, j)],
        theta=rng.standard_normal((tree.n_leaves, m)),
        psi_rows=[rng.standard_normal((tree.n_leaves, m)) for _ in range(tree.N)],
        psi_tilde_rows=[rng.standard_normal((tree.n_leaves, m))
                        for _ in range(tree.N)],
        A=A, B=B, D=D, A_tilde=A_tilde)


def degenerate_duality_gaps(horizon: float, steps: int, m: int,
                            seed: int = 0) -> dict:
    """Gaps of the theta = 0 and beta = 0 reductions in transpose mode."""
    zero_beta = lambda i, j: np.zeros((1, m))
    inst = smooth_duality_instance(horizon, steps, m, seed)
    no_theta = DualityInstance(
        tree=inst.tree, dim=m, alpha=inst.alpha, beta=inst.beta,
        theta=np.zeros((inst.tree.n_leaves, m)), psi_rows=inst.psi_rows,
        psi_tilde_rows=inst.psi_tilde_rows, A=inst.A, B=inst.B, D=inst.D,
        A_tilde=inst.A_tilde)
    no_beta = DualityInstance(
        tree=inst.tree, dim=m, alpha=inst.alpha, beta=zero_beta,
        theta=inst.theta, psi_rows=inst.psi_rows,
        psi_tilde_rows=inst.psi_tilde_rows, A=inst.A, B=inst.B, D=inst.D,
        A_tilde=inst.A_tilde)
    return {
        "duality1_theta0": abs(check_duality_1(no_theta).gap),
        "duality1_beta0": abs(check_duality_1(no_beta).gap),
        "duality2_beta0": abs(check_duality_2(no_beta).gap),
    }


# ---------------------------------------------------------------------------
# operator transpose oracle


def _projector_matrix(tree: Tree, level: int, m: int) -> np.ndarray:
    return np.kron(projector(tree, level), np.eye(m))


def _embed_matrix(tree: Tree, level: int, m: int) -> np.ndarray:
    spatial = np.kron(np.eye(1 << level), np.ones((1 << (tree.N - level), 1)))
    return np.kron(spatial, np.eye(m))


def _dw_matrix(tree: Tree, j: int, m: int) -> np.ndarray:
    return np.kron(np.diag(dw_leaf(tree, j)), np.eye(m))


def _block_diag(tree: Tree, mats, m: int) -> np.ndarray:
    """Dense leaf block diagonal of the per-node transposes of a matrix
    field in either form."""
    leaf_mats = as_table(transpose(mats), tree.n_leaves)
    out = np.zeros((tree.n_leaves * m, tree.n_leaves * m))
    for k in range(tree.n_leaves):
        out[k * m:(k + 1) * m, k * m:(k + 1) * m] = leaf_mats[k]
    return out


def _primal_operator(inst: DualityInstance, include_diag_A: bool = True):
    """Dense leaf-resolution form of the primal Fredholm equation,
    xi = K xi + inject v, assembled from its defining discrete equation.

    xi stacks the N + 1 leaf rows; v stacks the alpha rows (row i at its
    level i), then beta(i, j) for every row i and j < N (at level j).
    Returns (K, inject, alpha_sizes, beta_sizes), the last two the
    lengths of the alpha and beta blocks of v.  Memory grows as
    ((N+1) 2^N m)^2.
    """
    tree, m = inst.tree, inst.dim
    N, L = tree.N, tree.n_leaves
    n_rows = N + 1
    row_size = L * m
    size = n_rows * row_size
    if size * size * 8 > 2 << 30:
        raise MemoryError(f"dense oracle needs {size}^2 entries; reduce N")

    K = np.zeros((size, size))
    proj = [_projector_matrix(tree, lev, m) for lev in range(N + 1)]
    dwm = [_dw_matrix(tree, j, m) for j in range(N)]
    for i in range(n_rows):
        sl = slice(i * row_size, (i + 1) * row_size)
        hi = min(i, N - 1) if include_diag_A else i - 1
        if inst.A is not None:
            for j in range(hi + 1):
                blk = _block_diag(tree, inst.A(j, i), m)
                K[sl, j * row_size:(j + 1) * row_size] += tree.dt * blk @ proj[i]
        if inst.B is not None:
            for j in range(i):
                blk = _block_diag(tree, inst.B(j, i), m)
                K[sl, j * row_size:(j + 1) * row_size] += dwm[j] @ proj[j] @ blk
        if inst.D is not None:
            for j in range(i, N):
                blk = _block_diag(tree, inst.D(i, j), m)
                K[sl, sl] += dwm[j] @ blk @ proj[j]

    # input coordinates: alpha rows (level i), then beta rows (level j)
    alpha_sizes = [(1 << i) * m for i in range(n_rows)]
    beta_sizes = [(1 << j) * m for j in range(N)]
    n_in = sum(alpha_sizes) + n_rows * sum(beta_sizes)
    inject = np.zeros((size, n_in))
    col = 0
    for i in range(n_rows):
        emb = _embed_matrix(tree, i, m)
        inject[i * row_size:(i + 1) * row_size, col:col + alpha_sizes[i]] = emb
        col += alpha_sizes[i]
    for i in range(n_rows):
        for j in range(N):
            emb = dwm[j] @ _embed_matrix(tree, j, m)
            inject[i * row_size:(i + 1) * row_size,
                   col:col + beta_sizes[j]] = emb
            col += beta_sizes[j]
    return K, inject, alpha_sizes, beta_sizes


def dense_fredholm_solve(inst: DualityInstance,
                         include_diag_A: bool = True) -> list:
    """The N + 1 primal Fredholm rows xi_i as (2^N, m) leaf fields, from one
    dense linear solve of the operator form (independent of the sweep)."""
    tree = inst.tree
    K, inject, _, _ = _primal_operator(inst, include_diag_A)
    v = np.concatenate([np.ravel(a) for a in inst.alpha]
                       + [np.ravel(inst.beta(i, j))
                          for i in range(tree.N + 1) for j in range(tree.N)])
    xi = np.linalg.solve(np.eye(len(K)) - K, inject @ v)
    return list(xi.reshape(tree.N + 1, tree.n_leaves, inst.dim))


def operator_transpose_oracle(inst: DualityInstance,
                              include_diag_A: bool = True,
                              perturb: dict | None = None) -> np.ndarray:
    """Entrywise gap between the two bilinear forms of the first duality.

    Assembles the primal solution map from the defining discrete equation
    as one dense matrix (independently of the sweep solver) and compares
    the induced bilinear form with the one realized by the backward
    solver, coordinate by coordinate.  ``perturb`` optionally rescales a
    kernel family on the backward side only, e.g. {"A": 1e-3}, to measure
    sensitivity.  Memory grows as ((N+1) 2^N m)^2.
    """
    tree, m = inst.tree, inst.dim
    N, L = tree.N, tree.n_leaves
    n_rows = N + 1
    row_size = L * m

    # dense primal operator xi = (I - K)^{-1} (alpha-embed + beta-terms)
    K, inject, alpha_sizes, beta_sizes = _primal_operator(inst, include_diag_A)
    n_in = inject.shape[1]
    resolvent = np.linalg.inv(np.eye(len(K)) - K)
    xi_map = resolvent @ inject

    # left form: rows indexed by inputs, columns by (psi rows, theta)
    n_out = N * row_size + row_size
    weight = np.zeros((len(K), n_out))
    for i in range(N):
        weight[i * row_size:(i + 1) * row_size,
               i * row_size:(i + 1) * row_size] = tree.dt / L * np.eye(row_size)
    weight[N * row_size:, N * row_size:] = np.eye(row_size) / L
    left = xi_map.T @ weight

    # right form: backward solve per output basis vector
    factor = dict(perturb or {})

    def scaled(kernel, name):
        if kernel is None:
            return None
        if name not in factor:
            return kernel
        return lambda i, j: (1.0 + factor[name]) * kernel(i, j)

    Ab = scaled(inst.A, "A")
    Bb = scaled(inst.B, "B")
    Db = scaled(inst.D, "D")
    right = np.zeros((n_in, n_out))
    for out_idx in range(n_out):
        rows = [[np.zeros((L, m))] for _ in range(N)]
        theta = np.zeros((L, m))
        if out_idx < N * row_size:
            i, rem = divmod(out_idx, row_size)
            rows[i][0][rem // m, rem % m] = 1.0
        else:
            rem = out_idx - N * row_size
            theta[rem // m, rem % m] = 1.0
        sol = solve_linear_backward(tree, rows, A=Ab, B=Bb, D=Db,
                                    theta=theta, include_diag_A=include_diag_A)
        colvec = np.zeros(n_in)
        pos = 0
        for i in range(n_rows):
            if i < N:
                vals = tree.dt / (1 << i) * sol.Y.level(i)
            else:
                vals = theta / (1 << i)
            colvec[pos:pos + alpha_sizes[i]] = vals.ravel()
            pos += alpha_sizes[i]
        for i in range(n_rows):
            for j in range(N):
                if i < N:
                    vals = tree.dt ** 2 / (1 << j) * sol.Z.value(i, j)
                else:
                    vals = tree.dt / (1 << j) * sol.nu.level(j)
                colvec[pos:pos + beta_sizes[j]] = vals.ravel()
                pos += beta_sizes[j]
        right[:, out_idx] = colvec
    return left - right


# ---------------------------------------------------------------------------
# quadratic program over all control nodes


@dataclass
class QpResult:
    u_star: AdaptedProcess
    cost: float
    hessian: np.ndarray
    gradient0: np.ndarray


def _control_coords(tree: Tree, l: int):
    coords = []
    for j in range(tree.N):
        for node in range(1 << j):
            for c in range(l):
                coords.append((j, node, c))
    return coords


def _coords_to_control(tree: Tree, l: int, vec: np.ndarray) -> AdaptedProcess:
    levels = []
    pos = 0
    for j in range(tree.N):
        cnt = (1 << j) * l
        levels.append(vec[pos:pos + cnt].reshape(1 << j, l))
        pos += cnt
    return AdaptedProcess(levels)


def _sym(q: np.ndarray) -> np.ndarray:
    return 0.5 * (q + q.T)


def _node_block_diag(*fields) -> np.ndarray:
    """Block diagonal in the stacked node layout of adapted fields: each
    field lists one block per level, repeated on the 2**i nodes of level i."""
    blocks = [q for field in fields for i, q in enumerate(field)
              for _ in range(1 << i)]
    out = np.zeros((sum(q.shape[0] for q in blocks),) * 2)
    pos = 0
    for q in blocks:
        out[pos:pos + q.shape[0], pos:pos + q.shape[0]] = q
        pos += q.shape[0]
    return out


def qp_oracle(scenario: Scenario, tree: Tree | None = None,
              max_steps: int = 8) -> QpResult:
    """Exact finite-dimensional quadratic program over all control nodes.

    Requires affine coefficients (the state maps are then affine in the
    control coordinates, built column by column from basis runs) with the
    catalog's quadratic cost; the unconstrained case is one linear solve,
    per-node half-space regions use a primal active-set loop.
    """
    tree = tree or scenario.tree()
    if not scenario.coeffs.is_affine:
        raise ValueError("qp_oracle needs affine coefficients (LQ scenario)")
    if tree.N > max_steps:
        raise ValueError(f"qp_oracle capped at N <= {max_steps}")
    if not isinstance(scenario.constraint, Halfspaces):
        raise ValueError("qp_oracle supports unconstrained or half-space "
                         "control regions")
    l = scenario.l
    coords = _control_coords(tree, l)
    n_u = len(coords)

    # the affine state map is probed outside the control region
    free = dataclasses.replace(scenario,
                               constraint=ControlConstraint.unconstrained(l))

    def stack_states(u):
        fwd = simulate_forward(free, u, tree)
        bwd = solve_bsvie(scenario, fwd, u, tree)
        parts = [fwd.X.level(i).ravel() for i in range(tree.N + 1)]
        parts += [bwd.Y.level(i).ravel() for i in range(tree.N + 1)]
        parts += [bwd.Z.value(0, j).ravel() for j in range(tree.N)]
        return np.concatenate(parts), (fwd, bwd)

    zero_u = zero_process(tree.N - 1, l)
    s0, _ = stack_states(zero_u)
    columns = np.zeros((s0.size, n_u))
    for k in range(n_u):
        vec = np.zeros(n_u)
        vec[k] = 1.0
        sk, _ = stack_states(_coords_to_control(tree, l, vec))
        columns[:, k] = sk - s0

    # quadratic cost over (stacked states, control coordinates)
    def cost_quadratic(svec, uvec):
        # decode the stacked layout and apply the catalog cost with the
        # lattice probability weights
        pos = 0
        X, Y = [], []
        for i in range(tree.N + 1):
            cnt = (1 << i) * scenario.n
            X.append(svec[pos:pos + cnt].reshape(1 << i, scenario.n))
            pos += cnt
        for i in range(tree.N + 1):
            cnt = (1 << i) * scenario.m
            Y.append(svec[pos:pos + cnt].reshape(1 << i, scenario.m))
            pos += cnt
        Z0 = []
        for j in range(tree.N):
            cnt = (1 << j) * scenario.m
            Z0.append(svec[pos:pos + cnt].reshape(1 << j, scenario.m))
            pos += cnt
        u = _coords_to_control(tree, l, uvec)
        total = 0.0
        for j in range(tree.N):
            vals = scenario.cost.f.value(0.0, tree.t(j), x=X[j], y=Y[j], z=Z0[j],
                                         u=u.level(j))
            total += tree.dt * float(np.mean(vals))
        term = scenario.cost.h.value(0.0, tree.t(tree.N), X[tree.N],
                                      tree.embed(Y[0], tree.N))
        return total + float(np.mean(term))

    def total_cost(uvec):
        return cost_quadratic(s0 + columns @ uvec, uvec)

    # J(u) = c(s0 + C u, u) with the cost c quadratic and separable per
    # slot and node, so its Hessian is C' W C + W_u: W and W_u are block
    # diagonal, one probability-weighted symmetric slot quadratic per node
    f, h = scenario.cost.f, scenario.cost.h
    N, dt = tree.N, tree.dt
    fx, fy, fz, fu = (_sym(f.quads[a]) for a in ("x", "y", "z", "u"))
    x_blocks = [dt / (1 << i) * fx for i in range(N)] + [_sym(h.qx) / (1 << N)]
    y_blocks = [dt / (1 << i) * fy for i in range(N)] + [0.0 * fy]
    y_blocks[0] = y_blocks[0] + _sym(h.qy)  # h sees Y_0 on every leaf
    W = _node_block_diag(x_blocks, y_blocks,
                         [dt / (1 << j) * fz for j in range(N)])
    W_u = _node_block_diag([dt / (1 << j) * fu for j in range(N)])
    H = columns.T @ W @ columns + W_u
    # the gradient at u = 0 by central differences (exact for a quadratic)
    c0 = total_cost(np.zeros(n_u))
    grad0 = np.array([(total_cost(e) - total_cost(-e)) / 2.0
                      for e in np.eye(n_u)])
    if scenario.constraint.whole_space:
        u_vec = np.linalg.solve(H, -grad0)
    else:
        u_vec = _active_set_qp(scenario, tree, coords, H, grad0)
    u_star = _coords_to_control(tree, l, u_vec)
    return QpResult(u_star=u_star, cost=float(
        0.5 * u_vec @ H @ u_vec + grad0 @ u_vec + c0), hessian=H,
        gradient0=grad0)


def _active_set_qp(scenario, tree, coords, H, grad0, max_iter=200):
    """Primal active-set loop for per-node half-space constraints."""
    A_node = scenario.constraint.normals
    b_node = scenario.constraint.offsets
    l = scenario.l
    n_u = len(coords)
    # per-node constraints lifted to the full coordinate space
    rows, offs = [], []
    pos = 0
    for j in range(tree.N):
        for node in range(1 << j):
            for r in range(A_node.shape[0]):
                row = np.zeros(n_u)
                row[pos:pos + l] = A_node[r]
                rows.append(row)
                offs.append(b_node[r])
            pos += l
    A = np.array(rows)
    b = np.array(offs)
    x = np.zeros(n_u)
    if np.any(A @ x > b + 1e-12):
        raise ValueError("active-set start point infeasible")
    active = []
    for _ in range(max_iter):
        # solve the equality-constrained KKT system on the active set
        k = len(active)
        kkt = np.zeros((n_u + k, n_u + k))
        kkt[:n_u, :n_u] = H
        rhs = np.concatenate([-grad0, b[active] if k else np.zeros(0)])
        if k:
            kkt[:n_u, n_u:] = A[active].T
            kkt[n_u:, :n_u] = A[active]
        sol = np.linalg.solve(kkt, rhs)
        target, lam = sol[:n_u], sol[n_u:]
        if np.allclose(target, x, atol=1e-12):
            if k == 0 or np.all(lam >= -1e-10):
                return x
            active.pop(int(np.argmin(lam)))
            continue
        direction = target - x
        alpha = 1.0
        hit = None
        for r in range(A.shape[0]):
            if r in active:
                continue
            adv = A[r] @ direction
            if adv > 1e-14:
                room = (b[r] - A[r] @ x) / adv
                if room < alpha:
                    alpha, hit = room, r
        x = x + alpha * direction
        if hit is not None:
            active.append(hit)
    raise RuntimeError("active-set QP did not converge")


# ---------------------------------------------------------------------------
# per-point control-region geometry and the per-node NC sweep


def point_values(c: ControlConstraint, u: np.ndarray) -> np.ndarray:
    """Constraint values g_i(u) at one point, written out per region."""
    u = np.asarray(u, dtype=float)
    if c.whole_space:
        return np.zeros(0)
    if isinstance(c, Ball):
        centre, r = c.center, c.radius
        return np.array([float((u - centre) @ (u - centre)) - r * r])
    if isinstance(c, Halfspaces):
        return c.normals @ u - c.offsets
    return np.array([float(u @ t["quad"] @ u + t["lin"] @ u + t["const"])
                     for t in c.terms])


def point_contains(c: ControlConstraint, u: np.ndarray, tol: float = 1e-9) -> bool:
    vals = point_values(c, u)
    return bool(vals.size == 0 or np.all(vals <= tol * (1.0 + np.abs(vals))))


def point_project(c: ControlConstraint, u: np.ndarray) -> np.ndarray:
    """Euclidean projection of one point, written out per region."""
    u = np.asarray(u, dtype=float)
    if c.whole_space:
        return u.copy()
    if isinstance(c, Ball):
        centre, r = c.center, c.radius
        gap = u - centre
        norm = float(np.linalg.norm(gap))
        return u.copy() if norm <= r else centre + gap * (r / norm)
    if isinstance(c, Halfspaces):
        A, b = c.normals, c.offsets
        if np.all(A @ u <= b + 1e-12):
            return u.copy()
        best, best_d = None, math.inf
        for size in range(1, min(A.shape[0], c.dim) + 1):
            for rows in combinations(range(A.shape[0]), size):
                As = A[list(rows)]
                try:
                    lam = np.linalg.solve(As @ As.T, As @ u - b[list(rows)])
                except np.linalg.LinAlgError:
                    continue
                if np.any(lam < -1e-12):
                    continue
                cand = u - As.T @ lam
                if np.all(A @ cand <= b + 1e-9):
                    d = float(np.linalg.norm(cand - u))
                    if d < best_d:
                        best, best_d = cand, d
        if best is None:
            raise ProjectionUnavailable("halfspace projection: no feasible KKT point")
        return best
    if c._radial is None:
        raise ProjectionUnavailable(
            "no closed-form projection for this quadratics constraint")
    lo, hi = math.sqrt(c._radial[0]), math.sqrt(c._radial[1])
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        out = np.zeros(c.dim)
        out[0] = lo
        return out
    return u * (min(max(norm, lo), hi) / norm)


def nc_sweep_oracle(scenario: Scenario, u: AdaptedProcess, tree: Tree,
                    hu: AdaptedProcess) -> NCReport:
    """The pointwise NC sweep one node at a time: the adjacent cone of
    every node, then the linear minimum over it and the unit ball."""
    tol = scenario.tolerances.activity_tol
    worst = 0.0
    worst_loc = (0, 0)
    rows = []
    sup_grad = 0.0
    for level in range(tree.N):
        hu_level = hu.level(level)
        u_level = u.level(level)
        for node in range(hu_level.shape[0]):
            grad = hu_level[node]
            sup_grad = max(sup_grad, float(np.linalg.norm(grad)))
            normals = adjacent_cone(scenario.constraint, u_level[node], tol)
            kind = "polyhedral" if normals.any() else "full"
            val = float(cone_min_linear(grad, normals)[0])
            if val < worst:
                worst = val
                worst_loc = (level, node)
            rows.append((level, node, val, kind))
    return NCReport(worst_value=worst, worst_location=worst_loc, rows=rows,
                    sup_gradient=sup_grad)


# ---------------------------------------------------------------------------
# adjacent cones: KKT multipliers and the limit definition


def cone_contains(normals: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    """Membership of v in {v : normals @ v <= 0}, relative to |v|."""
    scale = 1.0 + float(np.linalg.norm(v))
    return bool(np.all(normals @ v <= tol * scale))


def lawson_hanson_nnls(A: np.ndarray, b: np.ndarray):
    """min_{x >= 0} ||A x - b||: Lawson-Hanson active-set iteration, the
    independent reference for the support enumeration of ``cones.nnls``.

    Repeatedly solves the unconstrained least squares on the passive set
    and clips negative entries; exact termination for the small systems
    used here.  Returns (x, residual_norm).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    resid = b - A @ x
    tol = 1e-12 * (1.0 + float(np.abs(A).max(initial=0.0))) * (
        1.0 + float(np.abs(b).max(initial=0.0)))
    for _ in range(6 * n + 30):
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


def kkt_multipliers(F: np.ndarray, active_normals):
    """Multipliers lambda >= 0 minimizing ||F + sum lambda_i w_i||.

    A residual near zero certifies the inclusion form of the first-order
    condition: -F lies in the cone generated by the active gradients.
    Zero normals (inactive inequalities) get lambda = 0.
    """
    F = np.asarray(F, dtype=float)
    W = np.atleast_2d(np.asarray(active_normals, dtype=float))
    if W.shape[0] == 0:
        return np.zeros(0), float(np.linalg.norm(F))
    return lawson_hanson_nnls(W.T, -F)


def dist_limit_probe(constraint: ControlConstraint, u: np.ndarray,
                     v: np.ndarray, h_sequence=None, probe_tol: float = 1e-6):
    """Difference quotients dist(u + h v, U) / h along a shrinking h-grid.

    Returns (quotients, member, v_h) where membership extrapolates the
    last two quotients linearly to h = 0 (an admissible tangent direction
    has quotient O(h), an outward one a positive limit) and v_h is the
    feasible perturbation (y_h - u)/h built from the projection y_h at
    the smallest h.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if h_sequence is None:
        h_sequence = [2.0 ** -k for k in range(2, 13)]
    quotients = []
    for h in h_sequence:
        point = u + h * v
        y_h = constraint.project(point)
        quotients.append(float(np.linalg.norm(y_h - point)) / h)
    limit = (2.0 * quotients[-1] - quotients[-2] if len(quotients) >= 2
             else quotients[-1])
    member = limit <= probe_tol * (1.0 + float(np.linalg.norm(v)))
    v_h = (y_h - u) / h_sequence[-1]
    return quotients, member, v_h


# ---------------------------------------------------------------------------
# Gateaux derivative of the cost against the Hamiltonian pairing


@dataclass
class GateauxReport:
    pairing: float
    quotients: dict      # eps -> one-sided quotient
    centered: dict       # eps -> centered quotient

    def gap(self, eps: float) -> float:
        return abs(self.centered[eps] - self.pairing)


def gateaux_vs_hamiltonian(scenario: Scenario, u: AdaptedProcess,
                           v: AdaptedProcess, eps_sequence,
                           tree: Tree | None = None,
                           state=None) -> GateauxReport:
    """Difference quotients of the cost against the gradient pairing.

    For admissible directions of a feasible control the one-sided
    quotient converges to the pairing; for affine dynamics with quadratic
    cost the centered quotient equals it for every eps.
    """
    tree = tree or scenario.tree()
    if state is None:
        fwd, bwd, bundle, hu = full_pipeline(scenario, u, tree)
        j0 = evaluate_cost(scenario, u, tree, state=(fwd, bwd))
    else:
        fwd, bwd, bundle, hu, j0 = state
    pairing = control_pairing(tree, hu, v)
    quotients, centered = {}, {}
    for eps in eps_sequence:
        v_eps = feasible_direction(scenario, u, v, eps)
        j_up = evaluate_cost(scenario, u + eps * v_eps, tree)
        quotients[eps] = (j_up - j0) / eps
        try:
            j_dn = evaluate_cost(scenario, u + (-eps) * v_eps, tree)
        except SimulationError:  # the backward step left the control region
            centered[eps] = float("nan")
        else:
            centered[eps] = (j_up - j_dn) / (2.0 * eps)
    return GateauxReport(pairing=pairing, quotients=quotients, centered=centered)
