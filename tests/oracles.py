"""Shared brute-force oracles used by the unit and acceptance tests.

Everything here works on dense leaf-resolution matrices assembled from
the defining discrete equations, or on exhaustive finite-dimensional
programs, independently of the package's sweep solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from volterra_control.backward import solve_bsvie, solve_linear_backward
from volterra_control.cones import adjacent_cone, cone_min_linear, kkt_multipliers
from volterra_control.forward import simulate_forward
from volterra_control.lattice import AdaptedProcess, Tree
from volterra_control.scenario import (ControlConstraint, ProjectionUnavailable,
                                       Scenario)
from volterra_control.verify import DualityInstance, NCReport


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
        rhs[q_slice(i)] = co.psi.value(tree.t(i), x_leaf)[:, 0]
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


# ---------------------------------------------------------------------------
# operator transpose oracle


def _projector_matrix(tree: Tree, level: int, m: int) -> np.ndarray:
    return np.kron(projector(tree, level), np.eye(m))


def _embed_matrix(tree: Tree, level: int, m: int) -> np.ndarray:
    spatial = np.kron(np.eye(1 << level), np.ones((1 << (tree.N - level), 1)))
    return np.kron(spatial, np.eye(m))


def _dw_matrix(tree: Tree, j: int, m: int) -> np.ndarray:
    return np.kron(np.diag(dw_leaf(tree, j)), np.eye(m))


def _block_diag(tree: Tree, mats: np.ndarray, m: int,
                transpose: bool = False) -> np.ndarray:
    leaf_mats = tree.embed(mats, tree.N)
    if transpose:
        leaf_mats = np.swapaxes(leaf_mats, 1, 2)
    out = np.zeros((tree.n_leaves * m, tree.n_leaves * m))
    for k in range(tree.n_leaves):
        out[k * m:(k + 1) * m, k * m:(k + 1) * m] = leaf_mats[k]
    return out


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
    size = n_rows * row_size
    if size * size * 8 > 2 << 30:
        raise MemoryError(f"dense oracle needs {size}^2 entries; reduce N")

    # dense primal operator xi = (I - K)^{-1} (alpha-embed + beta-terms)
    K = np.zeros((size, size))
    proj = [_projector_matrix(tree, lev, m) for lev in range(N + 1)]
    dwm = [_dw_matrix(tree, j, m) for j in range(N)]
    for i in range(n_rows):
        sl = slice(i * row_size, (i + 1) * row_size)
        hi = min(i, N - 1) if include_diag_A else i - 1
        if inst.A is not None:
            for j in range(hi + 1):
                blk = _block_diag(tree, inst.A(j, i), m, transpose=True)
                K[sl, j * row_size:(j + 1) * row_size] += tree.dt * blk @ proj[i]
        if inst.B is not None:
            for j in range(i):
                blk = _block_diag(tree, inst.B(j, i), m, transpose=True)
                K[sl, j * row_size:(j + 1) * row_size] += dwm[j] @ proj[j] @ blk
        if inst.D is not None:
            for j in range(i, N):
                blk = _block_diag(tree, inst.D(i, j), m, transpose=True)
                K[sl, sl] += dwm[j] @ blk @ proj[j]
    resolvent = np.linalg.inv(np.eye(size) - K)

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
    beta_col0 = col
    for i in range(n_rows):
        for j in range(N):
            emb = dwm[j] @ _embed_matrix(tree, j, m)
            inject[i * row_size:(i + 1) * row_size,
                   col:col + beta_sizes[j]] = emb
            col += beta_sizes[j]
    xi_map = resolvent @ inject

    # left form: rows indexed by inputs, columns by (psi rows, theta)
    n_out = N * row_size + row_size
    weight = np.zeros((size, n_out))
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
    zero_rows = [np.zeros((L, m)) for _ in range(N)]
    for out_idx in range(n_out):
        rows = [r.copy() for r in zero_rows]
        theta = np.zeros((L, m))
        if out_idx < N * row_size:
            i, rem = divmod(out_idx, row_size)
            rows[i][rem // m, rem % m] = 1.0
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


def qp_oracle(scenario: Scenario, tree: Tree | None = None,
              max_steps: int = 8) -> QpResult:
    """Exact finite-dimensional quadratic program over all control nodes.

    Requires affine coefficients (the state maps are then affine in the
    control coordinates, built column by column from basis runs) with the
    catalog's quadratic cost; the unconstrained case is one linear solve,
    per-node half-space regions use a primal active-set loop.
    """
    tree = tree or scenario.tree()
    if not scenario.is_lq:
        raise ValueError("qp_oracle needs affine coefficients (LQ scenario)")
    if tree.N > max_steps:
        raise ValueError(f"qp_oracle capped at N <= {max_steps}")
    if scenario.constraint.variant not in ("unconstrained", "halfspaces"):
        raise ValueError("qp_oracle supports unconstrained or half-space "
                         "control regions")
    l = scenario.l
    coords = _control_coords(tree, l)
    n_u = len(coords)

    def stack_states(u):
        fwd = simulate_forward(scenario, u, tree, check_constraint=False)
        bwd = solve_bsvie(scenario, fwd, u, tree)
        parts = [fwd.X.level(i).ravel() for i in range(tree.N + 1)]
        parts += [bwd.Y.level(i).ravel() for i in range(tree.N + 1)]
        parts += [bwd.Z.value(0, j).ravel() for j in range(tree.N)]
        return np.concatenate(parts), (fwd, bwd)

    zero_u = AdaptedProcess.zeros(tree.N - 1, l)
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
            vals = scenario.cost.f.value(tree.t(j), x=X[j], y=Y[j], z=Z0[j],
                                         u=u.level(j))
            total += tree.dt * float(np.mean(vals))
        term = scenario.cost.h.value(X[tree.N], tree.embed(Y[0], tree.N))
        return total + float(np.mean(term))

    def total_cost(uvec):
        return cost_quadratic(s0 + columns @ uvec, uvec)

    # quadratic form by exact polarization (the map is affine, J quadratic)
    c0 = total_cost(np.zeros(n_u))
    grad0 = np.zeros(n_u)
    H = np.zeros((n_u, n_u))
    basis_costs = np.zeros(n_u)
    for k in range(n_u):
        e = np.zeros(n_u)
        e[k] = 1.0
        up, dn = total_cost(e), total_cost(-e)
        grad0[k] = (up - dn) / 2.0
        H[k, k] = up + dn - 2.0 * c0
        basis_costs[k] = up
    for k in range(n_u):
        ek = np.zeros(n_u)
        ek[k] = 1.0
        for kk in range(k + 1, n_u):
            e2 = ek.copy()
            e2[kk] = 1.0
            H[k, kk] = H[kk, k] = total_cost(e2) - basis_costs[k] \
                - basis_costs[kk] + c0
    if scenario.constraint.variant == "unconstrained":
        u_vec = np.linalg.solve(H, -grad0)
    else:
        u_vec = _active_set_qp(scenario, tree, coords, H, grad0)
    u_star = _coords_to_control(tree, l, u_vec)
    return QpResult(u_star=u_star, cost=float(
        0.5 * u_vec @ H @ u_vec + grad0 @ u_vec + c0), hessian=H,
        gradient0=grad0)


def _active_set_qp(scenario, tree, coords, H, grad0, max_iter=200):
    """Primal active-set loop for per-node half-space constraints."""
    A_node = scenario.constraint.data["normals"]
    b_node = scenario.constraint.data["offsets"]
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
    """Constraint values g_i(u) at one point, written out per variant."""
    u = np.asarray(u, dtype=float)
    if c.variant == "unconstrained":
        return np.zeros(0)
    if c.variant == "ball":
        centre, r = c.data["center"], c.data["radius"]
        return np.array([float((u - centre) @ (u - centre)) - r * r])
    if c.variant == "halfspaces":
        return c.data["normals"] @ u - c.data["offsets"]
    return np.array([float(u @ t["quad"] @ u + t["lin"] @ u + t["const"])
                     for t in c.data["terms"]])


def point_contains(c: ControlConstraint, u: np.ndarray, tol: float = 1e-9) -> bool:
    vals = point_values(c, u)
    return bool(vals.size == 0 or np.all(vals <= tol * (1.0 + np.abs(vals))))


def point_project(c: ControlConstraint, u: np.ndarray) -> np.ndarray:
    """Euclidean projection of one point, written out per variant."""
    u = np.asarray(u, dtype=float)
    if c.variant == "unconstrained":
        return u.copy()
    if c.variant == "ball":
        centre, r = c.data["center"], c.data["radius"]
        gap = u - centre
        norm = float(np.linalg.norm(gap))
        return u.copy() if norm <= r else centre + gap * (r / norm)
    if c.variant == "halfspaces":
        A, b = c.data["normals"], c.data["offsets"]
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
    every node, then its linear minimum and KKT residual."""
    tol = scenario.tolerances.activity_tol
    worst = 0.0
    worst_loc = (0, 0)
    n_nodes = 0
    n_trivial = 0
    max_resid = 0.0
    rows = []
    sup_grad = 0.0
    for level in range(tree.N):
        hu_level = hu.level(level)
        u_level = u.level(level)
        for node in range(hu_level.shape[0]):
            n_nodes += 1
            grad = hu_level[node]
            sup_grad = max(sup_grad, float(np.linalg.norm(grad)))
            cone = adjacent_cone(scenario.constraint, u_level[node], tol)
            if cone.is_full_space:
                kind = "full"
                residual = float(np.linalg.norm(grad))
            else:
                if cone.is_trivial():
                    n_trivial += 1
                    kind = "trivial"
                else:
                    kind = "polyhedral"
                _, residual = kkt_multipliers(grad, cone.normals)
            val, _ = cone_min_linear(grad, cone)
            max_resid = max(max_resid, residual)
            if val < worst:
                worst = val
                worst_loc = (level, node)
            rows.append((level, node, val, kind, residual))
    return NCReport(worst_value=worst, worst_location=worst_loc,
                    trivial_fraction=n_trivial / max(n_nodes, 1),
                    max_kkt_residual=max_resid, rows=rows,
                    sup_gradient=sup_grad)
