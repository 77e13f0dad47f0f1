"""Executable verification of the analytical machinery at desk scale.

Two discretization conventions are available for the duality checks:

* ``transpose``: the backward solvers are the exact algebraic transposes
  of the primal sweeps (the conditional-expectation Fredholm equation
  includes its diagonal index, as does the backward Y-coupling), so both
  duality identities hold to rounding error.
* ``continuum``: each side discretizes its own integrals with plain
  left-point sums (strict Volterra triangle on the primal side, full
  left-point sums including the B-diagonal on the backward side); the
  identities then hold up to O(dt).

The first duality identity pairs the Fredholm family against the
M-solution backward family; the second pairs its t = 0 row against the
C-adapted backward equation.  The pointwise sweep, the difference-quotient
checks and the projected gradient all consume the same cost functional

    J(u) = E[ dt * sum_s f(s, X_s, Y_s, Z(0,s), u_s) + h(X_T, Y_0) ].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import (FrozenCoefficients, assemble_adjoint,
                      hamiltonian_gradient, solve_fredholm)
from .backward import solve_bsvie, solve_linear_backward
from .cones import adjacent_cone, cone_min_linear, kkt_multipliers
from .forward import SimulationError, simulate_forward, simulate_forward_linear
from .lattice import AdaptedProcess, Tree
from .scenario import ProjectionUnavailable, Scenario


# ---------------------------------------------------------------------------
# cost functional and pipeline


def solve_state(scenario: Scenario, u: AdaptedProcess, tree: Tree):
    fwd = simulate_forward(scenario, u, tree)
    bwd = solve_bsvie(scenario, fwd, u, tree)
    return fwd, bwd


def evaluate_cost(scenario: Scenario, u: AdaptedProcess, tree: Tree,
                  state=None) -> float:
    fwd, bwd = state if state is not None else solve_state(scenario, u, tree)
    total = 0.0
    for j in range(tree.N):
        vals = scenario.cost.f.value(tree.t(j), x=fwd.X.level(j),
                                     y=bwd.Y.level(j), z=bwd.Z.value(0, j),
                                     u=u.level(j))
        total += tree.dt * float(np.mean(vals))
    terminal = scenario.cost.h.value(fwd.X.level(tree.N),
                                     tree.embed(bwd.Y.level(0), tree.N))
    return total + float(np.mean(terminal))


def full_pipeline(scenario: Scenario, u: AdaptedProcess, tree: Tree):
    fwd, bwd = solve_state(scenario, u, tree)
    bundle = assemble_adjoint(scenario, fwd, bwd, u, tree)
    hu = hamiltonian_gradient(scenario, bundle, fwd, bwd, u, tree)
    return fwd, bwd, bundle, hu


def control_pairing(tree: Tree, hu: AdaptedProcess, v: AdaptedProcess) -> float:
    """E of dt * sum_s <H_u(s), v(s)> over the grid."""
    return sum(tree.dt * float(np.mean(np.sum(hu.level(j) * v.level(j), axis=1)))
               for j in range(tree.N))


# ---------------------------------------------------------------------------
# duality instances


@dataclass
class DualityInstance:
    """Data of the linear duality pair.

    Kernels are callables (i, j) -> per-node (m, m) matrices, always in
    (earlier, later) slot order; column j = N is the boundary slot.
    ``alpha`` rows are adapted at their own level; ``psi_rows`` and
    ``psi_tilde_rows`` are leaf fields (F_T-measurable free terms).
    """

    tree: Tree
    dim: int
    alpha: list
    beta: object
    theta: np.ndarray
    psi_rows: list
    psi_tilde_rows: list
    A: object = None
    B: object = None
    D: object = None
    A_tilde: object = None


def smooth_duality_instance(horizon: float, steps: int, m: int,
                            seed: int = 0) -> DualityInstance:
    """Seeded instance built from smooth functions of (t, s) and the
    Brownian path, consistent across grid refinements."""
    tree = Tree.build(horizon, steps)
    rng = np.random.default_rng(seed)

    def kernel_factory():
        c0 = rng.uniform(-0.6, 0.6, (m, m))
        c1 = rng.uniform(-0.4, 0.4, (m, m))
        a, b, phase = rng.uniform(0.5, 2.0, 3)
        mix = rng.uniform(0.1, 0.4)

        def kernel(i, j):
            t, s = tree.t(i), tree.t(j)
            base = c0 + c1 * math.sin(a * t + b * s + phase)
            w = tree.w(j)
            factor = 1.0 + mix * np.tanh(w)
            return base[None, :, :] * factor[:, None, None]

        return kernel

    A, B, D, A_tilde = (kernel_factory() for _ in range(4))
    a0 = rng.uniform(-1.0, 1.0, m)
    a1 = rng.uniform(-0.5, 0.5, m)
    alpha = [np.tile(a0 * (1.0 + 0.5 * math.sin(tree.t(i))), (1 << i, 1))
             + tree.w(i)[:, None] * a1[None, :] for i in range(tree.N + 1)]
    b0 = rng.uniform(-0.8, 0.8, m)

    def beta(i, j):
        scale = 1.0 + 0.3 * math.cos(tree.t(i) + 2.0 * tree.t(j))
        return np.tile(b0 * scale, (1 << j, 1)) * (
            1.0 + 0.2 * np.tanh(tree.w(j)))[:, None]

    wN = tree.w(tree.N)
    c = rng.uniform(-0.7, 0.7, (3, m))
    theta = c[0][None, :] + wN[:, None] * c[1][None, :] \
        + (wN ** 2)[:, None] * c[2][None, :]
    p = rng.uniform(-0.7, 0.7, (2, m))
    psi_rows = [np.tile(p[0] * (1.0 + 0.4 * math.cos(tree.t(i))), (tree.n_leaves, 1))
                + wN[:, None] * p[1][None, :] for i in range(tree.N)]
    q = rng.uniform(-0.7, 0.7, (2, m))
    psi_tilde_rows = [
        np.tile(q[0] * (1.0 - 0.3 * math.sin(tree.t(i))), (tree.n_leaves, 1))
        + (wN ** 2)[:, None] * q[1][None, :] * 0.5 for i in range(tree.N)]
    return DualityInstance(tree=tree, dim=m, alpha=alpha, beta=beta,
                           theta=theta, psi_rows=psi_rows,
                           psi_tilde_rows=psi_tilde_rows, A=A, B=B, D=D,
                           A_tilde=A_tilde)


def _pair(tree: Tree, a: np.ndarray, b: np.ndarray) -> float:
    """E<a, b> at the common refinement level."""
    lev = max(tree.level_of(a), tree.level_of(b))
    return float(np.mean(np.sum(tree.embed(a, lev) * tree.embed(b, lev),
                                axis=1)))


@dataclass
class DualityReport:
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs


def check_duality_1(inst: DualityInstance, mode: str = "transpose") -> DualityReport:
    """First identity: the xi family against the M-solution backward family.

      E<xi_N, theta> + dt sum_i E<psi_i, xi_i>
        = E<alpha_N, theta> + dt sum_j E<beta(N,j), nu_j>
        + dt sum_i E<Y_i, alpha_i> + dt^2 sum_ij E<Z(i,j), beta(i,j)>
    """
    if mode not in ("transpose", "continuum"):
        raise ValueError(f"unknown duality mode {mode!r}")
    tree = inst.tree
    xi = solve_fredholm(tree, inst.alpha, A=inst.A, B=inst.B, D=inst.D,
                        beta=inst.beta, include_diag_A=(mode == "transpose"))
    bwd = solve_linear_backward(tree, inst.psi_rows, A=inst.A, B=inst.B,
                                D=inst.D, theta=inst.theta,
                                include_diag_A=True,
                                include_diag_B=(mode == "continuum"))
    lhs = _pair(tree, xi.xi[tree.N], inst.theta)
    lhs += sum(tree.dt * _pair(tree, inst.psi_rows[i], xi.xi[i])
               for i in range(tree.N))
    rhs = _pair(tree, tree.embed(inst.alpha[tree.N], tree.N), inst.theta)
    rhs += sum(tree.dt * _pair(tree, inst.beta(tree.N, j), bwd.nu.level(j))
               for j in range(tree.N))
    rhs += sum(tree.dt * _pair(tree, bwd.Y.level(i), inst.alpha[i])
               for i in range(tree.N))
    rhs += sum(tree.dt ** 2 * _pair(tree, bwd.Z.value(i, j), inst.beta(i, j))
               for i in range(tree.N) for j in range(tree.N))
    return DualityReport(lhs=lhs, rhs=rhs)


def check_duality_2(inst: DualityInstance, mode: str = "transpose") -> DualityReport:
    """Second identity: the t = 0 Fredholm row against the C-adapted family.

      E<xi_0, psi~_0> + dt sum_k E<E_k xi_0, A~(0,k) Y~_k>
        = <Y~_0, E xi_0> + dt sum_j E<Z~(0,j), beta(0,j)>

    (E xi_0 equals alpha_0 whenever the t = 0 row carries no Y-coupling,
    which is the continuum statement.)
    """
    if mode not in ("transpose", "continuum"):
        raise ValueError(f"unknown duality mode {mode!r}")
    tree = inst.tree
    xi = solve_fredholm(tree, inst.alpha, A=inst.A, B=inst.B, D=inst.D,
                        beta=inst.beta, include_diag_A=(mode == "transpose"))
    tilde = solve_linear_backward(tree, inst.psi_tilde_rows, A=inst.A_tilde,
                                  D=inst.D, theta=None, include_diag_A=True)
    xi0 = xi.xi[0]
    lhs = _pair(tree, xi0, inst.psi_tilde_rows[0])
    if inst.A_tilde is not None:
        lhs += sum(tree.dt * _pair(tree, tree.matvec(inst.A_tilde(0, k),
                                                     tilde.Y.level(k)),
                                   tree.cond_expect(xi0, k))
                   for k in range(tree.N))
    rhs = float(np.sum(tilde.Y.level(0)[0] * tree.expectation(xi0)))
    rhs += sum(tree.dt * _pair(tree, tilde.Z.value(0, j), inst.beta(0, j))
               for j in range(tree.N))
    return DualityReport(lhs=lhs, rhs=rhs)


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
# variational system and convergence


def solve_variational(scenario: Scenario, fwd, bwd, u: AdaptedProcess,
                      v: AdaptedProcess, tree: Tree | None = None):
    """Linear perturbation system with coefficients frozen along the
    state triple; returns (X1, Y1, Z1) with Y1 on levels 0..N."""
    tree = tree or scenario.tree()
    fro = FrozenCoefficients(scenario, tree, fwd, bwd, u)
    x1 = simulate_forward_linear(scenario, fwd, v, tree)
    N = tree.N
    x1_leaf = x1.level(N)
    rows = []
    for i in range(N):
        row = tree.matvec(fro.psi_x(i), x1_leaf)
        for j in range(i, N):
            term = tree.matvec(fro.g_slot("x", i, j), x1.level(j)) \
                + tree.matvec(fro.g_slot("u", i, j), v.level(j))
            row = row + tree.dt * tree.embed(term, N)
        rows.append(row)
    sol = solve_linear_backward(tree, rows,
                                A=lambda i, j: fro.g_slot("y", i, j),
                                D=lambda i, j: fro.g_slot("z", i, j),
                                include_diag_A=True)
    y_levels = [sol.Y.level(i) for i in range(N)]
    y_levels.append(tree.matvec(fro.psi_x(N), x1_leaf))
    return x1, AdaptedProcess(y_levels), sol.Z


def feasible_direction(scenario: Scenario, u: AdaptedProcess,
                       v: AdaptedProcess, eps: float) -> AdaptedProcess:
    """Per-node admissible perturbation v_eps with u + eps v_eps feasible,
    built from the nearest point to u + eps v (the convex-variation map
    when the region is convex)."""
    if scenario.constraint.variant == "unconstrained":
        return v
    moved = (u + eps * v).map(scenario.constraint.project)
    return AdaptedProcess([(y - x) / eps for y, x in zip(moved.levels, u.levels)])


@dataclass
class ConvergenceReport:
    eps: list
    err_x: list
    err_yz: list

    def slope(self, which: str = "x") -> float:
        errs = np.array(self.err_x if which == "x" else self.err_yz)
        eps = np.array(self.eps)
        keep = errs > 1e-24
        if keep.sum() < 2:
            return float("nan")
        return float(np.polyfit(np.log(eps[keep]), np.log(errs[keep]), 1)[0])

    def monotone(self) -> bool:
        pairs = zip(self.err_x[:-1], self.err_x[1:])
        return all(b <= a + 1e-24 for a, b in pairs)


def convergence_test(scenario: Scenario, u: AdaptedProcess, v: AdaptedProcess,
                     eps_sequence, tree: Tree | None = None) -> ConvergenceReport:
    """Mean-square distance of difference quotients to the variational
    solution: affine coefficients give exactly zero, smooth perturbations
    an O(eps^2) decay."""
    tree = tree or scenario.tree()
    fwd, bwd = solve_state(scenario, u, tree)
    x1, y1, z1 = solve_variational(scenario, fwd, bwd, u, v, tree)
    N = tree.N
    err_x, err_yz = [], []
    for eps in eps_sequence:
        v_eps = feasible_direction(scenario, u, v, eps)
        fwd_e, bwd_e = solve_state(scenario, u + eps * v_eps, tree)
        ex = 0.0
        for i in range(N + 1):
            diff = (fwd_e.X.level(i) - fwd.X.level(i)) / eps - x1.level(i)
            ex = max(ex, float(np.mean(np.sum(diff ** 2, axis=1))))
        eyz = 0.0
        for i in range(N + 1):
            diff = (bwd_e.Y.level(i) - bwd.Y.level(i)) / eps - y1.level(i)
            val = float(np.mean(np.sum(diff ** 2, axis=1)))
            if i < N:
                for s in range(i, N):
                    dz = (bwd_e.Z.value(i, s) - bwd.Z.value(i, s)) / eps \
                        - z1.value(i, s)
                    val += tree.dt * float(np.mean(np.sum(dz ** 2, axis=1)))
            eyz = max(eyz, val)
        err_x.append(ex)
        err_yz.append(eyz)
    return ConvergenceReport(eps=list(eps_sequence), err_x=err_x, err_yz=err_yz)


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


# ---------------------------------------------------------------------------
# pointwise necessary condition


@dataclass
class NCReport:
    worst_value: float
    worst_location: tuple
    trivial_fraction: float
    max_kkt_residual: float
    rows: list = field(default_factory=list)
    sup_gradient: float = 0.0

    def certified(self, tol: float) -> bool:
        return self.worst_value >= -tol

    def to_json(self) -> dict:
        return {
            "worst_value": self.worst_value,
            "worst_level": self.worst_location[0],
            "worst_node": self.worst_location[1],
            "trivial_fraction": self.trivial_fraction,
            "max_kkt_residual": self.max_kkt_residual,
            "sup_gradient": self.sup_gradient,
        }


def check_pointwise_nc(scenario: Scenario, u: AdaptedProcess,
                       tree: Tree | None = None, state=None) -> NCReport:
    """Sweep every (level, node): minimize <H_u, v> over the adjacent cone
    intersected with the unit ball; the worst value certifies (near-)
    stationarity when it stays above -tolerance.

    On the lattice the sweep covers every node, which is strictly
    stronger than the almost-everywhere statement it discretizes.
    ``ControlConstraint.activity`` classifies each level at once; interior
    and unconstrained nodes have the full space as cone (minimum -|H_u|,
    KKT residual |H_u|), and only nodes with an active inequality build
    a cone and reach NNLS.  Cone-trivial nodes are counted, not
    certified.  Raises ValueError naming the first infeasible node.
    """
    tree = tree or scenario.tree()
    hu = state if state is not None else full_pipeline(scenario, u, tree)[3]
    constraint = scenario.constraint
    tol = scenario.tolerances.activity_tol
    worst = 0.0
    worst_loc = (0, 0)
    n_trivial = 0
    max_resid = 0.0
    rows = []
    sup_grad = 0.0
    for level in range(tree.N):
        grads, u_level = hu.level(level), u.level(level)
        within, active = constraint.activity(u_level, tol)
        if not within.all():
            node = int(np.argmin(within.all(axis=1)))
            raise ValueError(f"control outside the region at level {level}, "
                             f"node {node}: g = {constraint.values(u_level[node])}")
        norms = np.sqrt(np.vecdot(grads, grads))
        vals = np.where(norms == 0.0, 0.0, -norms)
        resids = norms.copy()
        kinds = ["full"] * len(norms)
        for node in np.flatnonzero(active.any(axis=1)):
            cone = adjacent_cone(constraint, u_level[node], tol)
            kinds[node] = "trivial" if cone.is_trivial() else "polyhedral"
            _, resids[node] = kkt_multipliers(grads[node], cone.normals)
            vals[node], _ = cone_min_linear(grads[node], cone)
        n_trivial += kinds.count("trivial")
        # fmax/fmin skip NaN entries, as the node-by-node comparisons did
        sup_grad = max(sup_grad, float(np.fmax.reduce(norms)))
        max_resid = max(max_resid, float(np.fmax.reduce(resids)))
        low = float(np.fmin.reduce(vals))
        if low < worst:
            worst, worst_loc = low, (level, int(np.argmax(vals == low)))
        rows.extend(zip([level] * len(norms), range(len(norms)), vals.tolist(),
                        kinds, resids.tolist()))
    return NCReport(worst_value=worst, worst_location=worst_loc,
                    trivial_fraction=n_trivial / max(len(rows), 1),
                    max_kkt_residual=max_resid, rows=rows,
                    sup_gradient=sup_grad)


# ---------------------------------------------------------------------------
# FBSDE degeneration: the time-invariant reduction of the adjoint system


def fbsde_reduced_gradient(scenario: Scenario, u: AdaptedProcess,
                           tree: Tree | None = None):
    """Gradient via the closed recursions of the time-invariant reduction.

    Independent of the Fredholm and backward-family solvers: builds the
    aggregate processes directly with the lattice primitives.

    * combined multiplier L_j = E_j[lambda0] + dt sum_{i<=j} E_j[xi_i]
      from the implicit one-step recursion
        (I - dt g_y') L_{j+1} = L_j + (f_z(j) + g_z' L_j) dW_j + dt f_y(j+1)
      (no f_y feed on the final step, where no new xi row enters);
    * P_j = E_j[theta + dt sum_{i>j} p_i], Q_j its integrand, via
        P_j = E_j[P_{j+1} + dt p_{j+1}],
        p_j = b_x' P_j + sigma_x' Q_j + f_x(j) + g_x' L_j;
    * H_u(j) = f_u(j) + g_u' L_j + b_u' P_j + sigma_u' Q_j.

    Returns (H_u, L levels 0..N, P, Q, p_reduced).
    """
    tree = tree or scenario.tree()
    if not scenario.coeffs.time_invariant:
        raise ValueError("the reduction needs time-invariant coefficients")
    fwd, bwd = solve_state(scenario, u, tree)
    fro = FrozenCoefficients(scenario, tree, fwd, bwd, u)
    N = tree.N

    def solve_gy(rhs, j):
        return tree.implicit_solve(np.swapaxes(fro.g_slot("y", 0, j), 1, 2), rhs)

    h_y_mean = tree.expectation(fro.h_y())
    L = [solve_gy(h_y_mean[None, :] + tree.dt * fro.f_slot("y", 0), 0)]
    for j in range(N):
        incr = fro.f_slot("z", j) + tree.tmatvec(fro.g_slot("z", 0, j), L[j])
        nxt = np.repeat(L[j], 2, axis=0) + tree.dw_term(incr, j)
        if j + 1 <= N - 1:
            nxt = solve_gy(nxt + tree.dt * fro.f_slot("y", j + 1), j + 1)
        L.append(nxt)

    theta = fro.h_x() + tree.tmatvec(fro.psi_x(0), L[N])
    P = [None] * N
    Q = [None] * N
    p_red = [None] * N
    P[N - 1], Q[N - 1] = tree.repr_step(theta)

    def reduced_p(j):
        return (tree.tmatvec(fro.b_x(j, j), P[j])
                + tree.tmatvec(fro.sigma_x(j, j), Q[j])
                + fro.f_slot("x", j)
                + tree.tmatvec(fro.g_slot("x", 0, j), L[j]))

    p_red[N - 1] = reduced_p(N - 1)
    for j in range(N - 2, -1, -1):
        arg = P[j + 1] + tree.dt * p_red[j + 1]
        P[j], Q[j] = tree.repr_step(arg)
        p_red[j] = reduced_p(j)

    levels = []
    for j in range(N):
        levels.append(fro.f_slot("u", j)
                      + tree.tmatvec(fro.g_slot("u", 0, j), L[j])
                      + tree.tmatvec(fro.b_u(j, j), P[j])
                      + tree.tmatvec(fro.sigma_u(j, j), Q[j]))
    return (AdaptedProcess(levels), [np.asarray(x) for x in L],
            P, Q, p_red)


def degenerate_fbsde_check(scenario: Scenario, u: AdaptedProcess,
                           tree: Tree | None = None) -> dict:
    """Node-wise gaps between the Volterra pipeline and the reduction.

    Returns the sup gaps of the gradient (both routes), of the combined
    multiplier identity E_j lambda0 + dt sum_{i<=j} E_j xi_i = L_j, and of
    the reduced equation p_i = b_x'P_i + sigma_x'Q_i + f_x + g_x'L_i with
    (P, Q) aggregated from the bundle.
    """
    tree = tree or scenario.tree()
    fwd, bwd, bundle, hu = full_pipeline(scenario, u, tree)
    hu_red, L, P_red, Q_red, _ = fbsde_reduced_gradient(scenario, u, tree)
    N = tree.N
    gap_hu = (hu - hu_red).sup_norm()

    gap_lambda = 0.0
    for j in range(N):
        agg = bundle.Lambda.level(j).copy()
        for i in range(j + 1):
            agg = agg + tree.dt * bundle.xi.cond_exp(i, j)
        gap_lambda = max(gap_lambda, float(np.abs(agg - L[j]).max()))

    fro = bundle.frozen
    gap_p = 0.0
    for j in range(N):
        P_j = bundle.mu.level(j).copy()
        Q_j = bundle.nu.level(j).copy()
        for i in range(j + 1, N):
            P_j = P_j + tree.dt * tree.cond_expect(bundle.pq.p.level(i), j)
            Q_j = Q_j + tree.dt * bundle.pq.q.value(i, j)
        reduced = (tree.tmatvec(fro.b_x(j, j), P_j)
                   + tree.tmatvec(fro.sigma_x(j, j), Q_j)
                   + fro.f_slot("x", j)
                   + tree.tmatvec(fro.g_slot("x", 0, j), L[j]))
        gap_p = max(gap_p, float(np.abs(bundle.pq.p.level(j) - reduced).max()))
    return {"gradient": gap_hu, "lambda_identity": gap_lambda,
            "p_identity": gap_p}


# ---------------------------------------------------------------------------
# optimization


def projected_gradient(scenario: Scenario, u0: AdaptedProcess,
                       step: float = 0.5, max_iter: int = 200,
                       grad_tol: float = 1e-9,
                       tree: Tree | None = None):
    """Pointwise projected gradient u <- proj_U(u - step * H_u) with
    backtracking; terminates when the gradient-map norm drops below
    grad_tol.  Returns (u_star, cost_history)."""
    tree = tree or scenario.tree()
    if not scenario.constraint.has_exact_projection:
        raise ProjectionUnavailable(
            f"projected gradient needs a pointwise projection for variant "
            f"{scenario.constraint.variant!r}")
    u = u0
    state = solve_state(scenario, u, tree)
    cost = evaluate_cost(scenario, u, tree, state=state)
    history = [cost]
    for _ in range(max_iter):
        bundle = assemble_adjoint(scenario, *state, u, tree)
        hu = hamiltonian_gradient(scenario, bundle, *state, u, tree)
        trial_step = step
        for _ in range(40):
            cand = (u + (-trial_step) * hu).map(scenario.constraint.project)
            gap = (cand - u).sup_norm()
            if gap / trial_step < grad_tol:
                return u, history
            cand_state = solve_state(scenario, cand, tree)
            cand_cost = evaluate_cost(scenario, cand, tree, state=cand_state)
            if cand_cost <= cost + 1e-14 * (1.0 + abs(cost)):
                u, state, cost = cand, cand_state, cand_cost
                break
            trial_step *= 0.5
        else:  # no step lowered the cost
            return u, history + [cost]
        history.append(cost)
    return u, history
