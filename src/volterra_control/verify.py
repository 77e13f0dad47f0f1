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

from .adjoint import (FredholmSolution, FrozenCoefficients, assemble_adjoint,
                      hamiltonian_gradient, solve_fredholm)
from .backward import kernel_terms, solve_bsvie, solve_linear_backward
from .cones import LicqError, adjacent_cone, cone_min_linear
from .forward import simulate_forward, simulate_forward_linear
from .lattice import AdaptedProcess, ScaledMatrix, Tree, outer, transpose
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
    fro = FrozenCoefficients(scenario, tree, fwd, bwd, u)
    total = 0.0
    for j in range(tree.N):
        total += tree.dt * float(np.mean(fro.value("f", 0, j)))
    return total + float(np.mean(fro.value("h", 0, tree.N)))


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


@dataclass(frozen=True)
class DualityInstance:
    """Data of the linear duality pair.

    Kernels are callables (i, j) -> (m, m) matrix fields, a per-node
    table or a ``ScaledMatrix``, always in (earlier, later) slot order;
    column j = N is the boundary slot.
    ``alpha`` rows are adapted at their own level; ``psi_rows`` and
    ``psi_tilde_rows`` are leaf fields (F_T-measurable free terms).

    An instance is immutable, so both duality checks can share one
    primal solve: ``fredholm(mode)`` solves the Fredholm family once per
    mode and caches the solution.
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
    _fredholm: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def fredholm(self, mode: str) -> FredholmSolution:
        """The primal Fredholm rows in ``mode`` (diagonal A term included
        in transpose mode), solved on first use."""
        if mode not in ("transpose", "continuum"):
            raise ValueError(f"unknown duality mode {mode!r}")
        if mode not in self._fredholm:
            self._fredholm[mode] = solve_fredholm(
                self.tree, self.alpha, A=self.A, B=self.B, D=self.D,
                beta=self.beta, include_diag_A=(mode == "transpose"))
        return self._fredholm[mode]


def smooth_duality_instance(horizon: float, steps: int, m: int,
                            seed: int = 0) -> DualityInstance:
    """Seeded instance built from smooth functions of (t, s) and the
    Brownian path, consistent across grid refinements.  Each kernel is
    the factored ScaledMatrix (1 + mix tanh W_j, base(t_i, t_j)), its
    per-level scales built once."""
    tree = Tree.build(horizon, steps)
    rng = np.random.default_rng(seed)
    tanh_w = [np.tanh(tree.w(j)) for j in range(tree.N + 1)]

    def kernel_factory():
        c0 = rng.uniform(-0.6, 0.6, (m, m))
        c1 = rng.uniform(-0.4, 0.4, (m, m))
        a, b, phase = rng.uniform(0.5, 2.0, 3)
        mix = rng.uniform(0.1, 0.4)
        scales = [1.0 + mix * w for w in tanh_w]

        def kernel(i, j):
            t, s = tree.t(i), tree.t(j)
            return ScaledMatrix(scales[j], c0 + c1 * math.sin(a * t + b * s + phase))

        return kernel

    A, B, D, A_tilde = (kernel_factory() for _ in range(4))
    a0 = rng.uniform(-1.0, 1.0, m)
    a1 = rng.uniform(-0.5, 0.5, m)
    alpha = [a0 * (1.0 + 0.5 * math.sin(tree.t(i))) + outer(tree.w(i), a1)
             for i in range(tree.N + 1)]
    b0 = rng.uniform(-0.8, 0.8, m)
    beta_scales = [1.0 + 0.2 * w for w in tanh_w]

    def beta(i, j):
        scale = 1.0 + 0.3 * math.cos(tree.t(i) + 2.0 * tree.t(j))
        return outer(beta_scales[j], b0 * scale)

    wN = tree.w(tree.N)
    wN2 = wN ** 2
    c = rng.uniform(-0.7, 0.7, (3, m))
    theta = c[0] + outer(wN, c[1]) + outer(wN2, c[2])
    p = rng.uniform(-0.7, 0.7, (2, m))
    psi_path = outer(wN, p[1])  # the row-invariant parts, built once
    psi_rows = [p[0] * (1.0 + 0.4 * math.cos(tree.t(i))) + psi_path
                for i in range(tree.N)]
    q = rng.uniform(-0.7, 0.7, (2, m))
    tilde_path = outer(wN2, q[1]) * 0.5
    psi_tilde_rows = [q[0] * (1.0 - 0.3 * math.sin(tree.t(i))) + tilde_path
                      for i in range(tree.N)]
    return DualityInstance(tree=tree, dim=m, alpha=alpha, beta=beta,
                           theta=theta, psi_rows=psi_rows,
                           psi_tilde_rows=psi_tilde_rows, A=A, B=B, D=D,
                           A_tilde=A_tilde)


def _pair(tree: Tree, a: np.ndarray, b: np.ndarray) -> float:
    """E<a, b> at the common refinement level: numpy's pairwise sum of the
    products, whose rounding does not grow with the node count as a
    sequential dot product's does."""
    lev = max(tree.level_of(a), tree.level_of(b))
    products = tree.embed(a, lev).T * tree.embed(b, lev).T  # nodes last, C order
    return float(np.sum(products.ravel())) / tree.n_nodes(lev)


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
    tree = inst.tree
    xi = inst.fredholm(mode)
    bwd = solve_linear_backward(tree, [[row] for row in inst.psi_rows], A=inst.A, B=inst.B,
                                D=inst.D, theta=inst.theta,
                                include_diag_A=True,
                                include_diag_B=(mode == "continuum"))
    rows = xi.xi
    lhs = _pair(tree, rows[tree.N], inst.theta)
    lhs += sum(tree.dt * _pair(tree, inst.psi_rows[i], rows[i])
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
    tree = inst.tree
    xi = inst.fredholm(mode)
    tilde = solve_linear_backward(tree, [[row] for row in inst.psi_tilde_rows], A=inst.A_tilde,
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
    g_x, g_u = fro.kernel("g", "x"), fro.kernel("g", "u")
    # psi_x(i, N) X1_T for the rows i = 0..N, the last one Y1's leaf level
    psi_terms = list(kernel_terms(tree, fro.kernel("psi", "x"), range(N + 1), N,
                                  x1.level(N)))
    # row i's free terms dt (g_x(i,j) X1_j + g_u(i,j) v_j), j >= i, then its leaf term
    rows = [[tree.dt * (x + u) for x, u in zip(
        kernel_terms(tree, g_x, i, range(i, N), x1.levels[i:N]),
        kernel_terms(tree, g_u, i, range(i, N), v.levels[i:N]))] + [psi_terms[i]]
        for i in range(N)]
    sol = solve_linear_backward(tree, rows, A=fro.kernel("g", "y"),
                                D=fro.kernel("g", "z"), include_diag_A=True)
    y1 = AdaptedProcess(sol.Y.levels + [psi_terms[N]])
    return x1, y1, sol.Z


def feasible_direction(scenario: Scenario, u: AdaptedProcess,
                       v: AdaptedProcess, eps: float) -> AdaptedProcess:
    """Per-node admissible perturbation v_eps with u + eps v_eps feasible,
    built from the nearest point to u + eps v (the convex-variation map
    when the region is convex)."""
    if scenario.constraint.whole_space:
        return v
    moved = (u + eps * v).map(scenario.constraint.project)
    return AdaptedProcess([(y - x) / eps for y, x in zip(moved.levels, u.levels)])


@dataclass
class ConvergenceReport:
    eps: list
    err_x: list
    err_yz: list

    def slope(self, which: str = "x") -> float | None:
        """Fitted log-log slope of the errors; None with fewer than two
        nonzero errors."""
        errs = np.array(self.err_x if which == "x" else self.err_yz)
        eps = np.array(self.eps)
        keep = errs > 1e-24
        if keep.sum() < 2:
            return None
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

    def errors(eps):  # the perturbed state lives only in this call
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
        return ex, eyz

    err_x, err_yz = [], []
    for eps in eps_sequence:
        ex, eyz = errors(eps)
        err_x.append(ex)
        err_yz.append(eyz)
    return ConvergenceReport(eps=list(eps_sequence), err_x=err_x, err_yz=err_yz)


# ---------------------------------------------------------------------------
# pointwise necessary condition


class NCReport:
    """The worst value and location of the NC sweep, with one row (level,
    node, minValue, cone kind) per node.  The sweep keeps its per-level
    (values, boundary mask) arrays as ``levels``; ``rows`` builds the
    tuples from them on first access (or is given as a list)."""

    def __init__(self, worst_value: float, worst_location: tuple,
                 sup_gradient: float, rows: list | None = None, levels=()):
        self.worst_value, self.worst_location = worst_value, worst_location
        self.sup_gradient, self._rows, self.levels = sup_gradient, rows, levels

    @property
    def rows(self) -> list:
        if self._rows is None:
            # an object table keeps one shared string per kind in the rows
            kinds = np.array(["full", "polyhedral"], dtype=object)
            self._rows = [row for level, (vals, boundary) in enumerate(self.levels)
                          for row in zip([level] * len(vals), range(len(vals)),
                                         vals.tolist(),
                                         kinds[boundary.astype(int)].tolist())]
        return self._rows

    def certified(self, tol: float) -> bool:
        return self.worst_value >= -tol

    def to_json(self) -> dict:
        return {
            "worst_value": self.worst_value,
            "worst_level": self.worst_location[0],
            "worst_node": self.worst_location[1],
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
    and unconstrained nodes have the full space as cone (minimum -|H_u|)
    and make no cone call, while the level's boundary nodes (an active
    inequality) share one ``adjacent_cone`` and one ``cone_min_linear``
    call.  Each row is (level, node, minValue, cone kind), the kind
    "full" or "polyhedral", built when ``rows`` is first read; -minValue
    is also the KKT residual min_{lambda >= 0} |H_u + W' lambda| of the
    node.  Raises ValueError
    naming the first infeasible node or the first node whose gradient is
    not finite, and LicqError naming the first node where LICQ fails.
    """
    tree = tree or scenario.tree()
    hu = state if state is not None else full_pipeline(scenario, u, tree)[3]
    constraint = scenario.constraint
    tol = scenario.tolerances.activity_tol
    worst = 0.0
    worst_loc = (0, 0)
    levels = []
    sup_grad = 0.0
    for level in range(tree.N):
        grads, u_level = hu.level(level), u.level(level)
        within, active = constraint.activity(u_level, tol)
        if not within.all():
            node = int(np.argmin(within.all(axis=1)))
            raise ValueError(f"control outside the region at level {level}, "
                             f"node {node}: g = {constraint.values(u_level[node])}")
        finite = np.isfinite(grads).all(axis=1)
        if not finite.all():
            node = int(np.argmin(finite))
            raise ValueError(f"non-finite gradient at level {level}, "
                             f"node {node}: H_u = {grads[node]}")
        norms = np.sqrt(np.vecdot(grads, grads))
        vals = np.where(norms == 0.0, 0.0, -norms)
        boundary = active.any(axis=1)
        if boundary.any():
            try:
                normals = adjacent_cone(constraint, u_level[boundary], tol)
            except LicqError as err:
                node = int(np.flatnonzero(boundary)[err.row[0]])
                raise LicqError((level, node), f"level {level}, node {node}",
                                err.reason) from err
            vals[boundary], _ = cone_min_linear(grads[boundary], normals)
        sup_grad = max(sup_grad, float(norms.max()))
        low = float(vals.min())
        if low < worst:
            worst, worst_loc = low, (level, int(np.argmax(vals == low)))
        levels.append((vals, boundary))
    return NCReport(worst_value=worst, worst_location=worst_loc,
                    sup_gradient=sup_grad, levels=levels)


# ---------------------------------------------------------------------------
# FBSDE degeneration: the time-invariant reduction of the adjoint system


def _reduced_p(tree: Tree, fro: FrozenCoefficients, j: int, P_j, Q_j, L_j):
    """The reduced equation p_j = b_x' P_j + sigma_x' Q_j + f_x(j) + g_x' L_j."""
    return (tree.tmatvec(fro.d("b", "x", j, j), P_j)
            + tree.tmatvec(fro.d("sigma", "x", j, j), Q_j)
            + fro.d("f", "x", 0, j)
            + tree.tmatvec(fro.d("g", "x", 0, j), L_j))


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
        return tree.implicit_solve(transpose(fro.d("g", "y", 0, j)), rhs)

    h_y_mean = tree.expectation(fro.d("h", "y", 0, N))
    L = [solve_gy(h_y_mean[None, :] + tree.dt * fro.d("f", "y", 0, 0), 0)]
    for j in range(N):
        incr = fro.d("f", "z", 0, j) + tree.tmatvec(fro.d("g", "z", 0, j), L[j])
        nxt = tree.ito_step(L[j], incr, j)
        if j + 1 <= N - 1:
            nxt = solve_gy(nxt + tree.dt * fro.d("f", "y", 0, j + 1), j + 1)
        L.append(nxt)

    theta = fro.d("h", "x", 0, N) + tree.tmatvec(fro.d("psi", "x", 0, N), L[N])
    P = [None] * N
    Q = [None] * N
    p_red = [None] * N
    P[N - 1], Q[N - 1] = tree.repr_step(theta)
    p_red[N - 1] = _reduced_p(tree, fro, N - 1, P[N - 1], Q[N - 1], L[N - 1])
    for j in range(N - 2, -1, -1):
        arg = P[j + 1] + tree.dt * p_red[j + 1]
        P[j], Q[j] = tree.repr_step(arg)
        p_red[j] = _reduced_p(tree, fro, j, P[j], Q[j], L[j])

    levels = []
    for j in range(N):
        levels.append(fro.d("f", "u", 0, j)
                      + tree.tmatvec(fro.d("g", "u", 0, j), L[j])
                      + tree.tmatvec(fro.d("b", "u", j, j), P[j])
                      + tree.tmatvec(fro.d("sigma", "u", j, j), Q[j]))
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

    fro, pq = bundle.frozen, bundle.pq
    gap_p = 0.0
    for j in range(N):
        P_j = pq.mu.level(j).copy()
        Q_j = pq.nu.level(j).copy()
        for i in range(j + 1, N):
            P_j = P_j + tree.dt * pq.cond_exp(i, j)
            Q_j = Q_j + tree.dt * pq.Z.value(i, j)
        reduced = _reduced_p(tree, fro, j, P_j, Q_j, L[j])
        gap_p = max(gap_p, float(np.abs(pq.Y.level(j) - reduced).max()))
    return {"gradient": gap_hu, "lambda_identity": gap_lambda,
            "p_identity": gap_p}


# ---------------------------------------------------------------------------
# optimization


def projected_gradient(scenario: Scenario, u0: AdaptedProcess,
                       step: float = 0.5, max_iter: int = 200,
                       grad_tol: float = 1e-9,
                       tree: Tree | None = None):
    """Monotone spectral projected gradient (Barzilai & Borwein 1988, in
    the projected form of Birgin, Martinez & Raydan 2000).

    Each iteration first stops when the gradient map at the fixed step,
    |proj_U(u - step * H_u) - u|_inf / step, is below grad_tol.  The first
    trial step is ``step``; later ones are the two-point step <s, s>/<s, y>
    with s = u_k - u_{k-1}, y = H_u(k) - H_u(k-1), both paired by
    ``control_pairing`` (the last accepted step is kept when <s, y> <= 0).
    The trial is halved along the projected arc proj_U(u - a * H_u) until
    the cost does not rise, so the history is nonincreasing.  Returns
    (u_star, cost_history)."""
    tree = tree or scenario.tree()
    if not scenario.constraint.has_exact_projection:
        raise ProjectionUnavailable(
            f"projected gradient needs a pointwise projection, which the "
            f"{scenario.constraint.to_json()['type']} region lacks")
    project = scenario.constraint.project
    u = u0
    state = solve_state(scenario, u, tree)
    cost = evaluate_cost(scenario, u, tree, state=state)
    history = [cost]
    trial_step, prev = step, None
    for _ in range(max_iter):
        # the bundle lives only while the gradient reads it
        hu = hamiltonian_gradient(scenario, assemble_adjoint(scenario, *state, u, tree),
                                  *state, u, tree)
        if ((u + (-step) * hu).map(project) - u).sup_norm() / step < grad_tol:
            return u, history
        if prev is not None:
            s, y = u - prev[0], hu - prev[1]
            sy = control_pairing(tree, y, s)
            if sy > 0.0:
                trial_step = control_pairing(tree, s, s) / sy
        for _ in range(40):
            cand = (u + (-trial_step) * hu).map(project)
            cand_state = solve_state(scenario, cand, tree)
            cand_cost = evaluate_cost(scenario, cand, tree, state=cand_state)
            if cand_cost <= cost + 1e-14 * (1.0 + abs(cost)):
                prev = u, hu
                u, state, cost = cand, cand_state, cand_cost
                break
            trial_step *= 0.5
        else:  # no step lowered the cost
            return u, history + [cost]
        history.append(cost)
    return u, history
