"""First-order adjoint system and the Hamiltonian gradient.

The bundle (lambda0, Lambda, xi, mu, nu, p, q) solves, on the lattice,

  lambda0 = E[h_y] + sum_j (f_z(j) + g_z(0,j)' Lambda_j) dW_j
  xi_i    = alpha_i + dt sum_{j<=i} g_y(j,i)' E_i[xi_j]
                    + sum_{j>=i} g_z(i,j)' E_j[xi_i] dW_j
  mu_i    = E_i[theta],   theta = h_x + psi_x(0)' lambda0 + dt sum_j psi_x(j)' xi_j
  p_i     = F_i + dt sum_{j>i} (b_x(j,i)' p_j + sigma_x(j,i)' q(j,i))
                - sum_{j>=i} q(i,j) dW_j

with alpha_i = g_y(0,i)' Lambda_i + f_y(i) and
F_i = b_x(N,i)' theta + sigma_x(N,i)' nu_i + g_x(0,i)' Lambda_i + f_x(i)
    + dt sum_{k<=i} g_x(k,i)' xi_k.

Sum conventions are the exact transposes of the primal solvers: the
xi-equation includes its diagonal index (its dual, the linearized
backward equation, sums from its own row), while the (p, q) equation is
strictly upper triangular (its dual is the strictly lower-triangular
forward Euler scheme).  The 0..i sums in F_i and in the control gradient
include the diagonal for the same reason.  These choices make the
difference-quotient identity for the cost exact in exact arithmetic.

The xi and (p, q) equations are each written down once, as free-term
rows plus kernels (``_xi_equation``, ``_pq_equation``); the solver in
``assemble_adjoint`` and the check in ``adjoint_residuals`` both read
that one statement.  mu and nu come with the (p, q) solve, which takes
theta as its boundary term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backward import (BackwardSolution, MSolution, backward_row_residual,
                       msolution_identity_residual, solve_linear_backward)
from .forward import ForwardPath
from .lattice import AdaptedProcess, Tree
from .scenario import Scenario


@dataclass
class FredholmSolution:
    """Rows xi_i (leaf fields) with their conditional runs E_r[xi_i], r >= i."""

    xi: list
    cond: list

    def n_rows(self) -> int:
        return len(self.xi)

    def cond_exp(self, i: int, r: int) -> np.ndarray:
        if r < i:
            raise ValueError(f"conditional run of row {i} starts at level {i}")
        return self.cond[i][r - i]


def solve_fredholm(tree: Tree, alpha_rows, A=None, B=None, D=None,
                   beta=None, include_diag_A: bool = True) -> FredholmSolution:
    """Ascending construction for the conditional-expectation Fredholm
    equation

      xi_i = alpha_i + dt sum_{j<=i} A(j,i)' E_i[xi_j]
           + sum_{j<i} E_j[B(j,i)' xi_j] dW_j + sum_{j<N} beta(i,j) dW_j
           + sum_{i<=j<N} D(i,j)' E_j[xi_i] dW_j

    (A-sum capped at j <= min(i, N-1); strict j < i when not
    ``include_diag_A``).  Row count equals len(alpha_rows); alpha_rows[i]
    is adapted at level i.  For each row the level-i part is formed first
    (one per-node linear solve when the diagonal A term is present), then
    the terminal value is propagated by the forward noise recursion, which
    realizes E_r[xi_i] exactly along the way.
    """
    N = tree.N
    n_rows = len(alpha_rows)
    if n_rows > N + 1:
        raise ValueError(f"at most {N + 1} rows, got {n_rows}")
    xi, cond = [], []
    for i in range(n_rows):
        known = np.array(alpha_rows[i], dtype=float)
        if tree.level_of(known) != i:
            raise ValueError(f"alpha row {i} must be adapted at level {i}")
        for j in range(i):
            if A is not None:
                known = known + tree.dt * tree.tmatvec(
                    A(j, i), tree.cond_expect(xi[j], i))
            if B is not None:
                proj = tree.cond_expect(tree.tmatvec(B(j, i), xi[j]), j)
                known = known + tree.embed(tree.dw_term(proj, j), i)
            if beta is not None:
                known = known + tree.embed(
                    tree.dw_term(tree.embed(beta(i, j), j), j), i)
        if include_diag_A and A is not None and i <= N - 1:
            known = tree.implicit_solve(np.swapaxes(A(i, i), 1, 2), known)
        run = [known]
        cur = known
        for r in range(i, N):
            incr = np.zeros_like(cur)
            if D is not None:
                incr = incr + tree.tmatvec(D(i, r), cur)
            if beta is not None:
                incr = incr + tree.embed(beta(i, r), r)
            cur = np.repeat(cur, 2, axis=0) + tree.dw_term(incr, r)
            run.append(cur)
        xi.append(cur)
        cond.append(run)
    return FredholmSolution(xi=xi, cond=cond)


def fredholm_row_residual(tree: Tree, sol: FredholmSolution, i: int, alpha_rows,
                          A=None, B=None, D=None, beta=None,
                          include_diag_A: bool = True) -> float:
    """Node-wise defect of row i of the defining discrete equation."""
    N = tree.N
    rhs = tree.embed(np.array(alpha_rows[i], dtype=float), N)
    hi = min(i, N - 1) if include_diag_A else i - 1
    for j in range(hi + 1):
        if A is not None:
            rhs = rhs + tree.dt * tree.embed(tree.tmatvec(
                A(j, i), tree.cond_expect(sol.xi[j], i)), N)
    for j in range(i):
        if B is not None:
            proj = tree.cond_expect(tree.tmatvec(B(j, i), sol.xi[j]), j)
            rhs = rhs + tree.embed(tree.dw_term(proj, j), N)
    if beta is not None:
        rhs = rhs + tree.ito_sum(lambda j: tree.embed(beta(i, j), j), 0, N)
    for j in range(i, N):
        if D is not None:
            term = tree.tmatvec(D(i, j), tree.cond_expect(sol.xi[i], j))
            rhs = rhs + tree.embed(tree.dw_term(term, j), N)
    return float(np.abs(sol.xi[i] - rhs).max())


def solve_lambda0(tree: Tree, fz: AdaptedProcess, gz0, mean0: np.ndarray):
    """Forward noise recursion for the F_T variable lambda(0).

    Lambda_0 = mean0; Lambda_{j+1} = Lambda_j + (fz_j + gz0(j)' Lambda_j) dW_j.
    Returns (lambda0 leaf field, Lambda with Lambda_r = E_r[lambda0]).
    """
    levels = [np.tile(np.asarray(mean0, dtype=float), (1, 1))]
    for j in range(tree.N):
        lam = levels[j]
        incr = fz.level(j) + tree.tmatvec(gz0(j), lam)
        levels.append(np.repeat(lam, 2, axis=0) + tree.dw_term(incr, j))
    return levels[-1], AdaptedProcess(levels)


class FrozenCoefficients:
    """Derivative evaluators frozen along a state 4-tuple, cached per (i, j)."""

    def __init__(self, scenario: Scenario, tree: Tree, fwd: ForwardPath, bwd, u):
        self.s = scenario
        self.tree = tree
        self.fwd = fwd
        self.bwd = bwd
        self.u = u
        self._cache = {}

    def _forward_args(self, j):
        return {"x": self.fwd.X.level(j), "u": self.u.level(j)}

    def _g_args(self, i, j):
        return {"x": self.fwd.X.level(j), "y": self.bwd.Y.level(j),
                "z": self.bwd.Z.value(i, j), "u": self.u.level(j)}

    def _get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def b_x(self, i, j):
        return self._get(("b_x", i, j), lambda: self.s.coeffs.b.jacobian(
            "x", self.tree.t(i), self.tree.t(j), **self._forward_args(j)))

    def b_u(self, i, j):
        return self._get(("b_u", i, j), lambda: self.s.coeffs.b.jacobian(
            "u", self.tree.t(i), self.tree.t(j), **self._forward_args(j)))

    def sigma_x(self, i, j):
        return self._get(("sigma_x", i, j), lambda: self.s.coeffs.sigma.jacobian(
            "x", self.tree.t(i), self.tree.t(j), **self._forward_args(j)))

    def sigma_u(self, i, j):
        return self._get(("sigma_u", i, j), lambda: self.s.coeffs.sigma.jacobian(
            "u", self.tree.t(i), self.tree.t(j), **self._forward_args(j)))

    def g_slot(self, slot, i, j):
        return self._get((f"g_{slot}", i, j), lambda: self.s.coeffs.g.jacobian(
            slot, self.tree.t(i), self.tree.t(j), **self._g_args(i, j)))

    def psi_x(self, i):
        return self._get(("psi_x", i), lambda: self.s.coeffs.psi.jacobian(
            self.tree.t(i), self.fwd.X.level(self.tree.N)))

    def _cost_args(self, j):
        return {"x": self.fwd.X.level(j), "y": self.bwd.Y.level(j),
                "z": self.bwd.Z.value(0, j), "u": self.u.level(j)}

    def f_slot(self, slot, j):
        return self._get((f"f_{slot}", j), lambda: self.s.cost.f.grad(
            slot, self.tree.t(j), **self._cost_args(j)))

    def h_x(self):
        return self._get(("h_x",), lambda: self.s.cost.h.grad_x(
            self.fwd.X.level(self.tree.N),
            self.tree.embed(self.bwd.Y.level(0), self.tree.N)))

    def h_y(self):
        return self._get(("h_y",), lambda: self.s.cost.h.grad_y(
            self.fwd.X.level(self.tree.N),
            self.tree.embed(self.bwd.Y.level(0), self.tree.N)))


@dataclass
class AdjointBundle:
    lambda0: np.ndarray
    Lambda: AdaptedProcess
    xi: FredholmSolution
    theta: np.ndarray
    mu: AdaptedProcess
    nu: AdaptedProcess
    pq: MSolution
    frozen: FrozenCoefficients


def _xi_equation(tree: Tree, fro: FrozenCoefficients, Lambda: AdaptedProcess):
    """The xi equation as ``solve_fredholm`` arguments: the free-term rows
    alpha_i = g_y(0,i)' Lambda_i + f_y(i) and the keyword arguments
    A = g_y, D = g_z, diagonal included."""
    alpha_rows = [tree.tmatvec(fro.g_slot("y", 0, i), Lambda.level(i))
                  + fro.f_slot("y", i) for i in range(tree.N)]
    return alpha_rows, {"A": lambda j, i: fro.g_slot("y", j, i),
                        "D": lambda i, j: fro.g_slot("z", i, j),
                        "include_diag_A": True}


def _pq_equation(tree: Tree, fro: FrozenCoefficients, Lambda: AdaptedProcess,
                 xi_rows, theta: np.ndarray):
    """The (p, q) equation as ``solve_linear_backward`` arguments: the
    free-term rows F_i and the keyword arguments A = b_x', B = sigma_x'
    (transposed, slots swapped), boundary theta, strict A-sum."""
    N = tree.N
    p_rows = []
    for i in range(N):
        row = tree.embed(fro.f_slot("x", i) + tree.tmatvec(
            fro.g_slot("x", 0, i), Lambda.level(i)), N)
        for k in range(i + 1):
            row = row + tree.dt * tree.tmatvec(fro.g_slot("x", k, i), xi_rows[k])
        p_rows.append(row)
    return p_rows, {"A": lambda i, j: np.swapaxes(fro.b_x(j, i), 1, 2),
                    "B": lambda i, j: np.swapaxes(fro.sigma_x(j, i), 1, 2),
                    "theta": theta, "include_diag_A": False}


def assemble_adjoint(scenario: Scenario, fwd: ForwardPath, bwd, u: AdaptedProcess,
                     tree: Tree | None = None) -> AdjointBundle:
    """Chain the four adjoint solves along the state triple (fwd, bwd, u)."""
    tree = tree or scenario.tree()
    N = tree.N
    fro = FrozenCoefficients(scenario, tree, fwd, bwd, u)

    fz = AdaptedProcess([fro.f_slot("z", j) for j in range(N)])
    mean0 = tree.expectation(fro.h_y())
    lambda0, Lambda = solve_lambda0(tree, fz, lambda j: fro.g_slot("z", 0, j),
                                    mean0)

    alpha_rows, xi_kernels = _xi_equation(tree, fro, Lambda)
    xi = solve_fredholm(tree, alpha_rows, **xi_kernels)

    theta = fro.h_x() + tree.tmatvec(fro.psi_x(0), lambda0)
    for j in range(N):
        theta = theta + tree.dt * tree.tmatvec(fro.psi_x(j), xi.xi[j])

    p_rows, pq_kernels = _pq_equation(tree, fro, Lambda, xi.xi, theta)
    pq_sol = solve_linear_backward(tree, p_rows, **pq_kernels)

    return AdjointBundle(lambda0=lambda0, Lambda=Lambda, xi=xi, theta=theta,
                         mu=pq_sol.mu, nu=pq_sol.nu, pq=pq_sol.as_msolution(),
                         frozen=fro)


def hamiltonian_gradient(scenario: Scenario, bundle: AdjointBundle,
                         fwd: ForwardPath, bwd, u: AdaptedProcess,
                         tree: Tree | None = None) -> AdaptedProcess:
    """Adapted gradient process pairing with control perturbations:

    H_u(j) = f_u(j) + g_u(0,j)' Lambda_j + dt sum_{i<=j} g_u(i,j)' E_j[xi_i]
           + b_u(N,j)' mu_j + sigma_u(N,j)' nu_j
           + dt sum_{i>j} (b_u(i,j)' E_j[p_i] + sigma_u(i,j)' q(i,j))
    """
    tree = tree or scenario.tree()
    N = tree.N
    fro = bundle.frozen
    levels = []
    for j in range(N):
        h = fro.f_slot("u", j) + tree.tmatvec(fro.g_slot("u", 0, j),
                                              bundle.Lambda.level(j))
        for i in range(j + 1):
            h = h + tree.dt * tree.tmatvec(fro.g_slot("u", i, j),
                                           bundle.xi.cond_exp(i, j))
        h = h + tree.tmatvec(fro.b_u(N, j), bundle.mu.level(j))
        h = h + tree.tmatvec(fro.sigma_u(N, j), bundle.nu.level(j))
        for i in range(j + 1, N):
            h = h + tree.dt * tree.tmatvec(
                fro.b_u(i, j), tree.cond_expect(bundle.pq.p.level(i), j))
            h = h + tree.dt * tree.tmatvec(fro.sigma_u(i, j),
                                           bundle.pq.q.value(i, j))
        levels.append(h)
    return AdaptedProcess(levels)


def adjoint_residuals(scenario: Scenario, bundle: AdjointBundle,
                      tree: Tree | None = None) -> dict:
    """Node-wise defects of the four adjoint equations plus the M-identity.

    Each equation is re-evaluated from the stored solution fields with the
    generic lattice operations, independently of the solver sweeps.
    """
    tree = tree or scenario.tree()
    N = tree.N
    fro = bundle.frozen

    # first equation: lambda0 forward identity
    integrand = lambda j: (fro.f_slot("z", j) + tree.tmatvec(
        fro.g_slot("z", 0, j), bundle.Lambda.level(j)))
    recon = tree.embed(np.tile(tree.expectation(fro.h_y()), (1, 1)), N) \
        + tree.ito_sum(integrand, 0, N)
    res1 = float(np.abs(bundle.lambda0 - recon).max())

    # second equation rows
    alpha_rows, xi_kernels = _xi_equation(tree, fro, bundle.Lambda)
    res2 = max(fredholm_row_residual(tree, bundle.xi, i, alpha_rows, **xi_kernels)
               for i in range(N))

    # third equation: mu_i = theta - sum_{j>=i} nu_j dW_j
    res3 = 0.0
    for i in range(N + 1):
        recon = bundle.theta - tree.ito_sum(bundle.nu, i, N)
        res3 = max(res3, float(np.abs(
            tree.embed(bundle.mu.level(i), N) - recon).max()))

    # fourth equation rows + M-identity
    p_rows, pq_kernels = _pq_equation(tree, fro, bundle.Lambda, bundle.xi.xi,
                                      bundle.theta)
    sol = BackwardSolution(Y=bundle.pq.p, Z=bundle.pq.q, mu=bundle.mu,
                           nu=bundle.nu)
    res4 = max(backward_row_residual(tree, sol, i, p_rows, **pq_kernels)
               for i in range(N))
    res_m = msolution_identity_residual(tree, sol)
    return {"lambda0": res1, "xi": res2, "mu_nu": res3, "pq": res4,
            "m_identity": res_m}
