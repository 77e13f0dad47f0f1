"""Explicit Euler solver for the controlled forward stochastic Volterra
integral equation on the lattice and its linearization; both run one Euler sweep.

Discrete sums are strictly lower triangular (left-point), so adaptedness
of every integrand is automatic:

    X(t_i) = phi(t_i) + dt * sum_{j<i} b(t_i, t_j, X_j, u_j)
                      + sum_{j<i} sigma(t_i, t_j, X_j, u_j) dW_j

The full kernel row is re-evaluated at each i (Volterra memory): O(N^2)
coefficient evaluations; each row X(t_i) is one ``Tree.level_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import AdaptedProcess, Tree
from .scenario import Scenario


class SimulationError(RuntimeError):
    pass


@dataclass
class ForwardPath:
    X: AdaptedProcess
    u: AdaptedProcess


def _check_finite(arr: np.ndarray, level: int, term: str):
    if not np.all(np.isfinite(arr)):
        node = int(np.argwhere(~np.isfinite(arr))[0][0])
        raise SimulationError(
            f"non-finite value in {term} at level {level}, node {node}")


def _check_control(scenario: Scenario, tree: Tree, u: AdaptedProcess):
    if u.dim != scenario.l:
        raise SimulationError(f"control dim {u.dim}, scenario wants {scenario.l}")
    if u.last_level < tree.N - 1:
        raise SimulationError(
            f"control defined up to level {u.last_level}, need {tree.N - 1}")
    constraint = scenario.constraint
    if constraint.variant == "unconstrained":
        return
    tol = scenario.tolerances.activity_tol
    for j in range(tree.N):
        inside = constraint.contains(u.level(j), tol)
        if not inside.all():
            raise SimulationError(f"control violates the constraint at level "
                                  f"{j}, node {int(np.argmin(inside))}")


def _euler_sweep(tree: Tree, free, kernel, name: str) -> AdaptedProcess:
    """X(t_i) = free(i) + sum_{j<i} [dt drift + diff dW_j], (drift, diff) =
    kernel(i, j, X(t_j)), X(t_0) = free(0).  Overflow surfaces only as the
    SimulationError naming the first non-finite row ``name(t_i)`` or a term
    that ``kernel`` checks."""
    levels = [free(0)]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, tree.N + 1):
            terms = []
            for j in range(i):
                drift, diff = kernel(i, j, levels[j])
                terms += (tree.dt * drift, tree.dw_term(diff, j))
            terms.append(free(i))
            x = tree.level_sum(terms, i)
            _check_finite(x, i, f"{name}(t_{i})")
            levels.append(x)
    return AdaptedProcess(levels)


def simulate_forward(scenario: Scenario, u: AdaptedProcess,
                     tree: Tree | None = None) -> ForwardPath:
    """Solve the forward equation under the admissible control u;
    X(t_0) = phi(t_0)."""
    tree = tree or scenario.tree()
    _check_control(scenario, tree, u)
    co = scenario.coeffs

    def kernel(i, j, xj):  # (drift, diff) = (b, sigma)(t_i, t_j, X_j, u_j)
        terms = [c.value(tree.t(i), tree.t(j), x=xj, u=u.level(j))
                 for c in (co.b, co.sigma)]
        for term, name in zip(terms, ("b", "sigma")):
            _check_finite(term, j, f"{name}(t_{i}, t_{j})")
        return terms

    X = _euler_sweep(tree, lambda i: co.phi.value(tree, i), kernel, "X")
    return ForwardPath(X=X, u=u)


def simulate_forward_linear(scenario: Scenario, base: ForwardPath,
                            v: AdaptedProcess,
                            tree: Tree | None = None) -> AdaptedProcess:
    """First-order state perturbation with coefficients frozen along base.

    X1(t_i) = dt * sum_{j<i} [b_x X1 + b_u v](t_i, t_j)
            + sum_{j<i} [sigma_x X1 + sigma_u v](t_i, t_j) dW_j
    """
    from .adjoint import FrozenCoefficients  # adjoint imports this module
    tree = tree or scenario.tree()
    if v.dim != scenario.l:
        raise SimulationError(f"direction dim {v.dim}, scenario wants {scenario.l}")
    fro = FrozenCoefficients(scenario, tree, base, None, base.u)

    def kernel(i, j, x1j):  # (drift, diff) = [c_x X1 + c_u v] for c = b, sigma
        return [tree.matvec(fro.d(c, "x", i, j), x1j)
                + tree.matvec(fro.d(c, "u", i, j), v.level(j))
                for c in ("b", "sigma")]

    return _euler_sweep(tree, lambda i: np.zeros((1 << i, scenario.n)), kernel, "X1")
