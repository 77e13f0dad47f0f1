"""Explicit Euler solver for the controlled forward stochastic Volterra
integral equation on the lattice and its linearization; both run one Euler sweep.

Discrete sums are strictly lower triangular (left-point), so adaptedness
of every integrand is automatic:

    X(t_i) = phi(t_i) + dt * sum_{j<i} b(t_i, t_j, X_j, u_j)
                      + sum_{j<i} sigma(t_i, t_j, X_j, u_j) dW_j

Each coefficient is a scalar kernel k(t_i, t_j) times a bracket in
(X_j, u_j).  The brackets of level j are built once, as soon as X_j
exists, so a sweep makes N bracket evaluations per coefficient; the
Volterra memory costs N(N+1)/2 scalar-times-array products.  Each row
X(t_i) is one ``Tree.level_sum``.
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
    if constraint.whole_space:
        return
    tol = scenario.tolerances.activity_tol
    for j in range(tree.N):
        inside = constraint.contains(u.level(j), tol)
        if not inside.all():
            raise SimulationError(f"control violates the constraint at level "
                                  f"{j}, node {int(np.argmin(inside))}")


def _euler_sweep(tree: Tree, free, column, name: str) -> AdaptedProcess:
    """X(t_i) = free(i) + sum_{j<i} [dt drift + diff dW_j], X(t_0) = free(0),
    where ``column(j, X(t_j))``, called once per level j as soon as X(t_j)
    exists, returns the map i -> (drift, diff) of column j.  Overflow
    surfaces only as the SimulationError naming the first non-finite row
    ``name(t_i)`` or a term that a column checks."""
    levels = [free(0)]
    columns = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, tree.N + 1):
            columns.append(column(i - 1, levels[i - 1]))
            terms = []
            for j in range(i):
                drift, diff = columns[j](i)
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

    def column(j, xj):  # the b and sigma brackets at (X_j, u_j), built once
        brackets = [(c, c.bracket(x=xj, u=u.level(j))) for c in (co.b, co.sigma)]

        def pair(i):  # (drift, diff) = (b, sigma)(t_i, t_j, X_j, u_j)
            terms = [c.kernel(tree.t(i), tree.t(j)) * br for c, br in brackets]
            for term, (c, _) in zip(terms, brackets):
                _check_finite(term, j, f"{c.name}(t_{i}, t_{j})")
            return terms
        return pair

    X = _euler_sweep(tree, lambda i: co.phi.value(tree, i), column, "X")
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

    def column(j, x1j):  # (drift, diff) = [c_x X1 + c_u v] for c = b, sigma
        return lambda i: [tree.matvec(fro.d(c, "x", i, j), x1j)
                          + tree.matvec(fro.d(c, "u", i, j), v.level(j))
                          for c in ("b", "sigma")]

    return _euler_sweep(tree, lambda i: np.zeros((1 << i, scenario.n)), column, "X1")
