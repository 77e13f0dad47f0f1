"""Explicit Euler solver for the controlled forward stochastic Volterra
integral equation on the lattice, plus its linearization.

Discrete sums are strictly lower triangular (left-point), so adaptedness
of every integrand is automatic:

    X(t_i) = phi(t_i) + dt * sum_{j<i} b(t_i, t_j, X_j, u_j)
                      + sum_{j<i} sigma(t_i, t_j, X_j, u_j) dW_j

The full kernel row is re-evaluated at each i (Volterra memory): O(N^2)
coefficient evaluations.
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


def _check_control(scenario: Scenario, tree: Tree, u: AdaptedProcess,
                   check_constraint: bool = True):
    if u.dim != scenario.l:
        raise SimulationError(f"control dim {u.dim}, scenario wants {scenario.l}")
    if u.last_level < tree.N - 1:
        raise SimulationError(
            f"control defined up to level {u.last_level}, need {tree.N - 1}")
    constraint = scenario.constraint
    if not check_constraint or constraint.variant == "unconstrained":
        return
    tol = scenario.tolerances.activity_tol
    for j in range(tree.N):
        inside = constraint.contains(u.level(j), tol)
        if not inside.all():
            raise SimulationError(f"control violates the constraint at level "
                                  f"{j}, node {int(np.argmin(inside))}")


def simulate_forward(scenario: Scenario, u: AdaptedProcess,
                     tree: Tree | None = None,
                     check_constraint: bool = True) -> ForwardPath:
    """Solve the forward equation under the control u; X(t_0) = phi(t_0).

    ``check_constraint=False`` skips the admissibility sweep (used when
    probing the affine state map outside the control region).
    """
    tree = tree or scenario.tree()
    _check_control(scenario, tree, u, check_constraint)
    co = scenario.coeffs
    levels = [co.phi.value(tree, 0)]
    # overflow surfaces as the first non-finite term named by _check_finite
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, tree.N + 1):
            t = tree.t(i)
            acc = co.phi.value(tree, i)
            for j in range(i):
                xj, uj = levels[j], u.level(j)
                drift = co.b.value(t, tree.t(j), x=xj, u=uj)
                diff = co.sigma.value(t, tree.t(j), x=xj, u=uj)
                _check_finite(drift, j, f"b(t_{i}, t_{j})")
                _check_finite(diff, j, f"sigma(t_{i}, t_{j})")
                inc = tree.dt * tree.embed(drift, i)
                inc = inc + tree.embed(tree.dw_term(diff, j), i)
                acc = acc + inc
            _check_finite(acc, i, f"X(t_{i})")
            levels.append(acc)
    return ForwardPath(X=AdaptedProcess(levels), u=u)


def simulate_forward_linear(scenario: Scenario, base: ForwardPath,
                            v: AdaptedProcess,
                            tree: Tree | None = None) -> AdaptedProcess:
    """First-order state perturbation with coefficients frozen along base.

    X1(t_i) = dt * sum_{j<i} [b_x X1 + b_u v](t_i, t_j)
            + sum_{j<i} [sigma_x X1 + sigma_u v](t_i, t_j) dW_j
    """
    tree = tree or scenario.tree()
    if v.dim != scenario.l:
        raise SimulationError(f"direction dim {v.dim}, scenario wants {scenario.l}")
    co = scenario.coeffs
    levels = [np.zeros((1, scenario.n))]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, tree.N + 1):
            t = tree.t(i)
            acc = np.zeros((tree.n_nodes(i), scenario.n))
            for j in range(i):
                xj, uj = base.X.level(j), base.u.level(j)
                x1j, vj = levels[j], v.level(j)
                bx = co.b.jacobian("x", t, tree.t(j), x=xj, u=uj)
                bu = co.b.jacobian("u", t, tree.t(j), x=xj, u=uj)
                sx = co.sigma.jacobian("x", t, tree.t(j), x=xj, u=uj)
                su = co.sigma.jacobian("u", t, tree.t(j), x=xj, u=uj)
                drift = tree.matvec(bx, x1j) + tree.matvec(bu, vj)
                diff = tree.matvec(sx, x1j) + tree.matvec(su, vj)
                acc = acc + tree.dt * tree.embed(drift, i)
                acc = acc + tree.embed(tree.dw_term(diff, j), i)
            _check_finite(acc, i, f"X1(t_{i})")
            levels.append(acc)
    return AdaptedProcess(levels)
