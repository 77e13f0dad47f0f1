"""Explicit Euler solver for the controlled forward stochastic Volterra
integral equation on the lattice and its linearization; both run one Euler sweep.

Discrete sums are strictly lower triangular (left-point), so adaptedness
of every integrand is automatic:

    X(t_i) = phi(t_i) + dt * sum_{j<i} b(t_i, t_j, X_j, u_j)
                      + sum_{j<i} sigma(t_i, t_j, X_j, u_j) dW_j

The sweep makes one batched step per level: a row stack (see
``lattice``) holds the partial sums of every unfinished row i > j, takes
column j's terms of all of them at once, and row j + 1 leaves it
complete.  Each coefficient is a scalar kernel k(t_i, t_j) times a
bracket in (X_j, u_j); the brackets of level j are built once, as soon
as X_j exists, and scaled by the row kernels into one stack per
coefficient.  Every row keeps the order of its sum, so X has the bits of
the per-pair ``Tree.level_sum`` of each row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backward import kernel_terms
from .lattice import AdaptedProcess, Tree, scaled, stack
from .scenario import Scenario


class SimulationError(RuntimeError):
    pass


@dataclass
class ForwardPath:
    X: AdaptedProcess
    u: AdaptedProcess


def _non_finite(arr: np.ndarray, level: int, term: str) -> str | None:
    """The error message naming the first node of ``arr`` with a non-finite
    value, or None when every value is finite."""
    bad = ~np.isfinite(arr)
    if not bad.any():
        return None
    return f"non-finite value in {term} at level {level}, node {int(np.argwhere(bad)[0][0])}"


def _check_control(scenario: Scenario, tree: Tree, u: AdaptedProcess):
    if u.dim != scenario.l:
        raise SimulationError(f"control dim {u.dim}, scenario wants {scenario.l}")
    if u.last_level < tree.N - 1:
        raise SimulationError(
            f"control defined up to level {u.last_level}, need {tree.N - 1}")
    constraint = scenario.constraint
    if constraint.whole_space:
        return
    inside = constraint.contains(u.node_table(tree.N - 1),
                                 scenario.tolerances.activity_tol)
    if not inside.all():
        first = int(np.argmin(inside)) + 1  # 2**level + node
        level = first.bit_length() - 1
        raise SimulationError(f"control violates the constraint at level "
                              f"{level}, node {first - (1 << level)}")


def _euler_sweep(tree: Tree, free, column, name: str,
                 term_names: tuple = ()) -> AdaptedProcess:
    """X(t_i) = free(i) + sum_{j<i} [dt drift + diff dW_j], X(t_0) = free(0),
    where ``column(j, X(t_j))``, called once per level j as soon as X(t_j)
    exists, returns (drift, diff) of column j as row stacks over the rows
    i = j+1..N.  One accumulator stack holds the unfinished rows; each
    level adds dt drift, moves up one level and adds diff dW_j, and row
    j + 1 leaves it as X(t_{j+1}) - free(j+1).  Overflow surfaces only as
    the SimulationError naming the first non-finite row ``name(t_i)`` or,
    given ``term_names``, drift or diff term ``term_names[0](t_i, t_j)``,
    ``term_names[1](t_i, t_j)``.  Rows complete in order i = 1..N, and a
    term is reported when its row completes, as a sweep row by row would."""
    levels, acc = [free(0)], None
    failed = {}  # row -> the message of its first non-finite term
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(tree.N):
            drift, diff = column(j, levels[j])
            for label, terms in zip(term_names, (drift, diff)):
                if not np.all(np.isfinite(terms)):
                    for i in range(j + 1, tree.N + 1):
                        if failed.get(i) is None:
                            failed[i] = _non_finite(terms[..., i - j - 1], j,
                                                    f"{label}(t_{i}, t_{j})")
            step = tree.dt * drift
            if acc is not None:
                step += acc
            acc = tree.ito_step(step, diff, j)
            x = acc[..., 0] + free(j + 1)
            message = failed.get(j + 1) or _non_finite(x, j + 1, f"{name}(t_{j + 1})")
            if message is not None:
                raise SimulationError(message)
            levels.append(x)
            acc = acc[..., 1:]
    return AdaptedProcess(levels)


def simulate_forward(scenario: Scenario, u: AdaptedProcess,
                     tree: Tree | None = None) -> ForwardPath:
    """Solve the forward equation under the admissible control u;
    X(t_0) = phi(t_0)."""
    tree = tree or scenario.tree()
    _check_control(scenario, tree, u)
    co = scenario.coeffs

    def column(j, xj):  # the b and sigma brackets at (X_j, u_j), built once
        return [scaled(c.bracket(x=xj, u=u.level(j)), c.kernel.on_grid(tree)[j + 1:, j])
                for c in (co.b, co.sigma)]

    X = _euler_sweep(tree, lambda i: co.phi.value(tree, i), column, "X",
                     (co.b.name, co.sigma.name))
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

    kernels = [(fro.kernel(c, "x"), fro.kernel(c, "u")) for c in ("b", "sigma")]

    def column(j, x1j):  # (drift, diff) = [c_x X1 + c_u v] for c = b, sigma
        rows = range(j + 1, tree.N + 1)
        return [stack([x + u for x, u in zip(kernel_terms(tree, c_x, rows, j, x1j),
                                              kernel_terms(tree, c_u, rows, j, v.level(j)))])
                for c_x, c_u in kernels]

    return _euler_sweep(tree, lambda i: np.zeros((1 << i, scenario.n)), column, "X1")
