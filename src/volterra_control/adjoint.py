"""First-order adjoint system and the Hamiltonian gradient.

The bundle (lambda0, Lambda, xi, mu, nu, p, q) solves, on the lattice,

  lambda0 = E[h_y] + sum_j (f_z(j) + g_z(0,j)' Lambda_j) dW_j
  xi_i    = alpha_i + dt sum_{j<=i} g_y(j,i)' E_i[xi_j]
                    + sum_{j>=i} g_z(i,j)' E_j[xi_i] dW_j
  mu_i    = E_i[theta],   theta = h_x + psi_x(0)' lambda0 + dt sum_j psi_x(j)' xi_j
  p_i     = F_i + dt sum_{j>i} (b_x(j,i)' p_j + sigma_x(j,i)' q(j,i))
                - sum_{j>=i} q(i,j) dW_j

with Lambda_j = E_j[lambda0], alpha_i = f_y(i) + g_y(0,i)' Lambda_i and
F_i = b_x(N,i)' theta + sigma_x(N,i)' nu_i + f_x(i) + g_x(0,i)' Lambda_i
    + dt sum_{k<=i} g_x(k,i)' xi_k (each f_a + g_a' Lambda: ``_lambda_term``).

Sum conventions are the exact transposes of the primal solvers: the
xi-equation includes its diagonal index (its dual, the linearized
backward equation, sums from its own row), while the (p, q) equation is
strictly upper triangular (its dual is the strictly lower-triangular
forward Euler scheme).  The 0..i sums in F_i and in the control gradient
include the diagonal for the same reason.  These choices make the
difference-quotient identity for the cost exact in exact arithmetic.

Each coefficient derivative is ``FrozenCoefficients.d(name, slot, i,
j)``, the jacobian of catalog object ``name`` in ``slot`` at (t_i, t_j)
along the state: g_y(j,i) = ``d("g", "y", j, i)``, f_z(j) = ``d("f", "z",
0, j)``, psi_x(j) = ``d("psi", "x", j, N)``.  A slot without a quadratic
term gives a row or column of pairs as one (R, d, e) family, read off the
object's per-grid table (``FrozenCoefficients.family``); the solvers and
checks get it from the ``FrozenCoefficients.kernel`` objects and apply it
in one batched product (``kernel_terms``; a summed column, as in theta and
F_i, through ``kernel_sum``) with the bits of the per-pair products that
state-dependent slots and plain callables still take.  A state-dependent
jacobian is made on each read, so a bundle stores no jacobian.

Each equation is written down once, as free-term rows plus kernels
(``_lambda0_equation``, ``_xi_equation``, ``_pq_rows`` with ``_pq_kernels``) or as a sum
(``_theta_equation``), which the solver in ``assemble_adjoint`` and the
check in ``adjoint_residuals`` both read.  lambda0 is the one-row case of
the xi Fredholm equation: both are solved by ``solve_fredholm``, checked
with their stored runs by ``fredholm_residuals`` and kept as level
stacks, of which lambda0, Lambda, xi_i and E_r[xi_i] are views (p_i and
E_r[p_i] of the (p, q) stacks).  mu, theta's run, and nu come with the
(p, q) solve, which takes theta as its boundary term.

Every equation is assembled and checked in O(N 2^N) node operations per
dimension, except F_i, which adds i + 1 leaf fields g_x(k,i)' xi_k (one
``kernel_sum`` per row).  Each F_i is the term list [its level-i part,
its leaf part]; the bundle keeps the rows it was solved with, so the
check states them and re-derives theta only.  Each check ascends all
rows of its equation level by level (``Tree.row_defects``), in groups of
rows whose stack is at most a leaf field: per group one dW step and one
family product.  Each row ends in its own last dW step plus leaf terms
against its stored row, no leaf-size sum formed, with the bits of its sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .backward import (BackwardSolution, backward_residuals, backward_run_residual,
                       family_of, kernel_sum, kernel_terms, msolution_identity_residuals,
                       solve_linear_backward)
from .forward import ForwardPath
from .lattice import AdaptedProcess, ScaledMatrix, Tree, apply, stack, transpose
from .scenario import Scenario


@dataclass
class FredholmSolution:
    """Rows xi_i with their runs E_r[xi_i], r >= i, as one row stack per
    level: ``levels[r]`` holds E_r[xi_i], i <= r, and ``cond_exp(i, r)``
    and the leaf rows ``xi`` are views of it."""

    levels: list

    @property
    def xi(self) -> list:
        leaves = self.levels[-1]
        return [leaves[..., i] for i in range(leaves.shape[-1])]

    def cond_exp(self, i: int, r: int) -> np.ndarray:
        if r < i:
            raise ValueError(f"conditional run of row {i} starts at level {i}")
        return self.levels[r][..., i]


def solve_fredholm(tree: Tree, alpha_rows, A=None, B=None, D=None,
                   beta=None, include_diag_A: bool = True) -> FredholmSolution:
    """Ascending construction for the conditional-expectation Fredholm
    equation

      xi_i = alpha_i + dt sum_{j<=i} A(j,i)' E_i[xi_j]
           + sum_{j<i} E_j[B(j,i)' xi_j] dW_j + sum_{j<N} beta(i,j) dW_j
           + sum_{i<=j<N} D(i,j)' E_j[xi_i] dW_j

    (A-sum capped at j <= min(i, N-1); strict j < i when not
    ``include_diag_A``).  Kernels are callables (i, j) -> matrix fields
    (a per-node table or a ``ScaledMatrix``) or have families
    (``kernel_terms``).  alpha_rows[i] is adapted at level i, and B(j,i)
    must be F_i-measurable (a finer one raises ValueError).  Each row's
    level-i part reads E_i[xi_j] off the earlier rows' runs, by the tower
    property E_j[B(j,i)' xi_j] = E_j[B(j,i)' E_i[xi_j]]; one per-node
    solve takes the diagonal A term, and ``Tree.ito_step`` carries the row
    to the leaves, writing each E_r[xi_i] straight into its level stack.
    The solve is O(N 2^N) per kernel dimension.
    """
    N = tree.N
    n_rows = len(alpha_rows)
    if n_rows > N + 1:
        raise ValueError(f"at most {N + 1} rows, got {n_rows}")
    levels = None
    for i in range(n_rows):
        if tree.level_of(np.asarray(alpha_rows[i])) != i:
            raise ValueError(f"alpha row {i} must be adapted at level {i}")

        def terms():  # coarse to fine: dW_j steps onto level j + 1, then level i
            for j in range(i):
                if B is not None:
                    b = B(j, i)
                    if tree.level_of(b) > i:
                        raise ValueError(f"B({j}, {i}) is finer than level {i}; "
                                         f"it must be F_{i}-measurable")
                    yield tree.cond_expect(tree.tmatvec(b, levels[i][..., j]), j), j
                if beta is not None:
                    yield tree.embed(beta(i, j), j), j
            yield np.asarray(alpha_rows[i], dtype=float)
            if A is not None and i:
                yield from kernel_terms(tree, A, range(i), i, levels[i][..., :i], tree.dt,
                                        transpose=True)
        known = tree.level_sum(terms(), i)
        if include_diag_A and A is not None and i <= N - 1:
            known = tree.implicit_solve(transpose(A(i, i)), known)
        if levels is None:
            levels = [np.empty((min(r + 1, n_rows), known.shape[1], 1 << r)).T
                      for r in range(N + 1)]
        levels[i][..., i] = cur = known
        d_family = None if D is None else family_of(D, i, slice(i, N))
        for r in range(i, N):
            if D is None:
                incr = np.zeros_like(cur)
            elif d_family is None:
                incr = tree.tmatvec(D(i, r), cur)
            else:
                incr = apply(d_family[r - i].T, cur)
            if beta is not None:
                incr = tree.level_sum([incr, beta(i, r)], r)
            cur = tree.ito_step(cur, incr, r, out=levels[r + 1][..., i])
    return FredholmSolution(levels)


def fredholm_residuals(tree: Tree, sol: FredholmSolution, alpha_rows, A=None, B=None,
                       D=None, beta=None, include_diag_A: bool = True) -> np.ndarray:
    """Node-wise defect of each row of the defining discrete equation
    (``Tree.row_defects``) and of its run (``Tree.run_defect``): row i
    gains alpha_i and its A terms on level i and steps by D(i,r)' E_r[xi_i]
    (one product per group), with B from level 0 by E_r[B(r,i)' xi_r] below
    level i; the beta sum is a leaf.  Without B all rows cost O(N 2^N)."""
    N, levels, runs = tree.N, sol.levels, np.zeros(sol.levels[-1].shape[-1])
    D = D or (lambda i, r: ScaledMatrix(None, np.zeros((levels[0].shape[1],) * 2)))  # zero steps

    def own(i):  # alpha_i, then dt A(j,i)' E_i[xi_j] over the A-range, made one at a time
        hi = min(i, N - 1) if include_diag_A else i - 1
        yield np.asarray(alpha_rows[i], dtype=float)
        yield from [] if A is None else kernel_terms(
            tree, A, range(hi + 1), i, levels[i][..., :hi + 1], tree.dt, transpose=True)

    def add(values, rows, r):  # row r joins; the runs on level r are checked
        a, top = rows.start, min(rows.stop, r + 1)
        for term in own(r) if r in rows else ():
            values[..., r - a] += term
        runs[a:top] = np.maximum(runs[a:top], tree.run_defect(  # no rows if top <= a
            [levels[r][..., a:top], levels[r + 1][..., a:top]]))

    def steps(rows, r):  # by D from row i's level, by B below it
        a, top = rows.start, max(rows.start, min(rows.stop, r + 1))
        by_d = kernel_terms(tree, D, range(a, top), r, levels[r][..., a:top], transpose=True,
                            as_stack=B is None)
        return by_d if B is None else stack([*by_d, *(tree.cond_expect(tree.tmatvec(
            B(r, i), levels[N][..., r]), r) for i in range(top, rows.stop))])

    return np.maximum(runs, tree.row_defects(  # add() fills in runs on the way
        [0] * len(runs) if B is not None else range(len(runs)), [N] * len(runs),
        lambda i: levels[N][..., i], add, steps, lambda i: [*(own(i) if i == N else ()), *(
            () if beta is None else [tree.ito_sum(lambda j: tree.embed(beta(i, j), j), 0, N)])]))


class FrozenCoefficients:
    """Catalog derivatives frozen along a state 4-tuple (bwd may be None for
    b, sigma).  A constant slot's jacobians are read off the object's
    ``grid_jacobians`` table: ``family`` gives a row or column of pairs as
    one (R, d, e) array, ``d`` one pair.  A state-dependent jacobian has
    no family; ``d`` makes it on each read, and nothing is stored."""

    def __init__(self, scenario: Scenario, tree: Tree, fwd: ForwardPath, bwd, u):
        self.objects = scenario.catalog
        self.tree, self.fwd, self.bwd, self.u = tree, fwd, bwd, u

    def _state(self, name: str, slot: str, i: int, j: int) -> np.ndarray:
        """The state argument of ``name`` in ``slot`` at (t_i, t_j), read
        when asked for: x -> X_j, u -> u_j, y -> Y_j, z -> Z(t_i, t_j).
        psi and h sit at j = N, where X_j is X_T, and h reads Y_0."""
        if slot == "y":
            return (self.tree.embed(self.bwd.Y.level(0), j) if name == "h"
                    else self.bwd.Y.level(j))
        if slot == "z":
            return self.bwd.Z.value(i, j)
        return (self.fwd.X if slot == "x" else self.u).level(j)

    def _get(self, key, make):
        """The state-dependent jacobian ``key`` = (name, slot, i, j), made now."""
        return make()

    def _table(self, name: str, slot: str):
        """The object's jacobian table of a constant slot, else None."""
        obj = self.objects[name]
        return obj.grid_jacobians(slot, self.tree) if slot in obj.constant_slots else None

    def value(self, name: str, i: int, j: int) -> np.ndarray:
        """Value of object ``name`` at (t_i, t_j), not cached."""
        obj = self.objects[name]
        return obj.value(self.tree.t(i), self.tree.t(j),
                         **{slot: self._state(name, slot, i, j) for slot in obj.slots})

    def d(self, name: str, slot: str, i: int, j: int):
        """Jacobian of object ``name`` in ``slot`` at (t_i, t_j): a constant
        ``ScaledMatrix`` from the table, or a state-dependent one, made anew."""
        table = self._table(name, slot)
        if table is not None:
            return ScaledMatrix(None, table[i, j])
        obj = self.objects[name]
        return self._get((name, slot, i, j), lambda: obj.jacobian(
            slot, self.tree.t(i), self.tree.t(j), **{slot: self._state(name, slot, i, j)}))

    def family(self, name: str, slot: str, i, j):
        """The jacobians of ``name`` in ``slot`` at the pairs (t_i, t_j), i
        or j a slice, as one (R, d, e) family; None if state-dependent."""
        table = self._table(name, slot)
        return None if table is None else table[i, j]

    def kernel(self, name: str, slot: str, swap: bool = False):
        """The jacobian of ``name`` in ``slot`` as a solver kernel: (i, j) ->
        ``d(name, slot, i, j)``, and ``family(i, j)`` for a row or column of
        pairs; with ``swap`` the transpose of the jacobian at (j, i), as the
        adjoint equations read b_x and sigma_x."""
        def at(i, j):
            return transpose(self.d(name, slot, j, i)) if swap else self.d(name, slot, i, j)

        def family(i, j):
            fam = self.family(name, slot, *((j, i) if swap else (i, j)))
            return fam.mT if swap and fam is not None else fam

        at.family = family
        return at


@dataclass
class AdjointBundle:
    """The adjoint solutions.  ``lam`` is the one-row lambda(0) solution;
    lambda0, its row, and Lambda, its run, are views of it.  ``F`` holds
    the free-term rows F_i of the (p, q) equation, each a term list, as
    they were solved."""

    lam: FredholmSolution
    xi: FredholmSolution
    theta: np.ndarray
    F: list
    pq: BackwardSolution
    frozen: FrozenCoefficients

    @cached_property
    def lambda0(self) -> np.ndarray:
        return self.lam.xi[0]

    @cached_property
    def Lambda(self) -> AdaptedProcess:
        return AdaptedProcess([level[..., 0] for level in self.lam.levels])


def _lambda0_equation(tree: Tree, fro: FrozenCoefficients):
    """The lambda(0) equation as one-row ``solve_fredholm`` arguments: the
    free term alpha_0 = E[h_y], D = g_z(0, .) and beta = f_z."""
    return [tree.cond_expect(fro.d("h", "y", 0, tree.N), 0)], {
        "D": fro.kernel("g", "z"), "beta": fro.kernel("f", "z")}


def solve_lambda0(tree: Tree, fro: FrozenCoefficients) -> FredholmSolution:
    """lambda(0) (row 0) with its runs Lambda_r = E_r[lambda(0)]."""
    alpha_rows, kernels = _lambda0_equation(tree, fro)
    return solve_fredholm(tree, alpha_rows, **kernels)


def _lambda_term(tree: Tree, fro: FrozenCoefficients, lam: FredholmSolution, slot, j):
    """The level-j term f_a(j) + g_a(0,j)' Lambda_j of alpha_j, F_j or H_u(j), a = y, x, u."""
    return fro.d("f", slot, 0, j) + tree.tmatvec(fro.d("g", slot, 0, j), lam.cond_exp(0, j))


def _xi_equation(tree: Tree, fro: FrozenCoefficients, lam: FredholmSolution):
    """The xi equation as ``solve_fredholm`` arguments: the free-term rows
    alpha_i = f_y(i) + g_y(0,i)' Lambda_i, and A = g_y, D = g_z, diagonal
    included."""
    alpha_rows = [_lambda_term(tree, fro, lam, "y", i) for i in range(tree.N)]
    return alpha_rows, {"A": fro.kernel("g", "y"), "D": fro.kernel("g", "z"),
                        "include_diag_A": True}


def _theta_equation(tree: Tree, fro: FrozenCoefficients, lambda0: np.ndarray,
                    xi_stack: np.ndarray) -> np.ndarray:
    """theta = h_x + psi_x(0)' lambda0 + dt sum_j psi_x(j)' xi_j, with the
    xi rows given as one (2**N, m, N) row stack."""
    N = tree.N
    psi_xi = kernel_sum(tree, fro.kernel("psi", "x"), range(N), N, xi_stack)
    return (fro.d("h", "x", 0, N) + tree.tmatvec(fro.d("psi", "x", 0, N), lambda0)
            + tree.dt * psi_xi)


def _pq_rows(tree: Tree, fro: FrozenCoefficients, lam: FredholmSolution,
             xi_stack: np.ndarray) -> list:
    """The (p, q) free-term rows F_i, each its level-i and its leaf part
    (one ``kernel_sum`` over the xi rows, a (2**N, m, N) row stack)."""
    g_x = fro.kernel("g", "x")
    return [[_lambda_term(tree, fro, lam, "x", i),
             tree.dt * kernel_sum(tree, g_x, range(i + 1), i, xi_stack[..., :i + 1])]
            for i in range(tree.N)]


def _pq_kernels(fro: FrozenCoefficients, theta: np.ndarray) -> dict:
    """The rest of the (p, q) equation as ``solve_linear_backward``
    arguments: A = b_x', B = sigma_x' (slots swapped), boundary theta,
    strict A-sum."""
    return {"A": fro.kernel("b", "x", swap=True), "B": fro.kernel("sigma", "x", swap=True),
            "theta": theta, "include_diag_A": False}


def assemble_adjoint(scenario: Scenario, fwd: ForwardPath, bwd, u: AdaptedProcess,
                     tree: Tree | None = None) -> AdjointBundle:
    """Chain the four adjoint solves along the state triple (fwd, bwd, u)."""
    tree = tree or scenario.tree()
    fro = FrozenCoefficients(scenario, tree, fwd, bwd, u)

    lam = solve_lambda0(tree, fro)

    alpha_rows, xi_kernels = _xi_equation(tree, fro, lam)
    xi = solve_fredholm(tree, alpha_rows, **xi_kernels)

    theta = _theta_equation(tree, fro, lam.xi[0], xi.levels[-1])
    F = _pq_rows(tree, fro, lam, xi.levels[-1])
    pq_sol = solve_linear_backward(tree, F, **_pq_kernels(fro, theta))
    return AdjointBundle(lam=lam, xi=xi, theta=theta, F=F, pq=pq_sol, frozen=fro)


def hamiltonian_gradient(scenario: Scenario, bundle: AdjointBundle,
                         fwd: ForwardPath, bwd, u: AdaptedProcess,
                         tree: Tree | None = None) -> AdaptedProcess:
    """Adapted gradient process pairing with control perturbations:

    H_u(j) = f_u(j) + g_u(0,j)' Lambda_j + dt sum_{i<=j} g_u(i,j)' E_j[xi_i]
           + b_u(N,j)' mu_j + sigma_u(N,j)' nu_j
           + dt sum_{i>j} (b_u(i,j)' E_j[p_i] + sigma_u(i,j)' q(i,j))

    Each sum over i is one ``kernel_terms`` over a level stack the solvers
    kept, its terms added in the order above."""
    tree = tree or scenario.tree()
    N, dt = tree.N, tree.dt
    fro, pq, z_stacks = bundle.frozen, bundle.pq, bundle.pq.z_stacks
    g_u, b_u, sigma_u = (fro.kernel(name, "u") for name in ("g", "b", "sigma"))
    levels = []
    for j in range(N):
        terms = [_lambda_term(tree, fro, bundle.lam, "u", j)]
        terms += kernel_terms(tree, g_u, range(j + 1), j, bundle.xi.levels[j][..., :j + 1],
                              dt, transpose=True)
        terms.append(tree.tmatvec(fro.d("b", "u", N, j), pq.mu.level(j)))
        terms.append(tree.tmatvec(fro.d("sigma", "u", N, j), pq.nu.level(j)))
        later = range(j + 1, N)
        for p_term, q_term in zip(
                kernel_terms(tree, b_u, later, j, pq.levels[j][..., 1:], dt, transpose=True),
                kernel_terms(tree, sigma_u, later, j, z_stacks[j], dt, transpose=True)):
            terms += [p_term, q_term]
        levels.append(tree.level_sum(terms, j))
    return AdaptedProcess(levels)


def adjoint_residuals(scenario: Scenario, bundle: AdjointBundle,
                      tree: Tree | None = None) -> dict:
    """Node-wise defects of the four adjoint equations plus the M-identity,
    each re-evaluated from the stored fields with the generic lattice
    operations, independently of the solver sweeps: one grouped ascent
    of the rows per equation, the largest of its per-row defects.  The stored
    runs count as part of their solution: Lambda, E_r[xi_i] and the (p, q)
    runs E_r[p_i] and ``z_stacks``.  theta is re-derived from its
    definition; the F rows are the ones the bundle states."""
    tree = tree or scenario.tree()
    N = tree.N
    fro = bundle.frozen

    # first equation: the one-row Fredholm statement with its runs Lambda
    lam_rows, lam_kernels = _lambda0_equation(tree, fro)
    res1 = float(fredholm_residuals(tree, bundle.lam, lam_rows, **lam_kernels).max())

    # second equation rows
    alpha_rows, xi_kernels = _xi_equation(tree, fro, bundle.lam)
    res2 = float(fredholm_residuals(tree, bundle.xi, alpha_rows, **xi_kernels).max())

    theta = _theta_equation(tree, fro, bundle.lambda0, bundle.xi.levels[-1])

    # third equation: mu_i = theta - sum_{j>=i} nu_j dW_j, the tail summed
    # from i = N down in place and each defect formed in one scratch, both
    # nodes last and seen as one block per node of level i
    pq = bundle.pq
    res3, tail, scratch = 0.0, np.zeros(theta.T.shape), np.empty(theta.T.shape)
    for i in range(N, -1, -1):
        if i < N:
            blocks = tail.reshape(tail.shape[:-1] + (2 << i, -1))
            blocks += tree.dw_term(pq.nu.level(i), i).T[..., None]
        np.subtract(theta.T, tail, out=scratch)
        blocks = scratch.reshape(scratch.shape[:-1] + (1 << i, -1))
        np.subtract(pq.mu.level(i).T[..., None], blocks, out=blocks)
        res3 = max(res3, float(np.abs(scratch, out=scratch).max()))

    # fourth equation rows, the runs hamiltonian_gradient reads, M-identity
    pq_kernels = _pq_kernels(fro, theta)
    res4 = max(float(backward_residuals(tree, pq, bundle.F, **pq_kernels).max()),
               backward_run_residual(tree, pq))
    res_m = float(msolution_identity_residuals(tree, pq).max())
    return {"lambda0": res1, "xi": res2, "mu_nu": res3, "pq": res4,
            "m_identity": res_m}
