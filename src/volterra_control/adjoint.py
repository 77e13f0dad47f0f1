"""First-order adjoint system and the Hamiltonian gradient.

The bundle (lambda0, Lambda, xi, mu, nu, p, q) solves, on the lattice,

  lambda0 = E[h_y] + sum_j (f_z(j) + g_z(0,j)' Lambda_j) dW_j
  xi_i    = alpha_i + dt sum_{j<=i} g_y(j,i)' E_i[xi_j]
                    + sum_{j>=i} g_z(i,j)' E_j[xi_i] dW_j
  mu_i    = E_i[theta],   theta = h_x + psi_x(0)' lambda0 + dt sum_j psi_x(j)' xi_j
  p_i     = F_i + dt sum_{j>i} (b_x(j,i)' p_j + sigma_x(j,i)' q(j,i))
                - sum_{j>=i} q(i,j) dW_j

with Lambda_j = E_j[lambda0], alpha_i = g_y(0,i)' Lambda_i + f_y(i) and
F_i = b_x(N,i)' theta + sigma_x(N,i)' nu_i + g_x(0,i)' Lambda_i + f_x(i)
    + dt sum_{k<=i} g_x(k,i)' xi_k.

Sum conventions are the exact transposes of the primal solvers: the
xi-equation includes its diagonal index (its dual, the linearized
backward equation, sums from its own row), while the (p, q) equation is
strictly upper triangular (its dual is the strictly lower-triangular
forward Euler scheme).  The 0..i sums in F_i and in the control gradient
include the diagonal for the same reason.  These choices make the
difference-quotient identity for the cost exact in exact arithmetic.

Each coefficient derivative is ``FrozenCoefficients.d(name, slot, i,
j)``: the jacobian of catalog object ``name`` in ``slot`` at (t_i, t_j)
along the state, e.g. g_y(j,i) = ``d("g", "y", j, i)``, f_z(j) =
``d("f", "z", 0, j)``, psi_x(j) = ``d("psi", "x", j, N)``.  The jacobian
of a slot without a quadratic term is a scalar kernel times one
constant matrix; ``FrozenCoefficients.family`` returns a whole row or
column of pairs of it as one (R, d, e) family, read off the object's
per-grid table (see ``scenario``), and None for a state-dependent slot.
The equations pass their kernels as ``FrozenCoefficients.kernel``
objects, which the solvers ask for families, so every sum over pairs
with constant jacobians is one batched ``Tree.matvec_family`` or
``Tree.tmatvec_family`` over a row stack, with the bits of the per-pair
products (which state-dependent slots and plain callables still take):
the A terms and D steps of ``solve_fredholm``, the A and B terms of
``solve_linear_backward``, the sums of F_i and theta
(``Tree.tmatvec_sum``) and every sum of ``hamiltonian_gradient``.

Each equation is written down once, as free-term rows plus kernels
(``_lambda0_equation``, ``_xi_equation``, ``_pq_equation``) or as a sum
(``_theta_equation``); the solver in ``assemble_adjoint`` and the check
in ``adjoint_residuals`` both read that one statement.  lambda0 is the
one-row case of the xi Fredholm equation, so both are solved by
``solve_fredholm`` and checked, stored runs included, by
``fredholm_row_residual``; the bundle keeps both as their level stacks,
of which lambda0 and Lambda, like xi_i and E_r[xi_i], are views.  mu and
nu come with the (p, q) solve, which takes theta as its boundary term.
Every row sum over terms of mixed levels is one ``Tree.level_sum``.

Every equation is assembled and checked in O(N 2^N) node operations per
dimension, except for one sum that the (p, q) equation itself makes
longer: F_i adds i + 1 leaf fields g_x(k,i)' xi_k.  That sum, like
theta's psi_x sum, is one ``Tree.tmatvec_sum`` per row, a single matrix
product over the stacked xi rows when the jacobians are constant.  The
A and D terms of the Fredholm checks read E_i[xi_j] off the stored runs
instead of reducing the leaves again, and the Hamiltonian gradient reads
E_j[xi_i], E_j[p_i] and q(i, j) off the level stacks the two solvers
keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .backward import (BackwardSolution, backward_row_residual,
                       backward_run_residual, family_of,
                       msolution_identity_residual, solve_linear_backward)
from .forward import ForwardPath
from .lattice import AdaptedProcess, ScaledMatrix, Tree, transpose
from .scenario import Scenario


@dataclass
class FredholmSolution:
    """Rows xi_i with their conditional runs E_r[xi_i], r >= i, stored as
    one row stack per level r (see ``lattice``): ``levels[r]`` holds
    E_r[xi_i], i = 0..min(r, rows - 1).  E_r[xi_i] is the view
    ``cond_exp(i, r)`` and the rows ``xi``, leaf fields, are the views of
    the last stack."""

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
    ``include_diag_A``).  Kernels are callables (i, j) -> matrix fields,
    a per-node table or a ``ScaledMatrix`` (``Tree.matvec`` applies
    either); a kernel with a ``family`` (``FrozenCoefficients.kernel``)
    gives the A terms of a row as one ``Tree.tmatvec_family`` over the
    row stack of E_i[xi_j], j < i, and its D steps from one family.  Row
    count equals len(alpha_rows); alpha_rows[i]
    is adapted at level i, and B(j,i) must be F_i-measurable (at most
    level i; a finer one raises ValueError).  For each row the level-i
    part is formed first, reading E_i[xi_j] off the earlier rows' runs:
    by the tower property E_j[B(j,i)' xi_j] = E_j[B(j,i)' E_i[xi_j]].
    Then one per-node linear solve when the diagonal A term is present,
    and the forward noise recursion propagates the row to the leaves,
    writing E_r[xi_i] into the level stacks of the solution on the way.
    Every term of row i is formed at
    level <= i and the recursion costs O(2^N), so the whole solve is
    O(N 2^N) per kernel dimension.
    """
    N = tree.N
    n_rows = len(alpha_rows)
    if n_rows > N + 1:
        raise ValueError(f"at most {N + 1} rows, got {n_rows}")
    levels = None
    for i in range(n_rows):
        if tree.level_of(np.asarray(alpha_rows[i])) != i:
            raise ValueError(f"alpha row {i} must be adapted at level {i}")

        def terms():  # coarse to fine: dW_j terms on level j + 1, then level i
            for j in range(i):
                if B is not None:
                    b = B(j, i)
                    if tree.level_of(b) > i:
                        raise ValueError(f"B({j}, {i}) is finer than level {i}; "
                                         f"it must be F_{i}-measurable")
                    proj = tree.cond_expect(tree.tmatvec(b, levels[i][..., j]), j)
                    yield tree.dw_term(proj, j)
                if beta is not None:
                    yield tree.dw_term(tree.embed(beta(i, j), j), j)
            yield np.array(alpha_rows[i], dtype=float)
            if A is not None and i:
                family = family_of(A, slice(0, i), i)
                if family is None:
                    for j in range(i):
                        yield tree.dt * tree.tmatvec(A(j, i), levels[i][..., j])
                else:
                    prods = tree.dt * tree.tmatvec_family(family, levels[i][..., :i])
                    yield from (prods[..., j] for j in range(i))
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
                incr = tree.tmatvec_family(d_family[r - i], cur)
            if beta is not None:
                incr = tree.level_sum([incr, beta(i, r)], r)
            cur = tree.ito_step(cur, incr, r)
            levels[r + 1][..., i] = cur
    return FredholmSolution(levels)


def fredholm_row_residual(tree: Tree, sol: FredholmSolution, i: int, alpha_rows,
                          A=None, B=None, D=None, beta=None,
                          include_diag_A: bool = True) -> float:
    """Node-wise defect of row i of the defining discrete equation and of
    its stored run: each level E_r[xi_i] the pair mean of the next.

    The A terms read E_i[xi_j] and the D terms E_j[xi_i] off the stored
    runs, which the run check bounds, so without B all rows together cost
    O(N 2^N) per dimension.  The B terms take E_j[B(j,i)' xi_j] from the
    leaf product, independently of the solver's tower-property shortcut."""
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


class FrozenCoefficients:
    """Catalog derivatives frozen along a state 4-tuple (bwd may be None for b, sigma).

    The jacobians of a constant slot (one in the object's
    ``constant_slots``) are read off the object's ``grid_jacobians``
    table, which every FrozenCoefficients on the scenario and grid shares:
    ``family`` returns a row or a column of pairs as one (R, d, e) array,
    ``d`` one pair.  A state-dependent jacobian has no family; ``d``
    caches it per (name, slot, i, j) for this state."""

    def __init__(self, scenario: Scenario, tree: Tree, fwd: ForwardPath, bwd, u):
        self.objects = scenario.catalog
        self.tree = tree
        self.fwd = fwd
        self.bwd = bwd
        self._cache = {}
        self._arg_cache = {}
        self._tables = {}  # (name, slot) -> the object's table, or None
        # the state-argument table: slot -> its field at (t_i, t_j)
        self._fields = {"x": lambda i, j: fwd.X.level(j), "u": lambda i, j: u.level(j),
                        "y": lambda i, j: bwd.Y.level(j), "z": lambda i, j: bwd.Z.value(i, j)}

    def _args(self, name: str, i: int, j: int) -> dict:
        """The state arguments of ``name`` at (t_i, t_j), built once per
        (name, i, j); psi and h sit at j = N, where X_j is X_T, and h reads
        (X_T, Y_0)."""
        key = (name, i, j)
        args = self._arg_cache.get(key)
        if args is None:
            if name == "h":
                args = {"x": self.fwd.X.level(j),
                        "y": self.tree.embed(self.bwd.Y.level(0), j)}
            else:
                args = {slot: self._fields[slot](i, j)
                        for slot in self.objects[name].slots}
            self._arg_cache[key] = args
        return args

    def _get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def _table(self, name: str, slot: str):
        """The object's jacobian table of a constant slot, else None."""
        key = (name, slot)
        if key not in self._tables:
            obj = self.objects[name]
            self._tables[key] = (obj.grid_jacobians(slot, self.tree)
                                 if slot in obj.constant_slots else None)
        return self._tables[key]

    def value(self, name: str, i: int, j: int) -> np.ndarray:
        """Value of object ``name`` at (t_i, t_j), not cached."""
        t, s = self.tree.t(i), self.tree.t(j)
        return self.objects[name].value(t, s, **self._args(name, i, j))

    def d(self, name: str, slot: str, i: int, j: int):
        """Jacobian of object ``name`` in ``slot`` at (t_i, t_j): a constant
        ``ScaledMatrix`` from the table, or a state-dependent one, cached."""
        table = self._table(name, slot)
        if table is not None:
            return ScaledMatrix(None, table[i, j])
        obj = self.objects[name]
        return self._get((name, slot, i, j), lambda: obj.jacobian(
            slot, self.tree.t(i), self.tree.t(j), **self._args(name, i, j)))

    def family(self, name: str, slot: str, i, j):
        """The jacobians of ``name`` in ``slot`` at the pairs (t_i, t_j), i
        or j a slice, as one (R, d, e) family; None for a state-dependent
        slot."""
        table = self._table(name, slot)
        return None if table is None else table[i, j]

    def kernel(self, name: str, slot: str, swap: bool = False) -> "Jacobian":
        return Jacobian(self, name, slot, swap)


class Jacobian:
    """The jacobian of one catalog object in one slot as a solver kernel:
    (i, j) -> ``fro.d(name, slot, i, j)``, and ``family(i, j)`` for whole
    rows or columns of pairs.  With ``swap`` it is the transpose of the
    jacobian at (j, i), as the adjoint equations read b_x and sigma_x."""

    def __init__(self, fro: FrozenCoefficients, name: str, slot: str, swap: bool):
        self.fro, self.name, self.slot, self.swap = fro, name, slot, swap

    def __call__(self, i: int, j: int):
        if self.swap:
            return transpose(self.fro.d(self.name, self.slot, j, i))
        return self.fro.d(self.name, self.slot, i, j)

    def family(self, i, j):
        if self.swap:
            family = self.fro.family(self.name, self.slot, j, i)
            return None if family is None else family.mT
        return self.fro.family(self.name, self.slot, i, j)


def _matrices(fro, name: str, slot: str, rows: range, j: int):
    """The jacobians at (t_i, t_j), i in ``rows``, as ``Tree.tmatvec_sum``
    takes them: a family, else a list of per-pair matrix fields."""
    family = fro.family(name, slot, slice(rows.start, rows.stop), j)
    return family if family is not None else [fro.d(name, slot, i, j) for i in rows]


def _tmatvecs(tree: Tree, fro, name: str, slot: str, rows: range, j: int,
              vecs: np.ndarray) -> list:
    """The fields d(name, slot, i, j)' vecs[..., k] for i = rows[k], with
    ``vecs`` a row stack: one batched product for a family, else pair by
    pair."""
    mats = _matrices(fro, name, slot, rows, j)
    if isinstance(mats, list):
        return [tree.tmatvec(mat, vecs[..., k]) for k, mat in enumerate(mats)]
    prods = tree.tmatvec_family(mats, vecs)
    return [prods[..., k] for k in range(len(rows))]


@dataclass
class AdjointBundle:
    """The adjoint solutions.  ``lam`` is the one-row lambda(0) solution;
    lambda0, its row, and Lambda, its run, are views of it."""

    lam: FredholmSolution
    xi: FredholmSolution
    theta: np.ndarray
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
    free term alpha_0 = E[h_y] and the keyword arguments D = g_z(0, .),
    beta = f_z."""
    return [tree.cond_expect(fro.d("h", "y", 0, tree.N), 0)], {
        "D": lambda i, j: fro.d("g", "z", 0, j),
        "beta": lambda i, j: fro.d("f", "z", 0, j)}


def solve_lambda0(tree: Tree, fro: FrozenCoefficients) -> FredholmSolution:
    """lambda(0) (row 0) with its runs Lambda_r = E_r[lambda(0)]."""
    alpha_rows, kernels = _lambda0_equation(tree, fro)
    return solve_fredholm(tree, alpha_rows, **kernels)


def _xi_equation(tree: Tree, fro: FrozenCoefficients, lam: FredholmSolution):
    """The xi equation as ``solve_fredholm`` arguments: the free-term rows
    alpha_i = g_y(0,i)' Lambda_i + f_y(i), Lambda_i read off the lambda(0)
    solution, and the keyword arguments A = g_y, D = g_z, diagonal
    included."""
    alpha_rows = [tree.tmatvec(fro.d("g", "y", 0, i), lam.cond_exp(0, i))
                  + fro.d("f", "y", 0, i) for i in range(tree.N)]
    return alpha_rows, {"A": fro.kernel("g", "y"), "D": fro.kernel("g", "z"),
                        "include_diag_A": True}


def _theta_equation(tree: Tree, fro: FrozenCoefficients, lambda0: np.ndarray,
                    xi_stack: np.ndarray) -> np.ndarray:
    """theta = h_x + psi_x(0)' lambda0 + dt sum_j psi_x(j)' xi_j, with the
    xi rows given as one (2**N, m, N) row stack."""
    N = tree.N
    psi_xi = tree.tmatvec_sum(_matrices(fro, "psi", "x", range(N), N), xi_stack)
    return (fro.d("h", "x", 0, N) + tree.tmatvec(fro.d("psi", "x", 0, N), lambda0)
            + tree.dt * psi_xi)


def _pq_equation(tree: Tree, fro: FrozenCoefficients, lam: FredholmSolution,
                 xi_stack: np.ndarray, theta: np.ndarray):
    """The (p, q) equation as ``solve_linear_backward`` arguments: the
    free-term rows F_i (the xi rows given as one (2**N, m, N) row stack) and
    the keyword arguments A = b_x', B = sigma_x' (transposed, slots
    swapped), boundary theta, strict A-sum."""
    N = tree.N
    p_rows = [tree.level_sum(
        [fro.d("f", "x", 0, i) + tree.tmatvec(fro.d("g", "x", 0, i), lam.cond_exp(0, i)),
         tree.dt * tree.tmatvec_sum(_matrices(fro, "g", "x", range(i + 1), i),
                                    xi_stack[..., :i + 1])], N)
        for i in range(N)]
    return p_rows, {"A": fro.kernel("b", "x", swap=True),
                    "B": fro.kernel("sigma", "x", swap=True),
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
    p_rows, pq_kernels = _pq_equation(tree, fro, lam, xi.levels[-1], theta)
    pq_sol = solve_linear_backward(tree, p_rows, **pq_kernels)

    return AdjointBundle(lam=lam, xi=xi, theta=theta, pq=pq_sol, frozen=fro)


def hamiltonian_gradient(scenario: Scenario, bundle: AdjointBundle,
                         fwd: ForwardPath, bwd, u: AdaptedProcess,
                         tree: Tree | None = None) -> AdaptedProcess:
    """Adapted gradient process pairing with control perturbations:

    H_u(j) = f_u(j) + g_u(0,j)' Lambda_j + dt sum_{i<=j} g_u(i,j)' E_j[xi_i]
           + b_u(N,j)' mu_j + sigma_u(N,j)' nu_j
           + dt sum_{i>j} (b_u(i,j)' E_j[p_i] + sigma_u(i,j)' q(i,j))

    Each sum over i is one batched product over a row stack the solvers
    kept: E_j[xi_i] of the Fredholm level stack, E_j[p_i] and q(i, j) of
    the backward runs; its terms are then added in the order above.
    """
    tree = tree or scenario.tree()
    N, dt = tree.N, tree.dt
    fro, pq, z_stacks = bundle.frozen, bundle.pq, bundle.pq.z_stacks
    levels = []
    for j in range(N):
        terms = [fro.d("f", "u", 0, j) + tree.tmatvec(fro.d("g", "u", 0, j),
                                                      bundle.lam.cond_exp(0, j))]
        terms += [dt * v for v in _tmatvecs(tree, fro, "g", "u", range(j + 1), j,
                                            bundle.xi.levels[j][..., :j + 1])]
        terms.append(tree.tmatvec(fro.d("b", "u", N, j), pq.mu.level(j)))
        terms.append(tree.tmatvec(fro.d("sigma", "u", N, j), pq.nu.level(j)))
        later = range(j + 1, N)
        for p_term, q_term in zip(
                _tmatvecs(tree, fro, "b", "u", later, j, pq.cond_stacks[j]),
                _tmatvecs(tree, fro, "sigma", "u", later, j, z_stacks[j])):
            terms += [dt * p_term, dt * q_term]
        levels.append(tree.level_sum(terms, j))
    return AdaptedProcess(levels)


def adjoint_residuals(scenario: Scenario, bundle: AdjointBundle,
                      tree: Tree | None = None) -> dict:
    """Node-wise defects of the four adjoint equations plus the M-identity.

    Each equation is re-evaluated from the stored solution fields with the
    generic lattice operations, independently of the solver sweeps.  The
    stored runs count as part of their solution: Lambda and E_r[xi_i] in
    the "lambda0" and "xi" entries, the (p, q) level stacks
    ``cond_stacks`` and ``z_stacks`` that ``hamiltonian_gradient`` reads
    in the "pq" entry.
    """
    tree = tree or scenario.tree()
    N = tree.N
    fro = bundle.frozen

    # first equation: the one-row Fredholm statement with its runs Lambda
    lam_rows, lam_kernels = _lambda0_equation(tree, fro)
    res1 = fredholm_row_residual(tree, bundle.lam, 0, lam_rows, **lam_kernels)

    # second equation rows
    alpha_rows, xi_kernels = _xi_equation(tree, fro, bundle.lam)
    res2 = max(fredholm_row_residual(tree, bundle.xi, i, alpha_rows, **xi_kernels)
               for i in range(N))

    # theta from its definition and the (p, q) free terms
    xi_stack = bundle.xi.levels[-1]
    theta = _theta_equation(tree, fro, bundle.lambda0, xi_stack)
    p_rows, pq_kernels = _pq_equation(tree, fro, bundle.lam, xi_stack, theta)

    # third equation: mu_i = theta - sum_{j>=i} nu_j dW_j, the tails summed
    # from i = N down
    pq = bundle.pq
    res3 = 0.0
    tail = np.zeros_like(theta)
    for i in range(N, -1, -1):
        if i < N:
            tail = tail + tree.embed(tree.dw_term(pq.nu.level(i), i), N)
        res3 = max(res3, float(np.abs(
            tree.embed(pq.mu.level(i), N) - (theta - tail)).max()))

    # fourth equation rows, the runs hamiltonian_gradient reads, M-identity
    res4 = max(max(backward_row_residual(tree, pq, i, p_rows, **pq_kernels)
                   for i in range(N)), backward_run_residual(tree, pq))
    res_m = msolution_identity_residual(tree, pq)
    return {"lambda0": res1, "xi": res2, "mu_nu": res3, "pq": res4,
            "m_identity": res_m}
