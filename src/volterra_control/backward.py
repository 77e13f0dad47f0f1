"""Backward solvers on the lattice.

Two layers; each advances its rows together, one batched step per level
of a row stack (see ``lattice``):

* ``solve_bsvie``: C-adapted solutions of nonlinear backward Volterra
  equations, one parameterized row recursion per grid time.  Row i
  needs the diagonal Y(t_r) only for r >= i, and only r = i is
  implicit, so all N + 1 rows descend together: at level r row r takes
  its implicit step and fixes Y(t_r), and every other row its explicit
  step with that Y(t_r).  Z(t, s) thus exists for every s.  The
  implicit step's fixed-point sweeps start, where g is affine in y, at
  its direct solution (one constant ``Tree.implicit_solve``), so one
  sweep confirms it.
* ``solve_linear_backward``: the linear backward Volterra family in
  M-solution form used by the adjoint system and the duality checks.
  Each row descends to its diagonal by itself (the B coupling reads the
  finished rows); one drift-free ``repr_step`` of the level-(i+1) stack
  continues the finished rows below it (``BackwardSolution``).

The per-row descents are ``_row_run``: per level a martingale step, an
optional explicit drift (the D-terms) and the row's terms that live on
that level; it writes each integrand into its Z stack.  A linear row's
run starts from its leaf terms, and each other term (free terms too)
joins it on its own level, the finer of its kernel value's and its
vector's, so no term is carried up to the leaves and averaged back down.
Every row keeps the order of its sums, so the batched steps give each
row the bits of its own descent.  The row checks ascend all rows of an
equation in groups (``Tree.row_defects``), each row's terms in its order.

Discrete conventions (used identically by the primal solvers, so that
every duality identity is an exact transpose statement):

* dW sums over ``[t_i, T)`` use steps j = i..N-1 with left-point
  integrands.
* the Y-coupling sum of a backward row may include its own index
  (``include_diag_A``); the exact-transpose partner of a strictly
  lower-triangular forward system excludes it, the partner of the
  conditional-expectation Fredholm equation includes it.
* boundary kernels at s = T multiply theta and its representation
  integrand nu instead of Y and Z rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .lattice import AdaptedProcess, ScaledMatrix, Tree, TwoParamProcess, apply, stack
from .scenario import Scenario


class PicardError(RuntimeError):
    """An implicit step that does not contract, with its level and node."""


@dataclass
class BackwardPath:
    """C-adapted BSVIE solution: diagonal Y and full Z rows.
    ``residual_history`` holds the largest final gap of the diagonal
    steps' sweeps (a single entry): the defect max |y - E_r[lam_r(r + 1)]
    - dt g(t_r, t_r, X_r, y, Z(t_r, t_r), u_r)| of the iterate y before
    Y_r, which for g affine in y is the direct solution."""

    Y: AdaptedProcess
    Z: TwoParamProcess
    residual_history: list = field(default_factory=list)


@dataclass
class BackwardSolution:
    """Rows Y_i, i = 0..N-1, with Z, mu and nu, as one row stack per level:
    ``levels[r]`` holds E_r[Y_i], i = r..N-1, so Y_r is its first row and
    the runs of the later rows the rest.  ``Y`` and ``cond_exp(i, r)`` are
    views of it, and ``z_stacks[r]`` the view of Z(i, r), i > r, in
    ``Z.levels[r]``."""

    levels: list
    Z: TwoParamProcess
    mu: AdaptedProcess | None = None
    nu: AdaptedProcess | None = None

    @functools.cached_property
    def Y(self) -> AdaptedProcess:
        return AdaptedProcess([level[..., 0] for level in self.levels])

    @property
    def z_stacks(self) -> list:
        return [z[..., r + 1:] for r, z in enumerate(self.Z.levels)]

    def cond_exp(self, i: int, r: int) -> np.ndarray:
        """E_r[Y_i] for r <= i."""
        if r > i:
            raise ValueError(f"row {i} is adapted at level {i}, not {r}")
        return self.levels[r][..., i - r]


def _diverged(level: int, node: int, why: str) -> PicardError:
    return PicardError(f"implicit step failed to contract at level {level}, node {node} "
                       f"({why}); use a finer grid (dt * Lip must stay below 1)")


def _implicit_step(y: np.ndarray, mean: np.ndarray, step, tol: float, max_iter: int,
                   level: int) -> tuple[np.ndarray, float]:
    """Solve y = mean + step(y) at one level by fixed-point iteration from
    the start value y, all nodes at once (a contraction for dt * Lip < 1).

    Returns (y, final gap).  Raises PicardError naming the level and the
    node with the largest gap (the first NaN one once the iterates
    overflow) when the gap is not below ``tol`` within ``max_iter`` steps.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            y_prev, y = y, mean + step(y)
            gap = float(np.abs(y - y_prev).max())
            if gap < tol:
                return y, gap
        gaps = np.abs(y - y_prev).max(axis=1)
    node = int(np.argmax(gaps))
    raise _diverged(level, node, f"gap {gaps[node]:.3g}")


def _row_run(tree: Tree, run: list, zs: list, start: int, stop: int,
             drift=None, terms=None) -> None:
    """Continue a descending row run in place from level ``start`` down to
    level ``stop``: run[r] = E_r[run[r+1]] + dt * drift(r, z_r) + terms[r],
    with zs[r] = z_r the representation integrand of run[r+1] (no drift when
    ``drift`` is None), written into the field zs[r] when there is one.
    ``terms[r]`` lists level-r fields, added one at a time in its order.
    ``run`` and ``terms`` are indexed by level 0..N, ``zs`` by level 0..N-1."""
    cur = run[start]
    for r in range(start - 1, stop - 1, -1):
        mean, zs[r] = tree.repr_step(cur, out=zs[r])
        cur = mean if drift is None else mean + tree.dt * drift(r, zs[r])
        for term in () if terms is None else terms[r]:
            cur += term
        run[r] = cur


def solve_bsvie(scenario: Scenario, fwd, u: AdaptedProcess,
                tree: Tree | None = None) -> BackwardPath:
    """C-adapted solution of the controlled backward Volterra equation.

    Row i runs lam_i(N) = psi(t_i, X_N) and

        lam_i(r) = E_r[lam_i(r+1)]
                   + dt * g(t_i, t_r, X_r, Y_r, Z(t_i, t_r), u_r)

    down to r = 0, with the diagonal Y_r = lam_r(r).  The N + 1 rows
    descend as one row stack: at level r one ``repr_step`` gives every
    row's mean and Z(t_i, t_r), the implicit step of row r fixes Y_r, and
    every other row takes its explicit step with that Y_r.  The implicit
    step sweeps from Y_r's direct solution where g is affine in y (one
    sweep then reaches picard_tol), else from the mean.
    ``residual_history`` holds the worst final gap of the implicit steps.
    Where g is affine in y, a level with dt |k(t_r, t_r)| rho(G_y) >= 1,
    rho the spectral radius, raises PicardError naming it (and node 0, as
    the bound holds at every node): there the sweeps would not contract,
    and I - dt k G_y may be singular.  A quadratic y term moves the
    sweeps' rate with y, so there only the sweeps themselves decide.

    g is k(t_i, t_r) times a bracket summed in slot order, const + x + y +
    z + u (``AffineCoefficient.bracket``); only its z term and k depend on
    the row, so each level builds the u term once and the (const + x) + y
    prefix once Y_r is fixed.  Every sum keeps its order, so g has the
    bits of ``value``, and every row the bits of its own descent.
    """
    tree = tree or scenario.tree()
    co, tols = scenario.coeffs, scenario.tolerances
    g, N = co.g, tree.N
    x_leaf = fwd.X.level(N)
    psi = [co.psi.value(tree.t(i), tree.t(N), x_leaf) for i in range(N + 1)]
    runs, y = stack(psi), [None] * N + [psi[N]]
    z_levels = [None] * N
    worst = 0.0
    k_table = g.kernel.on_grid(tree)
    affine = "y" in g.constant_slots
    if affine:
        rho = float(np.abs(np.linalg.eigvals(g.matrices["y"])).max())
        lips = tree.dt * np.abs(k_table.diagonal()) * rho
    for r in range(N - 1, -1, -1):
        runs, z_levels[r] = tree.repr_step(runs)
        z = z_levels[r]
        u_term = g.term("u", u.level(r))
        kernels = k_table[:, r]
        x_part, z_term = g.bracket(x=fwd.X.level(r)), g.term("z", z[..., r])
        start = runs[..., r]
        if affine:  # start at the solution
            if lips[r] >= 1.0:  # the same bound at every node
                raise _diverged(r, 0, f"dt * |k| * rho(G_y) = {lips[r]:.3g}")
            start = tree.implicit_solve(ScaledMatrix(None, kernels[r] * g.matrices["y"]),
                                        start + tree.dt * (kernels[r] * ((x_part + z_term) + u_term)))
        y[r], gap = _implicit_step(
            start, runs[..., r], lambda y_r: tree.dt * (
                kernels[r] * ((g.bracket(x_part, y=y_r) + z_term) + u_term)),
            tols.picard_tol, tols.picard_max_iter, r)
        worst = max(worst, gap)
        update = g.bracket(g.bracket(x_part, y=y[r])[..., None], z=z)
        update += u_term[..., None]
        update *= kernels
        update *= tree.dt
        runs += update
        runs[..., r] = y[r]
    return BackwardPath(Y=AdaptedProcess(y), Z=TwoParamProcess(z_levels),
                        residual_history=[worst])


def solve_linear_backward(tree: Tree, psi_rows, A=None, B=None,
                          D=None, theta: np.ndarray | None = None,
                          include_diag_A: bool = True,
                          include_diag_B: bool = False) -> BackwardSolution:
    """Linear backward Volterra family in adapted M-solution form.

    Row i = 0..N-1 (kernels are callables (i, j) -> matrix fields, a
    per-node table or a ``ScaledMatrix``; column j = N is the boundary
    slot paired with theta and nu):

        Y_i = psi_i + A(i,N) theta + B(i,N) nu_i
            + dt * sum_{j in A-range} A(i,j) Y_j
            + dt * sum_{j > i}        B(i,j) Z(j, i)
            + dt * sum_{j >= i}       D(i,j) Z(i, j)
            - sum_{j >= i} Z(i, j) dW_j

    with A-range j >= i when ``include_diag_A`` else j > i, and the B-sum
    gaining its diagonal term when ``include_diag_B`` (continuum-form
    convention).  psi_i sums the fields ``psi_rows[i]``, each on a level
    i..N (a coarser one raises ValueError).  Z below the diagonal is the
    martingale-representation integrand of Y_i, so the M-identity
    Y_i = E[Y_i] + sum_{j<i} Z(i,j) dW_j holds exactly.  theta also yields
    its run mu_i = E_i[theta] and the integrands nu of theta.

    Rows are solved i = N-1..0.  One batched ``repr_step`` of the
    level-(i+1) stack writes E_i[Y_j], j > i, into the level-i stack and
    Z(j, i) into Z's, beside the integrands Z(i, j), j >= i, of row i's
    run, whose Y_i is the first row of the level-i stack.  A row's B terms
    are one ``kernel_terms``; a family's A terms A(i, j) Y_j of all rows
    i < j are one product once Y_j exists.

    Row i's run starts from the sum of its leaf terms (it must have one).
    Every other term joins the run on its own level, the finer of its
    kernel value's and its vector's (as ``Tree.matvec`` makes it):
    dt A(i,j) Y_j on level j or finer, dt B(i,j) Z(j,i) anywhere from
    level i (a constant B) to level j (B(i,j) scaled on level j, as in the
    duality instances), a free term on its own.  A level's terms go in one
    fixed order: B(i,j) Z(j,i) and A(i,j) Y_j by ascending j, then
    B(i,N) nu_i, A(i,N) theta and the free terms in list order.  The terms
    on level i go in before the diagonal B term and the implicit A step.
    Each row costs O(2^N) node operations per dimension, the solve O(N 2^N).
    """
    N = tree.N
    if len(psi_rows) != N:
        raise ValueError(f"expected {N} free-term rows, got {len(psi_rows)}")
    mu = nu = None
    if theta is not None:
        mus, nus = [None] * N + [theta], [None] * N
        _row_run(tree, mus, nus, N, 0)
        mu, nu = AdaptedProcess(mus), AdaptedProcess(nus)

    a_terms = [None] * N  # dt A(i, j) Y_j for the rows i < j, once Y_j exists
    dim = np.shape(psi_rows[N - 1][0])[1]
    levels = [None] * N  # E_r[Y_i], i >= r, each stack made when its row is reached
    z_levels = [np.empty((N, dim, 1 << r)).T for r in range(N)]
    for i in range(N - 1, -1, -1):
        z, levels[i] = z_levels[i][..., i + 1:], np.empty((N - i, dim, 1 << i)).T
        if i < N - 1:  # continue every finished row by one level
            levels[i][..., 1:] = tree.repr_step(levels[i + 1], out=z)[0]
        b_terms = iter(() if B is None else kernel_terms(tree, B, i, range(i + 1, N), z, tree.dt))

        def terms():  # a level's terms go in this order
            for j in range(i + 1, N):
                if B is not None:
                    yield next(b_terms)
                if a_terms[j] is not None:
                    yield a_terms[j][..., i]
                elif A is not None:
                    yield tree.dt * tree.matvec(A(i, j), levels[j][..., 0])
            if theta is not None and B is not None:
                yield tree.matvec(B(i, N), nu.level(i))
            if theta is not None and A is not None:
                yield tree.matvec(A(i, N), theta)
            yield from psi_rows[i]
        # each term on its own level (see above); the leaf terms start the run
        by_level = [[] for _ in range(N + 1)]
        for term in terms():
            by_level[tree.level_of(term)].append(term)
        if any(by_level[:i]):
            raise ValueError(f"free-term row {i} has a term coarser than level {i}")
        if not by_level[N]:
            raise ValueError(f"row {i} has no term on the leaves")
        # row run down to level i with the D-terms, its integrands into Z
        run = [None] * N + [functools.reduce(np.add, by_level[N])]
        z_cols = [None] * i + [z[..., i] for z in z_levels[i:]]
        _row_run(tree, run, z_cols, N, i, None if D is None else (
            lambda r, z: tree.matvec(D(i, r), z)), by_level)
        cur = run[i]
        if include_diag_B and B is not None:
            cur = cur + tree.dt * tree.matvec(B(i, i), z_cols[i])
        if include_diag_A and A is not None:
            cur = tree.implicit_solve(A(i, i), cur)
        levels[i][..., 0] = cur
        a_family = None if A is None or not i else family_of(A, slice(0, i), i)
        if a_family is not None:
            a_terms[i] = tree.dt * apply(a_family, cur)
    return BackwardSolution(levels, TwoParamProcess(z_levels), mu=mu, nu=nu)


def family_of(kernel, i, j):
    """The family of a solver kernel at the pairs (i, j), one of them a
    slice, or None: plain callables, and the jacobians of state-dependent
    slots, have none, and are applied pair by pair."""
    family = getattr(kernel, "family", None)
    return None if family is None else family(i, j)


def kernel_terms(tree: Tree, kernel, i, j, vecs, factor=None,
                 transpose: bool = False, as_stack: bool = False) -> list:
    """kernel(i_k, j_k) vecs_k (transposed with ``transpose``) times
    ``factor`` over a row or column of pairs (i or j a range), ``vecs`` a
    row stack (row k for pair k), a list of fields or one field: one
    batched product for a family on a stack or field, else pair by pair as
    iterated (plain callables, state-dependent jacobians), same bits; with
    ``as_stack`` as one row stack.  ``kernel_sum`` sums a column's terms."""
    span = i if type(i) is range else j
    if not span:
        return []
    cut = slice(span.start, span.stop)
    family = family_of(kernel, cut, j) if span is i else family_of(kernel, i, cut)
    if family is not None and type(vecs) is not list:
        rows = apply(family.mT if transpose else family, vecs)
        if factor is not None:
            rows *= factor
        return rows if as_stack else [row.T for row in rows.T]
    each = vecs if isinstance(vecs, list) else [
        vecs if vecs.ndim == 2 else vecs[..., k] for k in range(len(span))]
    if family is None:
        product = tree.tmatvec if transpose else tree.matvec
        out = (product(kernel(k, j) if span is i else kernel(i, k), vec)
               for k, vec in zip(span, each))
    else:
        out = (apply(mat.T if transpose else mat, vec) for mat, vec in zip(family, each))
    out = out if factor is None else (factor * term for term in out)
    return stack(list(out)) if as_stack else out


def kernel_sum(tree: Tree, kernel, rows: range, j: int, stack: np.ndarray) -> np.ndarray:
    """sum_k kernel(k, j)' stack[..., k] over k in ``rows`` (a row of the
    stack per pair): one ``Tree.tmatvec_sum`` product for a family, else
    the ``level_sum`` of the per-pair ``kernel_terms`` in row order."""
    family = family_of(kernel, slice(rows.start, rows.stop), j)
    if family is not None:
        return tree.tmatvec_sum(family, stack)
    return tree.level_sum(kernel_terms(tree, kernel, rows, j, stack, transpose=True),
                          tree.level_of(stack))


def backward_residuals(tree: Tree, sol: BackwardSolution, psi_rows,
                       A=None, B=None, D=None, theta=None,
                       include_diag_A: bool = True,
                       include_diag_B: bool = False) -> np.ndarray:
    """Node-wise residual of each row of the defining discrete equation
    (``Tree.row_defects``): row i gains its B terms on level i, on each
    level j >= i its A and D terms (one product per group), free and finer
    B terms, then steps by -Z(i,j) dW_j; A(i,N) theta and leaf terms last."""
    N, dt, free = tree.N, tree.dt, [[] for _ in range(tree.N + 1)]
    for i, row in enumerate(psi_rows):  # each free term on its own level, or on i
        for level, term in ((max(tree.level_of(term), i), term) for term in row):
            free[level].append((i, tree.embed(term, level)))

    def add(values, rows, r):
        a = rows.start
        if r in rows and B is not None:
            cols = range(r if include_diag_B else r + 1, N)
            for term in ([] if theta is None else [tree.matvec(B(r, N), sol.nu.level(r))]) + list(
                    kernel_terms(tree, B, r, cols, sol.Z.levels[r][..., cols.start:], dt)):
                if tree.level_of(term) > r:  # B(r,j) on a finer level: the term joins there
                    free[tree.level_of(term)].append((r, term))
                else:
                    values[..., r - a] += term
        for kernel, top, vecs in ((A, r + include_diag_A, sol.Y.level(r)),
                                  (D, r + 1, sol.Z.levels[r][..., a:])):
            top = min(top, rows.stop)
            if kernel is not None and top > a:
                values[..., :top - a] += kernel_terms(tree, kernel, range(a, top), r, vecs[
                    ..., :top - a] if vecs.ndim > 2 else vecs, dt, as_stack=True)
        for i, term in free[r]:
            if i in rows:
                values[..., i - a] += term

    return tree.row_defects(range(N), [N] * N, sol.Y.level, add,
                            lambda rows, r: -sol.Z.levels[r][..., rows.start:rows.stop],
                            lambda i: ([] if A is None or theta is None else [
                                tree.matvec(A(i, N), theta)]) + [t for k, t in free[N] if k == i])


def backward_run_residual(tree: Tree, sol: BackwardSolution) -> float:
    """Node-wise defect of the stored runs of the later rows: the rows
    after the first of each ``levels[r]`` the pair means of ``levels[r +
    1]``, and each ``z_stacks[r]`` its ``repr_step`` integrand."""
    worst, z_stacks = 0.0, sol.z_stacks
    for r in range(len(sol.levels) - 1):
        mean, z = tree.repr_step(sol.levels[r + 1])
        worst = max(worst, float(np.abs(sol.levels[r][..., 1:] - mean).max()),
                    float(np.abs(z_stacks[r] - z).max()))
    return worst


def msolution_identity_residuals(tree: Tree, sol: BackwardSolution) -> np.ndarray:
    """Node-wise defect of Y_i = E[Y_i] + sum_{j<i} Z(i,j) dW_j for each
    row i (``Tree.row_defects``, the dW_j terms as steps)."""
    means = stack([tree.cond_expect(y, 0) for y in sol.Y.levels])  # where the rows start

    def add(values, group, r):
        if not r:
            values += means[..., group.start:group.stop]

    return tree.row_defects([0] * means.shape[-1], range(means.shape[-1]), sol.Y.level, add,
                            lambda group, r: sol.Z.levels[r][..., group.start:group.stop],
                            lambda i: [] if i else [means[..., 0]])
