"""Exact binary-noise probability lattice.

A uniform time grid with N steps carries a non-recombining binary tree:
2**i nodes at level i, node (i, k) branching to (i+1, 2k) and (i+1, 2k+1)
with probability 1/2 each.  Child 2k carries the Brownian increment
-sqrt(dt), child 2k+1 carries +sqrt(dt).  Conditional expectations are
pairwise means, stochastic integrals are finite sums, and martingale
representation is a two-point difference quotient (``Tree.repr_step``,
one level at a time; the backward solvers chain it), so every identity
built on top of this module holds to machine precision.

Random objects are plain float arrays: a field at level i has shape
(2**i, d).  A field at leaf level (i = N) plays the role of an
F_T-measurable vector ("terminal field"); ``Tree.level_sum`` adds fields
of mixed levels.

Fields are stored node-contiguous, in column-major order: the node axis
has unit stride and ``values.T`` (node axis last) is C-contiguous, so
every pass over a field runs numpy's inner loop along the 2**i nodes.
This module is the one place that knows the layout: ``field``, ``outer``,
``apply``, ``stack`` and ``scaled`` build node-contiguous fields and row
stacks, and every ``Tree`` helper returns node-contiguous fields for
input in either order.

A row stack is R level-i fields held as one (2**i, d, R) array with a
trailing row axis, stored the same way: its ``.T`` is a C-contiguous
(R, d, 2**i) array, row k is the node-contiguous view ``stack[..., k]``
and a run of rows ``stack[..., a:b]`` is again a row stack.
``Tree.repr_step``, ``dw_term``, ``ito_step``, ``embed`` and ``apply``
work on the nodes-last view ``.T``, so they take a row stack as they
take a field and give every row the bits of the per-row call; the
solvers advance all rows of a recursion by one such batched step per
level.  The solvers' two-parameter solutions are stored as such stacks,
one per level: ``TwoParamProcess`` is the view class over them, its
value at (t_i, t_j) row i of the level-j stack.  ``ito_step`` writes
its step one sibling half at a time, and ``repr_step`` its integrand,
into a given field (a view of a level stack); ``step_defect``,
``row_defects`` (R row sums, in groups of rows) and ``run_defect``
compare stored fields with sums or pair means they never form.

A matrix field (a kernel or a jacobian) comes in one of two forms: a
dense per-node table of shape (2**i, d, e), or a factored
``ScaledMatrix(scale, M)``, one (d, e) matrix M times a level-i (2**i,)
per-node factor, or constant when the scale is None.  ``Tree.matvec``,
``Tree.tmatvec`` and ``Tree.implicit_solve`` apply either form, and
``transpose`` takes either; every implicit step, the direct start of
the BSVIE's diagonal sweeps included, is one elimination over all
nodes, a constant matrix broadcast over them.  A family is R
constant matrices held as one (R, d, e) array, such as the jacobians of
one coefficient at a column of time pairs; ``apply``, the one place that
applies a constant matrix or a family, gives the row stack of its R
products in one batched product, each row with the bits of ``apply``
on its own matrix, and ``Tree.tmatvec_sum`` sums the transposed products
of a family with the rows of a stack as one matrix product.  Matrices
with one column, as every kernel of a scalar scenario has, take a
broadcast product in place of numpy's matmul, with the same values.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Storage for two-parameter fields is O(N * 2**N) per dimension; at this cap
# the largest process, `converge` on coupled, peaks at 835 MB (desk scale).
MAX_EXACT_STEPS = 18


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * dt, i = 0..steps, with dt = horizon / steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not math.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.steps > MAX_EXACT_STEPS:
            raise ValueError(
                f"steps={self.steps} exceeds exact-mode cap {MAX_EXACT_STEPS}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def t(self, i: int) -> float:
        return i * self.dt


class Tree:
    """Binary lattice over a TimeGrid: node counts, increments, W paths."""

    def __init__(self, grid: TimeGrid):
        self.grid = grid
        self.N = grid.steps
        self.dt = grid.dt
        self.sqdt = math.sqrt(grid.dt)
        self.n_leaves = 1 << self.N
        # dW_j as a level-(j+1) array: children alternate (-, +) * sqdt.
        self._dw = [
            np.tile(np.array([-self.sqdt, self.sqdt]), 1 << j)
            for j in range(self.N)
        ]
        w = [np.zeros(1)]
        for j in range(self.N):
            w.append(np.repeat(w[j], 2) + self._dw[j])
        self._w = w

    @classmethod
    def build(cls, horizon: float, steps: int) -> "Tree":
        return cls(TimeGrid(horizon, steps))

    def n_nodes(self, level: int) -> int:
        return 1 << level

    def dw(self, j: int) -> np.ndarray:
        """Increment dW_j as a level-(j+1) array of +-sqrt(dt)."""
        return self._dw[j]

    def w(self, i: int) -> np.ndarray:
        """Brownian path value W(t_i) as a level-i array."""
        return self._w[i]

    def t(self, i: int) -> float:
        return i * self.dt  # the bits of grid.t(i), without its dt property

    # -- level plumbing ------------------------------------------------

    def _check_level(self, level: int):
        if not 0 <= level <= self.N:
            raise ValueError(f"level {level} outside 0..{self.N}")

    def level_of(self, values) -> int:
        """Level of a field; a ScaledMatrix sits at the level of its scale
        (level 0 when constant)."""
        if isinstance(values, ScaledMatrix):
            return 0 if values.scale is None else self.level_of(values.scale)
        n = values.shape[0]
        level = n.bit_length() - 1
        if 1 << level != n or level > self.N:
            raise ValueError(f"array with {n} rows is not a lattice level")
        return level

    def embed(self, values: np.ndarray, to_level: int) -> np.ndarray:
        """Replicate a level-i field onto a finer level (i <= to_level); a
        field already at to_level is returned node-contiguous."""
        from_level = self.level_of(values)
        self._check_level(to_level)
        if from_level > to_level:
            raise ValueError(f"cannot embed level {from_level} into {to_level}")
        if from_level == to_level:
            return field(values)
        return _repeat(values, 1 << (to_level - from_level))

    def level_sum(self, terms, to_level: int) -> np.ndarray:
        """Sum of fields on levels <= to_level, as a level-to_level field.

        Terms are taken one at a time and added to a running total, embedded
        up once per finer level; terms coarser than the total are summed in
        level order and added last.  A step (h, j), the increment h dW_j,
        advances a total on a level <= j by ``ito_step``, else is a
        ``dw_term``.  Nondecreasing level order gives bit for bit the sum of
        embedding each term and adding in order."""
        total, top, late = None, 0, {}
        for term in terms:
            if isinstance(term, tuple):
                h, j = term
                if total is not None and top <= j:
                    total = total if top == j else self.embed(total, j)
                    total, top = self.ito_step(total, h, j), j + 1
                    continue
                term = self.dw_term(h, j)
            level = self.level_of(term)
            if total is None:
                total, top = term, level
            elif level < top:
                late[level] = late[level] + term if level in late else term
            else:
                if level > top:
                    total = _repeat(total, 1 << (level - top))
                total, top = total + term, level
            del term  # not held while the next term is made
        if total is None:
            raise ValueError("level_sum needs at least one term")
        if late:
            total = total + self.level_sum([late[k] for k in sorted(late)], top)
        return self.embed(total, to_level)

    def cond_expect(self, values: np.ndarray, to_level: int) -> np.ndarray:
        """E[ . | F_{t_i}]: equal-weight mean over level-i descendants.

        Linear idempotent projection; a field already at to_level is
        returned unchanged, stored node-contiguous.
        """
        from_level = self.level_of(values)
        self._check_level(to_level)
        if to_level > from_level:
            raise ValueError(
                f"target level {to_level} exceeds source level {from_level}")
        if to_level == from_level:
            return field(values)
        if from_level == to_level + 1:
            return pair_mean(values)
        return _blocks(values, 1 << (from_level - to_level)).mean(axis=-1).T

    def expectation(self, values: np.ndarray) -> np.ndarray:
        return self.cond_expect(values, 0)[0]

    def ito_sum(self, integrands, j0: int = 0, j1: int | None = None) -> np.ndarray:
        """Discrete stochastic sum sum_j h_j dW_j over j in [j0, j1).

        ``integrands`` maps j -> level-j array (callable, list indexed by j,
        or an AdaptedProcess).  Returns a leaf-level field; empty range
        gives zero.  Zero expectation for adapted integrands, and the
        discrete Ito isometry E[(sum h dW)^2] = dt * sum E[h^2] is exact.
        """
        if j1 is None:
            j1 = self.N
        if not (0 <= j0 <= self.N and 0 <= j1 <= self.N):
            raise ValueError(f"range [{j0}, {j1}) outside [0, {self.N})")
        get = integrands.level if isinstance(integrands, AdaptedProcess) else (
            integrands if callable(integrands) else integrands.__getitem__)
        terms = []
        for j in range(j0, j1):
            h = np.asarray(get(j), dtype=float)
            if self.level_of(h) != j:
                raise ValueError(f"integrand at step {j} is not level-{j}")
            terms.append(self.dw_term(h, j))
        if not terms:
            dim = integrands.dim if isinstance(integrands, AdaptedProcess) else 1
            return field(np.zeros((self.n_leaves, dim)))
        return self.level_sum(terms, self.N)

    def dw_term(self, h: np.ndarray, j: int) -> np.ndarray:
        """The increment h dW_j of a level-j integrand, a level-(j+1) field,
        built in the buffer of the repeat of h (one full-size array, not
        two)."""
        out = h.T.repeat(2, axis=-1)
        out *= self._dw[j]
        return out.T

    def ito_step(self, values: np.ndarray, h: np.ndarray, j: int,
                 out: np.ndarray | None = None) -> np.ndarray:
        """values + h dW_j for a level-j field and integrand: one step of a
        forward noise recursion, a level-(j+1) field.  With a = h sqrt(dt)
        formed once, the down children are values - a and the up children
        values + a (the bits of adding h dW_j), each sibling half written
        straight into ``out`` (a new node-contiguous field when None)."""
        if out is None:
            out = np.empty((2 << j,) + h.shape[1:], order="F")
        a = h.T * self.sqdt
        halves = _halves(out)
        np.subtract(values.T, a, out=halves[..., 0])
        np.add(values.T, a, out=halves[..., 1])
        return out

    def step_defect(self, target: np.ndarray, values: np.ndarray, h: np.ndarray,
                    j: int, leaves=()) -> float:
        """max |target - (ito_step(values, h, j) + leaves[0] + ...)| over the
        nodes, for level-(j+1) ``leaves`` and a target on a level <= j + 1
        (fields or row stacks in either order), with the bits of the defect
        of that sum, in one scratch of the down then the up children."""
        scratch, sides = np.empty((2,) + h.T.shape), (h.ndim, *range(h.ndim))  # halves first
        np.multiply(h.T, self._dw[j][:2].reshape((2,) + (1,) * h.ndim), out=scratch)
        scratch += values.T
        for leaf in leaves:
            scratch += _halves(leaf).transpose(sides)
        tgt = _halves(target).transpose(sides) if self.level_of(target) > j else target.T
        view = scratch.reshape(scratch.shape[:-1] + (tgt.shape[-1], -1))  # a block per node
        np.subtract(tgt[..., None], view, out=view)
        return float(np.abs(scratch, out=scratch).max())

    def row_defects(self, join, finish, target, add, steps, leaves) -> np.ndarray:
        """Per-row max |target(i) - S_i| of R row sums from zero on level
        join[i] to level finish[i] (both nondecreasing in i): on level r a
        group of at most max(1, 2**(N - r - 1)) rows (a leaf field) gains
        ``add(values, rows, r)`` in its (2**r, d, rows) stack and steps by
        ``steps(rows, r)``; a row ends in ``step_defect`` with ``leaves(i)``."""
        worst, done = np.zeros(len(join)), bisect.bisect_right(finish, 0)
        for i in range(done):
            worst[i] = np.abs(target(i) - self.level_sum(leaves(i), 0)).max()
        groups = [(done, np.zeros((1, target(0).shape[1], len(join) - done), order="F"))]
        for r in range(self.N):
            cap, stepped = max(1, 1 << (self.N - r - 1)), []
            joined, done = bisect.bisect_right(join, r), bisect.bisect_right(finish, r + 1)
            for start, values in groups:
                for a in range(start, start + values.shape[-1], cap):
                    b, group = min(a + cap, start + values.shape[-1]), values[..., a - start:]
                    j, f = max(a, min(b, joined)), max(a, min(b, done))
                    if j > a:
                        add(group[..., :j - a], range(a, j), r)
                        h = steps(range(a, j), r)
                    for i in range(a, f):  # a row that has not joined steps by zero
                        worst[i] = self.step_defect(target(i), group[..., i - a], (
                            h if i < j else group)[..., i - a], r, leaves(i))
                    if f < b:
                        out = (np.zeros if j < b else np.empty)(  # rows yet to join are 0
                            (2 << r, values.shape[1], b - f), order="F")
                        if f < j:
                            self.ito_step(group[..., f - a:j - a], h[..., f - a:], r,
                                          out=out[..., :j - f])
                        stepped.append((f, out))
            groups = stepped
        return worst

    def run_defect(self, run):
        """max over k of |run[k] - E[run[k+1]]| at every node (per row of
        row stacks) for runs on consecutive levels: each pair mean, with the
        bits of ``cond_expect``, is formed in one scratch."""
        worst, scratch = 0.0, np.empty(run[-2].size if len(run) > 1 else 0)
        for coarse, fine in zip(run, run[1:]):
            pairs = _halves(fine)
            out = scratch[:coarse.size].reshape(pairs.shape[:-1])
            np.add(pairs[..., 0], pairs[..., 1], out=out)
            out *= 0.5
            np.subtract(coarse.T, out, out=out)
            worst = np.maximum(worst, np.abs(out, out=out).max(-1).max(-1))
        return worst

    def repr_step(self, values: np.ndarray, out: np.ndarray | None = None):
        """One backward martingale step: level k+1 -> (E_k mean, integrand
        z_k = (up child - down child) / (2 sqrt(dt)), written into ``out``
        if given), so that values = mean + z_k dW_k on the two children."""
        if self.level_of(values) < 1:
            raise ValueError("repr_step needs level >= 1")
        paired = _blocks(values, 2)
        z = np.subtract(paired[..., 1], paired[..., 0],
                        out=None if out is None else out.T)
        z /= 2.0 * self.sqdt
        return _pair_mean(paired), z.T

    # -- kernel application ---------------------------------------------
    # The one place that applies a matrix field, in either form: a dense
    # (2**i, d, e) table through einsum, a ScaledMatrix as one ``apply``
    # on the vector field followed by its per-node scale.  A family of
    # constant matrices is one ``apply``, and ``tmatvec_sum`` applies the
    # K matrices of a family to the K rows of a (2**i, d, K) stack and
    # sums, as one ``apply`` of the stacked matrices.

    def _common_level(self, mat: np.ndarray, vec: np.ndarray):
        lev = max(self.level_of(mat), self.level_of(vec))
        return self.embed(mat, lev), self.embed(vec, lev)

    def _rescale(self, scale, out: np.ndarray) -> np.ndarray:
        """A factored product: ``out`` times the per-node scale, at their
        common level."""
        if scale is None:
            return out
        if scale.shape[0] != out.shape[0]:
            scale, out = self._common_level(scale, out)
        return (out.T * scale).T

    def matvec(self, mat, vec: np.ndarray) -> np.ndarray:
        """Per-node kernel application mat @ vec at the common refinement
        level of a matrix field (a (2**i, d, e) table or a ScaledMatrix;
        a constant one has no level of its own) and a (2**j, e) vector
        field."""
        if isinstance(mat, ScaledMatrix):
            return self._rescale(mat.scale, apply(mat.matrix, vec))
        return np.einsum("kde,ke->kd", *self._common_level(mat, vec), order="F")

    def tmatvec(self, mat, vec: np.ndarray) -> np.ndarray:
        """Transposed per-node kernel application mat' @ vec at the common
        level of a (d, e) matrix field and a (2**j, d) vector field."""
        if isinstance(mat, ScaledMatrix):
            return self._rescale(mat.scale, apply(mat.matrix.T, vec))
        return np.einsum("kde,kd->ke", *self._common_level(mat, vec), order="F")

    def tmatvec_sum(self, family: np.ndarray, stack: np.ndarray) -> np.ndarray:
        """sum_k family[k]' stack[..., k] for a (K, d, e) family and a
        (2**i, d, K) row stack of level-i vector fields, as a level-i field:
        one (e, K d) @ (K d, 2**i) product (a run of rows of a stack
        reshapes as a view; the family is made contiguous, as BLAS takes
        another kernel, with other bits, for another layout)."""
        flat = stack.T.reshape(-1, stack.shape[0])
        matrix = np.ascontiguousarray(family).reshape(-1, family.shape[-1])
        return apply(matrix.T, flat.T)

    def implicit_solve(self, mat, rhs: np.ndarray) -> np.ndarray:
        """Per-node solve of (I - dt mat) x = rhs at the level of rhs, for a
        matrix field in either form at most as fine as rhs: ``_eliminate``
        solves the nodes-last (d, d, n) system at all nodes at once, n = 1
        for a constant matrix (broadcast over the nodes), and for d = 1 it
        is one division; a constant 1x1 matrix is that division alone, with
        the same bits.  A zero pivot raises ``np.linalg.LinAlgError``
        naming the level and the node (node 0 for a constant matrix)."""
        level, mat_level = self.level_of(rhs), self.level_of(mat)
        if mat_level > level:
            raise ValueError(f"matrix at level {mat_level} is finer than the "
                             f"right-hand side at level {level}")
        if isinstance(mat, ScaledMatrix) and mat.scale is None and rhs.shape[-1] == 1:
            pivot = 1.0 - self.dt * mat.matrix[0, 0]
            if pivot:  # a zero one goes on to _eliminate, which locates it
                return field(rhs) / pivot
        reps = 1 << (level - mat_level)
        if isinstance(mat, ScaledMatrix):
            scale = np.ones(1) if mat.scale is None else mat.scale.repeat(reps)
            lhs = np.multiply.outer(mat.matrix, scale)
        else:
            lhs = np.moveaxis(mat, 0, -1).repeat(reps, axis=-1)
        lhs *= self.dt
        np.subtract(np.eye(rhs.shape[-1])[..., None], lhs, out=lhs)
        return _eliminate(lhs, np.array(rhs.T, dtype=float, order="C"), level).T


# -- node-contiguous layout ---------------------------------------------
# ``values.T`` is the view of a field with its node axis last (all axes
# reversed): a C-contiguous array for a node-contiguous field, on which
# the passes below run along the nodes.


def field(values) -> np.ndarray:
    """``values`` as a node-contiguous float field; an array already
    stored so is returned as it is."""
    return np.asfortranarray(values, dtype=float)


def outer(nodes: np.ndarray, vector) -> np.ndarray:
    """The field nodes[k] * vector of a per-node (2**i,) factor."""
    return np.multiply.outer(vector, nodes).T


def apply(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """matrix @ v at every node of a (2**i, e) field or every row of a
    (2**i, e, R) row stack: one (d, e) @ (e, 2**i) product; an (R, d, e)
    family gives the row stack of its R products, matrix k on the field or
    on row k.  With e = 1 it is the broadcast product instead, each entry
    one product with the same value (an exact zero may come out -0.0)."""
    if matrix.shape[-1] == 1:
        return (matrix * vec.T).T
    return (matrix @ vec.T).T


def stack(fields) -> np.ndarray:
    """K level-i (2**i, d) fields as one (2**i, d, K) row stack, whose
    ``.T`` is a C-contiguous (K, d, 2**i) array."""
    return np.stack([field(f).T for f in fields]).T


def scaled(values: np.ndarray, factors) -> np.ndarray:
    """The row stack of factors[k] * values, one row per factor, for one
    (2**i, d) field."""
    return np.multiply.outer(factors, field(values).T).T


def _eliminate(lhs: np.ndarray, rhs: np.ndarray, level: int) -> np.ndarray:
    """Solve lhs[..., k] x_k = rhs[:, k] at every node k of a level, for a
    nodes-last (d, d, n) lhs (or (d, d, 1), one matrix for every node) and
    a (d, n) rhs, both overwritten: Gaussian elimination with partial
    pivoting, d column steps of whole-array operations.  The pivot is the
    first entry of largest magnitude (as LAPACK's ``idamax`` picks), the
    multipliers are products with its reciprocal, and the back substitution
    divides by each diagonal entry and then eliminates its column.  Returns
    rhs, holding x."""
    d = rhs.shape[0]
    for c in range(d):
        if c + 1 < d:
            sizes = np.abs(lhs[c:, c])
            best, top = 0, sizes[0]  # a running first maximum down the column
            for r in range(1, d - c):
                better = sizes[r] > top
                best = np.where(better, r, best)
                if r + 1 < d - c:
                    top = np.where(better, sizes[r], top)
            for r in range(1, d - c):
                swap = best == r
                if swap.any():
                    for rows in (lhs[:, c:], rhs):
                        upper = np.where(swap, rows[c + r], rows[c])
                        rows[c + r] = np.where(swap, rows[c], rows[c + r])
                        rows[c] = upper
        pivot = lhs[c, c]
        if not pivot.all():
            node = int(np.flatnonzero(pivot == 0)[0])
            raise np.linalg.LinAlgError(
                f"singular implicit step at level {level}, node {node}")
        if c + 1 < d:
            inv = 1.0 / pivot
            for r in range(c + 1, d):
                factor = lhs[r, c] * inv
                lhs[r, c + 1:] -= factor * lhs[c, c + 1:]
                rhs[r] -= factor * rhs[c]
    for c in range(d - 1, -1, -1):
        rhs[c] /= lhs[c, c]
        if c:
            rhs[:c] -= lhs[:c, c] * rhs[c]
    return rhs


def _repeat(values: np.ndarray, reps: int) -> np.ndarray:
    """Each node of a field repeated ``reps`` times along the node axis."""
    return values.T.repeat(reps, axis=-1).T


def _halves(values: np.ndarray) -> np.ndarray:
    """The nodes-last view of a field or row stack as sibling pairs,
    (..., 2**(i-1), 2), in its own memory order (a view one can write)."""
    last = values.T
    return last.reshape(last.shape[:-1] + (last.shape[-1] // 2, 2))


def _blocks(values: np.ndarray, block: int) -> np.ndarray:
    """The nodes-last view of a field split into consecutive blocks of
    nodes: shape (..., 2**i / block, block)."""
    last = field(values).T
    return last.reshape(last.shape[:-1] + (last.shape[-1] // block, block))


def pair_mean(values: np.ndarray) -> np.ndarray:
    """E_{i-1} of a level-i field or row stack: the means of sibling pairs."""
    return _pair_mean(_blocks(values, 2))


def _pair_mean(paired: np.ndarray) -> np.ndarray:
    """The coarser field of the means of sibling pairs ``_blocks(values,
    2)``: the bits of ``.mean(axis=-1)``."""
    return ((paired[..., 0] + paired[..., 1]) * 0.5).T


@dataclass(frozen=True, eq=False)
class ScaledMatrix:
    """The matrix field scale * matrix, kept factored: one (d, e) matrix
    times a per-node (2**i,) factor at level i, or the same matrix at
    every node when ``scale`` is None."""

    scale: np.ndarray | None
    matrix: np.ndarray

    def __mul__(self, factor: float) -> "ScaledMatrix":
        return ScaledMatrix(self.scale, factor * self.matrix)

    __rmul__ = __mul__


def transpose(mat):
    """Per-node transpose of a matrix field, in its own form."""
    if isinstance(mat, ScaledMatrix):
        return ScaledMatrix(mat.scale, mat.matrix.T)
    return mat.mT


class AdaptedProcess:
    """Node-indexed adapted process: one (2**i, d) table per level.

    Adaptedness is structural: the level-i table can only depend on the
    first i increments because it has no finer index.
    """

    def __init__(self, levels):
        self.levels = [field(v) for v in levels]
        if not self.levels:
            raise ValueError("AdaptedProcess needs at least one level")
        for i, v in enumerate(self.levels):
            if v.ndim != 2 or v.shape[0] != 1 << i:
                raise ValueError(
                    f"level {i} table has shape {v.shape}, wanted ({1 << i}, d)")
        dims = {v.shape[1] for v in self.levels}
        if len(dims) != 1:
            raise ValueError(f"inconsistent dimensions across levels: {dims}")
        self.dim = self.levels[0].shape[1]

    @classmethod
    def constant(cls, vector, last_level: int) -> "AdaptedProcess":
        vec = np.atleast_1d(np.asarray(vector, dtype=float))
        return cls([outer(np.ones(1 << i), vec) for i in range(last_level + 1)])

    @property
    def last_level(self) -> int:
        return len(self.levels) - 1

    def level(self, i: int) -> np.ndarray:
        return self.levels[i]

    def copy(self) -> "AdaptedProcess":
        return AdaptedProcess([v.copy(order="K") for v in self.levels])

    def node_table(self, last_level: int | None = None) -> np.ndarray:
        """Levels 0..last_level (all by default) concatenated along the node
        axis as one node-contiguous table: node k of level i is row
        2**i - 1 + k."""
        stop = len(self.levels) if last_level is None else last_level + 1
        return np.concatenate([v.T for v in self.levels[:stop]], axis=-1).T

    def map(self, fn) -> "AdaptedProcess":
        """fn applied to every level, for a row-wise fn (row k of its result
        depends on row k of its input alone): one call on ``node_table``,
        split back into levels."""
        out = fn(self.node_table())
        return AdaptedProcess([out[(1 << i) - 1:(2 << i) - 1]
                               for i in range(len(self.levels))])

    def __add__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return AdaptedProcess([a + b for a, b in zip(self.levels, other.levels)])

    def __sub__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return AdaptedProcess([a - b for a, b in zip(self.levels, other.levels)])

    def __mul__(self, scalar: float) -> "AdaptedProcess":
        return AdaptedProcess([v * scalar for v in self.levels])

    __rmul__ = __mul__

    def sup_norm(self) -> float:
        return max(float(np.abs(v).max()) for v in self.levels)


class TwoParamProcess:
    """Two-parameter field Z(t_i, t_j) as one row stack per level:
    ``levels[j]`` is the (2**j, d, R) stack of Z(t_i, t_j) over the rows
    i, and ``value(i, j)`` its row i, a node-contiguous view.  Within row
    i the s-section is adapted: column j lives on level j."""

    def __init__(self, levels):
        self.levels = [field(v) for v in levels]
        for j, v in enumerate(self.levels):
            if v.ndim != 3 or v.shape[0] != 1 << j:
                raise ValueError(
                    f"level {j} stack has shape {v.shape}, wanted ({1 << j}, d, rows)")

    def value(self, i: int, j: int) -> np.ndarray:
        return self.levels[j][..., i]
