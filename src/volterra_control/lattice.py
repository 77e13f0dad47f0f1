"""Exact binary-noise probability lattice.

A uniform time grid with N steps carries a non-recombining binary tree:
2**i nodes at level i, node (i, k) branching to (i+1, 2k) and (i+1, 2k+1)
with probability 1/2 each.  Child 2k carries the Brownian increment
-sqrt(dt), child 2k+1 carries +sqrt(dt).  Conditional expectations are
pairwise means, stochastic integrals are finite sums, and martingale
representation is a two-point difference quotient, so every identity
built on top of this module holds to machine precision.

Random objects are plain float arrays: a field at level i has shape
(2**i, d).  A field at leaf level (i = N) plays the role of an
F_T-measurable vector ("terminal field").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Storage for two-parameter fields is O(N * 2**N) per dimension; beyond
# this the exact tree stops being a desk-scale object.
MAX_EXACT_STEPS = 14


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * dt, i = 0..steps, with dt = horizon / steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.steps > MAX_EXACT_STEPS:
            raise ValueError(
                f"steps={self.steps} exceeds exact-mode cap {MAX_EXACT_STEPS}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

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
        return self.grid.t(i)

    # -- level plumbing ------------------------------------------------

    def _check_level(self, level: int):
        if not 0 <= level <= self.N:
            raise ValueError(f"level {level} outside 0..{self.N}")

    def level_of(self, values: np.ndarray) -> int:
        n = values.shape[0]
        level = n.bit_length() - 1
        if 1 << level != n or level > self.N:
            raise ValueError(f"array with {n} rows is not a lattice level")
        return level

    def embed(self, values: np.ndarray, to_level: int) -> np.ndarray:
        """Replicate a level-i field onto a finer level (i <= to_level)."""
        from_level = self.level_of(values)
        self._check_level(to_level)
        if from_level > to_level:
            raise ValueError(f"cannot embed level {from_level} into {to_level}")
        if from_level == to_level:
            return values
        return np.repeat(values, 1 << (to_level - from_level), axis=0)

    def cond_expect(self, values: np.ndarray, to_level: int) -> np.ndarray:
        """E[ . | F_{t_i}]: equal-weight mean over level-i descendants.

        Linear idempotent projection; a field already at to_level is
        returned unchanged.
        """
        from_level = self.level_of(values)
        self._check_level(to_level)
        if to_level > from_level:
            raise ValueError(
                f"target level {to_level} exceeds source level {from_level}")
        if to_level == from_level:
            return values
        block = 1 << (from_level - to_level)
        shape = (1 << to_level, block) + values.shape[1:]
        return values.reshape(shape).mean(axis=1)

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
        out = None
        for j in range(j0, j1):
            h = np.asarray(get(j), dtype=float)
            if self.level_of(h) != j:
                raise ValueError(f"integrand at step {j} is not level-{j}")
            term = self.embed(self.dw_term(h, j), self.N)
            out = term if out is None else out + term
        if out is None:
            dim = integrands.dim if isinstance(integrands, AdaptedProcess) else 1
            return np.zeros((self.n_leaves, dim))
        return out

    def dw_term(self, h: np.ndarray, j: int) -> np.ndarray:
        """The increment h dW_j of a level-j integrand, a level-(j+1) field."""
        return np.repeat(h, 2, axis=0) * self._dw[j].reshape(
            (-1,) + (1,) * (h.ndim - 1))

    def repr_step(self, values: np.ndarray):
        """One backward martingale step: level k+1 -> (E_k mean, integrand).

        integrand z_k = (up child mean - down child mean) / (2 sqrt(dt)),
        so that values = mean + z_k dW_k exactly on the two children.
        """
        level = self.level_of(values)
        if level < 1:
            raise ValueError("repr_step needs level >= 1")
        paired = values.reshape((1 << (level - 1), 2) + values.shape[1:])
        mean = paired.mean(axis=1)
        z = (paired[:, 1] - paired[:, 0]) / (2.0 * self.sqdt)
        return mean, z

    def martingale_repr(self, values: np.ndarray, to_level: int = 0):
        """Exact decomposition x = E_k[x] + sum_{j>=k} z_j dW_j.

        Returns (E_k[x], [z_k, ..., z_{J-1}]) for a level-J field; the
        round trip mean + ito_sum(z) reproduces x bit-for-bit.
        """
        from_level = self.level_of(values)
        self._check_level(to_level)
        if to_level > from_level:
            raise ValueError(
                f"target level {to_level} exceeds source level {from_level}")
        cur = values
        zs = []
        for j in range(from_level - 1, to_level - 1, -1):
            cur, z = self.repr_step(cur)
            zs.append(z)
        zs.reverse()
        return cur, zs

    # -- kernel application ---------------------------------------------

    def _common_level(self, mat: np.ndarray, vec: np.ndarray):
        lev = max(self.level_of(mat), self.level_of(vec))
        return self.embed(mat, lev), self.embed(vec, lev)

    def matvec(self, mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Per-node kernel application mat @ vec at the common refinement
        level of a (2**i, d, e) matrix field and a (2**j, e) vector field."""
        return np.einsum("kde,ke->kd", *self._common_level(mat, vec))

    def tmatvec(self, mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Transposed per-node kernel application mat' @ vec at the common
        level of a (2**i, d, e) matrix field and a (2**j, d) vector field."""
        return np.einsum("kde,kd->ke", *self._common_level(mat, vec))

    def implicit_solve(self, mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Per-node solve of (I - dt mat) x = rhs at the level of rhs."""
        lhs = np.eye(rhs.shape[-1]) - self.dt * self.embed(mat, self.level_of(rhs))
        return np.linalg.solve(lhs, rhs[..., None])[..., 0]


class AdaptedProcess:
    """Node-indexed adapted process: one (2**i, d) table per level.

    Adaptedness is structural: the level-i table can only depend on the
    first i increments because it has no finer index.
    """

    def __init__(self, levels):
        self.levels = [np.asarray(v, dtype=float) for v in levels]
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
    def zeros(cls, last_level: int, dim: int) -> "AdaptedProcess":
        return cls([np.zeros((1 << i, dim)) for i in range(last_level + 1)])

    @classmethod
    def constant(cls, vector, last_level: int) -> "AdaptedProcess":
        vec = np.atleast_1d(np.asarray(vector, dtype=float))
        return cls([np.tile(vec, (1 << i, 1)) for i in range(last_level + 1)])

    @property
    def last_level(self) -> int:
        return len(self.levels) - 1

    def level(self, i: int) -> np.ndarray:
        return self.levels[i]

    def copy(self) -> "AdaptedProcess":
        return AdaptedProcess([v.copy() for v in self.levels])

    def map(self, fn) -> "AdaptedProcess":
        return AdaptedProcess([fn(v) for v in self.levels])

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
    """Two-parameter field Z(t_i, t_j): per row i, one level-j table per j.

    Rows are indexed by the grid point t_i; within row i the s-section is
    adapted, stored at its own level (column j lives on level j).
    """

    def __init__(self, rows):
        self.rows = [[np.asarray(v, dtype=float) for v in row] for row in rows]
        for row in self.rows:
            for j, v in enumerate(row):
                if v.ndim != 2 or v.shape[0] != 1 << j:
                    raise ValueError(
                        f"column {j} has shape {v.shape}, wanted ({1 << j}, d)")

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int, dim: int) -> "TwoParamProcess":
        return cls([[np.zeros((1 << j, dim)) for j in range(n_cols)]
                    for _ in range(n_rows)])

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def row(self, i: int):
        return self.rows[i]

    def value(self, i: int, j: int) -> np.ndarray:
        return self.rows[i][j]
