"""Problem descriptions: coefficient catalog, cost, control region.

A scenario is a JSON document with sections ``grid``, ``dims``,
``coefficients``, ``cost``, ``constraint``, ``tolerances``.  Coefficients
come from a closed catalog (affine maps of the arguments plus optional
elementwise-quadratic terms, scaled by a kernel factor in t - s), so all
first derivatives are supplied analytically.

The six objects b, sigma, g, psi, f, h (``Scenario.catalog``) share one
interface: ``name``, ``slots`` (their state arguments among x, y, z, u),
``value(t, s, **slots)`` and ``jacobian(slot, t, s, **slots)`` (a cost's
is its gradient; it reads the state in ``slot`` only), and
``constant_slots``: the slots whose jacobian does not depend on the
state, read off ``grid_jacobians`` (below).  For b, sigma and g, ``value``
is the scalar kernel times ``bracket(**slots)``, which the solvers build
once per level.

Each ``Kernel`` keeps one (N + 1, N + 1) table of k(t_i, t_j) per time
grid (``Kernel.on_grid``), made by its own ``__call__`` on the first
request, so every entry has the bits of k(t_i, t_j).  ``grid_jacobians``
of b, sigma, g and psi turns it into the jacobians of a constant slot at
every pair, one (N + 1, N + 1, d, e) array whose entry (i, j) is bit for
bit k(t_i, t_j) M_a (psi: P + t_i P'); the adjoint layer reads whole rows and
columns of it as families (see ``lattice``).  Tables are kept by their
objects, so the coefficients must not change after their first use.

Input contract: every section is read by ``_read`` through one field
table that declares each key once (its shape or default).  Any defect --
a section that is not an object, an unknown or missing key, a value that
is not numbers, a wrong shape, a non-finite or out-of-range value --
raises ``ScenarioError("<section>.<key>: ...")``, which the CLI reports
with exit code 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .lattice import AdaptedProcess, ScaledMatrix, TimeGrid, Tree, apply, outer


class ScenarioError(ValueError):
    """Raised when a scenario file is malformed or inconsistent."""


# A field table maps each key of a section to its spec:
#   (rows, cols), (size,)  a float array of that shape, zeros when absent;
#                          a -1 length matches any and makes the key required
#   1.0, 0                 a number defaulting to this (an int reads an integer)
#   float, int             a required number
#   list                   a required list, passed through
#   None                   a nested section or value, passed through as is
# A JSON null counts as absent.


def _read(entry, fields: dict, context: str) -> dict:
    """The values of one JSON section, keyed as in its field table."""
    if entry is None:
        entry = {}
    if not isinstance(entry, dict):
        raise ScenarioError(f"{context}: expected an object, got {type(entry).__name__}")
    unknown = sorted(entry.keys() - fields.keys())
    if unknown:
        raise ScenarioError(f"{context}.{unknown[0]}: unknown key")
    return {key: _value(entry.get(key), spec, f"{context}.{key}")
            for key, spec in fields.items()}


def _value(raw, spec, where: str):
    if spec is None:
        return raw
    if raw is None:
        if isinstance(spec, tuple) and -1 not in spec:
            return np.zeros(spec)
        if isinstance(spec, (int, float)):
            return spec
        raise ScenarioError(f"{where}: missing")
    if spec is list:
        if not isinstance(raw, list):
            raise ScenarioError(f"{where}: expected a list, got {type(raw).__name__}")
        return raw
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged rows
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise ScenarioError(f"{where}: expected numbers, got {raw!r:.60}")
    shape = spec if isinstance(spec, tuple) else ()
    if arr.ndim != len(shape) or any(d not in (-1, n) for d, n in zip(shape, arr.shape)):
        raise ScenarioError(f"{where}: expected shape {shape}, got {arr.shape}")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ScenarioError(f"{where}: not finite")
    if shape:
        return arr
    value = float(arr)
    if spec is int or type(spec) is int:
        if not value.is_integer():
            raise ScenarioError(f"{where}: expected an integer, got {value}")
        return int(value)
    return value


def _positive(values: dict, context: str) -> dict:
    for key, value in values.items():
        if not value > 0:
            raise ScenarioError(f"{context}.{key}: must be positive, got {value}")
    return values


class _Section:
    """A section whose attributes are its JSON keys, as declared by
    ``table(*dims)``."""

    def __init__(self, **values):
        vars(self).update(values)

    @classmethod
    def from_json(cls, entry, context, *dims):
        return cls(**_read(entry, cls.table(*dims), context))

    def to_json(self):
        """The JSON keys; private attributes (memos) are not part of it."""
        return {key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in vars(self).items() if not key.startswith("_")}


# Row-wise mat @ row and Euclidean norm over (..., d) tables; each row's
# result is bit for bit that of the single vector (np.linalg.norm).
def _rowmat(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return np.matmul(mat, rows[..., None])[..., 0]


def _norm(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(rows, rows))


# ---------------------------------------------------------------------------
# kernel factor and coefficient catalog


class Kernel(_Section):
    """Scalar factor scale * exp(-kappa*(t-s)) * (t-s)**power."""

    def __init__(self, **values):
        super().__init__(**values)
        self._grids = {}  # (N, dt) -> table of k(t_i, t_j)

    @staticmethod
    def table():
        return {"scale": 1.0, "kappa": 0.0, "power": 0}

    @classmethod
    def from_json(cls, entry, context):
        kernel = super().from_json(entry, context)
        if kernel.power < 0:  # (t - s)**power must exist at t = s
            raise ScenarioError(f"{context}.power: must be non-negative, got {kernel.power}")
        return kernel

    def check_horizon(self, horizon: float, context: str) -> None:
        """Raise ScenarioError if the factor overflows at a lag t - s <= horizon."""
        for key, factor in (("kappa", lambda: math.exp(-self.kappa * horizon)),
                            ("power", lambda: horizon ** self.power)):
            try:
                factor()
            except OverflowError:
                raise ScenarioError(f"{context}.{key}: the factor overflows at"
                                    f" t - s = {horizon}") from None

    def __call__(self, t: float, s: float) -> float:
        out = self.scale * math.exp(-self.kappa * (t - s))
        if self.power:
            out *= (t - s) ** self.power
        return out

    def on_grid(self, tree: Tree) -> np.ndarray:
        """The (N + 1, N + 1) table of k(t_i, t_j) on the grid of ``tree``,
        made once per grid by ``__call__``.  A factor that overflows is NaN:
        ``check_horizon`` bounds only the lags t - s in [0, T], which is all
        the forward sweep reads; the BSVIE reads lags down to -(T - dt) and
        stops on a NaN one with a PicardError."""
        key = (tree.N, tree.dt)
        table = self._grids.get(key)
        if table is None:
            table = self._grids[key] = np.array(
                [[self._entry(tree.t(i), tree.t(j)) for j in range(tree.N + 1)]
                 for i in range(tree.N + 1)])
        return table

    def _entry(self, t: float, s: float) -> float:
        try:
            return self(t, s)
        except OverflowError:
            return math.nan

    @property
    def time_invariant(self) -> bool:
        return self.kappa == 0.0 and self.power == 0


class AffineCoefficient:
    """Catalog coefficient kernel(t,s) * bracket, where the bracket
    const + sum_slots (M_a a + Q_a (a*a)) is summed in slot order.

    ``slots`` maps slot name -> input dimension; evaluators are vectorized
    over nodes.  The kernel is a scalar applied last, so a solver builds
    the bracket of a level once (``bracket``, ``term``) and scales it for
    each time pair; ``value`` is that product, bit for bit.  Derivatives
    are analytic: d/da = kernel * (M_a + 2 Q_a diag(a)).  In a slot without
    a quadratic term it is the constant matrix kernel * M_a, which
    ``grid_jacobians`` gives at every pair of a grid at once.
    """

    def __init__(self, name, slots, kernel, matrices, quads, const):
        self.name = name
        self.slots = dict(slots)
        self.kernel = kernel
        self.matrices = matrices
        self.quads = quads
        self.const = const
        self._quadratic = {a for a, q in quads.items() if q.any()}
        self._constant_slots = frozenset(self.slots) - self._quadratic
        self._grids = {}  # (slot, N, dt) -> jacobians at every pair

    @classmethod
    def from_json(cls, name, out_dim, slots, entry):
        table = {"kernel": None, "const": (out_dim,)}
        for a, d in slots.items():
            table[a] = table[f"quad_{a}"] = (out_dim, d)
        v = _read(entry, table, name)
        return cls(name, slots, Kernel.from_json(v["kernel"], f"{name}.kernel"),
                   {a: v[a] for a in slots}, {a: v[f"quad_{a}"] for a in slots},
                   v["const"])

    def to_json(self):
        out = {"kernel": self.kernel.to_json(), "const": self.const.tolist()}
        for a in self.slots:
            out[a] = self.matrices[a].tolist()
            out[f"quad_{a}"] = self.quads[a].tolist()
        return out

    @property
    def is_affine(self) -> bool:
        return not self._quadratic

    @property
    def constant_slots(self) -> frozenset:
        """The slots without a quadratic term."""
        return self._constant_slots

    def term(self, slot: str, arr: np.ndarray) -> np.ndarray:
        """The bracket term M_a a (+ Q_a (a*a)) of one slot."""
        term = apply(self.matrices[slot], arr)
        if slot in self._quadratic:
            term = term + apply(self.quads[slot], arr * arr)
        return term

    def bracket(self, base=None, **args) -> np.ndarray:
        """``base`` (``const`` by default) plus the terms of ``args`` in
        their order; a partial bracket is a valid ``base``."""
        out = self.const if base is None else base
        for a, arr in args.items():
            out = out + self.term(a, arr)
        return out

    def value(self, t: float, s: float, **args) -> np.ndarray:
        return self.kernel(t, s) * self.bracket(**args)

    def jacobian(self, slot: str, t: float, s: float, **args):
        """kernel * (M_a + 2 Q_a diag(a)) per node of the state ``args``."""
        M = self.matrices[slot]
        return self.kernel(t, s) * (
            M + 2.0 * self.quads[slot][None, :, :] * args[slot][:, None, :])

    def grid_jacobians(self, slot: str, tree: Tree) -> np.ndarray:
        """The jacobians k(t_i, t_j) M_a of a constant slot at every pair of
        the grid of ``tree``, one (N + 1, N + 1, d, e) array made once."""
        key = (slot, tree.N, tree.dt)
        table = self._grids.get(key)
        if table is None:
            table = self._grids[key] = (
                self.kernel.on_grid(tree)[:, :, None, None] * self.matrices[slot])
        return table


class TerminalMap(_Section):
    """psi(t, x) = (P + t*P') x + (c + t*c'), with P = ``x``, P' = ``x_slope``;
    evaluated at (t_i, T).  Its jacobian P + t*P' does not depend on s, and
    ``grid_jacobians`` builds it once per grid time."""

    name = "psi"
    slots = constant_slots = ("x",)

    def __init__(self, **values):
        super().__init__(**values)
        self._grids = {}  # (N, dt) -> jacobians at every pair

    @staticmethod
    def table(m, n):
        return {"x": (m, n), "x_slope": (m, n), "const": (m,), "const_slope": (m,)}

    @property
    def time_invariant(self) -> bool:
        return not self.x_slope.any() and not self.const_slope.any()

    def matrix(self, t: float) -> np.ndarray:
        return self.x + t * self.x_slope

    def value(self, t: float, s: float, x: np.ndarray) -> np.ndarray:
        return apply(self.matrix(t), x) + (self.const + t * self.const_slope)

    def jacobian(self, slot: str, t: float, s: float,
                 x: np.ndarray | None = None) -> ScaledMatrix:
        return ScaledMatrix(None, self.matrix(t))

    def grid_jacobians(self, slot: str, tree: Tree) -> np.ndarray:
        """P + t_i P' at every pair (t_i, t_j) of the grid of ``tree``: an
        (N + 1, N + 1, m, n) view of one matrix per t_i."""
        key = (tree.N, tree.dt)
        table = self._grids.get(key)
        if table is None:
            rows = np.stack([self.matrix(tree.t(i)) for i in range(tree.N + 1)])
            table = self._grids[key] = np.broadcast_to(
                rows[:, None], (tree.N + 1,) + rows.shape)
        return table


class InitialCurve(_Section):
    """phi(t) = a + b*t + c*W(t), evaluated on the lattice per level."""

    @staticmethod
    def table(n):
        return {"const": (n,), "slope": (n,), "brownian": (n,)}

    def value(self, tree: Tree, i: int) -> np.ndarray:
        return (self.const + tree.t(i) * self.slope) + outer(tree.w(i), self.brownian)


@dataclass
class CoefficientSet:
    n: int
    m: int
    l: int
    phi: InitialCurve
    b: AffineCoefficient
    sigma: AffineCoefficient
    g: AffineCoefficient
    psi: TerminalMap

    @classmethod
    def from_json(cls, dims, entry):
        v = _read(entry, dict.fromkeys(("phi", "b", "sigma", "g", "psi")), "coefficients")
        n, m, l = dims
        fwd_slots = {"x": n, "u": l}
        g_slots = {"x": n, "y": m, "z": m, "u": l}
        return cls(
            n, m, l,
            InitialCurve.from_json(v["phi"], "phi", n),
            AffineCoefficient.from_json("b", n, fwd_slots, v["b"]),
            AffineCoefficient.from_json("sigma", n, fwd_slots, v["sigma"]),
            AffineCoefficient.from_json("g", m, g_slots, v["g"]),
            TerminalMap.from_json(v["psi"], "psi", m, n),
        )

    def to_json(self):
        return {"phi": self.phi.to_json(), "b": self.b.to_json(),
                "sigma": self.sigma.to_json(), "g": self.g.to_json(),
                "psi": self.psi.to_json()}

    @property
    def is_affine(self) -> bool:
        return self.b.is_affine and self.sigma.is_affine and self.g.is_affine

    @property
    def time_invariant(self) -> bool:
        return (self.b.kernel.time_invariant and self.sigma.kernel.time_invariant
                and self.g.kernel.time_invariant and self.psi.time_invariant)


# ---------------------------------------------------------------------------
# cost


def _vecmul(arr: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """arr @ vec at every node of a (nodes, d) field.  For d = 1 it is the
    plain product, which has the same value, as in ``lattice.apply``."""
    return arr[:, 0] * vec[0] if vec.shape[0] == 1 else arr @ vec


class RunningCost:
    """f(s,x,y,z,u) = 1/2 sum a' Q_a a + sum l_a . a + const."""

    name = "cost.f"
    slots = ("x", "y", "z", "u")
    constant_slots = ()

    def __init__(self, quads, lins, const):
        self.quads = quads
        self.lins = lins
        self.const = const

    @classmethod
    def from_json(cls, n, m, l, entry):
        dims = dict(zip(cls.slots, (n, m, m, l)))
        table = {"const": 0.0}
        for a, d in dims.items():
            table[f"q{a}"], table[f"l{a}"] = (d, d), (d,)
        v = _read(entry, table, cls.name)
        return cls({a: v[f"q{a}"] for a in dims}, {a: v[f"l{a}"] for a in dims},
                   v["const"])

    def to_json(self):
        out = {"const": self.const}
        for a in self.slots:
            out[f"q{a}"] = self.quads[a].tolist()
            out[f"l{a}"] = self.lins[a].tolist()
        return out

    def value(self, t: float, s: float, **args) -> np.ndarray:
        nodes = next(iter(args.values())).shape[0]
        out = np.full(nodes, self.const)
        for a, arr in args.items():
            out += 0.5 * np.einsum("ki,ij,kj->k", arr, self.quads[a], arr)
            out += _vecmul(arr, self.lins[a])
        return out

    def jacobian(self, slot: str, t: float, s: float, **args) -> np.ndarray:
        arr = args[slot]
        q = 0.5 * (self.quads[slot] + self.quads[slot].T)
        return apply(q, arr) + self.lins[slot]


class TerminalCost(_Section):
    """h(x_T, y_0) = 1/2 (x-x*)'Qx(x-x*) + lx.x + 1/2 (y-y*)'Qy(y-y*) + ly.y."""

    name = "cost.h"
    slots = ("x", "y")
    constant_slots = ()

    @staticmethod
    def table(n, m):
        return {"qx": (n, n), "qy": (m, m), "x_target": (n,), "y_target": (m,),
                "lx": (n,), "ly": (m,)}

    def value(self, t: float, s: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        dx = x - self.x_target
        dy = y - self.y_target
        out = 0.5 * np.einsum("ki,ij,kj->k", dx, self.qx, dx) + _vecmul(x, self.lx)
        out += 0.5 * np.einsum("ki,ij,kj->k", dy, self.qy, dy) + _vecmul(y, self.ly)
        return out

    def jacobian(self, slot: str, t: float, s: float, **args) -> np.ndarray:
        q = getattr(self, f"q{slot}")
        gap = args[slot] - getattr(self, f"{slot}_target")
        return apply(0.5 * (q + q.T), gap) + getattr(self, f"l{slot}")


@dataclass
class CostSpec:
    f: RunningCost
    h: TerminalCost

    @classmethod
    def from_json(cls, n, m, l, entry):
        v = _read(entry, {"f": None, "h": None}, "cost")
        return cls(RunningCost.from_json(n, m, l, v["f"]),
                   TerminalCost.from_json(v["h"], "cost.h", n, m))

    def to_json(self):
        return {"f": self.f.to_json(), "h": self.h.to_json()}


# ---------------------------------------------------------------------------
# control constraint


class ProjectionUnavailable(RuntimeError):
    pass


class ControlConstraint:
    """Closed control region U with membership, inequalities and projection.

    One class per kind of region, built by the constructors here:
    ``Halfspaces`` (a_i . u <= b_i), ``Ball`` and ``Quadratics`` (smooth
    inequalities u'S_i u + b_i.u + c_i <= 0).  Each supplies ``values``
    g_i(u), shape (..., k), ``gradients``, shape (..., k, l), its projection
    and ``to_json``.  The unconstrained region is ``Halfspaces`` with zero
    rows (``whole_space``).  The torus fixture of the two-ring annulus is
    the quadratics instance {|u|^2 - 4 <= 0, 2 - |u|^2 <= 0} with a radial
    closed-form projection; other quadratics regions have none.

    ``values``, ``gradients``, ``activity``, ``contains`` and ``project``
    take (..., l) node tables, one point per row, bit for bit as if row by
    row; an (l,) point is the one-row case.
    """

    whole_space = False
    has_exact_projection = True

    # -- constructors ---------------------------------------------------

    @classmethod
    def unconstrained(cls, dim):
        return Halfspaces(np.zeros((0, dim)), np.zeros(0))

    @classmethod
    def ball(cls, center, radius):
        if not radius > 0:
            raise ScenarioError(f"constraint.radius: must be positive, got {radius}")
        return Ball(np.asarray(center, dtype=float), float(radius))

    @classmethod
    def halfspaces(cls, normals, offsets):
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        offsets = np.asarray(offsets, dtype=float)
        if normals.shape[0] != offsets.size:
            raise ScenarioError(f"constraint.offsets: {offsets.size} offsets for"
                                f" {normals.shape[0]} normals")
        return Halfspaces(normals, offsets)

    @classmethod
    def quadratics(cls, terms, dim):
        if not terms:
            raise ScenarioError("constraint.terms: no terms")
        table = {"quad": (dim, dim), "lin": (dim,), "const": 0.0}
        return Quadratics(dim, [_read(term, table, f"constraint.terms[{k}]")
                                for k, term in enumerate(terms)])

    @classmethod
    def torus(cls):
        return cls.quadratics([{"quad": np.eye(2).tolist(), "const": -4.0},
                               {"quad": (-np.eye(2)).tolist(), "const": 2.0}], 2)

    @classmethod
    def from_json(cls, l, entry):
        kinds = {"unconstrained": ({}, lambda: cls.unconstrained(l)),
                 "torus": ({}, cls.torus),
                 "ball": ({"center": (l,), "radius": float}, cls.ball),
                 "halfspaces": ({"normals": (-1, l), "offsets": (-1,)}, cls.halfspaces),
                 "quadratics": ({"terms": list}, lambda terms: cls.quadratics(terms, l))}
        if entry in (None, {}):
            entry = {"type": "unconstrained"}
        kind = entry.get("type") if isinstance(entry, dict) else None
        if isinstance(entry, dict) and (kind not in kinds or kind == "torus" and l != 2):
            raise ScenarioError(f"constraint.type: expected one of {sorted(kinds)}"
                                f" (torus needs control dim 2), got {kind!r}")
        table, make = kinds.get(kind, ({}, None))
        v = _read(entry, {"type": None, **table}, "constraint")
        del v["type"]
        return make(**v)

    # -- inequality interface -------------------------------------------

    def activity(self, u: np.ndarray, tol: float):
        """Masks (within, active), shape (..., k), of the band rule: g_i <=
        tol (1 + |g_i|) within U, |g_i| <= tol (1 + |g_i|) active."""
        vals = self.values(np.asarray(u, dtype=float))
        band = tol * (1.0 + np.abs(vals))
        return vals <= band, np.abs(vals) <= band

    def contains(self, u: np.ndarray, tol: float = 1e-9):
        """Membership of each row of u, shape (...)."""
        return np.all(self.activity(u, tol)[0], axis=-1)

    def project(self, u: np.ndarray) -> np.ndarray:
        """Euclidean projection of each row of u onto U (exact for the
        catalog regions); raises ProjectionUnavailable for a quadratics
        region without a closed form."""
        return self._project(np.asarray(u, dtype=float))


class Halfspaces(ControlConstraint):
    """{u : A u <= b}, one row of ``normals`` A and ``offsets`` b per
    inequality; with zero rows it is the whole space."""

    def __init__(self, normals, offsets):
        self.normals, self.offsets, self.dim = normals, offsets, normals.shape[1]
        self.whole_space = not offsets.size

    def to_json(self):
        if self.whole_space:
            return {"type": "unconstrained"}
        return {"type": "halfspaces", "normals": self.normals.tolist(),
                "offsets": self.offsets.tolist()}

    def values(self, u):
        return _rowmat(self.normals, np.asarray(u, dtype=float)) - self.offsets

    def gradients(self, u):
        return np.tile(self.normals, np.shape(u)[:-1] + (1, 1))

    def _project(self, u):
        # exact active-set enumeration (small catalog systems), each subset
        # solved for all rows at once; rows already inside keep u at distance 0
        A, b = self.normals, self.offsets
        inside = np.all(_rowmat(A, u) <= b + 1e-12, axis=-1)
        best, best_d = u.copy(), np.where(inside, 0.0, math.inf)
        for size in range(1, min(A.shape[0], self.dim) + 1):
            for rows in combinations(range(A.shape[0]), size):
                As = A[list(rows)]
                rhs = _rowmat(As, u) - b[list(rows)]
                try:
                    lam = np.linalg.solve(np.broadcast_to(
                        As @ As.T, rhs.shape + (size,)), rhs[..., None])[..., 0]
                except np.linalg.LinAlgError:
                    continue
                cand = u - _rowmat(As.T, lam)
                d = _norm(cand - u)
                better = (np.all(lam >= -1e-12, axis=-1)
                          & np.all(_rowmat(A, cand) <= b + 1e-9, axis=-1)
                          & (d < best_d))
                best[better], best_d[better] = cand[better], d[better]
        if np.isinf(best_d).any():
            raise ProjectionUnavailable("halfspace projection: no feasible KKT point")
        return best


class Ball(ControlConstraint):
    """{u : |u - center| <= radius}."""

    def __init__(self, center, radius):
        self.center, self.radius, self.dim = center, radius, center.size

    def to_json(self):
        return {"type": "ball", "center": self.center.tolist(), "radius": self.radius}

    def values(self, u):
        gap = u - self.center
        return np.vecdot(gap, gap)[..., None] - self.radius * self.radius

    def gradients(self, u):
        return 2.0 * (u - self.center)[..., None, :]

    def _project(self, u):
        gap, r = u - self.center, self.radius
        norm = _norm(gap)[..., None]
        return np.where(norm <= r, u, self.center + gap * (r / np.maximum(norm, r)))


class Quadratics(ControlConstraint):
    """{u : u'S_k u + b_k.u + c_k <= 0 for every term k}, each of ``terms``
    a dict with keys quad, lin and const.  A centred annulus (every term
    exactly +-I, no linear part) has the radial projection."""

    def __init__(self, dim, terms):
        self.dim, self.terms = dim, terms
        self._radial = self._radial_bounds()
        self.has_exact_projection = self._radial is not None

    def _radial_bounds(self):
        """(r_in^2, r_out^2) when the set is a centred annulus, else None."""
        eye, lo, hi = np.eye(self.dim), 0.0, math.inf
        for t in self.terms:
            if t["lin"].any():
                return None
            if np.array_equal(t["quad"], eye):
                hi = min(hi, -t["const"])
            elif np.array_equal(t["quad"], -eye):
                lo = max(lo, t["const"])
            else:
                return None
        return (lo, hi) if lo <= hi < math.inf else None

    def to_json(self):
        if self.dim == 2 and self._radial == (2.0, 4.0):
            return {"type": "torus"}
        return {"type": "quadratics", "terms": [
            {"quad": t["quad"].tolist(), "lin": t["lin"].tolist(), "const": t["const"]}
            for t in self.terms]}

    def values(self, u):
        return np.stack([np.vecdot(u @ t["quad"], u) + np.vecdot(u, t["lin"])
                         + t["const"] for t in self.terms], axis=-1)

    def gradients(self, u):
        u = np.asarray(u, dtype=float)
        return np.stack([_rowmat(t["quad"] + t["quad"].T, u) + t["lin"]
                         for t in self.terms], axis=-2)

    def _project(self, u):
        if self._radial is None:
            raise ProjectionUnavailable(
                "no closed-form projection for this quadratics constraint")
        lo, hi = map(math.sqrt, self._radial)
        norm = _norm(u)[..., None]
        zero = norm == 0.0
        # norm + zero is the norm, or 1 at the origin (sent to the inner ring)
        out = u * (np.minimum(np.maximum(norm, lo), hi) / (norm + zero))
        if zero.any():
            out[zero[..., 0]] = np.eye(self.dim)[0] * lo
        return out


# ---------------------------------------------------------------------------
# scenario


class Tolerances(_Section):
    @staticmethod
    def table():
        return {"picard_tol": 1e-12, "picard_max_iter": 200, "activity_tol": 1e-8,
                "nc_tol": 1e-8}

    @classmethod
    def from_json(cls, entry, context):
        return cls(**_positive(_read(entry, cls.table(), context), context))


@dataclass
class Scenario:
    grid: TimeGrid
    coeffs: CoefficientSet
    cost: CostSpec
    constraint: ControlConstraint
    tolerances: Tolerances
    seed: int
    initial_control: np.ndarray | None

    @property
    def n(self):
        return self.coeffs.n

    @property
    def m(self):
        return self.coeffs.m

    @property
    def l(self):
        return self.coeffs.l

    def tree(self, steps: int | None = None) -> Tree:
        if steps is None:
            return Tree(self.grid)
        return Tree(TimeGrid(self.grid.horizon, steps))

    @property
    def catalog(self) -> dict:
        """The six differentiated objects by short name."""
        co, cost = self.coeffs, self.cost
        return {"b": co.b, "sigma": co.sigma, "g": co.g, "psi": co.psi,
                "f": cost.f, "h": cost.h}

    def base_control(self) -> np.ndarray:
        """``initial_control``, else the projection of 0 onto U."""
        u0 = self.initial_control
        return self.constraint.project(np.zeros(self.l)) if u0 is None else u0

    def default_control(self, tree: Tree):
        return AdaptedProcess.constant(self.base_control(), tree.N - 1)

    def to_json(self):
        out = {
            "grid": {"T": self.grid.horizon, "N": self.grid.steps},
            "dims": {"n": self.n, "m": self.m, "l": self.l},
            "coefficients": self.coeffs.to_json(),
            "cost": self.cost.to_json(),
            "constraint": self.constraint.to_json(),
            "tolerances": self.tolerances.to_json(),
            "seed": self.seed,
        }
        if self.initial_control is not None:
            out["initial_control"] = np.asarray(self.initial_control).tolist()
        return out

    @classmethod
    def from_json(cls, doc):
        v = _read(doc, {"grid": None, "dims": None, "coefficients": None, "cost": None,
                        "constraint": None, "tolerances": None, "seed": 0,
                        "initial_control": None}, "scenario")
        grid = _positive(_read(v["grid"], {"T": float, "N": int}, "grid"), "grid")
        try:
            grid = TimeGrid(grid["T"], grid["N"])
        except ValueError as exc:
            raise ScenarioError(f"grid.N: {exc}") from exc
        n, m, l = _positive(_read(v["dims"], dict.fromkeys("nml", int), "dims"),
                            "dims").values()
        if v["seed"] < 0:
            raise ScenarioError(f"scenario.seed: must be non-negative, got {v['seed']}")
        u0 = v["initial_control"]
        if u0 is not None:
            u0 = _value(u0, (l,), "scenario.initial_control")
        coeffs = CoefficientSet.from_json((n, m, l), v["coefficients"])
        for c in (coeffs.b, coeffs.sigma, coeffs.g):
            c.kernel.check_horizon(grid.horizon, f"{c.name}.kernel")
        return cls(grid, coeffs, CostSpec.from_json(n, m, l, v["cost"]),
                   ControlConstraint.from_json(l, v["constraint"]),
                   Tolerances.from_json(v["tolerances"], "tolerances"), v["seed"], u0)


def load_scenario(path) -> Scenario:
    """Parse and build a scenario file; raises ScenarioError."""
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")
    except OSError as exc:
        raise ScenarioError(f"scenario file cannot be read: {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8 text: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file does not parse: {exc}") from exc
    scenario = Scenario.from_json(doc)
    u0 = scenario.initial_control
    if u0 is not None and not scenario.constraint.contains(
            u0, scenario.tolerances.activity_tol):
        raise ScenarioError("initial_control: not inside the control region")
    try:  # an empty region or one without a projection has no default control
        scenario.base_control()
    except ProjectionUnavailable as exc:
        raise ScenarioError(f"constraint: {exc}") from exc
    return scenario


def fixture_path(name: str) -> Path:
    return Path(__file__).parent / "fixtures" / f"{name}.json"
