"""Problem descriptions: coefficient catalog, cost, control region.

A scenario is a JSON document with sections ``grid``, ``dims``,
``coefficients``, ``cost``, ``constraint``, ``tolerances``.  Coefficients
come from a closed catalog (affine maps of the arguments plus optional
elementwise-quadratic terms, scaled by a kernel factor in t - s), so all
first derivatives are supplied analytically and cross-checked against
central finite differences by ``validate``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .lattice import TimeGrid, Tree


class ScenarioError(ValueError):
    """Raised when a scenario file fails to parse or validate."""


@dataclass(frozen=True)
class Diagnostic:
    field: str
    message: str
    discrepancy: float = 0.0

    def __str__(self):
        return f"{self.field}: {self.message} (discrepancy {self.discrepancy:.3e})"


def _reject_unknown(section: dict, allowed, context: str):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ScenarioError(f"{context}: unknown keys {sorted(unknown)}")


def _matrix(entry, rows, cols, context):
    if entry is None:
        return np.zeros((rows, cols))
    arr = np.asarray(entry, dtype=float)
    if arr.shape != (rows, cols):
        raise ScenarioError(
            f"{context}: expected shape ({rows}, {cols}), got {arr.shape}")
    return arr


def _vector(entry, size, context):
    if entry is None:
        return np.zeros(size)
    arr = np.asarray(entry, dtype=float)
    if arr.shape != (size,):
        raise ScenarioError(f"{context}: expected length {size}, got {arr.shape}")
    return arr


# Row-wise mat @ row and Euclidean norm over (..., d) tables; each row's
# result is bit for bit that of the single vector (np.linalg.norm).
def _rowmat(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return np.matmul(mat, rows[..., None])[..., 0]


def _norm(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(rows, rows))


# ---------------------------------------------------------------------------
# kernel factor and coefficient catalog


@dataclass(frozen=True)
class Kernel:
    """Scalar factor scale * exp(-kappa*(t-s)) * (t-s)**power."""

    scale: float = 1.0
    kappa: float = 0.0
    power: int = 0

    def __call__(self, t: float, s: float) -> float:
        out = self.scale * math.exp(-self.kappa * (t - s))
        if self.power:
            out *= (t - s) ** self.power
        return out

    @property
    def time_invariant(self) -> bool:
        return self.kappa == 0.0 and self.power == 0

    def to_json(self):
        return {"scale": self.scale, "kappa": self.kappa, "power": self.power}

    @classmethod
    def from_json(cls, entry, context):
        if entry is None:
            return cls()
        _reject_unknown(entry, ("scale", "kappa", "power"), context)
        return cls(float(entry.get("scale", 1.0)), float(entry.get("kappa", 0.0)),
                   int(entry.get("power", 0)))


class AffineCoefficient:
    """Catalog coefficient kernel(t,s) * (sum_slots M_a * a + Q_a * (a*a) + c).

    ``slots`` maps slot name -> input dimension; evaluators are vectorized
    over nodes.  Derivatives are analytic: d/da = kernel * (M_a + 2 Q_a diag(a)).
    """

    def __init__(self, name, out_dim, slots, kernel, matrices, quads, const):
        self.name = name
        self.out_dim = out_dim
        self.slots = dict(slots)
        self.kernel = kernel
        self.matrices = matrices
        self.quads = quads
        self.const = const

    @classmethod
    def from_json(cls, name, out_dim, slots, entry):
        entry = dict(entry or {})
        allowed = ["kernel", "const"]
        allowed += list(slots) + [f"quad_{a}" for a in slots]
        _reject_unknown(entry, allowed, name)
        kernel = Kernel.from_json(entry.get("kernel"), f"{name}.kernel")
        matrices = {a: _matrix(entry.get(a), out_dim, d, f"{name}.{a}")
                    for a, d in slots.items()}
        quads = {a: _matrix(entry.get(f"quad_{a}"), out_dim, d, f"{name}.quad_{a}")
                 for a, d in slots.items()}
        const = _vector(entry.get("const"), out_dim, f"{name}.const")
        return cls(name, out_dim, slots, kernel, matrices, quads, const)

    def to_json(self):
        out = {"kernel": self.kernel.to_json(), "const": self.const.tolist()}
        for a in self.slots:
            out[a] = self.matrices[a].tolist()
            out[f"quad_{a}"] = self.quads[a].tolist()
        return out

    @property
    def is_affine(self) -> bool:
        return all(not q.any() for q in self.quads.values())

    def value(self, t: float, s: float, **args) -> np.ndarray:
        k = self.kernel(t, s)
        nodes = next(iter(args.values())).shape[0]
        out = np.tile(self.const, (nodes, 1))
        for a, arr in args.items():
            out += arr @ self.matrices[a].T + (arr * arr) @ self.quads[a].T
        return k * out

    def jacobian(self, slot: str, t: float, s: float, **args) -> np.ndarray:
        k = self.kernel(t, s)
        arr = args[slot]
        nodes = arr.shape[0]
        jac = np.broadcast_to(self.matrices[slot], (nodes,) + self.matrices[slot].shape).copy()
        q = self.quads[slot]
        if q.any():
            jac += 2.0 * q[None, :, :] * arr[:, None, :]
        return k * jac


class TerminalMap:
    """psi(t, x) = (P + t*P') x + (c + t*c')."""

    def __init__(self, m, n, base, slope, const, const_slope):
        self.m, self.n = m, n
        self.base = base
        self.slope = slope
        self.const = const
        self.const_slope = const_slope

    @classmethod
    def from_json(cls, m, n, entry):
        entry = dict(entry or {})
        _reject_unknown(entry, ("x", "x_slope", "const", "const_slope"), "psi")
        return cls(m, n,
                   _matrix(entry.get("x"), m, n, "psi.x"),
                   _matrix(entry.get("x_slope"), m, n, "psi.x_slope"),
                   _vector(entry.get("const"), m, "psi.const"),
                   _vector(entry.get("const_slope"), m, "psi.const_slope"))

    def to_json(self):
        return {"x": self.base.tolist(), "x_slope": self.slope.tolist(),
                "const": self.const.tolist(), "const_slope": self.const_slope.tolist()}

    @property
    def time_invariant(self) -> bool:
        return not self.slope.any() and not self.const_slope.any()

    def matrix(self, t: float) -> np.ndarray:
        return self.base + t * self.slope

    def value(self, t: float, x: np.ndarray) -> np.ndarray:
        return x @ self.matrix(t).T + (self.const + t * self.const_slope)

    def jacobian(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.matrix(t), (x.shape[0], self.m, self.n))


class InitialCurve:
    """phi(t) = a + b*t + c*W(t), evaluated on the lattice per level."""

    def __init__(self, n, const, slope, brownian):
        self.n = n
        self.const = const
        self.slope = slope
        self.brownian = brownian

    @classmethod
    def from_json(cls, n, entry):
        entry = dict(entry or {})
        _reject_unknown(entry, ("const", "slope", "brownian"), "phi")
        return cls(n, _vector(entry.get("const"), n, "phi.const"),
                   _vector(entry.get("slope"), n, "phi.slope"),
                   _vector(entry.get("brownian"), n, "phi.brownian"))

    def to_json(self):
        return {"const": self.const.tolist(), "slope": self.slope.tolist(),
                "brownian": self.brownian.tolist()}

    def value(self, tree: Tree, i: int) -> np.ndarray:
        base = self.const + tree.t(i) * self.slope
        out = np.tile(base, (tree.n_nodes(i), 1))
        if self.brownian.any():
            out += tree.w(i)[:, None] * self.brownian[None, :]
        return out


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
        entry = dict(entry or {})
        _reject_unknown(entry, ("phi", "b", "sigma", "g", "psi"), "coefficients")
        n, m, l = dims
        fwd_slots = {"x": n, "u": l}
        g_slots = {"x": n, "y": m, "z": m, "u": l}
        return cls(
            n, m, l,
            InitialCurve.from_json(n, entry.get("phi")),
            AffineCoefficient.from_json("b", n, fwd_slots, entry.get("b")),
            AffineCoefficient.from_json("sigma", n, fwd_slots, entry.get("sigma")),
            AffineCoefficient.from_json("g", m, g_slots, entry.get("g")),
            TerminalMap.from_json(m, n, entry.get("psi")),
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


class RunningCost:
    """f(s,x,y,z,u) = 1/2 sum a' Q_a a + sum l_a . a + const."""

    SLOTS = ("x", "y", "z", "u")

    def __init__(self, dims, quads, lins, const):
        self.dims = dict(dims)
        self.quads = quads
        self.lins = lins
        self.const = const

    @classmethod
    def from_json(cls, n, m, l, entry):
        entry = dict(entry or {})
        dims = {"x": n, "y": m, "z": m, "u": l}
        allowed = [f"q{a}" for a in cls.SLOTS] + [f"l{a}" for a in cls.SLOTS] + ["const"]
        _reject_unknown(entry, allowed, "cost.f")
        quads = {a: _matrix(entry.get(f"q{a}"), d, d, f"cost.f.q{a}")
                 for a, d in dims.items()}
        lins = {a: _vector(entry.get(f"l{a}"), d, f"cost.f.l{a}")
                for a, d in dims.items()}
        return cls(dims, quads, lins, float(entry.get("const", 0.0)))

    def to_json(self):
        out = {"const": self.const}
        for a in self.SLOTS:
            out[f"q{a}"] = self.quads[a].tolist()
            out[f"l{a}"] = self.lins[a].tolist()
        return out

    def value(self, s: float, **args) -> np.ndarray:
        nodes = next(iter(args.values())).shape[0]
        out = np.full(nodes, self.const)
        for a, arr in args.items():
            out += 0.5 * np.einsum("ki,ij,kj->k", arr, self.quads[a], arr)
            out += arr @ self.lins[a]
        return out

    def grad(self, slot: str, s: float, **args) -> np.ndarray:
        arr = args[slot]
        q = 0.5 * (self.quads[slot] + self.quads[slot].T)
        return arr @ q.T + self.lins[slot]


class TerminalCost:
    """h(x_T, y_0) = 1/2 (x-x*)'Qx(x-x*) + lx.x + 1/2 (y-y*)'Qy(y-y*) + ly.y."""

    def __init__(self, n, m, qx, qy, x_target, y_target, lx, ly):
        self.n, self.m = n, m
        self.qx, self.qy = qx, qy
        self.x_target, self.y_target = x_target, y_target
        self.lx, self.ly = lx, ly

    @classmethod
    def from_json(cls, n, m, entry):
        entry = dict(entry or {})
        _reject_unknown(entry, ("qx", "qy", "x_target", "y_target", "lx", "ly"),
                        "cost.h")
        return cls(n, m,
                   _matrix(entry.get("qx"), n, n, "cost.h.qx"),
                   _matrix(entry.get("qy"), m, m, "cost.h.qy"),
                   _vector(entry.get("x_target"), n, "cost.h.x_target"),
                   _vector(entry.get("y_target"), m, "cost.h.y_target"),
                   _vector(entry.get("lx"), n, "cost.h.lx"),
                   _vector(entry.get("ly"), m, "cost.h.ly"))

    def to_json(self):
        return {"qx": self.qx.tolist(), "qy": self.qy.tolist(),
                "x_target": self.x_target.tolist(), "y_target": self.y_target.tolist(),
                "lx": self.lx.tolist(), "ly": self.ly.tolist()}

    def value(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        dx = x - self.x_target
        dy = y - self.y_target
        out = 0.5 * np.einsum("ki,ij,kj->k", dx, self.qx, dx) + x @ self.lx
        out += 0.5 * np.einsum("ki,ij,kj->k", dy, self.qy, dy) + y @ self.ly
        return out

    def grad_x(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (x - self.x_target) @ (0.5 * (self.qx + self.qx.T)).T + self.lx

    def grad_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (y - self.y_target) @ (0.5 * (self.qy + self.qy.T)).T + self.ly


@dataclass
class CostSpec:
    f: RunningCost
    h: TerminalCost

    @classmethod
    def from_json(cls, n, m, l, entry):
        entry = dict(entry or {})
        _reject_unknown(entry, ("f", "h"), "cost")
        return cls(RunningCost.from_json(n, m, l, entry.get("f")),
                   TerminalCost.from_json(n, m, entry.get("h")))

    def to_json(self):
        return {"f": self.f.to_json(), "h": self.h.to_json()}


# ---------------------------------------------------------------------------
# control constraint


class ProjectionUnavailable(RuntimeError):
    pass


class ControlConstraint:
    """Closed control region U with membership, inequalities and projection.

    Variants: unconstrained, ball, halfspaces (a_i . u <= b_i), quadratics
    (smooth inequalities u'S_i u + b_i.u + c_i <= 0).  The torus fixture of
    the two-ring annulus is the quadratics instance {|u|^2 - 4 <= 0,
    2 - |u|^2 <= 0} and carries a radial closed-form projection.

    ``values``, ``activity``, ``contains`` and ``project`` take (..., l)
    node tables, one point per row, bit for bit as if row by row; an
    (l,) point is the one-row case.
    """

    def __init__(self, variant, dim, data):
        self.variant = variant
        self.dim = dim
        self.data = data
        # data is never modified after construction
        self._radial = self._radial_bounds()

    # -- constructors ---------------------------------------------------

    @classmethod
    def unconstrained(cls, dim):
        return cls("unconstrained", dim, {})

    @classmethod
    def ball(cls, center, radius):
        center = np.asarray(center, dtype=float)
        if radius <= 0:
            raise ScenarioError("constraint.ball: radius must be positive")
        return cls("ball", center.size, {"center": center, "radius": float(radius)})

    @classmethod
    def halfspaces(cls, normals, offsets):
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        offsets = np.asarray(offsets, dtype=float)
        if normals.shape[0] != offsets.size:
            raise ScenarioError("constraint.halfspaces: normals/offsets mismatch")
        return cls("halfspaces", normals.shape[1],
                   {"normals": normals, "offsets": offsets})

    @classmethod
    def quadratics(cls, terms, dim):
        parsed = []
        for k, term in enumerate(terms):
            _reject_unknown(term, ("quad", "lin", "const"), f"constraint.terms[{k}]")
            parsed.append({
                "quad": _matrix(term.get("quad"), dim, dim, f"constraint.terms[{k}].quad"),
                "lin": _vector(term.get("lin"), dim, f"constraint.terms[{k}].lin"),
                "const": float(term.get("const", 0.0)),
            })
        return cls("quadratics", dim, {"terms": parsed})

    @classmethod
    def torus(cls):
        c = cls.quadratics([
            {"quad": np.eye(2).tolist(), "const": -4.0},
            {"quad": (-np.eye(2)).tolist(), "const": 2.0},
        ], 2)
        return c

    @classmethod
    def from_json(cls, l, entry):
        entry = dict(entry or {"type": "unconstrained"})
        kind = entry.get("type")
        if kind == "unconstrained":
            _reject_unknown(entry, ("type",), "constraint")
            return cls.unconstrained(l)
        if kind == "ball":
            _reject_unknown(entry, ("type", "center", "radius"), "constraint")
            c = cls.ball(_vector(entry.get("center"), l, "constraint.center"),
                         float(entry["radius"]))
            return c
        if kind == "halfspaces":
            _reject_unknown(entry, ("type", "normals", "offsets"), "constraint")
            c = cls.halfspaces(entry["normals"], entry["offsets"])
            if c.dim != l:
                raise ScenarioError(
                    f"constraint: normals have dim {c.dim}, control dim is {l}")
            return c
        if kind == "quadratics":
            _reject_unknown(entry, ("type", "terms"), "constraint")
            return cls.quadratics(entry["terms"], l)
        if kind == "torus":
            _reject_unknown(entry, ("type",), "constraint")
            if l != 2:
                raise ScenarioError("constraint: torus needs control dim 2")
            return cls.torus()
        raise ScenarioError(f"constraint: unknown type {kind!r}")

    def to_json(self):
        if self.variant == "unconstrained":
            return {"type": "unconstrained"}
        if self.variant == "ball":
            return {"type": "ball", "center": self.data["center"].tolist(),
                    "radius": self.data["radius"]}
        if self.variant == "halfspaces":
            return {"type": "halfspaces", "normals": self.data["normals"].tolist(),
                    "offsets": self.data["offsets"].tolist()}
        if self._is_torus():
            return {"type": "torus"}
        return {"type": "quadratics", "terms": [
            {"quad": t["quad"].tolist(), "lin": t["lin"].tolist(), "const": t["const"]}
            for t in self.data["terms"]]}

    def _is_torus(self):
        if self.variant != "quadratics" or self.dim != 2:
            return False
        return self._radial == (2.0, 4.0)

    # -- inequality interface -------------------------------------------

    def values(self, u: np.ndarray) -> np.ndarray:
        """Constraint values g_i(u), shape (..., k); membership is all(g_i <= 0)."""
        u = np.asarray(u, dtype=float)
        if self.variant == "unconstrained":
            return np.zeros(u.shape[:-1] + (0,))
        if self.variant == "ball":
            gap = u - self.data["center"]
            r = self.data["radius"]
            return np.vecdot(gap, gap)[..., None] - r * r
        if self.variant == "halfspaces":
            return _rowmat(self.data["normals"], u) - self.data["offsets"]
        return np.stack([np.vecdot(u @ t["quad"], u) + np.vecdot(u, t["lin"])
                         + t["const"] for t in self.data["terms"]], axis=-1)

    def gradients(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.variant == "unconstrained":
            return np.zeros((0, self.dim))
        if self.variant == "ball":
            return 2.0 * (u - self.data["center"])[None, :]
        if self.variant == "halfspaces":
            return self.data["normals"].copy()
        return np.stack([(t["quad"] + t["quad"].T) @ u + t["lin"]
                         for t in self.data["terms"]])

    def activity(self, u: np.ndarray, tol: float):
        """Masks (within, active), shape (..., k), of the band rule: g_i <=
        tol (1 + |g_i|) within U, |g_i| <= tol (1 + |g_i|) active."""
        vals = self.values(u)
        band = tol * (1.0 + np.abs(vals))
        return vals <= band, np.abs(vals) <= band

    def contains(self, u: np.ndarray, tol: float = 1e-9):
        """Membership of each row of u, shape (...)."""
        return np.all(self.activity(u, tol)[0], axis=-1)

    # -- projection / distance ------------------------------------------

    def _radial_bounds(self):
        """(r_in^2, r_out^2) when the set is a centred annulus, else None."""
        if self.variant != "quadratics":
            return None
        lo, hi = 0.0, math.inf
        for t in self.data["terms"]:
            q, lin, c = t["quad"], t["lin"], t["const"]
            if lin.any():
                return None
            if np.allclose(q, np.eye(self.dim)):
                hi = min(hi, -c)
            elif np.allclose(q, -np.eye(self.dim)):
                lo = max(lo, c)
            else:
                return None
        if hi < lo or not math.isfinite(hi):
            return None
        return (lo, hi)

    @property
    def has_exact_projection(self) -> bool:
        if self.variant in ("unconstrained", "ball", "halfspaces"):
            return True
        return self._radial is not None

    def project(self, u: np.ndarray) -> np.ndarray:
        """Euclidean projection of each row of u onto U (exact for the
        catalog variants)."""
        u = np.asarray(u, dtype=float)
        if self.variant == "unconstrained":
            return u.copy()
        if self.variant == "ball":
            c, r = self.data["center"], self.data["radius"]
            gap = u - c
            norm = _norm(gap)[..., None]
            return np.where(norm <= r, u, c + gap * (r / np.maximum(norm, r)))
        if self.variant == "halfspaces":
            return self._project_halfspaces(u)
        radial = self._radial
        if radial is None:
            raise ProjectionUnavailable(
                "no closed-form projection for this quadratics constraint")
        lo, hi = math.sqrt(radial[0]), math.sqrt(radial[1])
        norm = _norm(u)[..., None]
        zero = norm == 0.0
        # norm + zero is the norm, or 1 at the origin (sent to the inner ring)
        out = u * (np.minimum(np.maximum(norm, lo), hi) / (norm + zero))
        if zero.any():
            out[zero[..., 0]] = np.eye(self.dim)[0] * lo
        return out

    def _project_halfspaces(self, u):
        # exact active-set enumeration (small catalog systems), each subset
        # solved for all rows at once; rows already inside keep u at distance 0
        A, b = self.data["normals"], self.data["offsets"]
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

    def nearest(self, u: np.ndarray) -> np.ndarray:
        """A nearest point of U; the exact projection where available."""
        u = np.asarray(u, dtype=float)
        return self.project(u) if self.has_exact_projection else self._project_iterative(u)

    def dist(self, u: np.ndarray) -> float:
        return float(np.linalg.norm(self.nearest(u) - u))

    def _project_iterative(self, u, max_iter=80):
        # local Gauss-Newton flow onto the most violated smooth inequality
        y = u.copy()
        for _ in range(max_iter):
            if self.contains(y, 1e-13):
                return y
            vals = self.values(y)
            worst = int(np.argmax(vals))
            grad = self.gradients(y)[worst]
            denom = float(grad @ grad)
            if denom == 0.0:
                break
            y = y - (vals[worst] / denom) * grad
        raise ProjectionUnavailable("iterative projection did not converge")


# ---------------------------------------------------------------------------
# scenario


@dataclass
class Tolerances:
    picard_tol: float = 1e-12
    picard_max_iter: int = 200
    activity_tol: float = 1e-8
    nc_tol: float = 1e-8

    @classmethod
    def from_json(cls, entry):
        entry = dict(entry or {})
        _reject_unknown(entry, ("picard_tol", "picard_max_iter", "activity_tol",
                                "nc_tol"), "tolerances")
        out = cls()
        return cls(float(entry.get("picard_tol", out.picard_tol)),
                   int(entry.get("picard_max_iter", out.picard_max_iter)),
                   float(entry.get("activity_tol", out.activity_tol)),
                   float(entry.get("nc_tol", out.nc_tol)))

    def to_json(self):
        return {"picard_tol": self.picard_tol, "picard_max_iter": self.picard_max_iter,
                "activity_tol": self.activity_tol, "nc_tol": self.nc_tol}


@dataclass
class Scenario:
    grid: TimeGrid
    coeffs: CoefficientSet
    cost: CostSpec
    constraint: ControlConstraint
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = 0
    initial_control: np.ndarray | None = None

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

    def default_control(self, tree: Tree):
        from .lattice import AdaptedProcess
        u0 = self.initial_control
        if u0 is None:
            u0 = self.constraint.project(np.zeros(self.l))
        return AdaptedProcess.constant(u0, tree.N - 1)

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
        _reject_unknown(doc, ("grid", "dims", "coefficients", "cost", "constraint",
                              "tolerances", "seed", "initial_control"), "scenario")
        grid_entry = dict(doc.get("grid") or {})
        _reject_unknown(grid_entry, ("T", "N"), "grid")
        try:
            grid = TimeGrid(float(grid_entry["T"]), int(grid_entry["N"]))
        except (KeyError, ValueError) as exc:
            raise ScenarioError(f"grid: {exc}") from exc
        dims_entry = dict(doc.get("dims") or {})
        _reject_unknown(dims_entry, ("n", "m", "l"), "dims")
        try:
            dims = (int(dims_entry["n"]), int(dims_entry["m"]), int(dims_entry["l"]))
        except KeyError as exc:
            raise ScenarioError(f"dims: missing {exc}") from exc
        if min(dims) < 1:
            raise ScenarioError(f"dims: must be positive, got {dims}")
        coeffs = CoefficientSet.from_json(dims, doc.get("coefficients"))
        cost = CostSpec.from_json(*dims, doc.get("cost"))
        constraint = ControlConstraint.from_json(dims[2], doc.get("constraint"))
        tol = Tolerances.from_json(doc.get("tolerances"))
        u0 = doc.get("initial_control")
        if u0 is not None:
            u0 = _vector(u0, dims[2], "initial_control")
        return cls(grid, coeffs, cost, constraint, tol, int(doc.get("seed", 0)), u0)


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario.to_json(), indent=2, sort_keys=True))


def load_scenario(path) -> Scenario:
    """Parse, build and validate a scenario file; raises ScenarioError."""
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file does not parse: {exc}") from exc
    scenario = Scenario.from_json(doc)
    problems = validate(scenario)
    if problems:
        raise ScenarioError("; ".join(str(p) for p in problems))
    return scenario


# ---------------------------------------------------------------------------
# validation


def _fd_check(name, value_fn, jac_fn, args, slot, rtol, out):
    """Central finite differences against the analytic slot Jacobian."""
    base = {k: v.copy() for k, v in args.items()}
    jac = jac_fn(slot, **base)
    dim_in = base[slot].shape[1]
    fd = np.zeros_like(jac)
    for idx in range(dim_in):
        h = 1e-5 * (1.0 + float(np.abs(base[slot][:, idx]).max()))
        up = {k: v.copy() for k, v in base.items()}
        dn = {k: v.copy() for k, v in base.items()}
        up[slot][:, idx] += h
        dn[slot][:, idx] -= h
        fd[..., idx] = (value_fn(**up) - value_fn(**dn)) / (2.0 * h)
    err = float(np.abs(jac - fd).max())
    scale = 1.0 + float(np.abs(jac).max())
    if not np.isfinite(err) or err > rtol * scale:
        out.append(Diagnostic(f"{name}.d{slot}",
                              "analytic derivative disagrees with finite differences",
                              err / scale))


def validate(scenario: Scenario, n_probes: int = 6) -> list:
    """Cross-check supplied derivatives and dimensions; empty list iff clean.

    The (t, t') continuity modulus is not checked: point probes on the
    grid cannot refute a modulus bound.
    """
    out: list[Diagnostic] = []
    co, cost = scenario.coeffs, scenario.cost
    n, m, l = scenario.n, scenario.m, scenario.l
    rng = np.random.default_rng(scenario.seed + 1)
    ts = scenario.grid.points
    x = rng.standard_normal((n_probes, n))
    y = rng.standard_normal((n_probes, m))
    z = rng.standard_normal((n_probes, m))
    u = rng.standard_normal((n_probes, l))

    for name, coeff, slots in (("b", co.b, ("x", "u")), ("sigma", co.sigma, ("x", "u")),
                               ("g", co.g, ("x", "y", "z", "u"))):
        t_pt, s_pt = float(ts[1]), float(ts[0])
        args = {a: {"x": x, "u": u, "y": y, "z": z}[a] for a in coeff.slots}
        try:
            val = coeff.value(t_pt, s_pt, **args)
        except Exception as exc:  # pragma: no cover - defensive
            out.append(Diagnostic(name, f"evaluation failed: {exc}", math.inf))
            continue
        if val.shape != (n_probes, coeff.out_dim):
            out.append(Diagnostic(name, f"value has shape {val.shape}", math.inf))
            continue
        for slot in slots:
            _fd_check(name, lambda **a: coeff.value(t_pt, s_pt, **a),
                      lambda sl, **a: coeff.jacobian(sl, t_pt, s_pt, **a),
                      args, slot, 1e-6, out)

    psi_val = co.psi.value(float(ts[-1]), x)
    if psi_val.shape != (n_probes, m):
        out.append(Diagnostic("psi", f"value has shape {psi_val.shape}, wanted"
                              f" ({n_probes}, {m})", math.inf))
    else:
        _fd_check("psi", lambda **a: co.psi.value(float(ts[-1]), a["x"]),
                  lambda sl, **a: co.psi.jacobian(float(ts[-1]), a["x"]),
                  {"x": x}, "x", 1e-6, out)

    f_args = {"x": x, "y": y, "z": z, "u": u}
    fval = cost.f.value(0.0, **f_args)
    if fval.shape != (n_probes,):
        out.append(Diagnostic("cost.f", f"value has shape {fval.shape}", math.inf))
    else:
        for slot in RunningCost.SLOTS:
            _fd_check("cost.f", lambda **a: cost.f.value(0.0, **a),
                      lambda sl, **a: cost.f.grad(sl, 0.0, **a),
                      f_args, slot, 1e-6, out)
    _fd_check("cost.h", lambda **a: cost.h.value(a["x"], a["y"]),
              lambda sl, **a: (cost.h.grad_x if sl == "x" else cost.h.grad_y)(
                  a["x"], a["y"]),
              {"x": x, "y": y}, "x", 1e-6, out)
    _fd_check("cost.h", lambda **a: cost.h.value(a["x"], a["y"]),
              lambda sl, **a: (cost.h.grad_x if sl == "x" else cost.h.grad_y)(
                  a["x"], a["y"]),
              {"x": x, "y": y}, "y", 1e-6, out)

    if scenario.constraint.dim != l:
        out.append(Diagnostic("constraint", f"dimension {scenario.constraint.dim}"
                              f" does not match control dim {l}", math.inf))
    if scenario.initial_control is not None and not scenario.constraint.contains(
            scenario.initial_control, scenario.tolerances.activity_tol):
        out.append(Diagnostic("initial_control", "not inside the control region",
                              math.inf))
    for name, coeff in (("b", co.b), ("sigma", co.sigma), ("g", co.g)):
        bound = max(float(np.abs(coeff.matrices[a]).max(initial=0.0))
                    + 2.0 * float(np.abs(coeff.quads[a]).max(initial=0.0)) * 10.0
                    for a in coeff.slots)
        if not math.isfinite(bound):
            out.append(Diagnostic(name, "derivative bound is not finite", math.inf))
    return out


def fixture_path(name: str) -> Path:
    return Path(__file__).parent / "fixtures" / f"{name}.json"
