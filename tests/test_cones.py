import math

import numpy as np
import pytest

from volterra_control.cones import (
    ConeRep, LicqError, adjacent_cone, cone_min_linear, dist_limit_probe,
    kkt_multipliers, nnls, project_polyhedral_cone,
)
from volterra_control.scenario import ControlConstraint

SQRT2 = math.sqrt(2.0)


def grid_search_projection(normals, x, half_width=3.0, steps=61, rounds=3):
    """Coarse-to-fine grid minimizer of ||x - v|| over {W v <= 0}.

    Each round scans the grid points in itertools.product order and
    keeps the first feasible point of least distance."""
    dim = x.size
    center = np.zeros(dim)
    width = half_width
    best = np.zeros(dim)
    for _ in range(rounds):
        axes = [np.linspace(c - width, c + width, steps) for c in center]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        feasible = np.all(points @ normals.T <= 1e-12, axis=1)
        dist = np.where(feasible, np.linalg.norm(points - x, axis=1), math.inf)
        if feasible.any():
            best = points[int(np.argmin(dist))]
        center = best
        width = 2.0 * (2.0 * width / (steps - 1))
    return best


class TestNnls:
    def test_matches_grid_search(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            A = rng.standard_normal((4, 3))
            b = rng.standard_normal(4)
            x, resid = nnls(A, b)
            assert np.all(x >= 0.0)
            # KKT: gradient nonnegative on the zero set, zero on the support
            grad = A.T @ (A @ x - b)
            assert np.all(grad >= -1e-9)
            assert np.all(np.abs(grad[x > 1e-12]) <= 1e-9)
            assert resid == pytest.approx(float(np.linalg.norm(A @ x - b)))

    def test_unconstrained_solution_when_positive(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([3.0, 4.0])
        x, resid = nnls(A, b)
        assert np.allclose(x, [3.0, 2.0], atol=1e-12)
        assert resid <= 1e-12


class TestAdjacentCone:
    def test_torus_interior_full_space(self):
        torus = ControlConstraint.torus()
        cone = adjacent_cone(torus, np.array([1.5, 0.0]))
        assert cone.is_full_space and cone.dim == 2

    def test_torus_outer_boundary(self):
        torus = ControlConstraint.torus()
        cone = adjacent_cone(torus, np.array([2.0, 0.0]))
        assert not cone.is_full_space
        assert np.allclose(cone.normals, [[4.0, 0.0]])
        assert cone.contains(np.array([-1.0, 0.5]))
        assert not cone.contains(np.array([0.1, 0.0]))

    def test_torus_inner_boundary(self):
        # inner ring of the shipped torus is |u|^2 = 2
        torus = ControlConstraint.torus()
        u = np.array([SQRT2, 0.0])
        cone = adjacent_cone(torus, u)
        assert np.allclose(cone.normals, [[-2.0 * SQRT2, 0.0]])
        assert cone.contains(np.array([1.0, 0.0]))   # v_1 >= 0
        assert not cone.contains(np.array([-1.0, 0.0]))

    def test_infeasible_point_rejected(self):
        torus = ControlConstraint.torus()
        with pytest.raises(ValueError, match="outside"):
            adjacent_cone(torus, np.array([0.5, 0.0]))

    def test_licq_failure(self):
        # duplicated active constraint -> dependent gradients
        c = ControlConstraint.quadratics(
            [{"quad": np.eye(2).tolist(), "const": -4.0},
             {"quad": (2.0 * np.eye(2)).tolist(), "const": -8.0}], 2)
        with pytest.raises(LicqError):
            adjacent_cone(c, np.array([2.0, 0.0]))


class TestProjection:
    def test_halfplane_example(self):
        cone = ConeRep.polyhedral([[1.0, 0.0]])
        assert np.allclose(project_polyhedral_cone(cone, np.array([1.0, 1.0])),
                           [0.0, 1.0], atol=1e-12)

    def test_member_unchanged(self):
        cone = ConeRep.polyhedral([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([-0.5, -2.0])
        assert np.allclose(project_polyhedral_cone(cone, x), x)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(11)
        for trial in range(6):
            dim = 2 if trial % 2 == 0 else 3
            k = rng.integers(1, dim + 1)
            normals = rng.standard_normal((k, dim))
            x = rng.standard_normal(dim) * 1.5
            got = project_polyhedral_cone(ConeRep.polyhedral(normals), x)
            ref = grid_search_projection(normals, x)
            assert np.linalg.norm(got - x) <= np.linalg.norm(ref - x) + 1e-9
            assert np.linalg.norm(got - ref) <= 0.05

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(13)
        normals = rng.standard_normal((2, 3))
        cone = ConeRep.polyhedral(normals)
        for _ in range(25):
            x = rng.standard_normal(3) * 2.0
            y = rng.standard_normal(3) * 2.0
            px = project_polyhedral_cone(cone, x)
            py = project_polyhedral_cone(cone, y)
            assert np.allclose(project_polyhedral_cone(cone, px), px, atol=1e-10)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
            # orthogonality of the Moreau split
            assert abs((x - px) @ px) <= 1e-9


class TestConeMinLinear:
    def test_full_space(self):
        val, arg = cone_min_linear(np.array([3.0, 4.0]), ConeRep.full_space(2))
        assert val == pytest.approx(-5.0)
        assert np.allclose(arg, [-0.6, -0.8])

    def test_halfplane(self):
        cone = ConeRep.polyhedral([[1.0, 0.0]])
        val, arg = cone_min_linear(np.array([1.0, 0.0]), cone)
        assert val == pytest.approx(-1.0)
        assert np.allclose(arg, [-1.0, 0.0], atol=1e-12)

    def test_zero_vector(self):
        val, arg = cone_min_linear(np.zeros(3), ConeRep.full_space(3))
        assert val == 0.0 and np.all(arg == 0.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(17)
        cone = ConeRep.polyhedral(rng.standard_normal((2, 3)))
        F = rng.standard_normal(3)
        v1, a1 = cone_min_linear(F, cone)
        v2, a2 = cone_min_linear(2.5 * F, cone)
        assert v2 == pytest.approx(2.5 * v1)
        assert np.allclose(a1, a2, atol=1e-10)

    def test_grid_search_oracle(self):
        # min over the unit ball intersected with the cone, brute force
        cone = ConeRep.polyhedral([[1.0, 1.0]])
        F = np.array([1.0, 0.0])
        val, _ = cone_min_linear(F, cone)
        best = 0.0
        for ang in np.linspace(0.0, 2.0 * math.pi, 20001):
            v = np.array([math.cos(ang), math.sin(ang)])
            if v @ np.array([1.0, 1.0]) <= 0.0:
                best = min(best, float(F @ v))
        assert val == pytest.approx(best, abs=1e-6)


class TestKktMultipliers:
    def test_single_normal_exact(self):
        # -F in the cone of the normal: lambda = 2 kills the residual
        lam, resid = kkt_multipliers(np.array([-2.0, 0.0]), [[1.0, 0.0]])
        assert np.allclose(lam, [2.0])
        assert resid <= 1e-12
        # outward-pointing F admits no nonnegative certificate
        lam, resid = kkt_multipliers(np.array([2.0, 0.0]), [[1.0, 0.0]])
        assert np.allclose(lam, [0.0])
        assert resid == pytest.approx(2.0)

    def test_orthogonal_normal(self):
        lam, resid = kkt_multipliers(np.array([0.0, 1.0]), [[1.0, 0.0]])
        assert np.allclose(lam, [0.0])
        assert resid == pytest.approx(1.0)

    def test_polar_duality_with_cone_min(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            k = int(rng.integers(1, dim + 1))
            normals = rng.standard_normal((k, dim))
            while np.linalg.matrix_rank(normals) < k:
                normals = rng.standard_normal((k, dim))
            F = rng.standard_normal(dim)
            lam, resid = kkt_multipliers(F, normals)
            val, _ = cone_min_linear(F, ConeRep.polyhedral(normals))
            assert abs(resid - (-val)) <= 1e-10

    def test_residual_matches_coarse_grid(self):
        normals = np.array([[1.0, 0.2], [-0.3, 1.0]])
        F = np.array([0.4, -0.9])
        _, resid = kkt_multipliers(F, normals)
        best = math.inf
        for l1 in np.linspace(0.0, 3.0, 301):
            for l2 in np.linspace(0.0, 3.0, 301):
                best = min(best, float(np.linalg.norm(
                    F + l1 * normals[0] + l2 * normals[1])))
        assert resid <= best + 1e-9
        assert abs(resid - best) <= 5e-3


class TestDistLimitProbe:
    def test_convex_direction_zero_quotients(self):
        ball = ControlConstraint.ball([0.0, 0.0], 1.0)
        u = np.array([0.5, 0.0])
        y = np.array([-0.5, 0.5])
        quotients, member, _ = dist_limit_probe(ball, u, y - u)
        assert member
        assert all(q <= 1e-12 for q in quotients)

    def test_torus_inward_direction_member(self):
        torus = ControlConstraint.torus()
        quotients, member, v_h = dist_limit_probe(
            torus, np.array([2.0, 0.0]), np.array([-1.0, 0.0]))
        assert member
        assert quotients[-1] <= 1e-10
        assert np.allclose(v_h, [-1.0, 0.0], atol=1e-9)

    def test_torus_outward_direction_excluded(self):
        torus = ControlConstraint.torus()
        quotients, member, _ = dist_limit_probe(
            torus, np.array([2.0, 0.0]), np.array([1.0, 0.0]))
        assert not member
        assert abs(quotients[-1] - 1.0) <= 1e-3

    def test_tangent_direction_member_by_extrapolation(self):
        torus = ControlConstraint.torus()
        quotients, member, _ = dist_limit_probe(
            torus, np.array([2.0, 0.0]), np.array([0.0, 1.0]))
        assert member
        # quotient decays like h/4 on the outer ring
        assert quotients[-1] == pytest.approx(2.0 ** -12 / 4.0, rel=1e-2)

    def test_agrees_with_analytic_cone_on_torus(self):
        torus = ControlConstraint.torus()
        rng = np.random.default_rng(29)
        directions = [np.array([math.cos(a), math.sin(a)])
                      for a in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
        disagreements = 0
        for trial in range(100):
            kind = trial % 3
            ang = rng.uniform(0.0, 2.0 * math.pi)
            unit = np.array([math.cos(ang), math.sin(ang)])
            if kind == 0:
                u = unit * rng.uniform(SQRT2 + 0.05, 2.0 - 0.05)
            elif kind == 1:
                u = unit * 2.0
            else:
                u = unit * SQRT2
            cone = adjacent_cone(torus, u)
            for v in directions:
                _, member, _ = dist_limit_probe(torus, u, v)
                if member != cone.contains(v, tol=1e-9):
                    disagreements += 1
        assert disagreements == 0


class TestTriviality:
    def test_full_space_not_trivial(self):
        assert not ConeRep.full_space(2).is_trivial()

    def test_halfplane_not_trivial(self):
        assert not ConeRep.polyhedral([[1.0, 0.0]]).is_trivial()

    def test_opposing_normals_in_1d_trivial(self):
        cone = ConeRep.polyhedral([[1.0], [-1.0]])
        assert cone.is_trivial()
