import json
import math

import numpy as np
import pytest

from volterra_control.scenario import (
    Ball, ControlConstraint, Halfspaces, ProjectionUnavailable, Quadratics,
    Scenario, ScenarioError, fixture_path, load_scenario,
)

from oracles import jacobian_discrepancies
from test_properties import random_scenario

FIXTURES = ("zero", "lq", "fbsde", "quadratic", "annulus", "lq_multi", "coupled")
# +-I is matched exactly, so (1 + 1e-6) I makes this a general quadratics
# region, not the torus
NEAR_TORUS = [
    {"quad": [[1.0 + 1e-6, 0.0], [0.0, 1.0 + 1e-6]], "lin": [0.0, 0.0], "const": -4.0},
    {"quad": [[-1.0, 0.0], [0.0, -1.0]], "lin": [0.0, 0.0], "const": 2.0}]


class TestLoading:
    def test_minimal_zero_scenario(self):
        s = load_scenario(fixture_path("zero"))
        assert (s.n, s.m, s.l) == (1, 1, 1)
        tree = s.tree()
        x = np.zeros((1, 1))
        u = np.zeros((1, 1))
        assert np.all(s.coeffs.b.value(0.5, 0.25, x=x, u=u) == 0.0)
        assert np.all(s.coeffs.phi.value(tree, 2) == 0.0)

    def test_catalog_exponential_kernel_evaluation(self):
        # direct evaluation of e^{-kappa(t-s)} (A x + B u)
        doc = json.loads(fixture_path("zero").read_text())
        doc["coefficients"]["b"] = {"kernel": {"kappa": 1.0},
                                    "x": [[0.5]], "u": [[1.0]]}
        s = Scenario.from_json(doc)
        got = s.coeffs.b.value(0.75, 0.25, x=np.array([[2.0]]), u=np.array([[1.0]]))
        expected = math.exp(-0.5) * (0.5 * 2.0 + 1.0 * 1.0)
        assert abs(got[0, 0] - expected) <= 1e-15
        assert abs(expected - 1.2130613194252668) <= 1e-12

    @pytest.mark.parametrize("key,value", [("kappa", -800.0), ("power", 2000)])
    def test_kernel_overflow_over_the_horizon_names_field(self, key, value):
        doc = json.loads(fixture_path("zero").read_text())
        doc["grid"]["T"] = 2.0
        doc["coefficients"]["g"] = {"kernel": {key: value}}
        with pytest.raises(ScenarioError, match=rf"^g\.kernel\.{key}: "):
            Scenario.from_json(doc)
        doc["grid"]["T"] = 0.5  # exp(400) and 0.5**2000 are finite
        Scenario.from_json(doc)

    def test_dimension_mismatch_names_field(self):
        doc = json.loads(fixture_path("zero").read_text())
        doc["dims"] = {"n": 2, "m": 1, "l": 1}
        doc["coefficients"]["psi"] = {"x": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}
        with pytest.raises(ScenarioError, match="psi"):
            Scenario.from_json(doc)

    def test_unknown_keys_rejected(self):
        doc = json.loads(fixture_path("zero").read_text())
        doc["extra_section"] = {}
        with pytest.raises(ScenarioError, match="extra_section"):
            Scenario.from_json(doc)
        doc = json.loads(fixture_path("zero").read_text())
        doc["coefficients"]["b"] = {"mystery": 1.0}
        with pytest.raises(ScenarioError, match="mystery"):
            Scenario.from_json(doc)

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario("/nonexistent/scenario.json")

    def test_load_save_round_trip(self, tmp_path):
        for name in FIXTURES:
            s = load_scenario(fixture_path(name))
            out = tmp_path / f"{name}.json"
            out.write_text(json.dumps(s.to_json()))
            again = load_scenario(out)
            assert again.to_json() == s.to_json()

    @pytest.mark.parametrize("region", [
        {"type": "unconstrained"},
        {"type": "ball", "center": [0.5, 0.0], "radius": 2.0},
        {"type": "halfspaces", "normals": [[1.0, 0.0], [0.0, 1.0]],
         "offsets": [2.0, 1.0]},
        {"type": "quadratics", "terms": [
            {"quad": [[1.0, 0.0], [0.0, 2.0]], "lin": [0.1, 0.0], "const": -5.0},
            {"quad": [[0.0, 0.0], [0.0, 0.0]], "lin": [-1.0, 0.0], "const": 1.0}]},
        {"type": "torus"},
        pytest.param({"type": "quadratics", "terms": NEAR_TORUS}, id="near_torus"),
    ], ids=lambda region: region["type"])
    def test_region_round_trip(self, tmp_path, region):
        doc = json.loads(fixture_path("annulus").read_text())  # u0 = (1.8, 0)
        doc["constraint"] = region
        s = Scenario.from_json(doc)
        assert s.constraint.to_json() == region
        (tmp_path / "region.json").write_text(json.dumps(s.to_json()))
        assert load_scenario(tmp_path / "region.json").to_json() == s.to_json()


class TestValidate:
    """Analytic catalog jacobians against finite differences."""

    def test_fixtures_validate_clean(self):
        for name in FIXTURES:
            s = load_scenario(fixture_path(name))
            assert jacobian_discrepancies(s) == {}, name
        for seed in range(4):
            s = random_scenario((2, 3, 2), 3, seed, quadratic=True)
            assert jacobian_discrepancies(s) == {}, seed

    def test_wrong_derivative_is_flagged(self):
        s = load_scenario(fixture_path("lq"))
        # double the analytic b_x (a constant slot, so its grid table):
        # discrepancy should be about factor 2
        original = s.coeffs.b.grid_jacobians

        def doubled(slot, tree):
            table = original(slot, tree)
            return 2.0 * table if slot == "x" else table

        s.coeffs.b.grid_jacobians = doubled
        assert jacobian_discrepancies(s).keys() == {"b.dx"}
        assert jacobian_discrepancies(s)["b.dx"] > 1e-3

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 2)])
    def test_cost_values_are_the_matmul_formulas(self, dims):
        # one-component slots take a plain product for ``arr @ lin``: the
        # same values as the matrix product
        n, m, l = dims
        s = random_scenario(dims, 3, seed=5)
        f, h = s.cost.f, s.cost.h
        rng = np.random.default_rng(6)
        args = {a: rng.standard_normal((64, d)) for a, d in zip(f.slots, (n, m, m, l))}
        args["x"][::3] = 0.0
        want = np.full(64, f.const)
        for a, arr in args.items():
            want += 0.5 * np.einsum("ki,ij,kj->k", arr, f.quads[a], arr)
            want += arr @ f.lins[a]
        assert np.array_equal(f.value(0.5, 0.25, **args), want)
        x, y = args["x"], args["y"]
        dx, dy = x - h.x_target, y - h.y_target
        want = 0.5 * np.einsum("ki,ij,kj->k", dx, h.qx, dx) + x @ h.lx
        want += 0.5 * np.einsum("ki,ij,kj->k", dy, h.qy, dy) + y @ h.ly
        assert np.array_equal(h.value(1.0, 0.0, x, y), want)

    def test_deterministic_evaluators(self):
        s = load_scenario(fixture_path("lq"))
        x = np.array([[0.3], [1.2]])
        u = np.array([[0.1], [-0.4]])
        a = s.coeffs.b.value(0.5, 0.25, x=x, u=u)
        b = s.coeffs.b.value(0.5, 0.25, x=x, u=u)
        assert np.array_equal(a, b)


class TestConstraint:
    def test_torus_membership(self):
        torus = ControlConstraint.torus()
        assert torus.contains(np.array([1.5, 0.0]))
        assert not torus.contains(np.array([1.0, 0.0]))
        assert not torus.contains(np.array([2.5, 0.0]))
        assert torus.contains(np.array([2.0, 0.0]), tol=1e-9)

    def test_torus_projection_radial(self):
        torus = ControlConstraint.torus()
        inner = torus.project(np.array([0.5, 0.0]))
        assert abs(np.linalg.norm(inner) - math.sqrt(2.0)) <= 1e-12
        outer = torus.project(np.array([3.0, 4.0]))
        assert abs(np.linalg.norm(outer) - 2.0) <= 1e-12
        assert np.allclose(outer, np.array([3.0, 4.0]) * (2.0 / 5.0))
        mid = np.array([1.7, 0.1])
        assert np.array_equal(torus.project(mid), mid)
        assert abs(np.linalg.norm(torus.project(np.zeros(2))) - math.sqrt(2.0)) <= 1e-12

    def test_ball_projection(self):
        ball = ControlConstraint.ball([1.0, 0.0], 2.0)
        assert np.allclose(ball.project(np.array([5.0, 0.0])), [3.0, 0.0])
        assert ball.contains(np.array([2.9, 0.0]))

    def test_halfspace_projection(self):
        hs = ControlConstraint.halfspaces([[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0])
        p = hs.project(np.array([2.0, 3.0]))
        assert np.allclose(p, [0.0, 1.0])
        inside = np.array([-1.0, 0.5])
        assert np.allclose(hs.project(inside), inside)

    def test_regions_share_the_base_entry_points(self):
        # one wrapper on ControlConstraint sees every region's calls
        for region in (Halfspaces, Ball, Quadratics):
            assert not {"activity", "contains", "project"} & vars(region).keys()

    def test_ball_radius_must_be_positive(self):
        for radius in (0.0, -1.0, math.nan):
            with pytest.raises(ScenarioError, match=r"^constraint\.radius: "):
                ControlConstraint.ball([0.0], radius)

    def test_zero_halfspaces_are_the_whole_space(self):
        region = ControlConstraint.halfspaces(np.zeros((0, 2)), [])
        assert region.whole_space and ControlConstraint.unconstrained(2).whole_space
        assert region.to_json() == {"type": "unconstrained"}
        assert not ControlConstraint.halfspaces([[1.0, 0.0]], [1.0]).whole_space
        points = np.array([[3.0, -4.0], [0.0, 0.0]])
        assert region.values(points).shape == (2, 0)
        assert region.gradients(points).shape == (2, 0, 2)
        assert region.contains(points).all()
        assert np.array_equal(region.project(points), points)

    def test_general_quadratics_has_no_distance(self):
        ellipse = [{"quad": [[1.0, 0.0], [0.0, 4.0]], "const": -1.0}]
        for terms in (ellipse, NEAR_TORUS):
            region = ControlConstraint.quadratics(terms, 2)
            assert not region.has_exact_projection
            with pytest.raises(ProjectionUnavailable):
                region.project(np.array([3.0, 0.0]))

    def test_initial_control_feasibility_checked(self, tmp_path):
        doc = json.loads(fixture_path("annulus").read_text())
        doc["initial_control"] = [0.1, 0.0]
        (tmp_path / "u0.json").write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="^initial_control: "):
            load_scenario(tmp_path / "u0.json")
