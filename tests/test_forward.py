import itertools
import json
import math

import numpy as np
import pytest

from volterra_control.forward import (
    SimulationError, simulate_forward, simulate_forward_linear,
)
from volterra_control.lattice import AdaptedProcess
from volterra_control.scenario import Scenario, fixture_path, load_scenario


def scenario_with(doc_updates):
    doc = json.loads(fixture_path("zero").read_text())
    for key, value in doc_updates.items():
        parts = key.split(".")
        node = doc
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    return Scenario.from_json(doc)


def leaf_oracle_forward(scenario, tree, u):
    """Per-leaf direct recursion, coded independently of the solver."""
    n = scenario.n
    co = scenario.coeffs
    out = []
    for i in range(tree.N + 1):
        level_vals = np.zeros((tree.n_nodes(i), n))
        for node in range(tree.n_nodes(i)):
            bits = [(node >> (i - 1 - j)) & 1 for j in range(i)]
            phi = co.phi.const + tree.t(i) * co.phi.slope
            w = sum((2 * b - 1) * tree.sqdt for b in bits)
            val = phi + w * co.phi.brownian
            for j in range(i):
                anc = node >> (i - j)
                xj = out[j][anc]
                uj = u.level(j)[anc]
                dw = (2 * bits[j] - 1) * tree.sqdt
                val = val + tree.dt * co.b.value(
                    tree.t(i), tree.t(j), x=xj[None], u=uj[None])[0]
                val = val + dw * co.sigma.value(
                    tree.t(i), tree.t(j), x=xj[None], u=uj[None])[0]
            level_vals[node] = val
        out.append(level_vals)
    return out


class TestSimulateForward:
    def test_zero_dynamics_returns_phi(self):
        s = scenario_with({"coefficients.phi": {"const": [2.0], "slope": [1.0]}})
        tree = s.tree()
        path = simulate_forward(s, AdaptedProcess.zeros(tree.N - 1, 1), tree)
        for i in range(tree.N + 1):
            assert np.allclose(path.X.level(i), 2.0 + tree.t(i))

    def test_unit_sigma_gives_brownian(self):
        s = scenario_with({"coefficients.sigma": {"const": [1.0]}})
        tree = s.tree()
        path = simulate_forward(s, AdaptedProcess.zeros(tree.N - 1, 1), tree)
        for i in range(tree.N + 1):
            assert np.allclose(path.X.level(i)[:, 0], tree.w(i), atol=1e-14)

    def test_constant_drift_deterministic(self):
        s = scenario_with({"coefficients.phi": {"const": [1.5]},
                           "coefficients.b": {"const": [0.7]}})
        tree = s.tree()
        path = simulate_forward(s, AdaptedProcess.zeros(tree.N - 1, 1), tree)
        for i in range(tree.N + 1):
            assert np.allclose(path.X.level(i), 1.5 + 0.7 * tree.t(i), atol=1e-14)

    def test_exponential_kernel_vs_leaf_oracle(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(6)
        rng = np.random.default_rng(5)
        u = AdaptedProcess([rng.standard_normal((1 << i, 1)) * 0.5
                            for i in range(tree.N)])
        path = simulate_forward(s, u, tree)
        oracle = leaf_oracle_forward(s, tree, u)
        for i in range(tree.N + 1):
            assert np.allclose(path.X.level(i), oracle[i], atol=1e-12)

    def test_constraint_violation_reports_node(self):
        s = load_scenario(fixture_path("annulus"))
        tree = s.tree()
        u = AdaptedProcess.constant([0.1, 0.0], tree.N - 1)  # |u| < sqrt(2)
        with pytest.raises(SimulationError, match="level 0, node 0"):
            simulate_forward(s, u, tree)

    def test_first_violation_reported(self):
        s = load_scenario(fixture_path("annulus"))
        tree = s.tree()
        u = AdaptedProcess.constant([1.5, 0.0], tree.N - 1)
        u.level(3)[5] = [0.5, 0.0]  # inside the inner ring
        u.level(3)[6] = [2.5, 0.0]  # a later node outside the outer ring
        u.level(4)[0] = [0.0, 0.0]  # and a later level
        with pytest.raises(SimulationError, match=r"at level 3, node 5$"):
            simulate_forward(s, u, tree)

    def test_nonfinite_detected(self):
        s = scenario_with({"coefficients.phi": {"const": [1e308], "slope": [0.0]},
                           "coefficients.b": {"x": [[10.0]]}})
        tree = s.tree()
        with pytest.raises(SimulationError, match="non-finite"):
            simulate_forward(s, AdaptedProcess.zeros(tree.N - 1, 1), tree)


class TestSimulateForwardLinear:
    def test_zero_direction(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree()
        base = simulate_forward(s, AdaptedProcess.zeros(tree.N - 1, 1), tree)
        x1 = simulate_forward_linear(s, base, AdaptedProcess.zeros(tree.N - 1, 1), tree)
        assert x1.sup_norm() == 0.0

    def test_state_independent_decoupled_form(self):
        s = scenario_with({"coefficients.b": {"u": [[2.0]]},
                           "coefficients.sigma": {"u": [[0.5]]}})
        tree = s.tree()
        rng = np.random.default_rng(8)
        v = AdaptedProcess([rng.standard_normal((1 << i, 1)) for i in range(tree.N)])
        base = simulate_forward(s, AdaptedProcess.zeros(tree.N - 1, 1), tree)
        x1 = simulate_forward_linear(s, base, v, tree)
        for i in range(1, tree.N + 1):
            direct = tree.dt * sum(
                tree.embed(2.0 * v.level(j), i) for j in range(i))
            direct += sum(tree.embed(
                np.repeat(0.5 * v.level(j), 2, axis=0) * tree.dw(j)[:, None], i)
                for j in range(i))
            assert np.allclose(x1.level(i), direct, atol=1e-13)

    def test_linearity_in_direction(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree()
        rng = np.random.default_rng(21)
        u = AdaptedProcess([rng.standard_normal((1 << i, 1)) * 0.3
                            for i in range(tree.N)])
        base = simulate_forward(s, u, tree)
        v1 = AdaptedProcess([rng.standard_normal((1 << i, 1)) for i in range(tree.N)])
        v2 = AdaptedProcess([rng.standard_normal((1 << i, 1)) for i in range(tree.N)])
        both = simulate_forward_linear(s, base, v1 + v2, tree)
        split = (simulate_forward_linear(s, base, v1, tree)
                 + simulate_forward_linear(s, base, v2, tree))
        assert (both - split).sup_norm() <= 1e-12

    def test_affine_difference_is_exact_linearization(self):
        s = load_scenario(fixture_path("lq"))  # affine b, sigma
        tree = s.tree()
        rng = np.random.default_rng(33)
        u = AdaptedProcess([rng.standard_normal((1 << i, 1)) * 0.3
                            for i in range(tree.N)])
        v = AdaptedProcess([rng.standard_normal((1 << i, 1)) for i in range(tree.N)])
        eps = 0.25
        base = simulate_forward(s, u, tree)
        shifted = simulate_forward(s, u + eps * v, tree)
        x1 = simulate_forward_linear(s, base, v, tree)
        diff = shifted.X - base.X
        assert (diff - eps * x1).sup_norm() <= 1e-12
