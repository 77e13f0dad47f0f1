import itertools
import json
import math

import numpy as np
import pytest

from volterra_control.backward import PicardError, solve_bsvie
from volterra_control.forward import (
    SimulationError, simulate_forward, simulate_forward_linear,
)
from volterra_control.lattice import AdaptedProcess
from volterra_control.scenario import (ControlConstraint, Scenario, fixture_path,
                                       load_scenario)

from oracles import zero_process


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
        path = simulate_forward(s, zero_process(tree.N - 1, 1), tree)
        for i in range(tree.N + 1):
            assert np.allclose(path.X.level(i), 2.0 + tree.t(i))

    def test_unit_sigma_gives_brownian(self):
        s = scenario_with({"coefficients.sigma": {"const": [1.0]}})
        tree = s.tree()
        path = simulate_forward(s, zero_process(tree.N - 1, 1), tree)
        for i in range(tree.N + 1):
            assert np.allclose(path.X.level(i)[:, 0], tree.w(i), atol=1e-14)

    def test_constant_drift_deterministic(self):
        s = scenario_with({"coefficients.phi": {"const": [1.5]},
                           "coefficients.b": {"const": [0.7]}})
        tree = s.tree()
        path = simulate_forward(s, zero_process(tree.N - 1, 1), tree)
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

    def test_one_membership_call_over_the_checked_levels(self, monkeypatch):
        s = load_scenario(fixture_path("annulus"))
        tree = s.tree()
        u = AdaptedProcess.constant([1.5, 0.0], tree.N)  # one level beyond N - 1
        u.level(tree.N)[2] = [0.0, 0.0]  # outside, but never read
        shapes = []
        contains = ControlConstraint.contains

        def counted(self, table, *args):
            shapes.append(table.shape)
            return contains(self, table, *args)
        monkeypatch.setattr(ControlConstraint, "contains", counted)
        simulate_forward(s, u, tree)
        assert shapes == [((1 << tree.N) - 1, 2)]
        u.level(tree.N - 1)[(1 << tree.N - 1) - 1] = [0.0, 0.0]  # the last node read
        with pytest.raises(SimulationError, match=rf"at level {tree.N - 1}, "
                           rf"node {(1 << tree.N - 1) - 1}$"):
            simulate_forward(s, u, tree)

    def test_kernel_overflow_at_negative_lags(self):
        # exp(-kappa (t - s)) overflows only for s > t, which the forward
        # sweep never reads: its kernel table holds NaN there, X stays finite
        s = scenario_with({"coefficients.b": {"kernel": {"kappa": 800.0},
                                              "x": [[0.5]], "u": [[1.0]]}})
        tree = s.tree()
        table = s.coeffs.b.kernel.on_grid(tree)
        lower = np.tril_indices(tree.N + 1)
        assert np.isfinite(table[lower]).all() and np.isnan(table[0, tree.N])
        u = AdaptedProcess.constant([1.0], tree.N - 1)
        X = simulate_forward(s, u, tree).X
        assert all(np.isfinite(level).all() for level in X.levels)
        # the BSVIE reads lags down to -(T - dt): a g factor that overflows
        # there stops its implicit step with the level and node
        s = scenario_with({"coefficients.g": {"kernel": {"kappa": 2000.0},
                                              "y": [[0.5]]}})
        fwd = simulate_forward(s, u, tree)
        with pytest.raises(PicardError, match=r"at level 1, node 0 \(gap nan\)"):
            solve_bsvie(s, fwd, u, tree)

    def test_nonfinite_detected(self):
        s = scenario_with({"coefficients.phi": {"const": [1e308], "slope": [0.0]},
                           "coefficients.b": {"x": [[10.0]]}})
        tree = s.tree()
        with pytest.raises(SimulationError, match=r"^non-finite value in "
                           r"b\(t_1, t_0\) at level 0, node 0$"):
            simulate_forward(s, zero_process(tree.N - 1, 1), tree)

    def test_nonfinite_kernel_product_names_pair_and_node(self):
        # a finite bracket that overflows only once scaled by the kernel:
        # the first pair (t_i, t_j) in sweep order that reads it is named
        s = scenario_with({"coefficients.b": {"kernel": {"scale": 1e300},
                                              "u": [[1.0]]}})
        tree = s.tree()
        u = zero_process(tree.N - 1, 1)
        u.level(2)[3, 0] = 1e10
        with pytest.raises(SimulationError, match=r"^non-finite value in "
                           r"b\(t_3, t_2\) at level 2, node 3$"):
            simulate_forward(s, u, tree)

    # b(t_i, t_0) = 1e300 exp(20 t_i) u_0 overflows only in the last row,
    # at level 0; each case adds a failure in an earlier row at a later
    # level, which must be reported first: rows complete in order i = 1..N
    @pytest.mark.parametrize("phi,u_big,message", [
        ({"const": [1e308], "slope": [1e308]}, {},  # phi(t_7) overflows
         r"X\(t_7\) at level 7, node 0"),
        ({}, {(4, 3): 1e308}, r"b\(t_5, t_4\) at level 4, node 3"),
    ], ids=["earlier X", "earlier term"])
    def test_nonfinite_rows_reported_in_row_order(self, phi, u_big, message):
        s = scenario_with({"grid.N": 8, "coefficients.phi": phi,
                           "coefficients.b": {"kernel": {"scale": 1e300, "kappa": -20.0},
                                              "u": [[1.0]]}})
        tree = s.tree()
        u = zero_process(tree.N - 1, 1)
        u.level(0)[0, 0] = 1.0
        for (level, node), value in u_big.items():
            u.level(level)[node, 0] = value
        with pytest.raises(SimulationError, match="^non-finite value in " + message + "$"):
            simulate_forward(s, u, tree)
        # alone, the last row's term is the first failure
        s.coeffs.phi = scenario_with({}).coeffs.phi
        for level, node in u_big:
            u.level(level)[node, 0] = 0.0
        with pytest.raises(SimulationError, match=r"^non-finite value in "
                           r"b\(t_8, t_0\) at level 0, node 0$"):
            simulate_forward(s, u, tree)


class TestSimulateForwardLinear:
    def test_zero_direction(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree()
        base = simulate_forward(s, zero_process(tree.N - 1, 1), tree)
        x1 = simulate_forward_linear(s, base, zero_process(tree.N - 1, 1), tree)
        assert x1.sup_norm() == 0.0

    def test_state_independent_decoupled_form(self):
        s = scenario_with({"coefficients.b": {"u": [[2.0]]},
                           "coefficients.sigma": {"u": [[0.5]]}})
        tree = s.tree()
        rng = np.random.default_rng(8)
        v = AdaptedProcess([rng.standard_normal((1 << i, 1)) for i in range(tree.N)])
        base = simulate_forward(s, zero_process(tree.N - 1, 1), tree)
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

    def test_nonfinite_term_names_level_and_node(self):
        s = scenario_with({"coefficients.b": {"u": [[10.0]]}})
        tree = s.tree()
        base = simulate_forward(s, zero_process(tree.N - 1, 1), tree)
        v = zero_process(tree.N - 1, 1)
        v.level(2)[3, 0] = 1e308
        with pytest.raises(SimulationError,
                           match=r"in X1\(t_3\) at level 3, node 6$"):
            simulate_forward_linear(s, base, v, tree)

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
