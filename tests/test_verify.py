import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import (as_table, degenerate_duality_gaps, gateaux_vs_hamiltonian,
                     operator_transpose_oracle, qp_oracle,
                     random_duality_instance, zero_process)

from volterra_control import verify
from volterra_control.cones import LicqError
from volterra_control.lattice import MAX_EXACT_STEPS, AdaptedProcess, ScaledMatrix, Tree
from volterra_control.scenario import (ControlConstraint, ProjectionUnavailable,
                                       Scenario, fixture_path, load_scenario)
from volterra_control.verify import (
    DualityInstance, check_duality_1, check_duality_2, check_pointwise_nc,
    control_pairing, convergence_test, evaluate_cost, feasible_direction,
    full_pipeline, projected_gradient,
    smooth_duality_instance, solve_state, solve_variational,
)


def adapted_rng(tree, dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return AdaptedProcess([rng.standard_normal((1 << i, dim)) * scale
                           for i in range(tree.N)])


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, as tracemalloc sees them
    (numpy reports its array buffers to it)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDualityIdentities:
    def test_trivial_no_kernels_tower_property(self):
        tree = Tree.build(1.0, 4)
        rng = np.random.default_rng(1)
        m = 2
        alpha = [rng.standard_normal((1 << i, m)) for i in range(tree.N + 1)]
        inst = DualityInstance(
            tree=tree, dim=m, alpha=alpha,
            beta=lambda i, j: np.zeros((1, m)),
            theta=rng.standard_normal((tree.n_leaves, m)),
            psi_rows=[rng.standard_normal((tree.n_leaves, m))
                      for _ in range(tree.N)],
            psi_tilde_rows=[rng.standard_normal((tree.n_leaves, m))
                            for _ in range(tree.N)])
        for mode in ("transpose", "continuum"):
            assert abs(check_duality_1(inst, mode).gap) <= 1e-13
            assert abs(check_duality_2(inst, mode).gap) <= 1e-13

    def test_transpose_mode_exact_on_random_family(self):
        for seed in (3, 4, 5):
            inst = smooth_duality_instance(1.0, 5, 2, seed=seed)
            r1 = check_duality_1(inst, "transpose")
            r2 = check_duality_2(inst, "transpose")
            assert abs(r1.gap) <= 1e-12 and abs(r1.lhs) > 1e-3
            assert abs(r2.gap) <= 1e-12

    def test_continuum_mode_gap_shrinks(self):
        g_coarse = abs(check_duality_1(
            smooth_duality_instance(1.0, 4, 2, seed=3), "continuum").gap)
        g_fine = abs(check_duality_1(
            smooth_duality_instance(1.0, 8, 2, seed=3), "continuum").gap)
        assert g_fine < 0.75 * g_coarse

    def test_degenerate_configurations(self):
        gaps = degenerate_duality_gaps(1.0, 6, 2, seed=5)
        for name, gap in gaps.items():
            assert gap <= 1e-10, name

    def test_unknown_mode_rejected(self):
        inst = smooth_duality_instance(1.0, 4, 1, seed=0)
        with pytest.raises(ValueError):
            check_duality_1(inst, "midpoint")

    def test_both_checks_share_one_fredholm_solve(self, monkeypatch):
        calls = []
        solve = verify.solve_fredholm

        def counted(*args, **kwargs):
            calls.append(kwargs["include_diag_A"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(verify, "solve_fredholm", counted)
        inst = smooth_duality_instance(1.0, 5, 2, seed=3)
        check_duality_1(inst, "transpose")
        check_duality_2(inst, "transpose")
        assert calls == [True]

    def test_dense_kernels_match_factored(self):
        inst = smooth_duality_instance(1.0, 5, 2, seed=6)
        assert isinstance(inst.A(1, 3), ScaledMatrix)

        def dense(kernel):
            return lambda i, j: as_table(kernel(i, j), 1 << j)

        dense_inst = dataclasses.replace(inst, **{
            name: dense(getattr(inst, name)) for name in ("A", "B", "D", "A_tilde")})
        assert isinstance(dense_inst.A(1, 3), np.ndarray)
        for mode in ("transpose", "continuum"):
            for check in (check_duality_1, check_duality_2):
                assert abs(check(inst, mode).gap - check(dense_inst, mode).gap) <= 1e-14

    def test_modes_cached_apart(self):
        shared = smooth_duality_instance(1.0, 5, 2, seed=4)
        for mode in ("transpose", "continuum"):
            fresh = smooth_duality_instance(1.0, 5, 2, seed=4)
            assert check_duality_1(shared, mode) == check_duality_1(fresh, mode)
            assert check_duality_2(shared, mode) == check_duality_2(fresh, mode)

    def test_pairing_rounding_does_not_grow_with_the_node_count(self):
        # the first gap at N = 14 and at the cap MAX_EXACT_STEPS stays within
        # a tenth of eps times the sum over the identity's pairings of
        # E<|a|, |b|>; a sequential dot product over the 2**14 * m products
        # reads several tenths at N = 14
        for steps in (14, MAX_EXACT_STEPS):
            inst = smooth_duality_instance(1.0, steps, 2, seed=3)
            tree, N = inst.tree, inst.tree.N
            xi = inst.fredholm("transpose").xi
            bwd = verify.solve_linear_backward(tree, [[row] for row in inst.psi_rows],
                                               A=inst.A, B=inst.B, D=inst.D, theta=inst.theta)

            def size(a, b):
                lev = max(tree.level_of(a), tree.level_of(b))
                return float(np.mean(np.sum(np.abs(tree.embed(a, lev) * tree.embed(b, lev)),
                                            axis=1)))

            pairs = [(xi[N], inst.theta), (inst.alpha[N], inst.theta)]
            pairs += [(inst.psi_rows[i], xi[i]) for i in range(N)]
            pairs += [(inst.beta(N, j), bwd.nu.level(j)) for j in range(N)]
            pairs += [(bwd.Y.level(i), inst.alpha[i]) for i in range(N)]
            pairs += [(bwd.Z.value(i, j), inst.beta(i, j)) for i in range(N) for j in range(N)]
            total = sum(size(a, b) for a, b in pairs)
            gap = abs(check_duality_1(inst).gap)
            assert gap <= 0.1 * np.finfo(float).eps * total, steps
            del inst, xi, bwd, pairs  # the solves at the cap are the largest the suite makes


class TestTransposeOracle:
    def test_zero_kernels_zero_gap(self):
        tree = Tree.build(1.0, 3)
        rng = np.random.default_rng(2)
        inst = DualityInstance(
            tree=tree, dim=1,
            alpha=[rng.standard_normal((1 << i, 1)) for i in range(tree.N + 1)],
            beta=lambda i, j: np.zeros((1, 1)),
            theta=rng.standard_normal((tree.n_leaves, 1)),
            psi_rows=[rng.standard_normal((tree.n_leaves, 1))
                      for _ in range(tree.N)],
            psi_tilde_rows=[rng.standard_normal((tree.n_leaves, 1))
                            for _ in range(tree.N)])
        gap = operator_transpose_oracle(inst)
        assert np.abs(gap).max() <= 1e-13

    @pytest.mark.parametrize("include_diag_A", [False, True])
    def test_random_instance_exact_both_pairings(self, include_diag_A):
        inst = random_duality_instance(1.0, 4, 2, seed=7)
        gap = operator_transpose_oracle(inst, include_diag_A=include_diag_A)
        assert np.abs(gap).max() <= 1e-11

    def test_kernel_perturbation_detected(self):
        inst = random_duality_instance(1.0, 4, 2, seed=7)
        for family in ("A", "B", "D"):
            gap = operator_transpose_oracle(inst, perturb={family: 1e-3})
            assert np.abs(gap).max() >= 1e-5, family


class TestSolveVariational:
    def test_zero_direction_zero_solution(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(4)
        u = AdaptedProcess.constant([0.3], tree.N - 1)
        fwd, bwd = solve_state(s, u, tree)
        v = zero_process(tree.N - 1, 1)
        x1, y1, z1 = solve_variational(s, fwd, bwd, u, v, tree)
        assert x1.sup_norm() == 0.0
        assert y1.sup_norm() == 0.0

    def test_linearity(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(5)
        u = adapted_rng(tree, 1, 3, 0.3)
        fwd, bwd = solve_state(s, u, tree)
        v1 = adapted_rng(tree, 1, 4)
        v2 = adapted_rng(tree, 1, 5)
        xa, ya, za = solve_variational(s, fwd, bwd, u, v1 + v2, tree)
        xb1, yb1, zb1 = solve_variational(s, fwd, bwd, u, v1, tree)
        xb2, yb2, zb2 = solve_variational(s, fwd, bwd, u, v2, tree)
        assert (xa - (xb1 + xb2)).sup_norm() <= 1e-12
        assert (ya - (yb1 + yb2)).sup_norm() <= 1e-12
        for i in range(tree.N):
            for j in range(tree.N):
                assert np.allclose(za.value(i, j),
                                   zb1.value(i, j) + zb2.value(i, j), atol=1e-12)

    def test_state_independent_closed_form(self):
        # g depends only on u: Y1(t_i) = E_i[psi_x X1(T) + dt sum g_u v]
        doc = json.loads(fixture_path("zero").read_text())
        doc["coefficients"]["b"] = {"u": [[1.0]]}
        doc["coefficients"]["sigma"] = {"u": [[0.5]], "const": [0.2]}
        doc["coefficients"]["g"] = {"u": [[0.7]]}
        doc["coefficients"]["psi"] = {"x": [[0.6]]}
        s = Scenario.from_json(doc)
        tree = s.tree()
        u = zero_process(tree.N - 1, 1)
        fwd, bwd = solve_state(s, u, tree)
        v = adapted_rng(tree, 1, 6)
        x1, y1, _ = solve_variational(s, fwd, bwd, u, v, tree)
        for i in range(tree.N):
            direct = 0.6 * x1.level(tree.N)
            for j in range(i, tree.N):
                direct = direct + tree.dt * 0.7 * tree.embed(v.level(j), tree.N)
            assert np.allclose(y1.level(i), tree.cond_expect(direct, i),
                               atol=1e-12)


class TestConvergence:
    def test_zero_direction(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(4)
        u = AdaptedProcess.constant([0.1], tree.N - 1)
        rep = convergence_test(s, u, zero_process(tree.N - 1, 1),
                               [0.25, 0.125], tree)
        assert max(rep.err_x) == 0.0
        assert max(rep.err_yz) == 0.0

    def test_affine_scenario_exact(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(5)
        u = AdaptedProcess.constant([0.2], tree.N - 1)
        v = adapted_rng(tree, 1, 7)
        rep = convergence_test(s, u, v, [2.0 ** -k for k in range(2, 9)], tree)
        assert max(rep.err_x) <= 1e-20
        assert max(rep.err_yz) <= 1e-20

    def test_quadratic_perturbation_second_order(self):
        s = load_scenario(fixture_path("quadratic"))
        tree = s.tree()
        u = AdaptedProcess.constant([0.2], tree.N - 1)
        v = adapted_rng(tree, 1, 8)
        rep = convergence_test(s, u, v, [2.0 ** -k for k in range(2, 9)], tree)
        assert rep.monotone()
        assert abs(rep.slope("x") - 2.0) <= 0.2
        assert abs(rep.slope("yz") - 2.0) <= 0.2

    @pytest.mark.parametrize("fixture", ["lq", "annulus"])
    def test_each_perturbed_state_is_released_before_the_next(self, fixture):
        # one perturbed state at a time: three eps peak as high as one
        s = load_scenario(fixture_path(fixture))
        tree = s.tree(10)
        u, v = s.default_control(tree), adapted_rng(tree, s.l, 9)
        one = traced_peak(lambda: convergence_test(s, u, v, [0.5], tree))
        three = traced_peak(lambda: convergence_test(s, u, v, [0.5, 0.25, 0.125], tree))
        assert three <= 1.02 * one


class TestGateaux:
    def test_zero_direction_both_zero(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(4)
        u = AdaptedProcess.constant([0.1], tree.N - 1)
        rep = gateaux_vs_hamiltonian(s, u, zero_process(tree.N - 1, 1),
                                     [1e-3], tree)
        assert rep.pairing == 0.0
        assert rep.quotients[1e-3] == pytest.approx(0.0, abs=1e-14)

    def test_one_sided_quotient_first_order_in_eps(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(5)
        u = AdaptedProcess.constant([0.3], tree.N - 1)
        v = adapted_rng(tree, 1, 9)
        eps_seq = [2.0 ** -k for k in range(3, 9)]
        rep = gateaux_vs_hamiltonian(s, u, v, eps_seq, tree)
        errs = [abs(rep.quotients[e] - rep.pairing) for e in eps_seq]
        slope = np.polyfit(np.log(eps_seq), np.log(errs), 1)[0]
        assert abs(slope - 1.0) <= 0.1
        # centered quotient is exact for the LQ cost at any eps
        for e in eps_seq:
            assert rep.gap(e) <= 1e-10

    def test_infeasible_backward_step_gives_nan(self):
        # u on the outer ring, v pointing inward: u - eps v leaves the region
        s = load_scenario(fixture_path("annulus"))
        tree = s.tree(3)
        u = AdaptedProcess.constant([2.0, 0.0], tree.N - 1)
        v = AdaptedProcess.constant([-1.0, 0.0], tree.N - 1)
        rep = gateaux_vs_hamiltonian(s, u, v, [1e-2], tree)
        assert np.isfinite(rep.quotients[1e-2])
        assert np.isnan(rep.centered[1e-2])

    def test_other_down_step_errors_propagate(self, monkeypatch):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(4)
        u = AdaptedProcess.constant([0.1], tree.N - 1)
        v = adapted_rng(tree, 1, 9)
        real_cost = oracles.evaluate_cost
        calls = []

        def failing_down_step(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:  # j0, the up step, then the down step
                raise FloatingPointError("down-step cost")
            return real_cost(*args, **kwargs)

        monkeypatch.setattr(oracles, "evaluate_cost", failing_down_step)
        with pytest.raises(FloatingPointError, match="down-step cost"):
            gateaux_vs_hamiltonian(s, u, v, [1e-3], tree)


class TestPointwiseNC:
    def test_zero_cost_certifies_trivially(self):
        doc = json.loads(fixture_path("lq").read_text())
        doc["cost"] = {}
        s = Scenario.from_json(doc)
        tree = s.tree(4)
        u = AdaptedProcess.constant([0.2], tree.N - 1)
        rep = check_pointwise_nc(s, u, tree)
        assert rep.worst_value == 0.0
        assert rep.sup_gradient <= 1e-14

    def test_optimum_certified_and_perturbation_flagged(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree()
        qp = qp_oracle(s, tree)
        rep = check_pointwise_nc(s, qp.u_star, tree)
        assert rep.certified(1e-6)
        assert rep.sup_gradient <= 1e-6
        rep_bad = check_pointwise_nc(s, 1.1 * qp.u_star, tree)
        assert rep_bad.worst_value <= -1e-3

    def test_report_rows_schema(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(4)
        u = AdaptedProcess.constant([0.1], tree.N - 1)
        rep = check_pointwise_nc(s, u, tree)
        assert len(rep.rows) == (1 << tree.N) - 1
        level, node, val, kind = rep.rows[0]
        assert kind == "full"
        assert val <= 0.0
        # at a full-space node -minValue is the KKT residual |H_u| itself
        hu = full_pipeline(s, u, tree)[3]
        assert -val == float(np.linalg.norm(hu.level(level)[node]))
        # no cone is trivial: LICQ leaves only these two kinds
        assert {row[3] for row in rep.rows} <= {"full", "polyhedral"}

    def test_rows_are_built_on_first_read(self):
        s = load_scenario(fixture_path("annulus"))
        tree = s.tree(4)
        u = s.default_control(tree)
        rep = check_pointwise_nc(s, u, tree)
        assert rep._rows is None and len(rep.levels) == tree.N
        rows = rep.rows
        assert rep.rows is rows and len(rows) == (1 << tree.N) - 1
        for level, (vals, boundary) in enumerate(rep.levels):
            mine = [row for row in rows if row[0] == level]
            assert [row[2] for row in mine] == vals.tolist()
            assert [row[3] == "polyhedral" for row in mine] == boundary.tolist()
        assert min(row[2] for row in rows) == rep.worst_value


    def test_infeasible_control_names_node(self):
        s = load_scenario(fixture_path("annulus"))
        tree = s.tree()
        u = s.default_control(tree)
        _, _, _, hu = full_pipeline(s, u, tree)
        bad = u.copy()
        bad.level(2)[3] = [0.5, 0.0]  # inside the inner ring
        bad.level(3)[0] = [3.0, 0.0]
        with pytest.raises(ValueError, match=r"level 2, node 3: g = "):
            check_pointwise_nc(s, bad, tree, state=hu)

    def test_nonfinite_gradient_names_node(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(4)
        u = s.default_control(tree)
        _, _, _, hu = full_pipeline(s, u, tree)
        bad = hu.copy()
        bad.level(2)[1] = np.nan
        bad.level(3)[0] = np.nan
        with pytest.raises(ValueError,
                           match=r"non-finite gradient at level 2, node 1: "):
            check_pointwise_nc(s, u, tree, state=bad)


    def test_licq_failure_names_node(self):
        # the duplicated ring {|u|^2 <= 4, 2|u|^2 <= 8}: LICQ fails exactly
        # where both inequalities are active, here only at level 2, node 3
        doc = json.loads(fixture_path("annulus").read_text())
        doc["constraint"] = {"type": "quadratics", "terms": [
            {"quad": np.eye(2).tolist(), "const": -4.0},
            {"quad": (2.0 * np.eye(2)).tolist(), "const": -8.0}]}
        s = Scenario.from_json(doc)
        tree = s.tree(4)
        u = AdaptedProcess.constant([1.0, 0.0], tree.N - 1)
        u.level(2)[3] = [2.0, 0.0]
        hu = AdaptedProcess.constant([1.0, 1.0], tree.N - 1)
        with pytest.raises(LicqError, match=r"^LICQ fails at level 2, node 3: "
                                            r"2 active gradients are dependent$") as err:
            check_pointwise_nc(s, u, tree, state=hu)
        assert err.value.row == (2, 3)
        assert isinstance(err.value.__cause__, LicqError)


class TestProjectedGradient:
    def test_matches_qp_oracle(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree()
        qp = qp_oracle(s, tree)
        u_pg, hist = projected_gradient(s, zero_process(tree.N - 1, 1),
                                        step=0.4, max_iter=400,
                                        grad_tol=1e-10, tree=tree)
        assert hist[-1] - qp.cost <= 1e-11
        assert all(b <= a + 1e-12 for a, b in zip(hist[:-1], hist[1:]))

    def test_starts_at_optimum_terminates_immediately(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree()
        qp = qp_oracle(s, tree)
        _, hist = projected_gradient(s, qp.u_star, step=0.4, max_iter=50,
                                     grad_tol=1e-6, tree=tree)
        assert len(hist) == 1

    def test_annulus_constrained_stationary_point(self):
        s = load_scenario(fixture_path("annulus"))
        tree = s.tree()
        u0 = s.default_control(tree)
        u_star, hist = projected_gradient(s, u0, tree=tree)
        assert hist[-1] <= hist[0]
        rep = check_pointwise_nc(s, u_star, tree)
        assert rep.certified(s.tolerances.nc_tol * (1.0 + rep.sup_gradient))

    @pytest.mark.parametrize("fixture",
                             ["lq", "fbsde", "quadratic", "annulus", "lq_multi"])
    def test_default_run_stops_on_gradient_map_and_certifies(self, fixture):
        # what `optimize` runs: default start, step, max_iter and grad_tol
        s = load_scenario(fixture_path(fixture))
        tree = s.tree()
        u_star, hist = projected_gradient(s, s.default_control(tree), tree=tree)
        assert len(hist) - 1 < 200
        _, _, _, hu = full_pipeline(s, u_star, tree)
        step_map = (u_star + (-0.5) * hu).map(s.constraint.project) - u_star
        assert step_map.sup_norm() / 0.5 < 1e-9
        rep = check_pointwise_nc(s, u_star, tree, state=hu)
        assert rep.certified(s.tolerances.nc_tol * (1.0 + rep.sup_gradient))

    @pytest.mark.parametrize("fixture", ["annulus", "lq", "coupled"])
    def test_one_adjoint_bundle_alive_at_a_time(self, fixture):
        # a bundle is released once its gradient is read, so iterations
        # with their line searches peak near one pipeline, not two bundles
        s = load_scenario(fixture_path(fixture))
        tree = s.tree(10)
        u0 = s.default_control(tree)
        one = traced_peak(lambda: full_pipeline(s, u0, tree))
        run = traced_peak(lambda: projected_gradient(s, u0, max_iter=3, tree=tree))
        assert run <= 1.3 * one

    def test_quadratics_without_projection_names_the_region(self):
        doc = json.loads(fixture_path("annulus").read_text())
        doc["constraint"] = {"type": "quadratics", "terms": [
            {"quad": [[1.0, 0.0], [0.0, 4.0]], "const": -4.0}]}  # an ellipse
        doc["initial_control"] = [1.0, 0.0]
        s = Scenario.from_json(doc)
        tree = s.tree()
        with pytest.raises(ProjectionUnavailable, match="quadratics region"):
            projected_gradient(s, s.default_control(tree), tree=tree)

    def test_interval_as_ball_and_as_halfspaces(self):
        # [-0.05, 0.05] on lq: the same region, the same optimum
        doc = json.loads(fixture_path("lq").read_text())
        finals = []
        for region in ({"type": "ball", "center": [0.0], "radius": 0.05},
                       {"type": "halfspaces", "normals": [[1.0], [-1.0]],
                        "offsets": [0.05, 0.05]}):
            s = Scenario.from_json(dict(doc, constraint=region))
            tree = s.tree()
            u_star, hist = projected_gradient(s, s.default_control(tree), tree=tree)
            rep = check_pointwise_nc(s, u_star, tree)
            assert rep.certified(s.tolerances.nc_tol * (1.0 + rep.sup_gradient))
            finals.append(hist[-1])
        assert abs(finals[0] - finals[1]) <= 1e-12
        assert abs(finals[0] - 2.95458288951) <= 1e-10

    def test_zero_halfspaces_leave_directions_alone(self):
        doc = json.loads(fixture_path("lq").read_text())
        s = dataclasses.replace(Scenario.from_json(doc),
                                constraint=ControlConstraint.halfspaces(
                                    np.zeros((0, 1)), []))
        tree = s.tree()
        u, v = adapted_rng(tree, 1, 0), adapted_rng(tree, 1, 1)
        assert feasible_direction(s, u, v, 0.25) is v


class TestQpOracle:
    def test_pure_control_penalty_gives_zero(self):
        doc = json.loads(fixture_path("zero").read_text())
        doc["coefficients"]["b"] = {"u": [[1.0]]}
        doc["cost"] = {"f": {"qu": [[1.0]]}}
        s = Scenario.from_json(doc)
        tree = s.tree()
        qp = qp_oracle(s, tree)
        assert qp.u_star.sup_norm() <= 1e-12
        assert abs(qp.cost) <= 1e-14

    def test_gradient_vanishes_at_optimum(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree()
        qp = qp_oracle(s, tree)
        _, _, _, hu = full_pipeline(s, qp.u_star, tree)
        assert hu.sup_norm() <= 1e-8

    def test_hessian_matches_polarized_cost(self):
        # C' W C + W_u against e_a' H e_b = J(e_a + e_b) - J(e_a) - J(e_b)
        # + J(0) on the library's cost functional
        s = load_scenario(fixture_path("lq_multi"))
        tree = s.tree(4)
        H = qp_oracle(s, tree).hessian
        eye = np.eye(H.shape[0])

        def cost(vec):
            return evaluate_cost(s, oracles._coords_to_control(tree, s.l, vec),
                                 tree)

        c0 = cost(np.zeros(len(eye)))
        basis = [cost(e) for e in eye]
        polarized = np.zeros_like(H)
        for a in range(len(eye)):
            for b in range(a, len(eye)):
                polarized[a, b] = polarized[b, a] = (
                    cost(eye[a] + eye[b]) - basis[a] - basis[b] + c0)
        assert np.abs(H - polarized).max() <= 1e-12

    def test_rejects_non_lq(self):
        s = load_scenario(fixture_path("quadratic"))
        with pytest.raises(ValueError, match="affine"):
            qp_oracle(s, s.tree())

    def test_halfspace_constrained_qp(self):
        doc = json.loads(fixture_path("lq").read_text())
        doc["grid"]["N"] = 4
        doc["constraint"] = {"type": "halfspaces", "normals": [[1.0]],
                             "offsets": [0.2]}  # u <= 0.2
        s = Scenario.from_json(doc)
        tree = s.tree()
        qp = qp_oracle(s, tree)
        for j in range(tree.N):
            assert np.all(qp.u_star.level(j) <= 0.2 + 1e-10)
        # the constrained optimum certifies pointwise
        rep = check_pointwise_nc(s, qp.u_star, tree)
        assert rep.worst_value >= -1e-7

    def test_scaling_invariance_of_gradient(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(4)
        u = AdaptedProcess.constant([0.3], tree.N - 1)
        _, _, _, hu1 = full_pipeline(s, u, tree)
        doc = json.loads(fixture_path("lq").read_text())
        doc["grid"]["N"] = 4
        s2 = Scenario.from_json(doc)
        c = 3.0
        for slot in ("x", "y", "z", "u"):
            s2.cost.f.quads[slot] = c * s2.cost.f.quads[slot]
            s2.cost.f.lins[slot] = c * s2.cost.f.lins[slot]
        s2.cost.h.qx, s2.cost.h.qy = c * s2.cost.h.qx, c * s2.cost.h.qy
        s2.cost.h.lx, s2.cost.h.ly = c * s2.cost.h.lx, c * s2.cost.h.ly
        _, _, _, hu2 = full_pipeline(s2, u, tree)
        for j in range(tree.N):
            assert np.allclose(hu2.level(j), c * hu1.level(j), atol=1e-12)
