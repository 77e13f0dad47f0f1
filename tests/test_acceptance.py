"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime and asserting the stated tolerance and budget.

All numerical statements are property-based at desk scale; tolerances are
pinned here and nowhere else.  The "exactly zero" clause of criterion 6
is asserted at 1e-20, the square of the float64 noise the difference
quotients can carry.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    cone_contains, degenerate_duality_gaps, dense_bsvie_oracle,
    dist_limit_probe, gateaux_vs_hamiltonian, kkt_multipliers,
    operator_transpose_oracle, picard_bsvie_oracle, qp_oracle,
    random_duality_instance,
)

from volterra_control.adjoint import adjoint_residuals
from volterra_control.backward import solve_bsvie
from volterra_control.cones import adjacent_cone, cone_min_linear
from volterra_control.forward import simulate_forward
from volterra_control.lattice import AdaptedProcess, Tree
from volterra_control.scenario import ControlConstraint, fixture_path, load_scenario
from volterra_control.verify import (
    check_duality_1, check_duality_2, check_pointwise_nc, control_pairing,
    convergence_test, degenerate_fbsde_check, full_pipeline,
    smooth_duality_instance,
)


class Criterion:
    def __init__(self, number, budget_s):
        self.number = number
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.2f}s "
              f"of {self.budget:.0f}s budget)")
        if exc_type is None:
            assert elapsed <= self.budget, (
                f"criterion {self.number} exceeded {self.budget}s")
        return False


def random_adapted(tree, dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return AdaptedProcess([rng.standard_normal((1 << i, dim)) * scale
                           for i in range(tree.N)])


def test_criterion_1_duality_identity_1():
    with Criterion(1, 10.0):
        inst = smooth_duality_instance(1.0, 5, 2, seed=3)
        assert abs(check_duality_1(inst, "transpose").gap) <= 1e-9
        gaps = [abs(check_duality_1(
            smooth_duality_instance(1.0, n, 2, seed=3), "continuum").gap)
            for n in (4, 6, 8, 10)]
        slope = np.polyfit([math.log(1.0 / n) for n in (4, 6, 8, 10)],
                           [math.log(g) for g in gaps], 1)[0]
        assert slope >= 0.9, f"continuum order {slope}, gaps {gaps}"


def test_criterion_2_duality_identity_2():
    with Criterion(2, 10.0):
        inst = smooth_duality_instance(1.0, 5, 2, seed=3)
        assert abs(check_duality_2(inst, "transpose").gap) <= 1e-9
        gaps = degenerate_duality_gaps(1.0, 6, 2, seed=5)
        for name, gap in gaps.items():
            assert gap <= 1e-10, (name, gap)


def test_criterion_3_operator_transpose_oracle():
    with Criterion(3, 5.0):
        inst = random_duality_instance(1.0, 4, 2, seed=7)
        gap = operator_transpose_oracle(inst)
        assert np.abs(gap).max() <= 1e-11
        for family in ("A", "B", "D"):
            perturbed = operator_transpose_oracle(inst, perturb={family: 1e-3})
            assert np.abs(perturbed).max() >= 1e-5, family


def test_criterion_4_fbsde_degeneration():
    with Criterion(4, 10.0):
        s = load_scenario(fixture_path("fbsde"))
        tree = s.tree(8)
        u = random_adapted(tree, 1, 13, scale=0.3)
        gaps = degenerate_fbsde_check(s, u, tree)
        assert gaps["gradient"] <= 1e-10, gaps
        assert gaps["lambda_identity"] <= 1e-10, gaps
        assert gaps["p_identity"] <= 1e-10, gaps


def test_criterion_5_adjoint_residuals():
    with Criterion(5, 10.0):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(8)
        u = random_adapted(tree, 1, 17, scale=0.3)
        fwd, bwd, bundle, _ = full_pipeline(s, u, tree)
        res = adjoint_residuals(s, bundle, tree)
        for name, val in res.items():
            assert val <= 1e-12, (name, val)


def test_criterion_6_variational_convergence():
    with Criterion(6, 20.0):
        eps = [2.0 ** -k for k in range(2, 9)]
        s = load_scenario(fixture_path("lq"))
        tree = s.tree()
        u = AdaptedProcess.constant([0.2], tree.N - 1)
        v = random_adapted(tree, 1, 19)
        rep = convergence_test(s, u, v, eps, tree)
        assert max(rep.err_x) <= 1e-20, rep.err_x
        assert max(rep.err_yz) <= 1e-20, rep.err_yz
        sq = load_scenario(fixture_path("quadratic"))
        treeq = sq.tree()
        repq = convergence_test(sq, u, v, eps, treeq)
        assert abs(repq.slope("x") - 2.0) <= 0.2, repq.err_x
        assert abs(repq.slope("yz") - 2.0) <= 0.2, repq.err_yz


def test_criterion_7_gateaux_consistency():
    with Criterion(7, 30.0):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree()
        u = AdaptedProcess.constant([0.3], tree.N - 1)
        fwd, bwd, bundle, hu = full_pipeline(s, u, tree)
        from volterra_control.verify import evaluate_cost
        j0 = evaluate_cost(s, u, tree, state=(fwd, bwd))
        eps = 1e-4
        worst = 0.0
        for k in range(50):
            v = random_adapted(tree, 1, 1000 + k)
            rep = gateaux_vs_hamiltonian(s, u, v, [eps], tree,
                                         state=(fwd, bwd, bundle, hu, j0))
            worst = max(worst, rep.gap(eps))
        assert worst <= 1e-8, worst


def test_criterion_8_optimality_certification():
    with Criterion(8, 30.0):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(6)
        qp = qp_oracle(s, tree)
        rep = check_pointwise_nc(s, qp.u_star, tree)
        assert rep.worst_value >= -1e-6, rep.worst_value
        assert rep.sup_gradient <= 1e-6, rep.sup_gradient
        # integral form at the optimum over random feasible directions
        _, _, _, hu = full_pipeline(s, qp.u_star, tree)
        for k in range(50):
            v = random_adapted(tree, 1, 2000 + k)
            assert control_pairing(tree, hu, v) >= -1e-8
        rep_bad = check_pointwise_nc(s, 1.1 * qp.u_star, tree)
        assert rep_bad.worst_value <= -1e-3, rep_bad.worst_value


def test_criterion_9_torus_cone():
    with Criterion(9, 5.0):
        torus = ControlConstraint.torus()
        rng = np.random.default_rng(29)
        directions = [np.array([math.cos(a), math.sin(a)])
                      for a in np.linspace(0.0, 2.0 * math.pi, 8,
                                           endpoint=False)]
        disagreements = 0
        for trial in range(100):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            unit = np.array([math.cos(ang), math.sin(ang)])
            radius = (rng.uniform(math.sqrt(2.0) + 0.05, 1.95),
                      2.0, math.sqrt(2.0))[trial % 3]
            u = unit * radius
            cone = adjacent_cone(torus, u)
            for v in directions:
                _, member, _ = dist_limit_probe(torus, u, v)
                if member != cone_contains(cone, v, tol=1e-9):
                    disagreements += 1
        assert disagreements == 0
        # polar duality of the multiplier residual on random LICQ data
        for k in range(100):
            rng_k = np.random.default_rng(500 + k)
            dim = int(rng_k.integers(2, 5))
            rows = int(rng_k.integers(1, dim + 1))
            normals = rng_k.standard_normal((rows, dim))
            while np.linalg.matrix_rank(normals) < rows:
                normals = rng_k.standard_normal((rows, dim))
            F = rng_k.standard_normal(dim)
            _, resid = kkt_multipliers(F, normals)
            val, _ = cone_min_linear(F, normals)
            assert abs(resid + val) <= 1e-10


def test_criterion_10_bsvie_solver_oracle():
    with Criterion(10, 10.0):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(5)
        u = random_adapted(tree, 1, 12, scale=0.4)
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)
        Y_oracle, Z_oracle = dense_bsvie_oracle(s, tree, fwd, u)
        for i in range(tree.N + 1):
            got = np.repeat(bwd.Y.level(i)[:, 0], 1 << (tree.N - i))
            assert np.max(np.abs(got - Y_oracle[i])) <= 1e-10
            for j in range(tree.N):
                gotz = np.repeat(bwd.Z.value(i, j)[:, 0], 1 << (tree.N - j))
                assert np.max(np.abs(gotz - Z_oracle[i][j])) <= 1e-10
        hist = picard_bsvie_oracle(s, fwd, u, tree).residual_history
        assert all(b < a for a, b in zip(hist[:-1], hist[1:])), hist
