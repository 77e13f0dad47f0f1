import json
import math

import numpy as np
import pytest

from volterra_control.backward import (
    PicardError, backward_row_residual, msolution_identity_residual,
    recompute_bsvie_row, solve_bsde, solve_bsvie, solve_linear_backward,
)
from volterra_control.forward import simulate_forward
from volterra_control.lattice import AdaptedProcess, Tree
from volterra_control.scenario import Scenario, fixture_path, load_scenario

from oracles import dense_bsvie_oracle, projector, repr_operator


class TestSolveBsde:
    def test_zero_driver(self):
        tree = Tree.build(1.0, 5)
        rng = np.random.default_rng(1)
        terminal = rng.standard_normal((tree.n_leaves, 2))
        Y, Z = solve_bsde(tree, terminal, lambda s, y, z: np.zeros_like(y))
        for j in range(tree.N + 1):
            assert np.allclose(Y.level(j), tree.cond_expect(terminal, j), atol=1e-13)

    def test_constant_driver(self):
        tree = Tree.build(2.0, 4)
        rng = np.random.default_rng(2)
        terminal = rng.standard_normal((tree.n_leaves, 1))
        c = 0.7
        Y, _ = solve_bsde(tree, terminal, lambda s, y, z: np.full_like(y, c))
        for j in range(tree.N + 1):
            expected = tree.cond_expect(terminal, j) + c * (2.0 - tree.t(j))
            assert np.allclose(Y.level(j), expected, atol=1e-12)

    def test_linear_driver_closed_form(self):
        # oracle: the implicit step has the closed form
        # Y_j = (1 - a dt)^{-(N-j)} E_j[terminal]
        tree = Tree.build(1.0, 8)
        rng = np.random.default_rng(3)
        terminal = rng.standard_normal((tree.n_leaves, 1))
        a = 0.8
        Y, _ = solve_bsde(tree, terminal, lambda s, y, z: a * y)
        for j in range(tree.N + 1):
            expected = (1.0 - a * tree.dt) ** -(tree.N - j) * tree.cond_expect(
                terminal, j)
            assert np.allclose(Y.level(j), expected, atol=1e-10)

    def test_inner_fixed_point_failure(self):
        tree = Tree.build(1.0, 2)  # dt = 0.5, Lipschitz 4 -> no contraction
        terminal = np.ones((4, 1))
        with pytest.raises(PicardError, match="finer grid"):
            solve_bsde(tree, terminal, lambda s, y, z: 4.0 * y)


class TestSolveBsvie:
    def test_zero_generator(self):
        doc = json.loads(fixture_path("zero").read_text())
        doc["coefficients"]["psi"] = {"x": [[1.0]], "const": [0.2],
                                      "x_slope": [[0.5]]}
        doc["coefficients"]["sigma"] = {"const": [1.0]}
        s = Scenario.from_json(doc)
        tree = s.tree()
        u = AdaptedProcess.zeros(tree.N - 1, 1)
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)
        x_leaf = fwd.X.level(tree.N)
        for i in range(tree.N + 1):
            expected = tree.cond_expect(s.coeffs.psi.value(tree.t(i), x_leaf), i)
            assert np.allclose(bwd.Y.level(i), expected, atol=1e-12)

    def test_degenerates_to_bsde(self):
        s = load_scenario(fixture_path("fbsde"))
        tree = s.tree(6)
        rng = np.random.default_rng(9)
        u = AdaptedProcess([rng.standard_normal((1 << i, 1)) * 0.3
                            for i in range(tree.N)])
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)

        def driver(t, y, z):
            j = round(t / tree.dt)
            return s.coeffs.g.value(0.0, t, x=fwd.X.level(j), y=y, z=z,
                                    u=u.level(j))

        terminal = s.coeffs.psi.value(0.0, fwd.X.level(tree.N))
        Y, Z = solve_bsde(tree, terminal, driver)
        for i in range(tree.N + 1):
            assert np.allclose(bwd.Y.level(i), Y.level(i), atol=1e-10)
        for j in range(tree.N):
            assert np.allclose(bwd.Z.value(j, j), Z.level(j), atol=1e-10)

    def test_linear_bsvie_matches_dense_oracle(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(5)
        rng = np.random.default_rng(12)
        u = AdaptedProcess([rng.standard_normal((1 << i, 1)) * 0.4
                            for i in range(tree.N)])
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)
        Y_oracle, Z_oracle = dense_bsvie_oracle(s, tree, fwd, u)
        for i in range(tree.N + 1):
            got = np.repeat(bwd.Y.level(i)[:, 0], 1 << (tree.N - i))
            assert np.max(np.abs(got - Y_oracle[i])) <= 1e-10
            for j in range(tree.N):
                gotz = np.repeat(bwd.Z.value(i, j)[:, 0], 1 << (tree.N - j))
                assert np.max(np.abs(gotz - Z_oracle[i][j])) <= 1e-10
        hist = bwd.residual_history
        assert all(hist[k + 1] < hist[k] for k in range(len(hist) - 1))

    def test_row_recompute_consistency(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(5)
        u = AdaptedProcess.constant([0.2], tree.N - 1)
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)
        for i in (0, 2, tree.N):
            lam_run, z_cols = recompute_bsvie_row(s, fwd, u, bwd, i, tree)
            for r in range(tree.N + 1):
                assert np.allclose(lam_run[r], bwd.lam[i][r], atol=1e-10)
            for r in range(tree.N):
                assert np.allclose(z_cols[r], bwd.Z.value(i, r), atol=1e-10)

    def test_diagonal_matches_lambda(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree()
        u = AdaptedProcess.constant([0.1], tree.N - 1)
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)
        for i in range(tree.N + 1):
            assert np.allclose(bwd.Y.level(i), bwd.lam[i][i], atol=1e-13)


def dense_msolution_oracle(tree, psi_rows, A, B, D, theta, include_diag_A):
    """Dense stacked solve of the M-solution family (scalar kernels)."""
    N, L = tree.N, tree.n_leaves
    size = N * L
    K = np.zeros((size, size))
    rhs = np.zeros(size)
    nu = [repr_operator(tree, i) @ theta[:, 0] for i in range(N)]
    for i in range(N):
        sl = slice(i * L, (i + 1) * L)
        rhs[sl] = psi_rows[i][:, 0]
        if A is not None:
            rhs[sl] += float(A(i, N)[0, 0, 0]) * theta[:, 0]
        if B is not None:
            rhs[sl] += float(B(i, N)[0, 0, 0]) * nu[i]
        lo = i if include_diag_A else i + 1
        for j in range(lo, N):
            if A is not None:
                K[sl, j * L:(j + 1) * L] += tree.dt * float(
                    A(i, j)[0, 0, 0]) * projector(tree, j)
        for j in range(i + 1, N):
            if B is not None:
                K[sl, j * L:(j + 1) * L] += tree.dt * float(
                    B(i, j)[0, 0, 0]) * repr_operator(tree, i)
        for j in range(i, N):
            if D is not None:
                K[sl, sl] += tree.dt * float(
                    D(i, j)[0, 0, 0]) * repr_operator(tree, j)
    P = np.linalg.solve(np.eye(size) - K, rhs)
    Y = [projector(tree, i) @ P[i * L:(i + 1) * L] for i in range(N)]
    Z = [[repr_operator(tree, j) @ P[i * L:(i + 1) * L] for j in range(N)]
         for i in range(N)]
    return Y, Z


class TestSolveLinearBackward:
    def test_all_zero(self):
        tree = Tree.build(1.0, 4)
        rows = [np.zeros((tree.n_leaves, 1)) for _ in range(tree.N)]
        sol = solve_linear_backward(tree, rows)
        assert sol.Y.sup_norm() == 0.0

    def test_deterministic_free_term(self):
        tree = Tree.build(1.0, 5)
        rho = [math.sin(1.0 + tree.t(i)) for i in range(tree.N)]
        rows = [np.full((tree.n_leaves, 1), rho[i]) for i in range(tree.N)]
        sol = solve_linear_backward(tree, rows)
        for i in range(tree.N):
            assert np.allclose(sol.Y.level(i), rho[i], atol=1e-14)
            for j in range(tree.N):
                assert np.allclose(sol.Z.value(i, j), 0.0, atol=1e-14)

    @pytest.mark.parametrize("include_diag_A", [False, True])
    def test_constant_kernels_vs_dense_oracle(self, include_diag_A):
        tree = Tree.build(1.0, 6)
        rng = np.random.default_rng(31)
        rows = [rng.standard_normal((tree.n_leaves, 1)) for _ in range(tree.N)]
        theta = rng.standard_normal((tree.n_leaves, 1))
        kA = lambda i, j: np.full((1, 1, 1), 0.4)
        kB = lambda i, j: np.full((1, 1, 1), 0.3)
        kD = lambda i, j: np.full((1, 1, 1), 0.5)
        sol = solve_linear_backward(tree, rows, A=kA, B=kB, D=kD,
                                    theta=theta, include_diag_A=include_diag_A)
        Yo, Zo = dense_msolution_oracle(tree, rows, kA, kB, kD, theta,
                                        include_diag_A)
        for i in range(tree.N):
            got = np.repeat(sol.Y.level(i)[:, 0], 1 << (tree.N - i))
            assert np.max(np.abs(got - Yo[i])) <= 1e-10
            for j in range(tree.N):
                gotz = np.repeat(sol.Z.value(i, j)[:, 0], 1 << (tree.N - j))
                assert np.max(np.abs(gotz - Zo[i][j])) <= 1e-10

    def test_row_residuals_and_m_identity(self):
        tree = Tree.build(1.0, 5)
        rng = np.random.default_rng(77)
        rows = [rng.standard_normal((tree.n_leaves, 2)) for _ in range(tree.N)]
        theta = rng.standard_normal((tree.n_leaves, 2))
        mats = rng.standard_normal((tree.N + 1, tree.N + 1, 2, 2)) * 0.3

        def kernel(which):
            return lambda i, j: np.broadcast_to(mats[i, j] + which,
                                                (1, 2, 2))

        kA, kB, kD = kernel(0.0), kernel(0.1), kernel(-0.1)
        sol = solve_linear_backward(tree, rows, A=kA, B=kB, D=kD, theta=theta)
        for i in range(tree.N):
            res = backward_row_residual(tree, sol, i, rows, A=kA, B=kB, D=kD,
                                        theta=theta)
            assert res <= 1e-12
        assert msolution_identity_residual(tree, sol) <= 1e-12

    def test_mu_nu_round_trip(self):
        tree = Tree.build(1.0, 6)
        rng = np.random.default_rng(4)
        theta = rng.standard_normal((tree.n_leaves, 1))
        rows = [np.zeros((tree.n_leaves, 1)) for _ in range(tree.N)]
        sol = solve_linear_backward(tree, rows, theta=theta)
        # mu(t_i) + sum_{j>=i} nu_j dW_j = theta exactly
        for i in range(tree.N + 1):
            recon = tree.embed(sol.mu.level(i), tree.N) + tree.ito_sum(
                sol.nu, i, tree.N)
            assert np.allclose(recon, theta, atol=1e-13)
