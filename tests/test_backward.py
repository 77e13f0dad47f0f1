import json
import math

import numpy as np
import pytest

from volterra_control.backward import (
    PicardError, backward_residuals,
    msolution_identity_residuals, solve_bsvie, solve_linear_backward,
)
from volterra_control.forward import simulate_forward
from volterra_control.lattice import AdaptedProcess, Tree
from volterra_control.scenario import Scenario, fixture_path, load_scenario
from volterra_control.verify import smooth_duality_instance

from oracles import (backward_solution, dense_bsvie_oracle, leaf_backward_row_residual,
                     leaf_msolution_identity_residuals, picard_bsvie_oracle,
                     projector, recompute_bsvie_row, repr_operator, solve_bsde,
                     zero_process)
from test_scenario import FIXTURES


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


def row_tail(s, fwd, u, bwd, i, r, tree):
    """psi(t_i, X_N) - sum_{r <= q < N} [Z(t_i, t_q) dW_q - dt g(t_i, t_q, X_q,
    Y_q, Z(t_i, t_q), u_q)] as a leaf field: row i's run at level r, which
    is Y(t_i) at r = i and deterministic at r = 0 when (Y, Z) solve the
    BSVIE."""
    N, g = tree.N, s.coeffs.g
    tail = s.coeffs.psi.value(tree.t(i), tree.t(N), fwd.X.level(N))
    for q in range(r, N):
        z = bwd.Z.value(i, q)
        drift = tree.dt * g.value(tree.t(i), tree.t(q), x=fwd.X.level(q),
                                  y=bwd.Y.level(q), z=z, u=u.level(q))
        tail = tail - tree.embed(tree.dw_term(z, q) - tree.embed(drift, q + 1), N)
    return tail


class TestSolveBsvie:
    def test_zero_generator(self):
        doc = json.loads(fixture_path("zero").read_text())
        doc["coefficients"]["psi"] = {"x": [[1.0]], "const": [0.2],
                                      "x_slope": [[0.5]]}
        doc["coefficients"]["sigma"] = {"const": [1.0]}
        s = Scenario.from_json(doc)
        tree = s.tree()
        u = zero_process(tree.N - 1, 1)
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)
        x_leaf = fwd.X.level(tree.N)
        for i in range(tree.N + 1):
            terminal = s.coeffs.psi.value(tree.t(i), tree.t(tree.N), x_leaf)
            expected = tree.cond_expect(terminal, i)
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

        terminal = s.coeffs.psi.value(0.0, tree.t(tree.N), fwd.X.level(tree.N))
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
        hist = picard_bsvie_oracle(s, fwd, u, tree).residual_history
        assert all(hist[k + 1] < hist[k] for k in range(len(hist) - 1))

    def test_row_recompute_consistency(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree(5)
        u = AdaptedProcess.constant([0.2], tree.N - 1)
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)
        for i in (0, 2, tree.N):
            lam_run, z_cols = recompute_bsvie_row(s, fwd, u, bwd, i, tree)
            assert np.allclose(lam_run[i], bwd.Y.level(i), atol=1e-10)
            for r in range(tree.N):
                assert np.allclose(z_cols[r], bwd.Z.value(i, r), atol=1e-10)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_matches_picard_oracle(self, name):
        s = load_scenario(fixture_path(name))
        tree = s.tree(6)
        rng = np.random.default_rng(5)
        noise = AdaptedProcess([0.3 * rng.standard_normal((1 << i, s.l))
                                for i in range(tree.N)])
        u = (s.default_control(tree) + noise).map(s.constraint.project)
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)
        ref = picard_bsvie_oracle(s, fwd, u, tree)
        for i in range(tree.N + 1):
            assert np.abs(bwd.Y.level(i) - ref.Y.level(i)).max() <= 1e-12
            for r in range(tree.N):
                assert np.abs(bwd.Z.value(i, r)
                              - ref.Z.value(i, r)).max() <= 1e-12
            tail = row_tail(s, fwd, u, bwd, i, 0, tree)  # the run at level 0
            assert np.ptp(tail, axis=0).max() <= 1e-12
        assert bwd.residual_history[0] < s.tolerances.picard_tol

    def test_diagonal_fixed_point_failure_names_node(self):
        doc = json.loads(fixture_path("lq").read_text())
        doc["coefficients"]["g"]["y"] = [[4.0]]  # dt * Lip = 2 at N = 2
        # m = 3: coupled's G_y times 6, dt * k * rho(G_y) = 0.5 * 1 * 2.26 = 1.13
        # (and dt * k * ||G_y||_inf = 1.8)
        coupled = json.loads(fixture_path("coupled").read_text())
        g = coupled["coefficients"]["g"]
        g["y"] = (6.0 * np.array(g["y"])).tolist()
        for doc in (doc, coupled):
            s = Scenario.from_json(doc)
            tree = s.tree(2)
            u = AdaptedProcess.constant([0.1] * s.l, tree.N - 1)
            fwd = simulate_forward(s, u, tree)
            with pytest.raises(PicardError,
                               match=r"level 1, node \d+ .*finer grid"):
                solve_bsvie(s, fwd, u, tree)

    @pytest.mark.parametrize("quad_y", [True, False])
    def test_nilpotent_diagonal_matrix_contracts(self, quad_y):
        # G_y nilpotent: dt * k * ||G_y||_inf = 0.5 * 1 * 3 = 1.5 at N = 2, but
        # its spectral radius is 0, so the diagonal sweeps contract
        doc = json.loads(fixture_path("coupled").read_text())
        g = doc["coefficients"]["g"]
        g["y"] = [[0.0, 3.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        if not quad_y:
            del g["quad_y"]
        self._assert_matches_picard_at_n2(doc)

    def test_quadratic_y_term_contracts_past_the_linear_bound(self):
        # dt * k * G_y = 0.5 * 1 * 2.5 = 1.25 at N = 2, but with the quadratic
        # term -0.1 y^2 the sweeps' rate 0.5 * (2.5 - 0.2 y) is below 1 in
        # modulus at the solution (y about 11 at level 1 and 20 at level 0),
        # so they contract
        doc = json.loads(fixture_path("lq").read_text())
        doc["coefficients"]["g"].update(y=[[2.5]], quad_y=[[-0.1]], const=[5.0])
        self._assert_matches_picard_at_n2(doc)

    @staticmethod
    def _assert_matches_picard_at_n2(doc):
        s = Scenario.from_json(doc)
        tree = s.tree(2)
        u = AdaptedProcess.constant([0.1] * s.l, tree.N - 1)
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)
        ref = picard_bsvie_oracle(s, fwd, u, tree)
        for i in range(tree.N + 1):
            assert np.abs(bwd.Y.level(i) - ref.Y.level(i)).max() <= 1e-12
            for r in range(tree.N):
                assert np.abs(bwd.Z.value(i, r) - ref.Z.value(i, r)).max() <= 1e-12
        assert bwd.residual_history[0] < s.tolerances.picard_tol

    @pytest.mark.parametrize("steps", [None, 12])
    @pytest.mark.parametrize("name", FIXTURES)
    def test_diagonal_defect_is_at_rounding(self, name, steps):
        # each level's defect |Y_r - E_r[lam_r(r + 1)] - dt g(t_r, t_r, ..., Y_r, ...)|,
        # row r's run recomputed pair by pair from the solution: a few
        # roundings of Y_r where g is affine in y (the sweep of the direct
        # solution), below picard_tol where it has a quadratic y term
        # (coupled, sweeps from the mean); so is the reported final gap
        s = load_scenario(fixture_path(name))
        tree = s.tree(steps)
        u = s.default_control(tree)
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)
        eps = np.finfo(float).eps
        affine = "y" in s.coeffs.g.constant_slots
        for r in range(tree.N):
            lam_run, _ = recompute_bsvie_row(s, fwd, u, bwd, r, tree)
            y = bwd.Y.level(r)
            bound = 4 * eps * (1.0 + np.abs(y).max()) if affine else s.tolerances.picard_tol
            assert np.abs(y - lam_run[r]).max() <= bound, r
        if affine:
            assert bwd.residual_history[0] <= 4 * eps * (1.0 + bwd.Y.sup_norm())
        else:
            assert bwd.residual_history[0] < s.tolerances.picard_tol

    def test_diagonal_matches_lambda(self):
        s = load_scenario(fixture_path("lq"))
        tree = s.tree()
        u = AdaptedProcess.constant([0.1], tree.N - 1)
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)
        for i in range(tree.N + 1):  # Y(t_i) = lam_i(i), from row i's equation
            assert np.allclose(tree.embed(bwd.Y.level(i), tree.N),
                               row_tail(s, fwd, u, bwd, i, i, tree), atol=1e-13)


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
    def test_runs_are_the_pair_means_of_the_rows(self):
        # the stacks the continuation keeps are those a hand-built solution
        # derives from Y, E_r[Y_i] within rounding of one block mean, and
        # z_stacks[r] the rows i > r of Z's level-r stack
        inst = smooth_duality_instance(1.0, 6, 2, seed=4)
        tree = inst.tree
        sol = solve_linear_backward(tree, [[row] for row in inst.psi_rows], A=inst.A,
                                    B=inst.B, D=inst.D, theta=inst.theta)
        hand = backward_solution(sol.Y, sol.Z)
        for r in range(tree.N):
            assert sol.levels[r].shape == (1 << r, 2, tree.N - r)
            assert sol.z_stacks[r].shape == (1 << r, 2, tree.N - r - 1)
            assert np.array_equal(sol.levels[r], hand.levels[r])
            for i in range(r, tree.N):
                assert np.allclose(sol.cond_exp(i, r), tree.cond_expect(sol.Y.level(i), r),
                                   rtol=0.0, atol=1e-14)
                if i > r:
                    assert np.array_equal(sol.z_stacks[r][..., i - r - 1],
                                          sol.Z.value(i, r))
        assert np.shares_memory(sol.cond_exp(3, 3), sol.Y.level(3))
        with pytest.raises(ValueError, match="adapted at level 2"):
            sol.cond_exp(2, 3)

    def test_all_zero(self):
        tree = Tree.build(1.0, 4)
        rows = [[np.zeros((tree.n_leaves, 1))] for _ in range(tree.N)]
        sol = solve_linear_backward(tree, rows)
        assert sol.Y.sup_norm() == 0.0

    def test_deterministic_free_term(self):
        tree = Tree.build(1.0, 5)
        rho = [math.sin(1.0 + tree.t(i)) for i in range(tree.N)]
        rows = [[np.full((tree.n_leaves, 1), rho[i])] for i in range(tree.N)]
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
        sol = solve_linear_backward(tree, [[row] for row in rows], A=kA, B=kB, D=kD,
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
        rows = [[rng.standard_normal((tree.n_leaves, 2))] for _ in range(tree.N)]
        theta = rng.standard_normal((tree.n_leaves, 2))
        mats = rng.standard_normal((tree.N + 1, tree.N + 1, 2, 2)) * 0.3

        def kernel(which):
            return lambda i, j: np.broadcast_to(mats[i, j] + which,
                                                (1, 2, 2))

        kA, kB, kD = kernel(0.0), kernel(0.1), kernel(-0.1)
        sol = solve_linear_backward(tree, rows, A=kA, B=kB, D=kD, theta=theta)
        for i in range(tree.N):
            res = backward_residuals(tree, sol, rows, A=kA, B=kB, D=kD,
                                     theta=theta)[i]
            assert res <= 1e-12
            # the sum formed at the leaves, pair by pair
            assert res == pytest.approx(leaf_backward_row_residual(
                tree, sol, i, rows, A=kA, B=kB, D=kD, theta=theta), abs=1e-15)
        assert msolution_identity_residuals(tree, sol).max() <= 1e-12
        assert msolution_identity_residuals(tree, sol).tolist() == (
            leaf_msolution_identity_residuals(tree, sol))

    def test_mu_nu_round_trip(self):
        tree = Tree.build(1.0, 6)
        rng = np.random.default_rng(4)
        theta = rng.standard_normal((tree.n_leaves, 1))
        rows = [[np.zeros((tree.n_leaves, 1))] for _ in range(tree.N)]
        sol = solve_linear_backward(tree, rows, theta=theta)
        # mu(t_i) + sum_{j>=i} nu_j dW_j = theta exactly
        for i in range(tree.N + 1):
            recon = tree.embed(sol.mu.level(i), tree.N) + tree.ito_sum(
                sol.nu, i, tree.N)
            assert np.allclose(recon, theta, atol=1e-13)

    def test_mu_is_the_run_of_theta(self):
        # mu is the run of pair means that gives nu, each E_i[theta] within
        # rounding of theta's block mean
        inst = smooth_duality_instance(1.0, 8, 2, seed=5)
        tree = inst.tree
        sol = solve_linear_backward(tree, [[row] for row in inst.psi_rows], A=inst.A,
                                    B=inst.B, D=inst.D, theta=inst.theta)
        assert tree.run_defect(sol.mu.levels) == 0.0
        bound = 1e-15 * np.abs(inst.theta).max()
        for i in range(tree.N + 1):
            assert np.abs(sol.mu.level(i) - tree.cond_expect(inst.theta, i)).max() <= bound

    def test_free_terms_live_on_the_levels_of_their_row(self):
        # a row's free terms may sit on any level from the row's own to the
        # leaves; a row needs a term on the leaves, and a term coarser than
        # its row's level raises, naming the row
        inst = smooth_duality_instance(1.0, 6, 2, seed=6)
        tree = inst.tree
        kernels = {"A": inst.A, "B": inst.B, "D": inst.D}
        zero = np.zeros((tree.n_leaves, 2))
        rows = [[tree.cond_expect(row, i), zero] for i, row in enumerate(inst.psi_rows)]
        solve_linear_backward(tree, rows, **kernels)
        rows[3] = rows[3][:1]
        with pytest.raises(ValueError, match="row 3 has no term on the leaves"):
            solve_linear_backward(tree, rows, **kernels)
        rows[3] = [tree.cond_expect(inst.psi_rows[3], 2), zero]
        with pytest.raises(ValueError, match="row 3 has a term coarser than level 3"):
            solve_linear_backward(tree, rows, **kernels)
