import numpy as np
import pytest

from oracles import dw_leaf, projector

from volterra_control.adjoint import (
    FredholmSolution, adjoint_residuals, assemble_adjoint, fredholm_row_residual,
    hamiltonian_gradient, solve_fredholm, solve_lambda0,
)
from volterra_control.backward import MSolution, solve_bsvie, solve_linear_backward
from volterra_control.forward import simulate_forward
from volterra_control.lattice import AdaptedProcess, Tree, TwoParamProcess
from volterra_control.scenario import fixture_path, load_scenario


class TestSolveLambda0:
    def test_zero_inputs_constant(self):
        tree = Tree.build(1.0, 5)
        fz = AdaptedProcess.zeros(tree.N - 1, 1)
        lam0, Lam = solve_lambda0(tree, fz, lambda j: np.zeros((1, 1, 1)),
                                  np.array([1.7]))
        assert np.allclose(lam0, 1.7)
        assert np.allclose(Lam.level(3), 1.7)

    def test_constant_kernel_product_formula(self):
        # oracle: unroll lambda_{j+1} = lambda_j (1 + D dW_j) per leaf
        tree = Tree.build(1.0, 6)
        d = 0.8
        fz = AdaptedProcess.zeros(tree.N - 1, 1)
        lam0, Lam = solve_lambda0(tree, fz, lambda j: np.full((1, 1, 1), d),
                                  np.array([2.0]))
        for leaf in range(tree.n_leaves):
            prod = 2.0
            for j in range(tree.N):
                sign = 1.0 if (leaf >> (tree.N - 1 - j)) & 1 else -1.0
                prod *= 1.0 + d * sign * tree.sqdt
            assert abs(lam0[leaf, 0] - prod) <= 1e-12

    def test_lambda_is_conditional_expectation(self):
        tree = Tree.build(1.0, 5)
        rng = np.random.default_rng(6)
        fz = AdaptedProcess([rng.standard_normal((1 << i, 1))
                             for i in range(tree.N)])
        lam0, Lam = solve_lambda0(tree, fz, lambda j: np.full((1, 1, 1), 0.5),
                                  np.array([0.3]))
        for i in range(tree.N + 1):
            assert np.allclose(Lam.level(i), tree.cond_expect(lam0, i),
                               atol=1e-13)


def dense_fredholm_oracle(tree, alphas, A, B, D, beta, include_diag_A, n_rows):
    """Stacked leaf solve of the discrete Fredholm family (scalar kernels)."""
    N, L = tree.N, tree.n_leaves
    size = n_rows * L
    K = np.eye(size)
    rhs = np.zeros(size)
    for i in range(n_rows):
        sl = slice(i * L, (i + 1) * L)
        rhs[sl] = np.repeat(alphas[i][:, 0], 1 << (N - i))
        hi = min(i, N - 1) if include_diag_A else i - 1
        for j in range(hi + 1):
            K[sl, j * L:(j + 1) * L] -= tree.dt * A(j, i) * projector(tree, i)
        for j in range(i):
            K[sl, j * L:(j + 1) * L] -= np.diag(dw_leaf(tree, j)) @ (
                B(j, i) * projector(tree, j))
        for j in range(N):
            rhs[sl] += dw_leaf(tree, j) * np.repeat(
                beta(i, j)[:, 0], 1 << (N - j))
        for j in range(i, N):
            K[sl, sl] -= np.diag(dw_leaf(tree, j)) @ (
                D(i, j) * projector(tree, j))
    sol = np.linalg.solve(K, rhs)
    return [sol[i * L:(i + 1) * L] for i in range(n_rows)]


class TestSolveFredholm:
    def test_zero_kernels_identity(self):
        tree = Tree.build(1.0, 5)
        rng = np.random.default_rng(2)
        alphas = [rng.standard_normal((1 << i, 2)) for i in range(tree.N + 1)]
        sol = solve_fredholm(tree, alphas)
        for i in range(tree.N + 1):
            assert np.allclose(sol.xi[i], tree.embed(alphas[i], tree.N),
                               atol=1e-14)

    def test_scalar_constant_D_unroll(self):
        # oracle: xi(t_i) = alpha_i prod_{j>=i} (1 + D dW_j) per leaf
        tree = Tree.build(1.0, 5)
        d = 0.6
        alphas = [np.full((1 << i, 1), 1.0 + 0.1 * i) for i in range(tree.N + 1)]
        sol = solve_fredholm(tree, alphas,
                             D=lambda i, j: np.full((1, 1, 1), d))
        for i in range(tree.N + 1):
            for leaf in range(tree.n_leaves):
                prod = 1.0 + 0.1 * i
                for j in range(i, tree.N):
                    sign = 1.0 if (leaf >> (tree.N - 1 - j)) & 1 else -1.0
                    prod *= 1.0 + d * sign * tree.sqdt
                assert abs(sol.xi[i][leaf, 0] - prod) <= 1e-12

    @pytest.mark.parametrize("include_diag_A", [False, True])
    def test_full_linear_system_oracle(self, include_diag_A):
        tree = Tree.build(1.0, 5)
        rng = np.random.default_rng(41)
        n_rows = tree.N + 1
        coefA = rng.uniform(-0.5, 0.5, (n_rows, n_rows))
        coefB = rng.uniform(-0.5, 0.5, (n_rows, n_rows))
        coefD = rng.uniform(-0.5, 0.5, (n_rows, n_rows))
        alphas = [rng.standard_normal((1 << i, 1)) for i in range(n_rows)]
        betas = {(i, j): rng.standard_normal((1 << j, 1))
                 for i in range(n_rows) for j in range(tree.N)}
        kA = lambda j, i: np.full((1, 1, 1), coefA[j, i])
        kB = lambda j, i: np.full((1, 1, 1), coefB[j, i])
        kD = lambda i, j: np.full((1, 1, 1), coefD[i, j])
        kbeta = lambda i, j: betas[(i, j)]
        sol = solve_fredholm(tree, alphas, A=kA, B=kB, D=kD, beta=kbeta,
                             include_diag_A=include_diag_A)
        oracle = dense_fredholm_oracle(
            tree, alphas, lambda j, i: coefA[j, i], lambda j, i: coefB[j, i],
            lambda i, j: coefD[i, j], kbeta, include_diag_A, n_rows)
        for i in range(n_rows):
            assert np.max(np.abs(sol.xi[i][:, 0] - oracle[i])) <= 1e-11
            # conditional runs realize E_r[xi_i]
            for r in range(i, tree.N + 1):
                assert np.allclose(sol.cond_exp(i, r),
                                   tree.cond_expect(sol.xi[i], r), atol=1e-12)
            res = fredholm_row_residual(tree, sol, i, alphas, A=kA, B=kB,
                                        D=kD, beta=kbeta,
                                        include_diag_A=include_diag_A)
            assert res <= 1e-12


class TestSolveMuNu:
    """mu_i = E_i[theta] and its integrands nu, as the (p, q) solve
    returns them for the boundary term theta."""

    @staticmethod
    def mu_nu(tree, theta):
        rows = [np.zeros_like(theta) for _ in range(tree.N)]
        sol = solve_linear_backward(tree, rows, theta=theta)
        return sol.mu, sol.nu

    def test_constant_theta(self):
        tree = Tree.build(1.0, 4)
        mu, nu = self.mu_nu(tree, np.full((16, 1), 3.0))
        assert np.allclose(mu.level(2), 3.0)
        assert nu.sup_norm() == 0.0

    def test_brownian_theta_gives_unit_nu(self):
        tree = Tree.build(1.0, 5)
        theta = tree.w(tree.N).reshape(-1, 1)
        mu, nu = self.mu_nu(tree, theta)
        for j in range(tree.N):
            assert np.allclose(nu.level(j), 1.0, atol=1e-13)


def run_pipeline(name, steps=None, control=None, scale=0.3, seed=0):
    s = load_scenario(fixture_path(name))
    tree = s.tree(steps)
    if control is None:
        rng = np.random.default_rng(seed)
        control = AdaptedProcess([rng.standard_normal((1 << i, s.l)) * scale
                                  for i in range(tree.N)])
    fwd = simulate_forward(s, control, tree)
    bwd = solve_bsvie(s, fwd, control, tree)
    bundle = assemble_adjoint(s, fwd, bwd, control, tree)
    return s, tree, control, fwd, bwd, bundle


class TestAssembleAdjoint:
    def test_zero_cost_gives_zero_bundle(self):
        s = load_scenario(fixture_path("lq"))
        s.cost.f.quads = {a: np.zeros_like(v) for a, v in s.cost.f.quads.items()}
        s.cost.f.lins = {a: np.zeros_like(v) for a, v in s.cost.f.lins.items()}
        s.cost.h.qx = np.zeros_like(s.cost.h.qx)
        s.cost.h.qy = np.zeros_like(s.cost.h.qy)
        s.coeffs.psi.base = np.zeros_like(s.coeffs.psi.base)
        s.coeffs.psi.slope = np.zeros_like(s.coeffs.psi.slope)
        tree = s.tree(4)
        u = AdaptedProcess.constant([0.2], tree.N - 1)
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)
        bundle = assemble_adjoint(s, fwd, bwd, u, tree)
        assert np.allclose(bundle.lambda0, 0.0)
        assert all(np.allclose(x, 0.0) for x in bundle.xi.xi)
        assert np.allclose(bundle.theta, 0.0)
        assert bundle.pq.p.sup_norm() == 0.0
        hu = hamiltonian_gradient(s, bundle, fwd, bwd, u, tree)
        assert hu.sup_norm() == 0.0

    def test_residuals_at_machine_precision(self):
        _, tree, _, _, _, bundle = run_pipeline("lq", steps=6)
        res = adjoint_residuals(load_scenario(fixture_path("lq")), bundle, tree)
        for name, val in res.items():
            assert val <= 1e-12, (name, val)


class _ZeroFrozen:
    """Hand-built frozen coefficients: b_u = 1, everything else zero."""

    def __init__(self, tree, n, m, l):
        self.tree, self.n, self.m, self.l = tree, n, m, l

    def _z(self, level, a, b):
        return np.zeros((1 << level, a, b))

    def b_u(self, i, j):
        return np.ones((1 << j, self.n, self.l))

    def sigma_u(self, i, j):
        return self._z(j, self.n, self.l)

    def g_slot(self, slot, i, j):
        dims = {"x": self.n, "y": self.m, "z": self.m, "u": self.l}
        return self._z(j, self.m, dims[slot])

    def f_slot(self, slot, j):
        dims = {"x": self.n, "y": self.m, "z": self.m, "u": self.l}
        return np.zeros((1 << j, dims[slot]))


class TestHamiltonianGradient:
    def test_constant_p_unit_bu_hand_formula(self):
        # H_u(t_j) = dt * sum_{i=j+1}^{N-1} c = c (T - t_{j+1})
        tree = Tree.build(1.0, 4)
        c = 1.3
        from volterra_control.adjoint import AdjointBundle
        bundle = AdjointBundle(
            lambda0=np.zeros((tree.n_leaves, 1)),
            Lambda=AdaptedProcess.zeros(tree.N, 1),
            xi=FredholmSolution(
                xi=[np.zeros((tree.n_leaves, 1)) for _ in range(tree.N)],
                cond=[[np.zeros((1 << r, 1)) for r in range(i, tree.N + 1)]
                      for i in range(tree.N)]),
            theta=np.zeros((tree.n_leaves, 1)),
            mu=AdaptedProcess.zeros(tree.N, 1),
            nu=AdaptedProcess.zeros(tree.N - 1, 1),
            pq=MSolution(p=AdaptedProcess.constant([c], tree.N - 1),
                         q=TwoParamProcess.zeros(tree.N, tree.N, 1)),
            frozen=_ZeroFrozen(tree, 1, 1, 1))
        hu = hamiltonian_gradient(None, bundle, None, None, None, tree)
        for j in range(tree.N):
            expected = c * (1.0 - tree.t(j + 1))
            assert np.allclose(hu.level(j), expected, atol=1e-13)
