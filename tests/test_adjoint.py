import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import (as_table, backward_solution, dense_fredholm_solve,
                     fredholm_solution, leaf_adjoint_residuals, leaf_backward_row_residual,
                     leaf_fredholm_row_residual, leaf_msolution_identity_residuals,
                     random_duality_instance, zero_process, zero_two_param)

from volterra_control.adjoint import (
    AdjointBundle, FredholmSolution, _pq_kernels, adjoint_residuals,
    assemble_adjoint, fredholm_residuals, hamiltonian_gradient, solve_fredholm,
    solve_lambda0,
)
from volterra_control.backward import (backward_residuals, msolution_identity_residuals,
                                       solve_bsvie, solve_linear_backward)
from volterra_control.forward import simulate_forward
from volterra_control import scenario as scenario_module
from volterra_control.lattice import AdaptedProcess, Tree, TwoParamProcess
from volterra_control.scenario import fixture_path, load_scenario
from volterra_control.verify import DualityInstance

from test_scenario import FIXTURES


class _Lambda0Frozen:
    """Hand-built frozen coefficients for the lambda(0) equation: h_y a
    leaf field, f_z the levels of ``fz``, g_z(0, j) the constant d; its
    kernels have no family, as a state-dependent slot's."""

    def __init__(self, hy, fz, d):
        self.hy, self.fz, self.d_gz = hy, fz, d

    def d(self, name, slot, i, j):
        if name == "h":
            return self.hy
        if name == "f":
            return self.fz.level(j)
        return np.full((1, 1, 1), self.d_gz)

    def kernel(self, name, slot):
        return lambda i, j: self.d(name, slot, i, j)


class TestSolveLambda0:
    """lambda(0) as the one-row Fredholm equation alpha_0 = E[h_y],
    D = g_z(0, .), beta = f_z."""

    @staticmethod
    def solve(tree, fz, d, hy):
        sol = solve_lambda0(tree, _Lambda0Frozen(hy, fz, d))
        assert len(sol.xi) == 1
        return sol.xi[0], AdaptedProcess([v[..., 0] for v in sol.levels])

    def test_zero_inputs_constant(self):
        tree = Tree.build(1.0, 5)
        fz = zero_process(tree.N - 1, 1)
        lam0, Lam = self.solve(tree, fz, 0.0, np.full((tree.n_leaves, 1), 1.7))
        assert np.allclose(lam0, 1.7)
        assert np.allclose(Lam.level(3), 1.7)

    def test_constant_kernel_product_formula(self):
        # oracle: unroll lambda_{j+1} = lambda_j (1 + D dW_j) per leaf
        tree = Tree.build(1.0, 6)
        d = 0.8
        fz = zero_process(tree.N - 1, 1)
        hy = np.where(np.arange(tree.n_leaves) % 2, 3.0, 1.0)[:, None]  # E = 2
        lam0, Lam = self.solve(tree, fz, d, hy)
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
        lam0, Lam = self.solve(tree, fz, 0.5, np.full((tree.n_leaves, 1), 0.3))
        for i in range(tree.N + 1):
            assert np.allclose(Lam.level(i), tree.cond_expect(lam0, i),
                               atol=1e-13)


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
        inst = DualityInstance(tree=tree, dim=1, alpha=alphas, beta=kbeta,
                               theta=None, psi_rows=[], psi_tilde_rows=[],
                               A=kA, B=kB, D=kD)
        oracle = dense_fredholm_solve(inst, include_diag_A)
        for i in range(n_rows):
            assert np.max(np.abs(sol.xi[i] - oracle[i])) <= 1e-11
            # conditional runs realize E_r[xi_i]
            for r in range(i, tree.N + 1):
                assert np.allclose(sol.cond_exp(i, r),
                                   tree.cond_expect(sol.xi[i], r), atol=1e-12)
            kernels = {"A": kA, "B": kB, "D": kD, "beta": kbeta,
                       "include_diag_A": include_diag_A}
            res = fredholm_residuals(tree, sol, alphas, **kernels)[i]
            assert res <= 1e-12
            # row N's leaf terms come after its last step: the same sum
            assert res == pytest.approx(
                leaf_fredholm_row_residual(tree, sol, i, alphas, **kernels), abs=1e-15)

    @pytest.mark.parametrize("include_diag_A", [False, True])
    def test_per_node_kernels_match_dense_solve(self, include_diag_A):
        # m = 2 kernels varying per node at their later level, so a wrong
        # run index or level in the B-coupling shows in the rows
        inst = random_duality_instance(1.0, 4, 2, seed=11)
        tree = inst.tree
        sol = solve_fredholm(tree, inst.alpha, A=inst.A, B=inst.B, D=inst.D,
                             beta=inst.beta, include_diag_A=include_diag_A)
        dense = dense_fredholm_solve(inst, include_diag_A)
        for i in range(tree.N + 1):
            assert np.max(np.abs(sol.xi[i] - dense[i])) <= 1e-11
            for r in range(i, tree.N + 1):
                assert np.allclose(sol.cond_exp(i, r),
                                   tree.cond_expect(sol.xi[i], r),
                                   rtol=0.0, atol=1e-12)

    def test_b_finer_than_row_level_rejected(self):
        # the tower step reads E_i[xi_j], which needs B(j, i) F_i-measurable
        tree = Tree.build(1.0, 4)
        alphas = [np.ones((1 << i, 1)) for i in range(tree.N + 1)]

        def kB(j, i):  # B(1, 3) one level too fine
            level = i + 1 if (j, i) == (1, 3) else i
            return np.full((1 << level, 1, 1), 0.5)

        with pytest.raises(ValueError, match=r"B\(1, 3\) is finer than level 3"):
            solve_fredholm(tree, alphas, B=kB)

    def test_residual_checks_runs_no_term_reads(self):
        # without A and D no term reads the runs, so only the run check
        # sees a wrong level: every level the pair mean of the next
        tree = Tree.build(1.0, 4)
        rng = np.random.default_rng(5)
        alphas = [rng.standard_normal((1 << i, 1)) for i in range(tree.N + 1)]
        beta = lambda i, j: np.full((1 << j, 1), 0.1 * (i + j))
        sol = solve_fredholm(tree, alphas, beta=beta)
        assert fredholm_residuals(tree, sol, alphas, beta=beta)[1] <= 1e-14
        runs = [[sol.cond_exp(i, r) for r in range(i, tree.N + 1)]
                for i in range(tree.N + 1)]
        runs[1][2] = runs[1][2] + 1e-3  # E_3[xi_1]
        bumped = fredholm_solution(runs)
        assert fredholm_residuals(tree, bumped, alphas, beta=beta)[1] >= 5e-4


class TestGroupedRowChecks:
    """The row checks ascend all rows of an equation level by level, in
    groups of at most max(1, 2**(N - r - 1)) rows, each row finished by its
    own step_defect: every row's defect has the bits of its sum formed at
    the leaves pair by pair (``tests/oracles.py``).  N = 1..3 take width 1
    at the top levels (at every level for N = 1), lambda(0)'s single row
    and M-identity rows that finish on levels 0-2; at N = 7 the groups
    split on levels 4, 5 and 6."""

    @staticmethod
    def kernels(rng, m, N):
        # plain callables (per-pair products), constant per-node tables
        mats = {name: rng.uniform(-0.4, 0.4, (N + 1, N + 1, 1, m, m)) for name in "ABD"}
        betas = {(i, j): rng.standard_normal((1 << j, m))
                 for i in range(N + 1) for j in range(N)}
        return {"A": lambda i, j: mats["A"][i, j], "B": lambda i, j: mats["B"][i, j],
                "D": lambda i, j: mats["D"][i, j], "beta": lambda i, j: betas[i, j]}

    @pytest.mark.parametrize("N,m,include_diag_A", [(1, 1, True), (2, 2, False), (3, 1, True),
                                                    (7, 2, True), (7, 1, False)])
    def test_fredholm_rows(self, N, m, include_diag_A):
        tree = Tree.build(1.0, N)
        rng = np.random.default_rng(N + 10 * m)
        kernels = self.kernels(rng, m, N)
        alphas = [rng.standard_normal((1 << i, m)) for i in range(N + 1)]
        cases = [(alphas[:1], {"D": kernels["D"], "beta": kernels["beta"]}),  # lambda(0)'s row
                 (alphas[:N], {"A": kernels["A"], "D": kernels["D"]}),  # xi's rows
                 (alphas, dict(kernels))]  # every kind of term, row N included
        for rows, kw in cases:
            kw["include_diag_A"] = include_diag_A
            sol = solve_fredholm(tree, rows, **kw)
            got = fredholm_residuals(tree, sol, rows, **kw)
            assert got.tolist() == [leaf_fredholm_row_residual(tree, sol, i, rows, **kw)
                                    for i in range(len(rows))]
            assert got.max() <= 1e-12

    @pytest.mark.parametrize("N,m", [(1, 1), (2, 2), (3, 1), (7, 2)])
    @pytest.mark.parametrize("include_diag_B", [False, True])
    def test_backward_rows_and_m_identity(self, N, m, include_diag_B):
        tree = Tree.build(1.0, N)
        rng = np.random.default_rng(N + 10 * m + include_diag_B)
        kw = {k: v for k, v in self.kernels(rng, m, N).items() if k != "beta"}
        kw.update(theta=rng.standard_normal((tree.n_leaves, m)),
                  include_diag_B=include_diag_B)
        # a leaf term and one on the row's own level, as the F rows have
        rows = [[rng.standard_normal((tree.n_leaves, m)), rng.standard_normal((1 << i, m))]
                for i in range(N)]
        sol = solve_linear_backward(tree, rows, **kw)
        got = backward_residuals(tree, sol, rows, **kw)
        assert got.tolist() == [leaf_backward_row_residual(tree, sol, i, rows, **kw)
                                for i in range(N)]
        assert got.max() <= 1e-12
        m_identity = msolution_identity_residuals(tree, sol)
        assert m_identity.tolist() == leaf_msolution_identity_residuals(tree, sol)
        assert m_identity.max() <= 1e-12

    def test_backward_b_terms_on_finer_levels(self):
        # a duality instance's B(i, j) is scaled on level j > i: that B term
        # joins row i on level j, after the row's A and D terms there
        inst = random_duality_instance(1.0, 5, 2, seed=11)
        tree, rows = inst.tree, [[row] for row in inst.psi_rows]
        kw = {"A": inst.A, "B": inst.B, "D": inst.D, "theta": inst.theta}
        assert any(tree.level_of(inst.B(0, j)) > 0 for j in range(1, tree.N))
        sol = solve_linear_backward(tree, rows, **kw)
        got = backward_residuals(tree, sol, rows, **kw)
        assert got.max() <= 1e-12
        assert got.tolist() == pytest.approx(
            [leaf_backward_row_residual(tree, sol, i, rows, **kw) for i in range(tree.N)],
            abs=1e-14)


class TestSolveMuNu:
    """mu_i = E_i[theta] and its integrands nu, as the (p, q) solve
    returns them for the boundary term theta."""

    @staticmethod
    def mu_nu(tree, theta):
        rows = [[np.zeros_like(theta)] for _ in range(tree.N)]
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


def _bumped(levels, k, *row):
    """``levels`` with entry k (or its row ``row``, a row stack's) shifted
    by 1e-3 at its first node; the other entries are shared."""
    out = list(levels)
    out[k] = np.array(out[k], dtype=float, order="F")
    out[k][(0, 0) + row] += 1e-3
    return out


def _shifted_theta(b):
    """theta + 0.1 with (p, q, mu, nu) re-solved from it: every equation
    but theta's own definition still holds."""
    tree, theta = b.frozen.tree, b.theta + 0.1
    return replace(b, theta=theta, pq=solve_linear_backward(
        tree, b.F, **_pq_kernels(b.frozen, theta)))


# (perturbed field, the adjoint_residuals entry that must flag it, perturbation)
PERTURBATIONS = [
    ("lambda0", "lambda0",  # the leaves of the lambda(0) solution
     lambda b: replace(b, lam=FredholmSolution(_bumped(b.lam.levels, -1, 0)))),
    ("Lambda level", "lambda0",  # only the run check reads Lambda_3
     lambda b: replace(b, lam=FredholmSolution(_bumped(b.lam.levels, 3, 0)))),
    ("xi row", "xi",
     lambda b: replace(b, xi=FredholmSolution(_bumped(b.xi.levels, -1, 2)))),
    ("xi run level", "xi",  # E_3[xi_2] off, the leaves xi_2 unchanged
     lambda b: replace(b, xi=FredholmSolution(_bumped(b.xi.levels, 3, 2)))),
    ("theta", "mu_nu", _shifted_theta),
    ("mu", "mu_nu",
     lambda b: replace(b, pq=replace(b.pq, mu=AdaptedProcess(
         _bumped(b.pq.mu.levels, 2))))),
    ("p level", "pq",  # p_2, the first row of the level-2 stack
     lambda b: replace(b, pq=replace(b.pq, levels=_bumped(b.pq.levels, 2, 0)))),
    ("p run level", "pq",  # E_2[p_3] stale beside unchanged p
     lambda b: replace(b, pq=replace(b.pq, levels=_bumped(b.pq.levels, 2, 1)))),
    ("q run level", "pq",  # q(i, 2), i > 2, the run z_stacks[2] views
     lambda b: replace(b, pq=replace(b.pq, Z=TwoParamProcess(
         _bumped(b.pq.Z.levels, 2, slice(3, None)))))),
    ("q column", "m_identity",  # Z(3, 1), below the diagonal
     lambda b: replace(b, pq=replace(b.pq, Z=TwoParamProcess(
         _bumped(b.pq.Z.levels, 1, 3))))),
]


class TestAssembleAdjoint:
    def test_zero_cost_gives_zero_bundle(self):
        s = load_scenario(fixture_path("lq"))
        s.cost.f.quads = {a: np.zeros_like(v) for a, v in s.cost.f.quads.items()}
        s.cost.f.lins = {a: np.zeros_like(v) for a, v in s.cost.f.lins.items()}
        s.cost.h.qx = np.zeros_like(s.cost.h.qx)
        s.cost.h.qy = np.zeros_like(s.cost.h.qy)
        s.coeffs.psi.x = np.zeros_like(s.coeffs.psi.x)
        s.coeffs.psi.x_slope = np.zeros_like(s.coeffs.psi.x_slope)
        tree = s.tree(4)
        u = AdaptedProcess.constant([0.2], tree.N - 1)
        fwd = simulate_forward(s, u, tree)
        bwd = solve_bsvie(s, fwd, u, tree)
        bundle = assemble_adjoint(s, fwd, bwd, u, tree)
        assert np.allclose(bundle.lambda0, 0.0)
        assert all(np.allclose(x, 0.0) for x in bundle.xi.xi)
        assert np.allclose(bundle.theta, 0.0)
        assert bundle.pq.Y.sup_norm() == 0.0
        hu = hamiltonian_gradient(s, bundle, fwd, bwd, u, tree)
        assert hu.sup_norm() == 0.0

    def test_residuals_at_machine_precision(self):
        # at the largest exact lattice, stored runs included
        for name in ("lq", "lq_multi", "quadratic"):
            s, tree, _, _, _, bundle = run_pipeline(name, steps=14)
            for entry, val in adjoint_residuals(s, bundle, tree).items():
                assert val <= 1e-12, (name, entry, val)

    def test_residual_checks_peak_below_three_mib(self):
        # the grouped ascents hold no stack larger than a leaf field: on lq
        # at N = 14 the peak was 1.16 MiB with one row at a time and 6.09
        # MiB with every row of a level in one stack (page faults measured
        # per op depend on the checkout, so the bytes stand in for them)
        s, tree, _, _, _, bundle = run_pipeline("lq", steps=14)
        tracemalloc.start()
        try:
            adjoint_residuals(s, bundle, tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20

    @pytest.mark.parametrize("name,steps", [(name, steps) for name in FIXTURES
                                            for steps in (6, 9)] + [("lq_multi", 14)])
    def test_checks_have_the_bits_of_the_leaf_sums(self, name, steps):
        # the row checks advance their sums step by step and compare the
        # leaves half by half, the bundle states F: every entry keeps the
        # bits of the checks that formed each row's sum at the leaves
        s = load_scenario(fixture_path(name))
        tree = s.tree(steps)
        rng = np.random.default_rng(steps)
        u = s.default_control(tree) + AdaptedProcess(
            [0.05 * rng.standard_normal((1 << i, s.l)) for i in range(tree.N)])
        u = AdaptedProcess([s.constraint.project(u.level(j)) for j in range(tree.N)])
        s, tree, _, _, _, bundle = run_pipeline(name, steps, control=u)
        got = adjoint_residuals(s, bundle, tree)
        assert got == leaf_adjoint_residuals(s, bundle, tree)
        assert max(got.values()) <= 1e-12

    def test_solutions_are_views_of_their_level_stacks(self):
        # one storage per solution: each accessor a node-contiguous view of
        # its level stack, for the BSVIE and the linear (p, q) family
        s, tree, _, _, bwd, bundle = run_pipeline("lq_multi")
        N, pq, lam = tree.N, bundle.pq, bundle.lam

        def view_of(values, stack):
            return np.shares_memory(values, stack) and values.T.flags.c_contiguous

        for sol, rows in ((bwd, N + 1), (pq, N)):
            assert all(view_of(sol.Z.value(i, j), sol.Z.levels[j])
                       for i in range(rows) for j in range(N))
        assert all(view_of(pq.z_stacks[r], pq.Z.levels[r]) for r in range(N - 1))
        assert all(view_of(pq.Y.level(i), pq.levels[i]) for i in range(N))
        assert all(view_of(pq.cond_exp(i, r), pq.levels[r])
                   for r in range(N) for i in range(r, N))
        assert pq.Y is pq.Y  # built once
        assert all(view_of(x, bundle.xi.levels[-1]) for x in bundle.xi.xi)
        assert view_of(bundle.lambda0, lam.levels[-1])
        assert all(view_of(bundle.Lambda.level(r), lam.levels[r]) for r in range(N + 1))
        assert bundle.lambda0 is bundle.lambda0 and bundle.Lambda is bundle.Lambda  # built once

    @pytest.mark.parametrize("field,entry,perturb", PERTURBATIONS,
                             ids=[f for f, _, _ in PERTURBATIONS])
    def test_each_residual_flags_its_perturbed_field(self, field, entry, perturb):
        s, tree, _, _, _, bundle = run_pipeline("lq", steps=6)
        assert adjoint_residuals(s, bundle, tree)[entry] <= 1e-12
        assert adjoint_residuals(s, perturb(bundle), tree)[entry] > 1e-6

    def test_dense_jacobians_match_factored(self, monkeypatch):
        # lq_multi (n = 2, m = 3, l = 2): every constant jacobian comes
        # from a family; densified it must give the same bundle up to
        # rounding, through the per-pair path
        def run():
            kinds = []  # the type of each catalog jacobian made pair by pair
            with pytest.MonkeyPatch.context() as mp:
                for cls in (scenario_module.AffineCoefficient, scenario_module.TerminalMap):
                    def counted(self, *args, _jacobian=cls.jacobian, **kwargs):
                        jac = _jacobian(self, *args, **kwargs)
                        kinds.append(type(jac))
                        return jac
                    mp.setattr(cls, "jacobian", counted)
                s, tree, u, fwd, bwd, bundle = run_pipeline("lq_multi")
                hu = hamiltonian_gradient(s, bundle, fwd, bwd, u, tree)
                res = adjoint_residuals(s, bundle, tree)
            families = {bundle.frozen.family(name, slot, slice(0, 2), 2) is not None
                        for name, slot in (("b", "x"), ("sigma", "u"), ("g", "z"),
                                           ("psi", "x"))}
            return res, hu, set(kinds), families

        res, hu, kinds, families = run()
        assert kinds == set() and families == {True}  # no per-pair matrix made
        for cls in (scenario_module.AffineCoefficient, scenario_module.TerminalMap):
            def dense(self, slot, t, s, _jacobian=cls.jacobian, **args):
                return as_table(_jacobian(self, slot, t, s, **args), len(args[slot]))
            monkeypatch.setattr(cls, "jacobian", dense)
            # a dense table is per node, so it is asked for with the state
            monkeypatch.setattr(cls, "constant_slots", ())
        res_dense, hu_dense, kinds_dense, families_dense = run()
        assert kinds_dense == {np.ndarray} and families_dense == {False}
        for name, val in res.items():
            assert abs(val - res_dense[name]) <= 1e-14, name
        assert (hu - hu_dense).sup_norm() <= 1e-14


class _ZeroFrozen:
    """Hand-built frozen coefficients: b_u = 1, everything else zero."""

    def __init__(self, tree, n, m, l):
        self.tree, self.n, self.m, self.l = tree, n, m, l

    def d(self, name, slot, i, j):
        dims = {"x": self.n, "y": self.m, "z": self.m, "u": self.l}
        if name == "f":
            return np.zeros((1 << j, dims[slot]))
        out = {"b": self.n, "sigma": self.n, "g": self.m}[name]
        fill = 1.0 if (name, slot) == ("b", "u") else 0.0
        return np.full((1 << j, out, dims[slot]), fill)

    def kernel(self, name, slot):
        return lambda i, j: self.d(name, slot, i, j)  # no family: pair by pair


class TestHamiltonianGradient:
    def test_constant_p_unit_bu_hand_formula(self):
        # H_u(t_j) = dt * sum_{i=j+1}^{N-1} c = c (T - t_{j+1})
        tree = Tree.build(1.0, 4)
        c = 1.3

        def zero_runs(rows):
            return fredholm_solution([[np.zeros((1 << r, 1)) for r in range(i, tree.N + 1)]
                                      for i in range(rows)])

        bundle = AdjointBundle(
            lam=zero_runs(1), xi=zero_runs(tree.N),
            theta=np.zeros((tree.n_leaves, 1)), F=[[np.zeros((tree.n_leaves, 1))]] * tree.N,
            pq=backward_solution(AdaptedProcess.constant([c], tree.N - 1),
                                 zero_two_param(tree.N, tree.N, 1),
                                 mu=zero_process(tree.N, 1),
                                 nu=zero_process(tree.N - 1, 1)),
            frozen=_ZeroFrozen(tree, 1, 1, 1))
        hu = hamiltonian_gradient(None, bundle, None, None, None, tree)
        for j in range(tree.N):
            expected = c * (1.0 - tree.t(j + 1))
            assert np.allclose(hu.level(j), expected, atol=1e-13)
