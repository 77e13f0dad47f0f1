import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import as_table, grid_points, zero_process, zero_two_param
from volterra_control.adjoint import solve_fredholm
from volterra_control.backward import (_row_run, kernel_sum, kernel_terms,
                                       solve_bsvie, solve_linear_backward)
from volterra_control.forward import simulate_forward
from volterra_control.lattice import (MAX_EXACT_STEPS, AdaptedProcess, ScaledMatrix,
                                      TimeGrid, Tree, TwoParamProcess, apply, scaled,
                                      stack, transpose)
from volterra_control.scenario import fixture_path, load_scenario
from volterra_control.verify import (_pair, check_duality_1, check_duality_2,
                                     smooth_duality_instance)


def field(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


class _Column:
    """A kernel over the pairs (k, 2), k = 1..K: ``mats[k - 1]`` pair by
    pair, and with ``family`` the rows of that (K, d, e) array for a run of
    pairs, as ``FrozenCoefficients.kernel`` gives them."""

    def __init__(self, mats, family=None):
        self.mats, self._family = mats, family

    def __call__(self, i, j):
        assert j == 2
        return self.mats[i - 1]

    def family(self, i, j):
        assert j == 2
        return None if self._family is None else self._family[i.start - 1:i.stop - 1]


class TestTimeGrid:
    def test_points_increasing_and_exact(self):
        grid = TimeGrid(2.0, 8)
        pts = grid_points(grid)
        assert np.all(np.diff(pts) > 0)
        assert abs(grid.dt * grid.steps - grid.horizon) <= 1e-15

    def test_rejects_bad_parameters(self):
        for horizon, steps, name in [
                (1.0, 0, "steps"), (-1.0, 4, "horizon"), (1.0, MAX_EXACT_STEPS + 1, "steps"),
                (math.nan, 4, "horizon"), (math.inf, 4, "horizon"),
                (-math.inf, 4, "horizon"), (1.0, 4.5, "steps"), (1.0, 4.0, "steps"),
                (1.0, True, "steps")]:
            with pytest.raises(ValueError, match=name):
                TimeGrid(horizon, steps)
        assert TimeGrid(1.0, np.int64(4)).steps == 4  # numpy integers stay valid


class TestCondExpect:
    def test_two_point_average(self):
        tree = Tree.build(1.0, 1)
        assert tree.cond_expect(field([3.0, 1.0]), 0)[0, 0] == 2.0

    def test_adapted_field_unchanged(self):
        tree = Tree.build(1.0, 3)
        x = field([1.0, -2.0])
        assert tree.cond_expect(x, 1) is x

    def test_product_of_signs_projects_to_zero(self):
        # oracle: enumerate all 8 leaves of the sign product directly
        tree = Tree.build(1.0, 3)
        signs = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
        prod = field(signs[:, 0] * signs[:, 1] * signs[:, 2])
        e1 = tree.cond_expect(prod, 1)
        assert np.allclose(e1, 0.0, atol=1e-15)

    def test_projection_tower_and_linearity(self):
        tree = Tree.build(1.5, 5)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((tree.n_leaves, 2))
        y = rng.standard_normal((tree.n_leaves, 2))
        e2 = tree.cond_expect(x, 2)
        assert np.array_equal(tree.cond_expect(e2, 2), e2)
        assert np.allclose(tree.cond_expect(tree.cond_expect(x, 3), 1),
                           tree.cond_expect(x, 1), atol=1e-14)
        assert np.allclose(tree.cond_expect(2.0 * x - y, 2),
                           2.0 * tree.cond_expect(x, 2) - tree.cond_expect(y, 2),
                           atol=1e-14)

    def test_level_out_of_range(self):
        tree = Tree.build(1.0, 2)
        with pytest.raises(ValueError):
            tree.cond_expect(field([1.0, 2.0]), 2)

    def test_one_level_has_the_bits_of_numpy_mean(self):
        tree = Tree.build(1.0, 6)
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            for level in (1, 2, 4, 6):
                shape = (1 << level, d)
                x = rng.standard_normal(shape) * np.exp2(rng.integers(-60, 60, shape))
                want = x.reshape((1 << (level - 1), 2, d)).mean(axis=1)
                assert np.array_equal(tree.cond_expect(x, level - 1), want)


class TestItoSum:
    def test_zero_integrand(self):
        tree = Tree.build(1.0, 4)
        h = zero_process(3, 1)
        assert np.all(tree.ito_sum(h, 0, 4) == 0.0)

    def test_unit_integrand_gives_brownian(self):
        tree = Tree.build(2.0, 5)
        h = AdaptedProcess.constant([1.0], 4)
        wt = tree.ito_sum(h, 0, 5)
        # leaf value = (#up - #down) * sqrt(dt)
        for leaf in range(tree.n_leaves):
            ups = bin(leaf).count("1")
            expected = (2 * ups - tree.N) * tree.sqdt
            assert abs(wt[leaf, 0] - expected) <= 1e-14
        assert np.allclose(wt[:, 0], tree.w(tree.N))

    def test_empty_range_returns_zero_field(self):
        tree = Tree.build(1.0, 3)
        out = tree.ito_sum(zero_process(2, 2), 1, 1)
        assert out.shape == (tree.n_leaves, 2)
        assert np.all(out == 0.0)

    def test_discrete_ito_isometry(self):
        # oracle: enumerate leaves and average explicitly, N <= 6
        for n in (3, 6):
            tree = Tree.build(1.0, n)
            rng = np.random.default_rng(n)
            h = AdaptedProcess(
                [rng.standard_normal((1 << i, 1)) for i in range(n)])
            s = tree.ito_sum(h, 0, n)
            lhs = float(np.mean(s[:, 0] ** 2))
            rhs = tree.dt * sum(float(np.mean(h.level(j)[:, 0] ** 2))
                                for j in range(n))
            assert abs(lhs - rhs) <= 1e-12
            assert abs(float(np.mean(s[:, 0]))) <= 1e-14


def embed_and_add(tree, terms, to_level):
    """Reference sum: embed each term to the target, then add in order."""
    out = None
    for term in terms:
        term = tree.embed(term, to_level)
        out = term if out is None else out + term
    return out


def level_terms(levels, dim, seed, spread):
    """One random (2**level, dim) term per level; ``spread`` scales each
    term by a random power of two so that magnitudes mix."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1.0, 1.0, (1 << lev, dim))
            * 2.0 ** rng.integers(-spread, spread + 1) for lev in levels]


LEVELS = st.integers(0, 6)
SEED = st.integers(0, 2 ** 32 - 1)


class TestLevelSum:
    @settings(max_examples=50, deadline=None)
    @given(levels=st.lists(LEVELS, min_size=1, max_size=10),
           dim=st.integers(1, 3), lift=st.integers(0, 2), seed=SEED)
    def test_nondecreasing_order_is_bit_exact(self, levels, dim, lift, seed):
        tree = Tree.build(1.0, 6)
        levels = sorted(levels)
        to_level = min(levels[-1] + lift, tree.N)
        terms = level_terms(levels, dim, seed, spread=30)
        got = tree.level_sum(terms, to_level)
        want = embed_and_add(tree, terms, to_level)
        assert got.shape == (1 << to_level, dim)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(levels=st.lists(LEVELS, min_size=1, max_size=4),
           dim=st.integers(1, 3), lift=st.integers(0, 2), seed=SEED)
    def test_any_order_matches_exact_sum(self, levels, dim, lift, seed):
        # entries in [-1, 1] and at most four terms: a float sum of them in
        # any order and grouping is within 9 * 2**-53 * max|term| of the
        # exact sum, and fsum rounds it within 4 * 2**-53 * max|term|
        tree = Tree.build(1.0, 6)
        to_level = min(max(levels) + lift, tree.N)
        terms = level_terms(levels, dim, seed, spread=0)
        got = tree.level_sum(iter(terms), to_level)  # one at a time
        stacked = np.stack([tree.embed(t, to_level) for t in terms])
        exact = np.array([[math.fsum(stacked[:, k, d]) for d in range(dim)]
                          for k in range(1 << to_level)])
        scale = max(float(np.abs(t).max()) for t in terms)
        assert np.abs(got - exact).max() <= 1e-15 * (1.0 + scale)

    def test_term_finer_than_target_rejected(self):
        tree = Tree.build(1.0, 4)
        with pytest.raises(ValueError, match="cannot embed level 3 into 2"):
            tree.level_sum([np.ones((1, 1)), np.ones((8, 1))], 2)
        with pytest.raises(ValueError):
            tree.level_sum([], 2)


def drift_free_run(tree, values, to_level):
    """(E_k[x], [z_k, ..., z_{J-1}]) for a level-J field x, by the
    backward solvers' drift-free row run."""
    level = tree.level_of(values)
    run, zs = [None] * level + [values], [None] * level
    _row_run(tree, run, zs, level, to_level)
    return run[to_level], zs[to_level:]


class TestMartingaleRepr:
    """x = E_k[x] + sum_{j>=k} z_j dW_j through ``backward._row_run``."""

    def test_constant_field(self):
        tree = Tree.build(1.0, 4)
        mean, zs = drift_free_run(tree, np.full((16, 1), 2.5), 0)
        assert mean[0, 0] == 2.5
        assert all(np.all(z == 0.0) for z in zs)

    def test_two_leaf_formula(self):
        tree = Tree.build(1.0, 1)
        mean, zs = drift_free_run(tree, field([1.0, 5.0]), 0)
        assert mean[0, 0] == 3.0
        assert abs(zs[0][0, 0] - 2.0 / tree.sqdt) <= 1e-15

    def test_round_trip_exact(self):
        # machine-precision identity: errors only from float re-association
        for n in (2, 5, 8):
            tree = Tree.build(0.7, n)
            rng = np.random.default_rng(100 + n)
            x = rng.standard_normal((tree.n_leaves, 3))
            for k in (0, n // 2):
                mean, zs = drift_free_run(tree, x, k)
                back = tree.embed(mean, tree.N) + tree.ito_sum(
                    lambda j, zs=zs, k=k: zs[j - k], k, n)
                assert np.max(np.abs(back - x)) <= 1e-13
            # one step: the pair mean has the bits of numpy's mean
            mean, _ = tree.repr_step(x)
            assert np.array_equal(mean, x.reshape(-1, 2, 3).mean(axis=1))


class TestKernelApplication:
    """A ScaledMatrix applied factored agrees with its dense table."""

    @staticmethod
    def close(got, want, bound):
        # bound: |table| @ |vec| per entry; a product of e + 1 roundings
        # stays within (e + 1) 2**-53 of it
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-15 * bound)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), e=st.integers(1, 3),
           scale_level=st.one_of(st.none(), st.integers(0, 4)),
           vec_level=st.integers(0, 4), seed=SEED)
    def test_factored_matches_dense(self, d, e, scale_level, vec_level, seed):
        tree = Tree.build(1.0, 4)
        rng = np.random.default_rng(seed)
        scale = None if scale_level is None else rng.uniform(0.5, 1.5, 1 << scale_level)
        mat = ScaledMatrix(scale, rng.uniform(-1.0, 1.0, (d, e)))
        # a constant has no level; its table sits at the vector's level
        table = as_table(mat, 1 << max(vec_level, scale_level or 0))
        for apply, vec, dense in (
                (tree.matvec, rng.standard_normal((1 << vec_level, e)), table),
                (tree.tmatvec, rng.standard_normal((1 << vec_level, d)), table.mT)):
            want = apply(table, vec)
            bound = np.einsum("kde,ke->kd", np.abs(dense),
                              np.abs(tree.embed(vec, tree.level_of(dense))))
            self.close(apply(mat, vec), want, bound)
        assert np.array_equal(as_table(transpose(mat), len(table)), table.mT)
        assert np.array_equal(transpose(table), table.mT)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 3), scale_level=st.one_of(st.none(), st.integers(0, 4)),
           lift=st.integers(0, 2), seed=SEED)
    def test_implicit_solve_matches_dense(self, d, scale_level, lift, seed):
        tree = Tree.build(1.0, 6)
        rng = np.random.default_rng(seed)
        scale = None if scale_level is None else rng.uniform(0.5, 1.5, 1 << scale_level)
        mat = ScaledMatrix(scale, rng.uniform(-1.0, 1.0, (d, d)))
        rhs = rng.standard_normal((1 << ((scale_level or 0) + lift), d))
        table = as_table(mat, len(rhs))
        for factored, dense in ((mat, table), (transpose(mat), table.mT)):
            # a constant matrix too: one elimination broadcast over the
            # nodes has the bits of the per-node solve of its table
            assert np.array_equal(tree.implicit_solve(factored, rhs),
                                  tree.implicit_solve(dense, rhs))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), e=st.integers(1, 3),
           kinds=st.lists(st.sampled_from(["constant", "scaled", "table"]),
                          min_size=1, max_size=5),
           level=st.integers(0, 4), seed=SEED)
    def test_tmatvec_sum_matches_per_column_sum(self, d, e, kinds, level, seed):
        tree = Tree.build(1.0, 4)
        rng = np.random.default_rng(seed)
        K = len(kinds)

        def make(kind):
            mat = rng.uniform(-1.0, 1.0, (d, e))
            mat_level = int(rng.integers(0, level + 1))
            if kind == "constant":
                return ScaledMatrix(None, mat)
            scaled = ScaledMatrix(rng.uniform(0.5, 1.5, 1 << mat_level), mat)
            return scaled if kind == "scaled" else as_table(scaled, 1 << mat_level)

        mats = [make(kind) for kind in kinds]
        # the first rows of a wider row stack, as the adjoint rows use it
        stack = rng.standard_normal((K + 2, d, 1 << level)).T[..., :K]
        ref = tree.level_sum([tree.tmatvec(mat, stack[..., k])
                              for k, mat in enumerate(mats)], level)
        # pair by pair: the ordered sum of the per-pair products
        got = kernel_sum(tree, _Column(mats), range(1, K + 1), 2, stack)
        assert got.shape == ref.shape == (1 << level, e)
        assert np.array_equal(got, ref)
        if set(kinds) == {"constant"}:  # a family: one GEMM, summed in another order
            family = np.stack([mat.matrix for mat in mats])
            got = kernel_sum(tree, _Column(mats, family), range(1, K + 1), 2, stack)
            assert np.all(np.abs(got - ref) <= 1e-14 * (1.0 + np.abs(ref)))

    def test_constant_table_is_a_view(self):
        mat = ScaledMatrix(None, np.arange(6.0).reshape(2, 3))
        table = as_table(mat, 8)
        assert table.shape == (8, 2, 3) and np.shares_memory(table, mat.matrix)

    def test_scalar_multiple(self):
        mat = ScaledMatrix(np.array([1.0, 2.0]), np.eye(2))
        for twice in (2.0 * mat, mat * 2.0, np.float64(2.0) * mat):
            assert isinstance(twice, ScaledMatrix)
            assert np.array_equal(as_table(twice, 2), 2.0 * as_table(mat, 2))

    def test_finer_matrix_rejected(self):
        tree = Tree.build(1.0, 4)
        mat = ScaledMatrix(np.ones(8), np.eye(1))
        with pytest.raises(ValueError):
            tree.implicit_solve(mat, np.ones((4, 1)))


class TestImplicitSolve:
    """The per-node implicit step: one elimination over all nodes."""

    @staticmethod
    def scaled_system(tree, rng, d, scale_level, swap):
        """A ScaledMatrix with a per-node scale near 1.  With ``swap``,
        I - dt s M is near a cyclic row shift of a well-conditioned matrix,
        so for d >= 2 every node's first column is largest below the
        diagonal and its first step swaps rows."""
        scale = rng.uniform(0.95, 1.05, 1 << scale_level)
        if swap:
            target = np.roll(np.eye(d), 1, axis=0) @ (
                np.eye(d) + 0.2 * rng.uniform(-1.0, 1.0, (d, d)))
            return ScaledMatrix(scale, (np.eye(d) - target) / tree.dt)
        return ScaledMatrix(scale, rng.uniform(-1.0, 1.0, (d, d)))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), scale_level=st.integers(0, 4),
           lift=st.integers(0, 2), swap=st.booleans(), seed=SEED)
    def test_matches_per_node_lapack(self, d, scale_level, lift, swap, seed):
        tree = Tree.build(1.0, 6)
        rng = np.random.default_rng(seed)
        mat = self.scaled_system(tree, rng, d, scale_level, swap)
        rhs = rng.standard_normal((1 << (scale_level + lift), d))
        lhs = np.eye(d) - tree.dt * as_table(mat, len(rhs))
        if swap and d > 1:
            assert np.all(np.abs(lhs[:, 1, 0]) > np.abs(lhs[:, 0, 0]))
        got = tree.implicit_solve(mat, rhs)
        want = np.linalg.solve(lhs, rhs[..., None])[..., 0]
        assert node_contiguous(got)
        assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))
        if d == 1:  # one division per node
            assert np.array_equal(got, rhs / lhs[..., 0])
        table = as_table(mat, 1 << scale_level)
        assert np.array_equal(tree.implicit_solve(table, rhs), got)
        assert np.array_equal(tree.implicit_solve(transpose(mat), rhs),
                              tree.implicit_solve(table.mT, rhs))
        # a right-hand side stored row-major gives the same bits
        assert np.array_equal(tree.implicit_solve(mat, np.ascontiguousarray(rhs)), got)

    @pytest.mark.parametrize("d", [2, 3])
    def test_constant_swap_has_the_bits_of_the_per_node_solve(self, d):
        # one matrix whose first step swaps rows, broadcast over the nodes,
        # has the bits of the pivot search on its per-node table
        tree = Tree.build(1.0, 6)
        rng = np.random.default_rng(40 + d)
        mat = ScaledMatrix(None, self.scaled_system(tree, rng, d, 0, swap=True).matrix)
        rhs = rng.standard_normal((1 << 5, d))
        table = as_table(mat, len(rhs))
        lhs = np.eye(d) - tree.dt * table
        assert np.all(np.abs(lhs[:, 1, 0]) > np.abs(lhs[:, 0, 0]))
        got = tree.implicit_solve(mat, rhs)
        assert np.array_equal(got, tree.implicit_solve(table, rhs))
        want = np.linalg.solve(lhs, rhs[..., None])[..., 0]
        assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))

    def test_no_implicit_step_calls_lapack(self, monkeypatch):
        calls = []
        for name in ("solve", "inv"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *args, fn=fn: calls.append(1) or fn(*args))
        tree = Tree.build(1.0, 4)
        for d in (1, 2, 3):
            rhs = np.ones((1 << 4, d))
            for mat in (ScaledMatrix(None, np.eye(d)), ScaledMatrix(np.ones(1 << 3), np.eye(d)),
                        np.ones((1 << 2, d, d))):
                assert np.all(np.isfinite(tree.implicit_solve(mat, rhs)))
        inst = smooth_duality_instance(1.0, 4, 2, seed=1)  # per-node kernels
        for mode in ("transpose", "continuum"):
            check_duality_1(inst, mode)
            check_duality_2(inst, mode)
        # the BSVIE's direct diagonal starts, d = 1 and 3, and coupled,
        # whose quadratic y term sweeps from the mean
        for name in ("lq", "lq_multi", "coupled"):
            s = load_scenario(fixture_path(name))
            tree = s.tree(4)
            u = s.default_control(tree)
            solve_bsvie(s, simulate_forward(s, u, tree), u, tree)
        assert not calls

    @settings(max_examples=30, deadline=None)
    @given(level=st.integers(0, 6), seed=SEED)
    def test_constant_scalar_step_is_one_division(self, level, seed):
        tree = Tree.build(1.0, 6)
        rng = np.random.default_rng(seed)
        m = float(rng.uniform(-2.0, 2.0))
        rhs = rng.standard_normal((1 << level, 1))
        got = tree.implicit_solve(ScaledMatrix(None, np.array([[m]])), rhs)
        assert np.array_equal(got, rhs / (1.0 - tree.dt * m))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_singular_constant_matrix_is_located(self, d):
        # I - dt M is zero for d = 1 and the all-ones matrix for d > 1,
        # singular at every node (its elimination meets an exact zero
        # pivot); a constant matrix names node 0
        tree = Tree.build(1.0, 4)
        lhs = np.ones((d, d)) if d > 1 else np.zeros((1, 1))
        mat = ScaledMatrix(None, (np.eye(d) - lhs) / tree.dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="level 3, node 0$"):
                tree.implicit_solve(mat, np.ones((1 << 3, d)))

    @pytest.mark.parametrize("d", [1, 2])
    def test_singular_node_is_located(self, d):
        # dt s M = J / d (all entries 1 / d) at level-3 node 5, so
        # I - dt s M is singular there, at level-4 nodes 10 and 11
        tree = Tree.build(1.0, 4)
        scale = np.ones(1 << 3)
        scale[5] = 4.0
        mat = ScaledMatrix(scale, np.full((d, d), 1.0 / d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="level 4, node 10$"):
                tree.implicit_solve(mat, np.ones((1 << 4, d)))
            scale[5] = 1.0
            assert np.all(np.isfinite(tree.implicit_solve(mat, np.ones((1 << 4, d)))))


class TestProcessContainers:
    def test_adapted_process_shape_enforced(self):
        with pytest.raises(ValueError):
            AdaptedProcess([np.zeros((2, 1))])
        with pytest.raises(ValueError):
            AdaptedProcess([np.zeros((1, 1)), np.zeros((3, 1))])

    def test_adapted_arithmetic(self):
        a = AdaptedProcess.constant([1.0, 2.0], 3)
        b = AdaptedProcess.constant([0.5, -1.0], 3)
        c = a + 2.0 * b
        assert np.allclose(c.level(2), [[2.0, 0.0]] * 4)
        assert (a - a).sup_norm() == 0.0

    def test_map_makes_one_call_on_all_levels(self):
        rng = np.random.default_rng(4)
        proc = AdaptedProcess([rng.standard_normal((1 << i, 2)) for i in range(4)])
        calls = []

        def fn(table):
            calls.append(table.shape)
            return np.cumsum(table, axis=1)  # row-wise
        mapped = proc.map(fn)
        assert calls == [(15, 2)]
        assert all(np.array_equal(a, np.cumsum(v, axis=1))
                   for a, v in zip(mapped.levels, proc.levels))
        table = proc.node_table(2)
        assert table.shape == (7, 2) and node_contiguous(table)
        assert np.array_equal(table[3:7], proc.level(2))  # rows 2**i - 1 ...

    def test_two_param_shapes(self):
        z = zero_two_param(3, 4, 2)
        assert [v.shape for v in z.levels] == [(1 << j, 2, 3) for j in range(4)]
        assert z.value(1, 2).shape == (4, 2)
        for bad in ([np.zeros((2, 1, 3))], [np.zeros((1, 1, 3)), np.zeros((3, 1, 3))],
                    [np.zeros((1, 1))]):  # 2 or 3 nodes at levels 0 and 1; not a stack
            with pytest.raises(ValueError):
                TwoParamProcess(bad)


class TestRowStacks:
    """A (2**i, d, R) row stack through the lattice helpers gives every
    row the bits of the per-row call, as node-contiguous views."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), e=st.integers(1, 3), R=st.integers(1, 5),
           level=st.integers(1, 4), up=st.integers(0, 2), seed=SEED)
    def test_rows_keep_their_bits(self, d, e, R, level, up, seed):
        tree = Tree.build(1.0, 6)
        rng = np.random.default_rng(seed)
        # node-contiguous fields, as the solvers store them
        rows = [rng.standard_normal((d, 1 << level)).T for _ in range(R)]
        hs = [rng.standard_normal((d, 1 << level)).T for _ in range(R)]
        matrix = rng.uniform(-1.0, 1.0, (e, d))
        factors = rng.uniform(-2.0, 2.0, R)
        rows_of, hs_of = stack(rows), stack(hs)
        mean, z = tree.repr_step(rows_of)
        batched = {"repr_step_mean": (mean, lambda k: tree.repr_step(rows[k])[0]),
                   "repr_step_z": (z, lambda k: tree.repr_step(rows[k])[1]),
                   "dw_term": (tree.dw_term(hs_of, level),
                               lambda k: tree.dw_term(hs[k], level)),
                   "ito_step": (tree.ito_step(rows_of, hs_of, level),
                                lambda k: tree.ito_step(rows[k], hs[k], level)),
                   "embed": (tree.embed(rows_of, level + up),
                             lambda k: tree.embed(rows[k], level + up)),
                   "apply": (apply(matrix, rows_of), lambda k: apply(matrix, rows[k])),
                   "scaled": (scaled(rows[0], factors), lambda k: factors[k] * rows[0])}
        for name, (out, per_row) in batched.items():
            assert out.shape[-1] == R and out.T.flags.c_contiguous, name
            for k in range(R):
                assert node_contiguous(out[..., k]), name
                assert np.array_equal(out[..., k], per_row(k)), (name, k)


class TestInPlaceAndProductPaths:
    """``apply`` takes a broadcast product for one-column matrices, and
    ``dw_term``/``ito_step`` write into their repeat's buffer: both keep the
    values of the plain formulas, on fields and row stacks, and leave their
    inputs alone."""

    @staticmethod
    def inputs(rng, shape, zeros):
        values = rng.standard_normal(shape)
        if zeros:  # exact zeros, where a product gives -0.0 for +0.0
            values[rng.random(shape) < 0.3] = 0.0
        return values

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), e=st.integers(1, 3),
           R=st.one_of(st.none(), st.integers(1, 4)), level=st.integers(0, 6),
           zeros=st.booleans(), seed=SEED)
    def test_apply_matches_matmul(self, d, e, R, level, zeros, seed):
        rng = np.random.default_rng(seed)
        matrix = self.inputs(rng, (d, e), zeros)
        # node-contiguous: a (R, e, 2**i) or (e, 2**i) array, transposed
        shape = (e, 1 << level) if R is None else (R, e, 1 << level)
        vec = self.inputs(rng, shape, zeros).T
        before = vec.copy()
        out = apply(matrix, vec)
        assert np.array_equal(out, (matrix @ vec.T).T)
        assert out.T.flags.c_contiguous
        assert np.array_equal(vec, before)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), R=st.one_of(st.none(), st.integers(1, 4)),
           level=st.integers(0, 5), order=st.sampled_from("CF"), seed=SEED)
    def test_ito_helpers_are_the_plain_formulas(self, d, R, level, order, seed):
        tree = Tree.build(1.0, 6)
        rng = np.random.default_rng(seed)
        shape = (1 << level, d) + (() if R is None else (R,))
        values, h = (np.asarray(rng.standard_normal(shape), order=order)
                     for _ in range(2))
        saved = values.copy(), h.copy()
        dw = tree.dw(level).reshape((-1,) + (1,) * (len(shape) - 1))
        increment = np.repeat(h, 2, axis=0) * dw
        assert np.array_equal(tree.dw_term(h, level), increment)
        assert np.array_equal(tree.ito_step(values, h, level),
                              np.repeat(values, 2, axis=0) + increment)
        assert np.array_equal(values, saved[0]) and np.array_equal(h, saved[1])


class TestStepsAndDefects:
    """A step (h, j) in ``level_sum`` is the term h dW_j; ``step_defect``,
    ``row_defects`` and ``run_defect`` give the bits of the defect of the
    sum or pair mean they never form, and ``ito_step`` and ``repr_step``
    with ``out`` the bits of the plain calls: on fields and row stacks in
    either memory order, with exact zeros of both signs."""

    @staticmethod
    def maker(rng, d, R, order, zeros):
        def make(level):
            shape = (1 << level, d) + (() if R is None else (R,))
            values = rng.standard_normal(shape)
            if zeros:
                values[rng.random(shape) < 0.3] = 0.0
                values[rng.random(shape) < 0.2] = -0.0
            return np.asarray(values, order=order)
        return make

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), R=st.one_of(st.none(), st.integers(1, 4)),
           level=LEVELS, target_level=st.integers(0, 7), n_leaves=st.integers(0, 2),
           order=st.sampled_from("CF"), zeros=st.booleans(), seed=SEED)
    def test_step_defect_is_the_defect_of_the_step(self, d, R, level, target_level,
                                                   n_leaves, order, zeros, seed):
        tree = Tree.build(1.0, 7)
        make = self.maker(np.random.default_rng(seed), d, R, order, zeros)
        values, h, out = make(level), make(level), make(level + 1)
        leaves = [make(level + 1) for _ in range(n_leaves)]
        target = make(min(target_level, level + 1))
        saved = [a.copy() for a in [values, h, target] + leaves]
        step = tree.ito_step(values, h, level)
        assert tree.ito_step(values, h, level, out=out) is out
        assert out.tobytes() == step.tobytes()
        total = step
        for leaf in leaves:
            total = total + leaf
        want = float(np.abs(tree.embed(target, level + 1) - total).max())
        got = tree.step_defect(target, values, h, level, leaves)
        assert got == want and not math.copysign(1.0, got) < 0
        assert all(np.array_equal(a, b) for a, b in zip([values, h, target] + leaves, saved))

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.tuples(st.booleans(), LEVELS), min_size=1, max_size=8),
           d=st.integers(1, 3), lift=st.integers(0, 1), order=st.sampled_from("CF"),
           zeros=st.booleans(), seed=SEED)
    def test_level_sum_takes_steps_as_dw_terms(self, kinds, d, lift, order, zeros, seed):
        # (step, level): a step (h, level - 1) onto ``level``, else a field;
        # in nondecreasing level order, the bits of the sum of the dW terms
        tree = Tree.build(1.0, 7)
        make = self.maker(np.random.default_rng(seed), d, None, order, zeros)
        kinds = sorted(((step and level > 0, level) for step, level in kinds),
                       key=lambda kind: kind[1])
        to_level = max(level for _, level in kinds) + lift
        terms = [(make(level - 1), level - 1) if step else make(level)
                 for step, level in kinds]
        formed = [tree.dw_term(*t) if isinstance(t, tuple) else t for t in terms]
        total = tree.level_sum(formed, to_level)
        assert tree.level_sum(iter(terms), to_level).tobytes() == total.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(spans=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1,
                          max_size=9),
           d=st.integers(1, 3), order=st.sampled_from("CF"), zeros=st.booleans(), seed=SEED)
    def test_level_defect_is_the_defect_of_the_sum(self, spans, d, order, zeros, seed):
        # row_defects' grouped ascent, each row finished by its own
        # step_defect: rows from join to finish (nondecreasing), on each
        # level 0-2 fields and a step (or none), 0-2 leaves; every row has
        # the bits of its formed sum's defect, in groups of at most
        # max(1, 2**(6 - r)) rows at N = 7
        tree = Tree.build(1.0, 7)
        rng = np.random.default_rng(seed)
        make = self.maker(rng, d, None, order, zeros)
        join, finish = sorted(min(s) for s in spans), sorted(max(s) for s in spans)
        rows = range(len(spans))
        fields = [{r: [make(r) for _ in range(rng.integers(0, 3))]
                   for r in range(join[i], finish[i])} for i in rows]
        steps = [{r: make(r) for r in range(join[i], finish[i]) if rng.random() < 0.8}
                 for i in rows]
        leaves = [[make(finish[i]) for _ in range(rng.integers(not finish[i], 3))]
                  for i in rows]
        targets = [make(rng.integers(0, finish[i] + 1)) for i in rows]
        want = []
        for i in rows:
            formed = [np.zeros((1 << join[i], d))]
            for r in range(join[i], finish[i]):
                formed += fields[i][r]
                if r in steps[i]:
                    formed.append(tree.dw_term(steps[i][r], r))
            total = tree.level_sum(formed + leaves[i], finish[i])
            want.append(float(np.abs(tree.embed(targets[i], finish[i]) - total).max()))
        widths = []

        def add(values, group, r):
            widths.append((r, len(group)))
            for i in group:
                for term in fields[i][r]:
                    values[..., i - group.start] += term

        def step(group, r):
            return stack([steps[i].get(r, np.zeros((1 << r, d))) for i in group])

        got = tree.row_defects(join, finish, targets.__getitem__, add, step,
                               leaves.__getitem__)
        assert got.tolist() == want
        assert all(width <= max(1, 2 ** (6 - r)) for r, width in widths)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), R=st.one_of(st.none(), st.integers(1, 4)),
           start=st.integers(0, 5), length=st.integers(1, 3),
           order=st.sampled_from("CF"), zeros=st.booleans(), seed=SEED)
    def test_run_defect_and_repr_step_into_out(self, d, R, start, length, order,
                                               zeros, seed):
        tree = Tree.build(1.0, 8)
        make = self.maker(np.random.default_rng(seed), d, R, order, zeros)
        run = [make(level) for level in range(start, start + length)]
        # the nodes and the dimension: one maximum per row of a stack
        want = np.max([np.abs(run[k] - tree.cond_expect(run[k + 1], start + k)).max(axis=(0, 1))
                       for k in range(length - 1)], axis=0, initial=0.0)
        assert np.array_equal(tree.run_defect(run), want)
        if start + length > 1:  # the last level has a martingale step
            mean, z = tree.repr_step(run[-1])
            out = make(start + length - 2)
            got_mean, got_z = tree.repr_step(run[-1], out=out)
            assert got_mean.tobytes() == mean.tobytes() and np.shares_memory(got_z, out)
            assert np.array_equal(got_z, z) and np.array_equal(out, z)


class TestFamilies:
    """A family of constant matrices through one ``apply`` (as
    ``kernel_terms`` applies it) gives every row the bits of ``apply`` with
    its own matrix, on a field and on a row stack, also when the family is
    a row or a column sliced out of a larger table (another memory
    layout); ``kernel_terms`` gives a kernel with a family the bits of the
    same kernel applied pair by pair."""

    @staticmethod
    def families(rng, d, e, R):
        table = rng.uniform(-1.0, 1.0, (R + 3, R + 3, d, e))
        per_t = np.broadcast_to(rng.uniform(-1.0, 1.0, (R + 3, 1, d, e)),
                                (R + 3, R + 3, d, e))
        return {"column": table[1:R + 1, 2], "row": table[2, 1:R + 1],
                "contiguous": np.ascontiguousarray(table[1:R + 1, 2]),
                "broadcast": per_t[:R, R],  # psi's: one matrix per t_i
                # a swapped kernel's: the transposes of a transposed table's
                "swapped": rng.uniform(-1.0, 1.0, (R + 3, R + 3, e, d))[2, 1:R + 1].mT}

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), e=st.integers(1, 3), R=st.integers(1, 5),
           level=st.integers(0, 6), seed=SEED)
    def test_rows_have_the_bits_of_apply(self, d, e, R, level, seed):
        tree = Tree.build(1.0, 6)
        rng = np.random.default_rng(seed)
        vec_e, vec_d = (rng.standard_normal((k, 1 << level)).T for k in (e, d))
        rows_e, rows_d = (rng.standard_normal((R, k, 1 << level)).T for k in (e, d))
        for name, family in self.families(rng, d, e, R).items():
            products = {
                "field": (apply(family, vec_e),
                          lambda k: apply(family[k], vec_e)),
                "stack": (apply(family, rows_e),
                          lambda k: apply(family[k], rows_e[..., k])),
                "transposed field": (apply(family.mT, vec_d),
                                     lambda k: apply(family[k].T, vec_d)),
                "transposed stack": (apply(family.mT, rows_d),
                                     lambda k: apply(family[k].T, rows_d[..., k]))}
            for kind, (out, per_row) in products.items():
                assert out.shape[-1] == R and out.T.flags.c_contiguous, (name, kind)
                for k in range(R):
                    assert np.array_equal(out[..., k], per_row(k)), (name, kind, k)
                    # the per-pair path: a constant ScaledMatrix of the entry
                    # (a view: BLAS may round a copy of another layout apart)
                    mat = ScaledMatrix(None, family[k])
                    pair = (tree.matvec(mat, vec_e) if kind == "field" else
                            tree.matvec(mat, rows_e[..., k]) if kind == "stack" else
                            tree.tmatvec(mat, vec_d) if kind == "transposed field" else
                            tree.tmatvec(mat, rows_d[..., k]))
                    assert np.array_equal(out[..., k], pair), (name, kind, k)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 3), e=st.integers(1, 3), R=st.integers(1, 5),
           level=st.integers(0, 5), transpose=st.booleans(), seed=SEED)
    def test_kernel_terms_of_a_family_are_the_per_pair_products(self, d, e, R, level,
                                                                transpose, seed):
        tree = Tree.build(1.0, 6)
        rng = np.random.default_rng(seed)
        table = rng.uniform(-1.0, 1.0, (R + 3, R + 3, d, e))
        k = d if transpose else e  # the vectors' dimension

        class WithFamily:  # as FrozenCoefficients.kernel
            def __call__(self, i, j):
                return ScaledMatrix(None, table[i, j])

            def family(self, i, j):
                return table[i, j]

        stack_ = rng.standard_normal((R, k, 1 << level)).T
        field_ = rng.standard_normal((k, 1 << level)).T
        fields = [rng.standard_normal((k, 1 << lev)).T for lev in range(R)]
        for i, j in ((range(1, R + 1), 2), (2, range(1, R + 1))):
            for vecs in (stack_, field_, fields):
                got, want = (list(kernel_terms(tree, kernel, i, j, vecs, 0.5, transpose))
                             for kernel in (WithFamily(), WithFamily().__call__))
                assert len(got) == len(want) == R
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 3), e=st.integers(1, 3), R=st.integers(1, 5),
           level=st.integers(0, 5), seed=SEED)
    def test_tmatvec_sum_of_a_family_is_that_of_its_matrices(self, d, e, R, level,
                                                             seed):
        tree = Tree.build(1.0, 5)
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((R + 2, d, 1 << level)).T[..., :R]
        for name, family in self.families(rng, d, e, R).items():
            mats = [ScaledMatrix(None, mat) for mat in family]
            got = kernel_sum(tree, _Column(mats, family), range(1, R + 1), 2, rows)
            assert np.array_equal(got, tree.tmatvec_sum(np.stack(list(family)), rows)), name


def node_contiguous(values):
    """The node axis has unit stride: moved last, the array is C-contiguous."""
    return np.moveaxis(values, 0, -1).flags.c_contiguous


def both_orders(values):
    """A field in row-major order and in node-contiguous order."""
    return np.ascontiguousarray(values), np.asfortranarray(values)


def close_to(got, want):
    # the old node-major formulas, up to one rounding per term
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-15 * (1.0 + np.abs(want).max())


class TestNodeContiguousLayout:
    """For d > 1 every helper returns node-contiguous fields, from input in
    either order, and agrees with the node-major formulas."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_level_helpers(self, d):
        tree = Tree.build(1.0, 5)
        rng = np.random.default_rng(d)
        x5, x3, x2 = (rng.standard_normal((1 << lev, d)) for lev in (5, 3, 2))
        for a5, a3, a2 in zip(both_orders(x5), both_orders(x3), both_orders(x2)):
            got = {
                "embed": (tree.embed(a3, 5), np.repeat(x3, 4, axis=0)),
                "embed_same": (tree.embed(a3, 3), x3),
                "level_sum": (tree.level_sum([a2, a3, a5], 5),
                              np.repeat(x2, 8, axis=0) + np.repeat(x3, 4, axis=0) + x5),
                "level_sum_one": (tree.level_sum([a3], 3), x3),
                "dw_term": (tree.dw_term(a3, 3),
                            np.repeat(x3, 2, axis=0) * tree.dw(3)[:, None]),
                "cond_expect_pair": (tree.cond_expect(a5, 4),
                                     x5.reshape(16, 2, d).mean(axis=1)),
                "cond_expect_block": (tree.cond_expect(a5, 2),
                                      x5.reshape(4, 8, d).mean(axis=1)),
                "cond_expect_same": (tree.cond_expect(a3, 3), x3),
                "expectation_row": (tree.cond_expect(a5, 0), x5.mean(axis=0)[None]),
            }
            mean, z = tree.repr_step(a5)
            pairs = x5.reshape(16, 2, d)
            got["repr_step_mean"] = (mean, pairs.mean(axis=1))
            got["repr_step_z"] = (z, (pairs[:, 1] - pairs[:, 0]) / (2.0 * tree.sqdt))
            for name, (out, want) in got.items():
                assert node_contiguous(out), name
                if name == "dw_term":  # the same product per entry
                    assert np.array_equal(out, want)
                else:
                    close_to(out, want)

    @pytest.mark.parametrize("d", [2, 3])
    def test_kernel_helpers(self, d):
        tree = Tree.build(1.0, 5)
        rng = np.random.default_rng(10 + d)
        e = d - 1
        mat = rng.uniform(-1.0, 1.0, (d, e))
        scale = rng.uniform(0.5, 1.5, 1 << 2)
        table = rng.uniform(-1.0, 1.0, (1 << 4, d, e))
        x4e, x4d = rng.standard_normal((1 << 4, e)), rng.standard_normal((1 << 4, d))
        mats = [ScaledMatrix(None, rng.uniform(-1.0, 1.0, (d, e))) for _ in range(3)]
        cols = [rng.standard_normal((1 << 4, d)) for _ in range(3)]
        square = rng.uniform(-1.0, 1.0, (d, d))
        # per-node scales at the vectors' level 4 and finer, at level 5
        same, fine = rng.uniform(0.5, 1.5, 1 << 4), rng.uniform(0.5, 1.5, 1 << 5)
        for ve, vd in zip(both_orders(x4e), both_orders(x4d)):
            got = {
                "matvec": (tree.matvec(ScaledMatrix(None, mat), ve), x4e @ mat.T),
                "tmatvec": (tree.tmatvec(ScaledMatrix(None, mat), vd), x4d @ mat),
                "matvec_scaled": (tree.matvec(ScaledMatrix(scale, mat), ve),
                                  np.repeat(scale, 4)[:, None] * (x4e @ mat.T)),
                "tmatvec_scaled": (tree.tmatvec(ScaledMatrix(scale, mat), vd),
                                   np.repeat(scale, 4)[:, None] * (x4d @ mat)),
                "matvec_scaled_same": (tree.matvec(ScaledMatrix(same, mat), ve),
                                       same[:, None] * (x4e @ mat.T)),
                "tmatvec_scaled_fine": (tree.tmatvec(ScaledMatrix(fine, mat), vd),
                                        fine[:, None] * np.repeat(x4d @ mat, 2, axis=0)),
                "matvec_table": (tree.matvec(table, ve),
                                 np.einsum("kde,ke->kd", table, x4e)),
                "tmatvec_table": (tree.tmatvec(table, vd),
                                  np.einsum("kde,kd->ke", table, x4d)),
            }
            family = np.stack([m.matrix for m in mats])
            for kernel, path in ((_Column(mats, family), "family"), (_Column(mats), "pairs")):
                for order in both_orders(np.stack(cols, axis=-1)):
                    got[f"kernel_sum_{path}_" + ("C" if order.flags.c_contiguous else "F")] = (
                        kernel_sum(tree, kernel, range(1, 4), 2, order),
                        sum(col @ m.matrix for col, m in zip(cols, mats)))
                got[f"kernel_sum_{path}_stack"] = (
                    kernel_sum(tree, kernel, range(1, 3), 2, stack(cols)[..., :2]),
                    cols[0] @ mats[0].matrix + cols[1] @ mats[1].matrix)
            for form in (ScaledMatrix(None, square), ScaledMatrix(scale, square),
                         as_table(ScaledMatrix(scale, square), 1 << 4)):
                lhs = np.eye(d) - tree.dt * as_table(form, 1 << 4)
                got[f"implicit_solve_{type(form).__name__}"] = (
                    tree.implicit_solve(form, vd),
                    np.array([np.linalg.solve(a, b) for a, b in zip(lhs, x4d)]))
            for name, (out, want) in got.items():
                assert node_contiguous(out), name
                close_to(out, want)

    def test_containers_and_builders(self):
        rng = np.random.default_rng(5)
        levels = [rng.standard_normal((1 << i, 3)) for i in range(4)]
        proc = AdaptedProcess(levels)
        assert all(node_contiguous(v) for v in proc.levels)
        assert all(node_contiguous(v) for v in proc.copy().levels)
        assert all(np.array_equal(a, b) for a, b in zip(proc.levels, levels))
        const = AdaptedProcess.constant([1.0, 2.0], 3)
        assert all(node_contiguous(v) for v in const.levels)
        # a two-parameter field: per level a row stack, Z(t_i, t_j) its row i
        z = TwoParamProcess([stack([v, 2.0 * v]) for v in levels])
        for j, v in enumerate(levels):
            for i in range(2):
                assert node_contiguous(z.value(i, j))
                assert np.shares_memory(z.value(i, j), z.levels[j])
                assert np.array_equal(z.value(i, j), (i + 1.0) * v)
        # a row stack: rows on the trailing axis, each row node-contiguous
        stacked = stack(levels[3:] * 4)
        assert stacked.shape == (8, 3, 4) and stacked.T.flags.c_contiguous
        assert node_contiguous(stacked[..., 1]) and stacked[..., 1:].T.flags.c_contiguous
        assert np.array_equal(stacked[..., 1], levels[3])

    @pytest.mark.parametrize("d", [2, 3])
    def test_pair_is_the_mean_inner_product(self, d):
        tree = Tree.build(1.0, 6)
        rng = np.random.default_rng(20 + d)
        a, b = rng.standard_normal((1 << 6, d)), rng.standard_normal((1 << 3, d))
        want = np.mean(np.sum(a * np.repeat(b, 8, axis=0), axis=1))
        for a_ord, b_ord in itertools.product(both_orders(a), both_orders(b)):
            assert abs(_pair(tree, a_ord, b_ord) - want) <= 1e-15 * (1.0 + abs(want))
            assert abs(_pair(tree, b_ord, a_ord) - want) <= 1e-15 * (1.0 + abs(want))
        c = rng.standard_normal((1 << 6, d))
        same_level = np.mean(np.sum(a * c, axis=1))
        for a_ord, c_ord in itertools.product(both_orders(a), both_orders(c)):
            assert abs(_pair(tree, a_ord, c_ord) - same_level) <= 1e-15 * (1.0 + abs(same_level))

    def test_solvers_agree_across_input_orders(self):
        # an m = 3 instance, once with node-contiguous and once with
        # row-major free terms
        inst = smooth_duality_instance(1.0, 5, 3, seed=11)
        tree = inst.tree
        solutions = []
        for order in (np.asfortranarray, np.ascontiguousarray):
            def beta(i, j, order=order):
                return order(inst.beta(i, j))
            xi = solve_fredholm(tree, [order(a) for a in inst.alpha], A=inst.A, B=inst.B,
                                D=inst.D, beta=beta)
            bwd = solve_linear_backward(tree, [[order(p)] for p in inst.psi_rows],
                                        A=inst.A, B=inst.B, D=inst.D,
                                        theta=order(inst.theta))
            fields = xi.levels + bwd.Y.levels + bwd.Z.levels
            fields += bwd.mu.levels + bwd.nu.levels
            solutions.append(fields)
        for a, b in zip(*solutions):
            assert np.abs(a - b).max() <= 1e-14
