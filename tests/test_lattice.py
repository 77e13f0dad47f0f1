import itertools
import math

import numpy as np
import pytest

from volterra_control.lattice import AdaptedProcess, TimeGrid, Tree, TwoParamProcess


def field(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


class TestTimeGrid:
    def test_points_increasing_and_exact(self):
        grid = TimeGrid(2.0, 8)
        pts = grid.points
        assert np.all(np.diff(pts) > 0)
        assert abs(grid.dt * grid.steps - grid.horizon) <= 1e-15

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 15)


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


class TestItoSum:
    def test_zero_integrand(self):
        tree = Tree.build(1.0, 4)
        h = AdaptedProcess.zeros(3, 1)
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
        out = tree.ito_sum(AdaptedProcess.zeros(2, 2), 1, 1)
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


class TestMartingaleRepr:
    def test_constant_field(self):
        tree = Tree.build(1.0, 4)
        mean, zs = tree.martingale_repr(np.full((16, 1), 2.5), 0)
        assert mean[0, 0] == 2.5
        assert all(np.all(z == 0.0) for z in zs)

    def test_two_leaf_formula(self):
        tree = Tree.build(1.0, 1)
        mean, zs = tree.martingale_repr(field([1.0, 5.0]), 0)
        assert mean[0, 0] == 3.0
        assert abs(zs[0][0, 0] - 2.0 / tree.sqdt) <= 1e-15

    def test_round_trip_exact(self):
        # machine-precision identity: errors only from float re-association
        for n in (2, 5, 8):
            tree = Tree.build(0.7, n)
            rng = np.random.default_rng(100 + n)
            x = rng.standard_normal((tree.n_leaves, 3))
            for k in (0, n // 2):
                mean, zs = tree.martingale_repr(x, k)
                back = tree.embed(mean, tree.N) + tree.ito_sum(
                    lambda j, zs=zs, k=k: zs[j - k], k, n)
                assert np.max(np.abs(back - x)) <= 1e-13


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

    def test_two_param_shapes(self):
        z = TwoParamProcess.zeros(3, 4, 2)
        assert z.n_rows == 3
        assert z.value(1, 2).shape == (4, 2)
        with pytest.raises(ValueError):
            TwoParamProcess([[np.zeros((2, 1))]])
