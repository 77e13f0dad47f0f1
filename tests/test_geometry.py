"""Control-region geometry and the pointwise NC sweep against per-point
references.

``values``, ``contains`` and ``project`` must agree bit for bit with the
per-point formulas in ``oracles.py``, and ``check_pointwise_nc`` with the
node-by-node sweep there, on unconstrained, ball, halfspace, torus and
general quadratic regions.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (nc_sweep_oracle, point_contains, point_project,
                     point_values, qp_oracle)

from volterra_control.lattice import AdaptedProcess
from volterra_control.scenario import (ControlConstraint, ProjectionUnavailable,
                                       Scenario, fixture_path, load_scenario)
from volterra_control.verify import check_pointwise_nc, full_pipeline

SEED = st.integers(0, 2 ** 32 - 1)
DIM = st.integers(1, 3)
PROPERTY = settings(max_examples=25, deadline=None)
SQRT2 = math.sqrt(2.0)


def random_table(rng, dim, rows=24, scale=2.0):
    return rng.standard_normal((rows, dim)) * rng.uniform(0.1, scale, (rows, 1))


def assert_rows_match_reference(c, table, tol=1e-8):
    """Row-by-row calls equal the per-point reference, and one call on the
    whole table (also reshaped to (2, rows/2, l)) equals the row-by-row
    calls."""
    for x in table:
        assert np.array_equal(c.values(x), point_values(c, x))
        assert c.contains(x, tol) == point_contains(c, x, tol)
        try:
            ref = point_project(c, x)
        except ProjectionUnavailable:
            with pytest.raises(ProjectionUnavailable):
                c.project(x)
        else:
            assert np.array_equal(c.project(x), ref)
    if len(table) % 2:
        table = np.vstack([table, table[:1]])
    for batch in (table, table.reshape((2, -1, table.shape[-1]))):
        rows = batch.reshape((-1, batch.shape[-1]))
        assert np.array_equal(
            c.values(batch),
            np.stack([c.values(x) for x in rows]).reshape(batch.shape[:-1] + (-1,)))
        assert np.array_equal(
            c.contains(batch, tol),
            np.array([c.contains(x, tol) for x in rows]).reshape(batch.shape[:-1]))
        try:
            projected = np.stack([c.project(x) for x in rows]).reshape(batch.shape)
        except ProjectionUnavailable:
            with pytest.raises(ProjectionUnavailable):
                c.project(batch)
        else:
            assert np.array_equal(c.project(batch), projected)


@PROPERTY
@given(seed=SEED, dim=DIM)
def test_ball_geometry(seed, dim):
    rng = np.random.default_rng(seed)
    center = rng.uniform(-1.0, 1.0, dim)
    radius = float(rng.uniform(0.5, 2.0))
    c = ControlConstraint.ball(center, radius)
    unit = np.eye(dim)[0]
    table = np.vstack([center + random_table(rng, dim), center,
                       center + radius * unit, center - radius * unit])
    assert_rows_match_reference(c, table)


@PROPERTY
@given(seed=SEED, dim=DIM, planes=st.integers(1, 3))
def test_halfspace_geometry(seed, dim, planes):
    rng = np.random.default_rng(seed)
    # offsets >= 0 keep the origin feasible, so the region is never empty
    c = ControlConstraint.halfspaces(rng.standard_normal((planes, dim)),
                                     rng.uniform(0.0, 1.0, planes))
    assert_rows_match_reference(c, random_table(rng, dim))


@PROPERTY
@given(seed=SEED)
def test_halfspace_corner_geometry(seed):
    rng = np.random.default_rng(seed)
    # three planes through one corner, in 3-D and (dependently) in 2-D
    for normals in (np.eye(3) + 0.2 * rng.standard_normal((3, 3)),
                    np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])):
        dim = normals.shape[1]
        c = ControlConstraint.halfspaces(normals, np.zeros(3))
        table = np.vstack([random_table(rng, dim, rows=8),
                           np.abs(random_table(rng, dim, rows=8)), np.zeros(dim)])
        assert_rows_match_reference(c, table)


def test_empty_halfspace_region_raises():
    c = ControlConstraint.halfspaces([[1.0], [-1.0]], [-1.0, -1.0])  # u <= -1 <= 1 <= u
    assert_rows_match_reference(c, np.array([[0.0], [2.0], [-2.0]]))


@PROPERTY
@given(seed=SEED)
def test_torus_geometry(seed):
    rng = np.random.default_rng(seed)
    c = ControlConstraint.torus()
    angles = rng.uniform(0.0, 2.0 * math.pi, 8)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    table = np.vstack([random_table(rng, 2, scale=3.0), np.zeros(2),
                       2.0 * ring, SQRT2 * ring,
                       [[2.0, 0.0], [0.0, -2.0], [SQRT2, 0.0], [0.0, -SQRT2]]])
    assert_rows_match_reference(c, table)


@PROPERTY
@given(seed=SEED, dim=DIM, terms=st.integers(1, 3))
def test_quadratics_geometry(seed, dim, terms):
    rng = np.random.default_rng(seed)
    c = ControlConstraint.quadratics(
        [{"quad": rng.standard_normal((dim, dim)).tolist(),
          "lin": rng.standard_normal(dim).tolist(),
          "const": float(rng.uniform(-2.0, 0.5))} for _ in range(terms)], dim)
    assert_rows_match_reference(c, random_table(rng, dim))


def test_unconstrained_geometry():
    rng = np.random.default_rng(3)
    assert_rows_match_reference(ControlConstraint.unconstrained(2),
                                random_table(rng, 2))


# ---------------------------------------------------------------------------
# the NC sweep against the node-by-node reference


def assert_same_nc(scenario, u, tree):
    _, _, _, hu = full_pipeline(scenario, u, tree)
    rep = check_pointwise_nc(scenario, u, tree, state=hu)
    ref = nc_sweep_oracle(scenario, u, tree, hu)
    assert rep.rows == ref.rows
    assert [type(v) for row in rep.rows for v in row] == \
        [type(v) for row in ref.rows for v in row]
    assert rep.worst_value == ref.worst_value
    assert rep.worst_location == ref.worst_location
    assert rep.trivial_fraction == ref.trivial_fraction
    assert rep.max_kkt_residual == ref.max_kkt_residual
    assert rep.sup_gradient == ref.sup_gradient
    return {row[3] for row in ref.rows}


def test_nc_matches_reference_unconstrained():
    s = load_scenario(fixture_path("lq"))
    tree = s.tree()
    rng = np.random.default_rng(5)
    u = AdaptedProcess([0.3 * rng.standard_normal((1 << i, 1))
                        for i in range(tree.N)])
    assert assert_same_nc(s, u, tree) == {"full"}


def test_nc_matches_reference_annulus():
    s = load_scenario(fixture_path("annulus"))
    tree = s.tree()
    rng = np.random.default_rng(7)
    noise = AdaptedProcess([0.4 * rng.standard_normal((1 << i, 2))
                            for i in range(tree.N)])
    u = (s.default_control(tree) + noise).map(s.constraint.project)
    assert assert_same_nc(s, u, tree) == {"full", "polyhedral"}


@pytest.mark.parametrize("normal, offset, kinds", [
    (1.0, 0.2, {"full"}),                 # test_halfspace_constrained_qp: u <= 0.2
    (-1.0, 1.0, {"full", "polyhedral"}),  # u >= -1 binds at some nodes
])
def test_nc_matches_reference_halfspace_qp_optimum(normal, offset, kinds):
    doc = json.loads(fixture_path("lq").read_text())
    doc["grid"]["N"] = 4
    doc["constraint"] = {"type": "halfspaces", "normals": [[normal]],
                         "offsets": [offset]}
    s = Scenario.from_json(doc)
    tree = s.tree()
    assert assert_same_nc(s, qp_oracle(s, tree).u_star, tree) == kinds
