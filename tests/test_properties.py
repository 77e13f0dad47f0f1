"""Property tests over random multi-dimensional scenarios.

Dimensions (n, m, l) are drawn from 1..3 and every coefficient matrix is
non-symmetric, so a kernel applied untransposed where the equations call
for its transpose shows up as a residual or a gap; at n = m = l = 1 it
cannot.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import gateaux_vs_hamiltonian, nc_sweep_oracle

from volterra_control.adjoint import adjoint_residuals
from volterra_control.lattice import AdaptedProcess
from volterra_control.scenario import Scenario
from volterra_control.verify import (
    check_duality_1, check_duality_2, check_pointwise_nc, control_pairing,
    degenerate_fbsde_check, evaluate_cost, feasible_direction, full_pipeline,
    smooth_duality_instance,
)

DIM = st.integers(1, 3)
DIMS = st.one_of(st.tuples(DIM, DIM, DIM), DIM.map(lambda d: (d, d, d)))
STEPS = st.integers(2, 5)
SEED = st.integers(0, 2 ** 32 - 1)
PROPERTY = settings(max_examples=25, deadline=None)


def random_scenario(dims, steps, seed, time_invariant=False, quadratic=False,
                    constraint=None):
    """Scenario with random non-symmetric coefficients, small enough for
    the implicit BSVIE steps to contract on a unit horizon; ``constraint``
    is the control region's JSON entry (unconstrained by default)."""
    n, m, l = dims
    rng = np.random.default_rng(seed)

    def mat(rows, cols, scale):
        return rng.uniform(-scale, scale, (rows, cols)).tolist()

    def vec(size, scale=0.3):
        return rng.uniform(-scale, scale, size).tolist()

    def kernel():
        if time_invariant:
            return {}
        return {"kappa": float(rng.uniform(0.0, 0.6)),
                "power": int(rng.integers(0, 3))}

    def coefficient(out, slots, scale):
        entry = {"kernel": kernel(), "const": vec(out)}
        for slot, size in slots.items():
            entry[slot] = mat(out, size, scale)
            if quadratic:
                entry[f"quad_{slot}"] = mat(out, size, 0.05)
        return entry

    psi = {"x": mat(m, n, 0.5), "const": vec(m)}
    if not time_invariant:
        psi["x_slope"] = mat(m, n, 0.2)
    doc = {
        "grid": {"T": 1.0, "N": steps},
        "dims": {"n": n, "m": m, "l": l},
        "coefficients": {
            "phi": {"const": vec(n, 1.0), "slope": vec(n), "brownian": vec(n)},
            "b": coefficient(n, {"x": n, "u": l}, 0.4),
            "sigma": coefficient(n, {"x": n, "u": l}, 0.3),
            "g": coefficient(m, {"x": n, "y": m, "z": m, "u": l}, 0.25),
            "psi": psi,
        },
        "cost": {
            "f": {"qx": mat(n, n, 1.0), "qy": mat(m, m, 0.5),
                  "qz": mat(m, m, 0.3), "qu": mat(l, l, 1.0), "lu": vec(l)},
            "h": {"qx": mat(n, n, 1.0), "x_target": vec(n),
                  "qy": mat(m, m, 0.5)},
        },
        "constraint": constraint or {"type": "unconstrained"},
        "seed": 0,
    }
    return Scenario.from_json(doc)


def random_control(tree, dim, rng, scale=1.0):
    return AdaptedProcess([scale * rng.standard_normal((1 << i, dim))
                           for i in range(tree.N)])


@PROPERTY
@given(dims=DIMS, steps=STEPS, seed=SEED, quadratic=st.booleans())
def test_adjoint_residuals_at_machine_precision(dims, steps, seed, quadratic):
    s = random_scenario(dims, steps, seed, quadratic=quadratic)
    tree = s.tree()
    u = random_control(tree, s.l, np.random.default_rng(seed), 0.3)
    _, _, bundle, _ = full_pipeline(s, u, tree)
    for name, val in adjoint_residuals(s, bundle, tree).items():
        assert val <= 1e-12, (name, val)


@PROPERTY
@given(dims=DIMS, steps=STEPS, seed=SEED)
def test_gateaux_centered_quotient_matches_pairing(dims, steps, seed):
    s = random_scenario(dims, steps, seed)
    tree = s.tree()
    rng = np.random.default_rng(seed)
    u = random_control(tree, s.l, rng, 0.3)
    v = random_control(tree, s.l, rng)
    rep = gateaux_vs_hamiltonian(s, u, v, [1e-3], tree)
    assert rep.gap(1e-3) <= 1e-8, (rep.gap(1e-3), rep.pairing)


@PROPERTY
@given(dims=DIMS, steps=STEPS, seed=SEED, quadratic=st.booleans())
def test_fbsde_reduction_gaps(dims, steps, seed, quadratic):
    s = random_scenario(dims, steps, seed, time_invariant=True,
                        quadratic=quadratic)
    tree = s.tree()
    u = random_control(tree, s.l, np.random.default_rng(seed), 0.3)
    for name, gap in degenerate_fbsde_check(s, u, tree).items():
        assert gap <= 1e-10, (name, gap)


@PROPERTY
@given(m=DIM, steps=STEPS, seed=SEED)
def test_transpose_mode_duality_gaps(m, steps, seed):
    inst = smooth_duality_instance(1.0, steps, m, seed=seed)
    assert abs(check_duality_1(inst, "transpose").gap) <= 1e-9
    assert abs(check_duality_2(inst, "transpose").gap) <= 1e-9


def random_region(kind, l, rng):
    """A ball, up to l halfspaces through a neighbourhood of the origin,
    or the torus (l = 2)."""
    if kind == "ball":
        return {"type": "ball", "center": rng.uniform(-0.3, 0.3, l).tolist(),
                "radius": float(rng.uniform(0.2, 1.0))}
    if kind == "halfspaces":
        rows = int(rng.integers(1, l + 1))
        return {"type": "halfspaces",
                "normals": rng.standard_normal((rows, l)).tolist(),
                "offsets": rng.uniform(0.0, 0.3, rows).tolist()}
    return {"type": "torus"}


@PROPERTY
@given(dims=DIMS, steps=STEPS, seed=SEED,
       kind=st.sampled_from(["ball", "halfspaces", "torus"]))
def test_nc_sweep_matches_oracle_on_constrained_regions(dims, steps, seed, kind):
    if kind == "torus":
        dims = dims[:2] + (2,)
    rng = np.random.default_rng(seed)
    s = random_scenario(dims, steps, seed,
                        constraint=random_region(kind, dims[2], rng))
    tree = s.tree()
    u = random_control(tree, s.l, rng, 1.5).map(s.constraint.project)
    _, _, _, hu = full_pipeline(s, u, tree)
    rep = check_pointwise_nc(s, u, tree, state=hu)
    ref = nc_sweep_oracle(s, u, tree, hu)
    assert rep.rows == ref.rows
    assert rep.worst_value == ref.worst_value
    assert rep.worst_location == ref.worst_location


@PROPERTY
@given(dims=DIMS, steps=STEPS, seed=SEED,
       kind=st.sampled_from(["ball", "halfspaces", "torus"]))
def test_gateaux_one_sided_quotient_on_constrained_regions(dims, steps, seed,
                                                          kind):
    if kind == "torus":
        dims = dims[:2] + (2,)
    rng = np.random.default_rng(seed)
    s = random_scenario(dims, steps, seed,
                        constraint=random_region(kind, dims[2], rng))
    tree = s.tree()
    u = random_control(tree, s.l, rng, 1.5).map(s.constraint.project)
    _, _, _, hu = full_pipeline(s, u, tree)
    j0 = evaluate_cost(s, u, tree)
    # an admissible direction: u + eps w is the nearest point to u + eps v;
    # u + (eps / 2) w is admissible on the convex regions and within
    # |eps w|^2 / 4 of the torus
    eps = 1e-5
    w = feasible_direction(s, u, random_control(tree, s.l, rng), eps)
    q = [(evaluate_cost(s, u + t * w, tree) - j0) / t for t in (eps, eps / 2)]
    # J is quadratic in u, so q(t) = <H_u, w> + t Q(w) / 2 and the
    # Richardson combination 2 q(eps / 2) - q(eps) is the pairing exactly
    pairing = control_pairing(tree, hu, w)
    assert abs(2.0 * q[1] - q[0] - pairing) <= 1e-8 * (1.0 + abs(j0)), (
        2.0 * q[1] - q[0], pairing)
