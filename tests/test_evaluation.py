"""Each catalog coefficient is evaluated once per level: the forward sweep
and the BSVIE build the state bracket of a level once and scale it by the
kernel per time pair, and constant jacobians are built once per (object,
slot, grid) as a table that the adjoint layer reads as families.  Both
must give the bits of the per-pair evaluation.  The
forward sweep, the BSVIE and the linear backward family advance their
rows as one row stack per level; each must give the bits of its
row-by-row solve."""

import dataclasses
import gc
import json

import numpy as np
import pytest

from oracles import per_pair_bsvie, per_pair_forward, per_row_linear_backward

from volterra_control import cli
from volterra_control import scenario as scenario_module
from volterra_control.adjoint import (FrozenCoefficients, _pq_kernels, _pq_rows,
                                      adjoint_residuals, assemble_adjoint,
                                      hamiltonian_gradient, solve_fredholm)
from volterra_control.backward import kernel_sum, solve_bsvie, solve_linear_backward
from volterra_control.forward import ForwardPath, simulate_forward
from volterra_control.lattice import AdaptedProcess, ScaledMatrix
from volterra_control.scenario import Scenario, fixture_path, load_scenario
from volterra_control.verify import (check_duality_1, check_duality_2, smooth_duality_instance,
                                     solve_variational)

from test_scenario import FIXTURES

STEPS = 6


def _control(s, tree, seed=3):
    """A random admissible control: base control plus noise, projected."""
    rng = np.random.default_rng(seed)
    base = s.base_control()
    return AdaptedProcess([s.constraint.project(
        base + 0.3 * rng.standard_normal((1 << i, s.l))) for i in range(tree.N)])


def _equal_levels(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _bundle_fields(bundle):
    """Every array of an adjoint bundle, by name."""
    pq = bundle.pq
    return {"lambda0 and Lambda": bundle.lam.levels, "xi and its runs": bundle.xi.levels,
            "theta": [bundle.theta], "p": pq.Y.levels, "q": pq.Z.levels,
            "p runs": pq.levels, "mu": pq.mu.levels, "nu": pq.nu.levels}


@pytest.mark.parametrize("name", FIXTURES)
def test_states_have_the_bits_of_per_pair_evaluation(name):
    s = load_scenario(fixture_path(name))
    tree = s.tree(STEPS)
    u = _control(s, tree)
    fwd = simulate_forward(s, u, tree)
    assert _equal_levels(fwd.X.levels, per_pair_forward(s, u, tree).levels)
    bwd = solve_bsvie(s, fwd, u, tree)
    ref = per_pair_bsvie(s, fwd, u, tree)
    assert _equal_levels(bwd.Y.levels, ref.Y.levels)
    assert _equal_levels(bwd.Z.levels, ref.Z.levels)
    assert bwd.residual_history == ref.residual_history


@pytest.mark.parametrize("name", FIXTURES)
def test_adjoint_bundle_has_the_bits_of_fresh_jacobians(name):
    # reference: per-pair states and a scenario whose jacobians are all
    # built for this bundle; change: the solvers' states, and the second
    # bundle on one scenario, which reads every constant jacobian back
    ref_s = load_scenario(fixture_path(name))
    tree = ref_s.tree(STEPS)
    u = _control(ref_s, tree)
    ref_fwd = ForwardPath(X=per_pair_forward(ref_s, u, tree), u=u)
    ref_bwd = per_pair_bsvie(ref_s, ref_fwd, u, tree)
    ref = assemble_adjoint(ref_s, ref_fwd, ref_bwd, u, tree)
    ref_hu = hamiltonian_gradient(ref_s, ref, ref_fwd, ref_bwd, u, tree)

    s = load_scenario(fixture_path(name))
    fwd = simulate_forward(s, u, tree)
    bwd = solve_bsvie(s, fwd, u, tree)
    assemble_adjoint(s, fwd, bwd, u, tree)
    bundle = assemble_adjoint(s, fwd, bwd, u, tree)
    hu = hamiltonian_gradient(s, bundle, fwd, bwd, u, tree)
    for field, levels in _bundle_fields(bundle).items():
        assert _equal_levels(levels, _bundle_fields(ref)[field]), field
    assert _equal_levels(hu.levels, ref_hu.levels)


def _same_linear_solution(got, ref):
    assert _equal_levels(got.Y.levels, ref.Y.levels)
    assert _equal_levels(got.Z.levels, ref.Z.levels)
    assert _equal_levels(got.levels, ref.levels)
    for name in ("mu", "nu"):
        a, b = getattr(got, name), getattr(ref, name)
        assert (a is None and b is None) or _equal_levels(a.levels, b.levels), name


@pytest.mark.parametrize("mode", ["transpose", "continuum"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_linear_backward_has_the_bits_of_the_row_by_row_solve(m, mode):
    # both solves of the duality checks: the family with theta and its B
    # coupling (diagonal B term in continuum mode), and the C-adapted one
    inst = smooth_duality_instance(1.0, STEPS, m, seed=m)
    tree = inst.tree
    for rows, kernels in (
            ([[row] for row in inst.psi_rows],
             {"A": inst.A, "B": inst.B, "D": inst.D, "theta": inst.theta,
              "include_diag_B": mode == "continuum"}),
            ([[row] for row in inst.psi_tilde_rows], {"A": inst.A_tilde, "D": inst.D})):
        _same_linear_solution(solve_linear_backward(tree, rows, **kernels),
                              per_row_linear_backward(tree, rows, **kernels))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_free_terms_on_their_own_level_have_the_bits_of_the_row_by_row_solve(m):
    # each row's free terms [level-i part, leaf part] join its run on their
    # own levels, as in the row-by-row solve; summed at the leaves first,
    # they give the same rows up to rounding
    inst = smooth_duality_instance(1.0, STEPS, m, seed=m)
    tree = inst.tree
    rows = [[tree.cond_expect(inst.psi_tilde_rows[i], i), inst.psi_rows[i]]
            for i in range(tree.N)]
    kernels = {"A": inst.A, "B": inst.B, "D": inst.D, "theta": inst.theta}
    got = solve_linear_backward(tree, rows, **kernels)
    _same_linear_solution(got, per_row_linear_backward(tree, rows, **kernels))
    at_leaves = solve_linear_backward(
        tree, [[tree.level_sum(terms, tree.N)] for terms in rows], **kernels)
    for a, b in zip(got.levels + got.Z.levels + got.mu.levels + got.nu.levels,
                    at_leaves.levels + at_leaves.Z.levels + at_leaves.mu.levels
                    + at_leaves.nu.levels):
        assert np.abs(a - b).max() <= 1e-14


def _between_levels_B(tree, m, seed, boundary_at_row):
    """A B kernel whose value B(i, j) sits on a level strictly between i and
    j when j >= i + 2 (on level j when j = i + 1, on level i when j = i);
    B(i, N) sits on level N, or on level i with ``boundary_at_row``."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-0.6, 0.6, (tree.N + 1, tree.N + 1, m, m))
    scales = [1.0 + 0.3 * np.tanh(tree.w(k)) for k in range(tree.N + 1)]

    def kernel(i, j):
        if j == tree.N:
            level = i if boundary_at_row else tree.N
        else:
            level = (i + j + 1) // 2
        return ScaledMatrix(scales[level], base[i, j])
    return kernel


@pytest.mark.parametrize("boundary_at_row", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_b_between_levels_has_the_bits_of_the_row_by_row_solve(m, boundary_at_row):
    # each B(i, j) Z(j, i) term joins row i's run on its own level, between
    # the row's diagonal and the leaves; the duality pair stays exact
    inst = smooth_duality_instance(1.0, STEPS, m, seed=m)
    inst = dataclasses.replace(inst, B=_between_levels_B(inst.tree, m, 10 + m, boundary_at_row))
    rows = [[row] for row in inst.psi_rows]
    for diag_B in (False, True):
        kernels = {"A": inst.A, "B": inst.B, "D": inst.D, "theta": inst.theta,
                   "include_diag_B": diag_B}
        _same_linear_solution(solve_linear_backward(inst.tree, rows, **kernels),
                              per_row_linear_backward(inst.tree, rows, **kernels))
    assert abs(check_duality_1(inst, "transpose").gap) <= 1e-13
    assert abs(check_duality_2(inst, "transpose").gap) <= 1e-13


@pytest.mark.parametrize("name", FIXTURES)
def test_adjoint_pq_has_the_bits_of_the_row_by_row_solve(name):
    s = load_scenario(fixture_path(name))
    tree = s.tree(STEPS)
    u = _control(s, tree)
    fwd = simulate_forward(s, u, tree)
    bundle = assemble_adjoint(s, fwd, solve_bsvie(s, fwd, u, tree), u, tree)
    assert all(_equal_levels(a, b) for a, b in zip(bundle.F, _pq_rows(
        tree, bundle.frozen, bundle.lam, bundle.xi.levels[-1])))
    ref = per_row_linear_backward(tree, bundle.F, **_pq_kernels(bundle.frozen, bundle.theta))
    _same_linear_solution(bundle.pq, ref)


def test_forward_builds_each_bracket_once_per_level(monkeypatch):
    s = load_scenario(fixture_path("lq"))
    tree = s.tree(STEPS)
    calls = {"bracket": [], "value": []}
    cls = scenario_module.AffineCoefficient
    for method in calls:
        def counted(self, *args, _method=getattr(cls, method), _log=calls[method],
                    **kwargs):
            _log.append(self.name)
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(cls, method, counted)
    simulate_forward(s, _control(s, tree), tree)
    assert sorted(calls["bracket"]) == ["b"] * STEPS + ["sigma"] * STEPS
    assert calls["value"] == []  # not N(N+1)/2 per-pair evaluations


def test_constant_jacobians_built_once_across_runs(monkeypatch):
    calls, jacobians = [], []

    def counted(self, t, s, _call=scenario_module.Kernel.__call__):
        calls.append((t, s))
        return _call(self, t, s)
    monkeypatch.setattr(scenario_module.Kernel, "__call__", counted)
    for cls in (scenario_module.AffineCoefficient, scenario_module.TerminalMap):
        def counted_jacobian(self, *args, _jacobian=cls.jacobian, **kwargs):
            jacobians.append(self.name)
            return _jacobian(self, *args, **kwargs)
        monkeypatch.setattr(cls, "jacobian", counted_jacobian)
    s = load_scenario(fixture_path("lq_multi"))  # affine: every jacobian constant
    tree = s.tree(STEPS)
    u = _control(s, tree)
    fwd = simulate_forward(s, u, tree)
    bwd = solve_bsvie(s, fwd, u, tree)
    first = assemble_adjoint(s, fwd, bwd, u, tree).frozen
    # one table of k(t_i, t_j) per kernel (b, sigma, g), made by __call__
    assert len(calls) == 3 * (tree.N + 1) ** 2
    # no matrix is made pair by pair: only the cost gradients depend on the state
    assert jacobians == []
    tables = {name: dict(obj._grids) for name, obj in s.catalog.items()
              if hasattr(obj, "grid_jacobians")}
    assert all(tables.values())
    second = assemble_adjoint(s, fwd, bwd, u, tree).frozen
    assert len(calls) == 3 * (tree.N + 1) ** 2
    for name, made in tables.items():
        grids = s.catalog[name]._grids
        assert grids.keys() == made.keys()
        assert all(grids[key] is table for key, table in made.items())
    assert np.shares_memory(first.family("g", "y", slice(0, 3), 3),
                            second.family("g", "y", 2, slice(2, 5)))


def test_state_dependent_jacobians_are_made_on_each_read_with_the_same_bits():
    # coupled: g is quadratic in x and y and b in u, so these jacobians have
    # no family; nothing stores them, and a second read repeats the first
    s = load_scenario(fixture_path("coupled"))
    tree = s.tree(STEPS)
    u = _control(s, tree)
    fwd = simulate_forward(s, u, tree)
    fro = FrozenCoefficients(s, tree, fwd, solve_bsvie(s, fwd, u, tree), u)
    for name, slot in (("g", "x"), ("g", "y"), ("b", "u")):
        assert fro.family(name, slot, 0, slice(0, tree.N)) is None
        for i in range(tree.N):
            for j in range(i, tree.N):
                first, second = fro.d(name, slot, i, j), fro.d(name, slot, i, j)
                assert first is not second, (name, slot, i, j)
                assert first.tobytes() == second.tobytes(), (name, slot, i, j)


def test_solve_leaves_json_and_report_hash_unchanged(tmp_path):
    path = fixture_path("lq")
    s = load_scenario(path)
    before = json.dumps(s.to_json(), sort_keys=True)
    tree = s.tree(STEPS)
    u = _control(s, tree)
    fwd = simulate_forward(s, u, tree)
    bwd = solve_bsvie(s, fwd, u, tree)
    assemble_adjoint(s, fwd, bwd, u, tree)
    assert s.coeffs.b._grids and s.coeffs.psi._grids  # the tables are in use
    assert json.dumps(s.to_json(), sort_keys=True) == before
    # the CLI hashes its configuration after the run: the scenario part
    # must be that of a scenario never solved
    assert cli.main(["optimize", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads(next(tmp_path.glob("optimize-*.json")).read_text())
    assert json.dumps(report["config"]["scenario"], sort_keys=True) == before


def test_kernel_variants_never_share_a_jacobian():
    # two scenarios that differ only in b.kernel.kappa, both solved in one
    # process: each reads its own kernel into its jacobians
    doc = json.loads(fixture_path("lq").read_text())
    tree = Scenario.from_json(doc).tree(4)
    corner = {}
    for kappa in (0.0, 0.7):
        doc["coefficients"]["b"]["kernel"] = {"kappa": kappa}
        s = Scenario.from_json(doc)
        u = _control(s, tree)
        fwd = simulate_forward(s, u, tree)
        fro = assemble_adjoint(s, fwd, solve_bsvie(s, fwd, u, tree), u, tree).frozen
        b = s.coeffs.b
        for i in range(1, tree.N + 1):
            for j in range(i):
                expected = b.kernel(tree.t(i), tree.t(j)) * b.matrices["x"]
                assert np.array_equal(fro.d("b", "x", i, j).matrix, expected), kappa
        corner[kappa] = fro.d("b", "x", tree.N, 0).matrix
    assert not np.array_equal(corner[0.0], corner[0.7])
    # coefficients made and freed in turn, so that a freed object's id
    # comes back (an id-keyed memo would hand out a stale jacobian)
    for k in range(12):
        b = scenario_module.AffineCoefficient.from_json(
            "b", 1, {"x": 1}, {"kernel": {"kappa": 0.9 * (k % 3)}, "x": [[0.3]]})
        jac = b.grid_jacobians("x", tree)
        assert np.array_equal(jac[3, 1], b.kernel(tree.t(3), tree.t(1)) * b.matrices["x"]), k
        del b, jac


def test_tables_have_the_bits_of_the_kernel_and_the_jacobian():
    doc = json.loads(fixture_path("lq_multi").read_text())
    doc["coefficients"]["g"]["kernel"] = {"scale": 1.3, "kappa": 0.7, "power": 2}
    s = Scenario.from_json(doc)
    tree = s.tree(5)
    t = [tree.t(i) for i in range(tree.N + 1)]
    for c in (s.coeffs.b, s.coeffs.sigma, s.coeffs.g, s.coeffs.psi):
        kernel = getattr(c, "kernel", None)
        if kernel is not None:
            table = kernel.on_grid(tree)
            assert table is kernel.on_grid(s.tree(5))  # once per grid
            assert all(table[i, j] == kernel(t[i], t[j])  # lags of both signs
                       for i in range(tree.N + 1) for j in range(tree.N + 1))
        for slot in c.constant_slots:
            jacobians = c.grid_jacobians(slot, tree)
            assert jacobians is c.grid_jacobians(slot, s.tree(5))
            for i in range(tree.N + 1):
                for j in range(tree.N + 1):
                    expected = (c.matrix(t[i]) if kernel is None
                                else kernel(t[i], t[j]) * c.matrices[slot])
                    assert np.array_equal(jacobians[i, j], expected), (c.name, slot)
    assert s.coeffs.psi.time_invariant is False  # P + t P' moves along the rows
    assert json.dumps(s.to_json(), sort_keys=True) == json.dumps(
        Scenario.from_json(doc).to_json(), sort_keys=True)


@pytest.mark.parametrize("name", FIXTURES)
def test_families_have_the_bits_of_the_per_pair_path(name, monkeypatch):
    # every fixture solved twice on one state: with the families, and with
    # every jacobian served pair by pair (``family`` patched to None); on
    # quadratic and coupled b_u depend on the state (on coupled g_x and
    # g_y too), so X1 and H_u take the per-pair path for them beside the
    # families.  theta and the F rows add a column
    # of products (``kernel_sum``): one GEMM with a family, the ordered sum
    # of the per-pair products without, which round apart.  So each run's
    # sums are held to their own path, and the per-pair run's (p, q) solve,
    # H_u and checks are fed the family run's theta and F rows.
    s = load_scenario(fixture_path(name))
    tree = s.tree(STEPS)
    N = tree.N
    u = _control(s, tree)
    fwd = simulate_forward(s, u, tree)
    bwd = solve_bsvie(s, fwd, u, tree)
    v = _control(s, tree, seed=5)

    def run(per_pair):
        bundle = assemble_adjoint(s, fwd, bwd, u, tree)
        fro, xi = bundle.frozen, bundle.xi.levels[-1]
        columns = [("psi", range(N), N)] + [("g", range(i + 1), i) for i in range(N)]
        for obj, rows, j in columns:  # theta's sum, then each F row's
            stack = xi[..., :rows.stop]
            got = kernel_sum(tree, fro.kernel(obj, "x"), rows, j, stack)
            family = fro.family(obj, "x", slice(0, rows.stop), j)
            want = (tree.level_sum([tree.tmatvec(fro.d(obj, "x", k, j), stack[..., k])
                                    for k in rows], N) if family is None else
                    tree.tmatvec_sum(family, stack))
            assert np.array_equal(got, want), (obj, j)
            if obj == "psi":
                assert np.array_equal(bundle.theta, fro.d("h", "x", 0, N) + tree.tmatvec(
                    fro.d("psi", "x", 0, N), bundle.lambda0) + tree.dt * got)
            else:
                assert _equal_levels(bundle.F[j], [
                    fro.d("f", "x", 0, j) + tree.tmatvec(fro.d("g", "x", 0, j),
                                                         bundle.lam.cond_exp(0, j)),
                    tree.dt * got]), j
        return bundle, solve_variational(s, fwd, bwd, u, v, tree)

    bundle, var = run(per_pair=False)
    hu = hamiltonian_gradient(s, bundle, fwd, bwd, u, tree)
    res = adjoint_residuals(s, bundle, tree)
    families = bundle.frozen.family("b", "u", slice(0, 2), 2)
    assert (families is None) == (name in ("quadratic", "coupled"))
    monkeypatch.setattr(FrozenCoefficients, "family", lambda self, *pair: None)
    ref, ref_var = run(per_pair=True)
    for a, b in zip([ref.theta] + sum(ref.F, []), [bundle.theta] + sum(bundle.F, [])):
        assert np.all(np.abs(a - b) <= 1e-14 * (1.0 + np.abs(b)))
    pq = solve_linear_backward(tree, bundle.F, **_pq_kernels(ref.frozen, bundle.theta))
    ref = dataclasses.replace(ref, theta=bundle.theta, F=bundle.F, pq=pq)
    for field, levels in _bundle_fields(bundle).items():
        assert _equal_levels(levels, _bundle_fields(ref)[field]), field
    assert _equal_levels(hu.levels, hamiltonian_gradient(s, ref, fwd, bwd, u, tree).levels)
    # the checks that do not re-derive theta, the lambda(0) check among them
    ref_res = adjoint_residuals(s, ref, tree)
    assert all(ref_res[key] == res[key] for key in ("lambda0", "xi", "m_identity"))
    for got, want in zip(var, ref_var):  # X1, Y1, Z1
        assert _equal_levels(got.levels, want.levels)


class _TableKernel:
    """A constant kernel read off an (N + 1, N + 1, m, m) table, pair by
    pair or as a family."""

    def __init__(self, table):
        self.table = table

    def __call__(self, i, j):
        return ScaledMatrix(None, self.table[i, j])

    def family(self, i, j):
        return self.table[i, j]


@pytest.mark.parametrize("mode", ["transpose", "continuum"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_duality_solves_have_the_bits_of_the_per_pair_path(m, mode):
    # the duality solvers with constant kernels, given as families and as
    # the plain callables of the per-pair path
    inst = smooth_duality_instance(1.0, STEPS, m, seed=m)
    tree = inst.tree
    rng = np.random.default_rng(m)
    tables = {key: rng.uniform(-0.6, 0.6, (tree.N + 1, tree.N + 1, m, m))
              for key in "ABD"}
    solved = []
    for kernels in ({key: _TableKernel(table) for key, table in tables.items()},
                    {key: (lambda i, j, table=table: ScaledMatrix(None, table[i, j]))
                     for key, table in tables.items()}):
        xi = solve_fredholm(tree, inst.alpha, beta=inst.beta,
                            include_diag_A=(mode == "transpose"), **kernels)
        bwd = solve_linear_backward(tree, [[row] for row in inst.psi_rows], theta=inst.theta,
                                    include_diag_B=(mode == "continuum"), **kernels)
        solved.append((xi, bwd))
    (xi, bwd), (ref_xi, ref_bwd) = solved
    assert _equal_levels(xi.levels, ref_xi.levels)
    _same_linear_solution(bwd, ref_bwd)
