"""The three benchmark workloads.

Each workload is the library-call sequence of one CLI command, driven
through the public API with inputs generated here from the benchmark
seed.  A workload object has

* ``setup(seed)``: load the fixture, build the tree and generate a pool
  of inputs (everything ``setup_s`` measures after the imports);
* ``op(k)``: one timed operation on input ``k % POOL``; returns a dict of
  the values its gate needs;
* ``gate(result)``: the correctness checks of one op, as a list of
  failure messages (empty when the op is correct);
* ``trace_ops``: the fixed op count of a traced run, and ``warmup_ops``,
  the untimed ops before an untraced run times (none where one op takes
  seconds).

The gates are what make a faster but wrong change fail instead of
passing as faster.  Their tolerances are pinned here.
"""

from __future__ import annotations

import math

import numpy as np

from volterra_control import adjoint, scenario, verify
from volterra_control.lattice import AdaptedProcess

# Inputs generated per run; op k uses input k % POOL.
POOL = 8


class LqSolve:
    """``simulate`` plus ``check-nc`` on the lq fixture at the largest
    exact lattice: state solve, adjoint, Hamiltonian gradient, cost, the
    pointwise NC sweep and the adjoint-residual gate."""

    name = "lq-n14-solve"
    CONTROL_SCALE = 0.3
    RESIDUAL_TOL = 1e-12
    trace_ops = 4
    warmup_ops = 1

    def __init__(self, steps: int = 14):
        self.steps = steps

    def setup(self, seed: int) -> None:
        self.scenario = scenario.load_scenario(scenario.fixture_path("lq"))
        self.tree = self.scenario.tree(self.steps)
        rng = np.random.default_rng(seed)
        self.controls = [
            AdaptedProcess([self.CONTROL_SCALE
                            * rng.standard_normal((1 << i, self.scenario.l))
                            for i in range(self.tree.N)])
            for _ in range(POOL)]

    def op(self, k: int) -> dict:
        s, tree, u = self.scenario, self.tree, self.controls[k % POOL]
        fwd, bwd, bundle, hu = verify.full_pipeline(s, u, tree)
        cost = verify.evaluate_cost(s, u, tree, state=(fwd, bwd))
        nc = verify.check_pointwise_nc(s, u, tree, state=hu)
        return {"cost": cost, "nc_worst": nc.worst_value,
                "residuals": adjoint.adjoint_residuals(s, bundle, tree)}

    def gate(self, result: dict) -> list:
        failures = [f"adjoint residual {name} = {val:.3e} > {self.RESIDUAL_TOL:g}"
                    for name, val in result["residuals"].items()
                    if not val <= self.RESIDUAL_TOL]
        for key in ("cost", "nc_worst"):
            if not math.isfinite(result[key]):
                failures.append(f"{key} is not finite: {result[key]}")
        return failures


class AnnulusOptimize:
    """``optimize`` on the annulus fixture (torus control region): the
    projected gradient run to its stop, then the NC certificate at u*."""

    name = "annulus-n8-optimize"
    NOISE = 0.1
    STEP = 0.5
    MAX_ITER = 200
    GRAD_TOL = 1e-9
    # Optimal cost recorded from the library when the benchmark was added;
    # every start in the noise ball converges to the same stationary control.
    J_REF = {4: 0.963027842734535, 8: 0.925092881795787}
    J_RTOL = 1e-9
    trace_ops = 1
    warmup_ops = 0

    def __init__(self, steps: int = 8):
        self.steps = steps

    def setup(self, seed: int) -> None:
        self.scenario = scenario.load_scenario(scenario.fixture_path("annulus"))
        self.tree = self.scenario.tree(self.steps)
        base = self.scenario.default_control(self.tree)
        rng = np.random.default_rng(seed)
        self.starts = [
            self._project(base + AdaptedProcess([
                self.NOISE * rng.standard_normal((1 << i, self.scenario.l))
                for i in range(self.tree.N)]))
            for _ in range(POOL)]

    def _project(self, u: AdaptedProcess) -> AdaptedProcess:
        project = self.scenario.constraint.project
        return AdaptedProcess([np.array([project(row) for row in u.level(j)])
                               for j in range(u.last_level + 1)])

    def op(self, k: int) -> dict:
        s, tree = self.scenario, self.tree
        u_star, history = verify.projected_gradient(
            s, self.starts[k % POOL], step=self.STEP, max_iter=self.MAX_ITER,
            grad_tol=self.GRAD_TOL, tree=tree)
        _, _, _, hu = verify.full_pipeline(s, u_star, tree)
        nc = verify.check_pointwise_nc(s, u_star, tree, state=hu)
        # the quantity projected_gradient stops on, re-evaluated at u*
        grad_map = (self._project(u_star + (-self.STEP) * hu)
                    - u_star).sup_norm() / self.STEP
        return {"cost": history[-1], "iterations": len(history) - 1,
                "grad_map": grad_map, "nc_worst": nc.worst_value,
                "nc_tol": s.tolerances.nc_tol * (1.0 + nc.sup_gradient)}

    def gate(self, result: dict) -> list:
        failures = []
        if not result["nc_worst"] >= -result["nc_tol"]:
            failures.append(f"NC certificate fails: worst {result['nc_worst']:.3e}"
                            f" < -{result['nc_tol']:.3e}")
        if not result["iterations"] < self.MAX_ITER:
            failures.append(f"stopped at max_iter = {self.MAX_ITER}")
        if not result["grad_map"] < self.GRAD_TOL:
            failures.append(f"gradient map {result['grad_map']:.3e} at u* is "
                            f"not below grad_tol {self.GRAD_TOL:g}")
        ref = self.J_REF.get(self.steps)
        if ref is None:
            failures.append(f"no reference J* recorded for N = {self.steps}")
        elif not abs(result["cost"] - ref) <= self.J_RTOL * (1.0 + abs(ref)):
            failures.append(f"J* = {result['cost']!r} differs from the "
                            f"reference {ref!r}")
        return failures


class Duality:
    """``check-duality`` in transpose mode: a smooth 2x2 instance, then
    both duality identities, each gap gated at 1e-9."""

    name = "duality-n14-m2"
    HORIZON = 1.0
    DIM = 2
    GAP_TOL = 1e-9
    trace_ops = 5
    warmup_ops = 1

    def __init__(self, steps: int = 14):
        self.steps = steps

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.instance_seeds = [int(x) for x in rng.integers(0, 2 ** 31, POOL)]

    def op(self, k: int) -> dict:
        inst = verify.smooth_duality_instance(
            self.HORIZON, self.steps, self.DIM, seed=self.instance_seeds[k % POOL])
        return {"gap1": verify.check_duality_1(inst, "transpose").gap,
                "gap2": verify.check_duality_2(inst, "transpose").gap}

    def gate(self, result: dict) -> list:
        return [f"duality {key} = {result[key]:.3e} exceeds {self.GAP_TOL:g}"
                for key in ("gap1", "gap2")
                if not abs(result[key]) <= self.GAP_TOL]


WORKLOADS = {cls.name: cls for cls in (LqSolve, AnnulusOptimize, Duality)}
