"""Batch front-end: load a scenario, run one named experiment, emit
machine-readable reports.

Reports are JSON records plus CSV tables written to the output directory
under ``<command>-<hash>.{json,csv}`` where the hash digests the full run
configuration; identical configurations therefore produce byte-identical
files, and existing reports are never modified (append-only audit trail).

Exit codes: 0 pass, 1 check failure, 2 usage or scenario errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .lattice import MAX_EXACT_STEPS, AdaptedProcess, TimeGrid
from .scenario import Scenario, ScenarioError, load_scenario
from .verify import (
    check_duality_1, check_duality_2, check_pointwise_nc, convergence_test,
    degenerate_fbsde_check, evaluate_cost, projected_gradient,
    smooth_duality_instance, solve_state,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line, exit 2
        self.exit(2, f"usage error: {message}\n")


def _checked(kind, ok, wanted: str):
    """An argparse type: ``kind(text)`` if ``ok`` holds for it, else a
    usage error saying what was ``wanted``."""
    def parse(text):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"wanted {wanted}, got {text!r}")
    return parse


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="volterra-control",
        description="lattice experiments for Volterra control problems")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--N", type=_checked(int, lambda n: 1 <= n <= MAX_EXACT_STEPS,
                                        f"an integer in 1..{MAX_EXACT_STEPS}"),
                   default=None, help="override grid steps")
    # every existing part of the path must be a directory
    p.add_argument("--out", type=_checked(Path, lambda out: all(
                       a.is_dir() for a in (out, *out.parents) if a.exists()),
                       "a directory path"),
                   default="reports", help="report directory")
    p.add_argument("--seed", type=_checked(int, lambda n: n >= 0, "an integer >= 0"),
                   default=None, help="override the seed")
    p.add_argument("--tol", type=_checked(float, lambda x: math.isfinite(x) and x >= 0,
                                          "a finite number >= 0"),
                   default=None, help="override the pass/fail tolerance")
    p.add_argument("--mode", choices=("transpose", "continuum"),
                   default="transpose", help="duality convention")
    p.add_argument("--eps-sweep", type=_checked(int, lambda k: k >= 2, "an integer >= 2"),
                   default=6, help="perturbation sweep down to eps = 2^-k")
    return p


def _random_direction(scenario: Scenario, tree, seed: int) -> AdaptedProcess:
    rng = np.random.default_rng(seed)
    return AdaptedProcess([rng.standard_normal((1 << i, scenario.l))
                           for i in range(tree.N)])


def _run_simulate(scenario, tree, args, seed):
    u = scenario.default_control(tree)
    fwd, bwd = solve_state(scenario, u, tree)
    cost = evaluate_cost(scenario, u, tree, state=(fwd, bwd))
    rows = [(i, float(np.abs(fwd.X.level(i)).max()),
             float(np.abs(bwd.Y.level(i)).max())) for i in range(tree.N + 1)]
    report = {"cost": cost,
              "bsvie_diagonal_residual": bwd.residual_history[-1]}
    return 0, report, ("level", "sup_X", "sup_Y"), rows


def _run_check_duality(scenario, tree, args, seed):
    inst = smooth_duality_instance(tree.grid.horizon, tree.N, scenario.m, seed)
    r1 = check_duality_1(inst, args.mode)
    r2 = check_duality_2(inst, args.mode)
    tol = args.tol if args.tol is not None else (
        1e-9 if args.mode == "transpose" else tree.dt)
    passed = abs(r1.gap) <= tol and abs(r2.gap) <= tol
    report = {"mode": args.mode, "tolerance": tol,
              "identity1": {"lhs": r1.lhs, "rhs": r1.rhs, "gap": r1.gap},
              "identity2": {"lhs": r2.lhs, "rhs": r2.rhs, "gap": r2.gap},
              "passed": passed}
    rows = [("identity1", r1.lhs, r1.rhs, r1.gap),
            ("identity2", r2.lhs, r2.rhs, r2.gap)]
    return (0 if passed else 1), report, ("identity", "lhs", "rhs", "gap"), rows


def _nc_verdict(scenario, rep, args):
    tol = args.tol if args.tol is not None else scenario.tolerances.nc_tol
    scale_tol = tol * (1.0 + rep.sup_gradient)
    return scale_tol, rep.certified(scale_tol)


def _run_check_nc(scenario, tree, args, seed):
    rep = check_pointwise_nc(scenario, scenario.default_control(tree), tree)
    scale_tol, passed = _nc_verdict(scenario, rep, args)
    report = dict(rep.to_json(), tolerance=scale_tol, passed=passed)
    return (0 if passed else 1), report, (
        "level", "node", "minValue", "cone_kind"), rep.rows


def _run_optimize(scenario, tree, args, seed):
    u0 = scenario.default_control(tree)
    u_star, history = projected_gradient(scenario, u0, tree=tree)
    rep = check_pointwise_nc(scenario, u_star, tree)
    scale_tol, passed = _nc_verdict(scenario, rep, args)
    report = {"initial_cost": history[0], "final_cost": history[-1],
              "iterations": len(history) - 1,
              "nc": rep.to_json(), "tolerance": scale_tol, "passed": passed}
    rows = [(k, val) for k, val in enumerate(history)]
    return (0 if passed else 1), report, ("iteration", "cost"), rows


def _run_converge(scenario, tree, args, seed):
    u = scenario.default_control(tree)
    v = _random_direction(scenario, tree, seed)
    eps = [2.0 ** -k for k in range(1, args.eps_sweep + 1)]
    rep = convergence_test(scenario, u, v, eps, tree)
    passed = rep.monotone()
    report = {"eps": rep.eps, "err_x": rep.err_x, "err_yz": rep.err_yz,
              "slope_x": rep.slope("x"), "slope_yz": rep.slope("yz"),
              "monotone": passed, "passed": passed}
    rows = list(zip(rep.eps, rep.err_x, rep.err_yz))
    return (0 if passed else 1), report, ("eps", "err_x", "err_yz"), rows


def _run_degenerate(scenario, tree, args, seed):
    if not scenario.coeffs.time_invariant:
        raise ScenarioError(
            "degenerate-fbsde needs a time-invariant scenario "
            "(constant kernels, no psi time slope)")
    u = scenario.default_control(tree)
    gaps = degenerate_fbsde_check(scenario, u, tree)
    tol = args.tol if args.tol is not None else 1e-10
    passed = all(g <= tol for g in gaps.values())
    report = dict(gaps, tolerance=tol, passed=passed)
    rows = sorted(gaps.items())
    return (0 if passed else 1), report, ("check", "gap"), rows


# command -> runner(scenario, tree, args, seed) -> (code, report, header, rows)
COMMANDS = {"simulate": _run_simulate, "check-duality": _run_check_duality,
            "check-nc": _run_check_nc, "optimize": _run_optimize,
            "converge": _run_converge, "degenerate-fbsde": _run_degenerate}


def _write_reports(out_dir: Path, command: str, config: dict, report: dict,
                   header, rows) -> Path:
    canon = json.dumps(config, sort_keys=True)
    digest = hashlib.sha256(canon.encode()).hexdigest()[:12]
    out_dir.mkdir(parents=True, exist_ok=True)
    base = out_dir / f"{command}-{digest}"
    payload = json.dumps({"config": config, "report": report},
                         sort_keys=True, indent=2, allow_nan=False) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    for path, text in ((base.with_suffix(".json"), payload),
                       (base.with_suffix(".csv"), buf.getvalue())):
        if not path.exists():  # reports are append-only
            path.write_text(text)
    return base.with_suffix(".json")


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        scenario = load_scenario(args.scenario)
        if args.N is not None:
            scenario = dataclasses.replace(
                scenario, grid=TimeGrid(scenario.grid.horizon, args.N))
        seed = args.seed if args.seed is not None else scenario.seed
        code, report, header, rows = COMMANDS[args.command](
            scenario, scenario.tree(), args, seed)
        config = {
            "command": args.command,
            "scenario": scenario.to_json(),
            "overrides": {"N": args.N, "seed": args.seed, "tol": args.tol,
                          "mode": args.mode, "eps_sweep": args.eps_sweep},
        }
        # a non-finite report value fails the run instead of writing NaN
        path = _write_reports(args.out, args.command, config, report,
                              header, rows)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    status = "PASS" if code == 0 else "FAIL"
    print(f"{args.command}: {status} -> {path}")
    for key in ("cost", "final_cost"):
        if key in report:
            print(f"  {key} = {report[key]:.12g}")
    if "identity1" in report:
        print(f"  gap1 = {report['identity1']['gap']:.3e}  "
              f"gap2 = {report['identity2']['gap']:.3e}")
    if "worst_value" in report:
        print(f"  worst minValue = {report['worst_value']:.3e}")
    return code


if __name__ == "__main__":
    sys.exit(main())
