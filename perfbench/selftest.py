"""Self-test of the benchmark itself; run it from the repository root:

    python3 perfbench/selftest.py

Runs every workload at a tiny lattice and checks that

* the gate passes on the real result of an op;
* the gate fires on each deliberately corrupted result (a perturbed
  adjoint residual, a duality gap, a J* mismatch, a failed NC
  certificate, a max_iter stop, a non-finite value);
* a corrupted or raising op is counted as failed by the run loop;
* two traced passes give identical call counts, and tracing restores
  every wrapped library name;
* an op's time leaves out the reference work run inside it, and the
  reference timer is off after a run.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import signal
import sys
import time

import run

TINY_N = 4


def corruptions(workload, result):
    """(label, corrupted copy of result) pairs the gate must reject."""
    def patched(**changes):
        return dict(result, **changes)

    if workload.name == "lq-n14-solve":
        res = result["residuals"]
        return [("adjoint residual", patched(residuals=dict(res, xi=res["xi"] + 1e-9))),
                ("M-identity", patched(residuals=dict(res, m_identity=float("nan")))),
                ("cost", patched(cost=float("inf")))]
    if workload.name == "annulus-n8-optimize":
        return [("J* mismatch", patched(cost=result["cost"] * (1.0 + 1e-7))),
                ("NC certificate", patched(nc_worst=-2.0 * result["nc_tol"])),
                ("max_iter stop", patched(iterations=workload.MAX_ITER)),
                ("gradient map", patched(grad_map=1e-6))]
    return [("gap1", patched(gap1=result["gap1"] + 1e-8)),
            ("gap2", patched(gap2=float("nan")))]


class Corrupted:
    """A workload whose op returns a corrupted result, or raises."""

    def __init__(self, workload, result=None):
        self.result = result
        self.gate = workload.gate

    def op(self, k):
        if self.result is None:
            raise RuntimeError("deliberate failure")
        return self.result


def traced_objects(spans):
    """The library functions and methods the tracer wraps."""
    for module_name, attr, *_ in spans.SPANS + spans.COUNTS + [spans.FROZEN]:
        obj = sys.modules[f"{spans.PACKAGE}.{module_name}"]
        for part in attr.split("."):
            obj = getattr(obj, part)
        yield obj


def check(condition, message, errors):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        errors.append(message)


def check_reference(errors):
    reference = run.Reference()
    reference.runs = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
    check(reference.inside(1.5, 3.5) == 1.0 and reference.inside(6.0, 7.0) == 0.0,
          "reference: time inside an op interval", errors)

    class Slow:
        def op(self, k):
            end = time.perf_counter() + 4 * run.REF_PERIOD
            while time.perf_counter() < end:
                pass
            return {}

        def gate(self, result):
            return []

    reference = run.Reference()
    with reference.sampling():
        times, _, _ = run.run_ops(Slow(), count=1, reference=reference)
    # the op spans 4 periods of wall time whatever runs inside it
    check(len(reference.runs) >= 3 and times[0] < 4 * run.REF_PERIOD
          - 0.5 * sum(reference.times()),
          f"reference: runs inside an op are left out of its time "
          f"({len(reference.runs)} runs, op {times[0]:.3f} s)", errors)
    check(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
          and signal.getsignal(signal.SIGALRM) == signal.SIG_DFL,
          "reference: timer off after the run", errors)


def main() -> int:
    workloads = run.import_workloads()
    import spans
    from volterra_control import backward, verify
    errors = []
    for cls in workloads.WORKLOADS.values():
        workload = cls(steps=TINY_N)
        workload.setup(seed=0)
        result = workload.op(0)
        problems = workload.gate(result)
        check(not problems, f"{cls.name} N={TINY_N}: gate passes {problems}", errors)
        for label, bad in corruptions(workload, result):
            check(bool(workload.gate(bad)), f"{cls.name}: gate fires on {label}",
                  errors)
        bad = corruptions(workload, result)[0][1]
        for label, fake in (("corrupted", Corrupted(workload, bad)),
                            ("raising", Corrupted(workload))):
            _, failures, _ = run.run_ops(fake, count=2)
            check(len(failures) == 2, f"{cls.name}: {label} ops counted as failed",
                  errors)

        counts = []
        for _ in range(2):
            tracer = spans.Tracer()
            tracer.install()
            try:
                run.run_ops(workload, count=1, tracer=tracer)
            finally:
                tracer.restore()
            check(not tracer.missing, f"{cls.name}: every traced name exists "
                  f"{tracer.missing}", errors)
            metrics = spans.layer_metrics(tracer, workload.steps)
            counts.append({k: v for k, v in metrics.items()
                           if isinstance(v, int)})
        check(counts[0] == counts[1] and sum(counts[0].values()) > 0,
              f"{cls.name}: call counts repeat exactly", errors)
        check(verify.solve_bsvie is backward.solve_bsvie
              and not any(".wrapper" in obj.__qualname__
                          for obj in traced_objects(spans)),
              f"{cls.name}: library names restored after tracing", errors)
    check_reference(errors)
    print(f"selftest: {'PASS' if not errors else f'{len(errors)} FAILED'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
