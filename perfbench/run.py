"""Benchmark entry point.  Run it from the repository root:

    python3 perfbench/run.py --workload lq-n14-solve --seed 1 --seconds 35 --trace 0

``--trace 0`` times ops of one workload for ``--seconds`` seconds and
reports the end-to-end metrics.  While it times, a fixed reference work
that does not use the library runs every REF_PERIOD seconds, and op time
is reported relative to it, so that the host's speed phases cancel.
``--trace 1`` runs the workload's fixed number of ops untraced, then the
same ops traced, and reports the per-layer metrics (a fixed op count
keeps every call count repeatable).
Every op is checked by its workload's correctness gate.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; metric names and units
are those of BENCHMARK.json.  The result, the run environment and, for a
traced run, the span table and the spans themselves are also written to
``perfbench/out/``.  The library is imported from ``src/`` of the same
checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is measured in this process and in this many fresh child
# processes before the timed ops and as many after them, and reported as
# the median
SETUP_CHILDREN = 4
# seconds between two runs of the reference work while ops are timed
REF_PERIOD = 0.3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description="lattice control benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def import_workloads():
    """Import the workloads module with the library from this checkout."""
    sys.path.insert(0, str(SRC))
    import volterra_control
    import workloads
    if not Path(volterra_control.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"volterra_control imported from "
                          f"{volterra_control.__file__}, not from {SRC}")
    return workloads


def setup(name: str, seed: int):
    """Import the library and the workloads, load the fixture, build the
    tree and generate the seeded inputs.  Returns (workload, seconds)."""
    start = time.perf_counter()
    workload = import_workloads().WORKLOADS[name]()
    workload.setup(seed)
    return workload, time.perf_counter() - start


def child_setup_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class Reference:
    """A fixed amount of work that does not touch the library, shaped like
    an op: a Python loop of small numpy calls on rows scattered over 8 MB.

    On a shared host the speed of the machine drifts by tens of percent
    over minutes, also within one op.  ``sampling()`` runs the work from a
    wall-clock timer every REF_PERIOD seconds, in the middle of ops too,
    and records when each run started and ended.  The reference slows
    down with the host, so an op's time (less the reference runs inside
    it) divided by the reference's mean time stays put."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.rows = list(rng.standard_normal((1 << 14, 64)))
        self.order = rng.permutation(1 << 14)[:4000].tolist()
        self.runs = []  # (start, end) of each timed run

    def work(self) -> float:
        total = 0.0
        for i in self.order:
            total += float((self.rows[i] * 1.0001 + 0.5).sum())
        return total

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.work()
        self.runs.append((start, time.perf_counter()))

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD, REF_PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def times(self) -> list:
        return [end - start for start, end in self.runs]

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of reference work between t0 and t1."""
        total = 0.0
        for start, end in reversed(self.runs):
            if end <= t0:
                break
            total += max(0.0, min(end, t1) - max(start, t0))
        return total


def run_ops(workload, seconds=None, count=None, tracer=None, reference=None):
    """Run ops k = 0, 1, ... until ``count`` are done, or (at least one op)
    until another op like the last would end after ``seconds``.  An op's
    time leaves out the runs of ``reference`` within it.  Returns (op
    seconds, failures, elapsed)."""
    times, failures = [], []
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        try:
            with tracer.op_span(k) if tracer else contextlib.nullcontext():
                result = workload.op(k)
            problems = workload.gate(result)
        except Exception as exc:  # a raising op counts as failed; keep going
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        t1 = time.perf_counter()
        times.append(t1 - t0 - (reference.inside(t0, t1) if reference else 0.0))
        if problems:
            failures.append((k, problems))
            print(f"op {k} FAILED: {'; '.join(problems)}", flush=True)
        k += 1
        if count is not None and k >= count:
            break
        now = time.perf_counter()
        if seconds is not None and 2 * now - t0 - start > seconds:
            break
    return times, failures, time.perf_counter() - start


def environment(args) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": {var: os.environ[var] for var in BLAS_PINS}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(workload, seconds, setup_seconds, child_setups):
    """Time ops for ``seconds``.  ``child_setups()`` times set-up in fresh
    processes; it runs before and after the ops, so that the set-up
    samples span the run."""
    setup_samples = [setup_seconds] + child_setups()
    reference = Reference()
    reference.work()  # warm-up, untimed
    for k in range(workload.warmup_ops):
        workload.op(k)
    with reference.sampling():
        times, failures, elapsed = run_ops(workload, seconds=seconds,
                                           reference=reference)
    if not reference.runs:  # a run shorter than REF_PERIOD
        reference._on_timer(None, None)
    setup_samples += child_setups()
    n = len(times)
    ref_times = reference.times()
    ref_mean = statistics.fmean(ref_times)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_time_rel": statistics.fmean(times) / ref_mean,
        "peak_rss_mb": peak_rss_mb(),
    }
    # seconds as measured, for reading; these follow the host's speed.
    # Also the highest percentile with at least ten samples beyond it.
    tail = ""
    for q in (99, 90, 75):
        if n * (100 - q) >= 1000:
            tail = f" p{q} {statistics.quantiles(times, n=100)[q - 1]:.4f}"
            break
    print(f"{workload.name}: {n} ops in {elapsed:.2f} s, "
          f"{(n - len(failures)) / elapsed:.4f} passed ops/s, op seconds "
          f"p50 {statistics.median(times):.4f}{tail} mean "
          f"{statistics.fmean(times):.4f}; reference {len(ref_times)}"
          f" runs, mean {ref_mean:.5f} s; op_time_rel "
          f"{metrics['op_time_rel']:.3f}; failed_frac {len(failures) / n:.3f}; "
          f"setup samples {', '.join(f'{s:.3f}' for s in setup_samples)} s")
    return metrics, n, failures, {"op_times": times,
                                  "reference_times": ref_times,
                                  "setup_samples": setup_samples}


def traced(workload):
    import spans
    count = workload.trace_ops
    _, failures, plain = run_ops(workload, count=count)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, traced_failures, with_trace = run_ops(workload, count=count,
                                                 tracer=tracer)
    finally:
        tracer.restore()
    failures += traced_failures
    metrics = spans.layer_metrics(tracer, workload.steps)
    metrics["trace.overhead_frac"] = with_trace / plain - 1.0
    metrics["trace.ops"] = count
    metrics["failed_frac"] = len(failures) / (2 * count)
    if tracer.missing:
        print(f"warning: not traced (absent from the library): "
              f"{', '.join(tracer.missing)}", flush=True)
    table = tracer.table()
    print(f"{workload.name}: {count} ops untraced {plain:.3f} s, traced "
          f"{with_trace:.3f} s")
    print(f"{'span':34s} {'parent':34s} {'calls':>8s} {'total_s':>10s} "
          f"{'self_s':>10s}")
    for name, parent, calls, total, own in table:
        print(f"{name:34s} {parent or '-':34s} {calls:8d} {total:10.4f} "
              f"{own:10.4f}")
    t0 = tracer.spans[0][3] if tracer.spans else 0.0
    detail = {"span_table": table, "missing": tracer.missing,
              "all_metrics": metrics,
              "spans": {"fields": ["name", "parent", "op", "start_us", "end_us"],
                        "rows": [(n, p, op, round((s - t0) * 1e6),
                                  round((e - t0) * 1e6))
                                 for n, p, op, s, e in tracer.spans]}}
    return metrics, 2 * count, failures, detail


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    if not (SRC / "volterra_control" / "__init__.py").is_file():
        print(f"library sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_PINS:  # single-threaded BLAS, before numpy loads
        os.environ[var] = "1"

    workload, seconds = setup(args.workload, args.seed)
    if args.setup_only:
        print(seconds)
        return 0
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    if args.trace:
        values, attempted, failures, detail = traced(workload)
        wanted = spec["per_layer"]
    else:
        def child_setups():
            return [child_setup_seconds(args.workload, args.seed)
                    for _ in range(SETUP_CHILDREN)]
        values, attempted, failures, detail = untraced(
            workload, args.seconds, seconds, child_setups)
        wanted = spec["end_to_end"]
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(
        {"env": env, "result": result, "failures": failures, **detail}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
