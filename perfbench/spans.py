"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install()`` replaces public library names with recording
wrappers: every module-level alias of a function (``verify`` imports
``solve_bsvie`` from ``backward``, so both names are wrapped) and the
listed class methods.  ``restore()`` puts the originals back.  Spans are
kept in memory as (name, parent span, op, start, end) and aggregated at
the end; high-frequency calls are only counted.

A name that no longer exists in the library is skipped and listed in
``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "volterra_control"


def _picard_sweeps(tracer, result):
    tracer.values["backward.picard_sweeps"] += len(result.residual_history)


def _pg_iterations(tracer, result):
    tracer.values["verify.projected_gradient.iterations"] += len(result[1]) - 1


# (module, attribute, span name, observer of the return value)
SPANS = [
    ("backward", "solve_bsvie", "backward.solve_bsvie", _picard_sweeps),
    ("backward", "solve_linear_backward", "backward.solve_linear_backward", None),
    ("adjoint", "solve_fredholm", "adjoint.solve_fredholm", None),
    ("adjoint", "solve_lambda0", "adjoint.solve_lambda0", None),
    ("adjoint", "assemble_adjoint", "adjoint.assemble_adjoint", None),
    ("adjoint", "hamiltonian_gradient", "adjoint.hamiltonian_gradient", None),
    ("adjoint", "adjoint_residuals", "adjoint.adjoint_residuals", None),
    ("forward", "simulate_forward", "forward.simulate_forward", None),
    ("cones", "adjacent_cone", "cones.adjacent_cone", None),
    ("verify", "solve_state", "verify.solve_state", None),
    ("verify", "evaluate_cost", "verify.evaluate_cost", None),
    ("verify", "check_pointwise_nc", "verify.check_pointwise_nc", None),
    ("verify", "projected_gradient", "verify.projected_gradient", _pg_iterations),
    ("scenario", "ControlConstraint.project", "scenario.constraint_project", None),
    ("scenario", "ControlConstraint.contains", "scenario.constraint_contains", None),
]

# (module, attribute, counter name): called too often for a span each
COUNTS = [
    ("scenario", "AffineCoefficient.value", "scenario.coeff_value"),
    ("scenario", "TerminalMap.value", "scenario.coeff_value"),
    ("scenario", "AffineCoefficient.jacobian", "scenario.coeff_jacobian"),
    ("scenario", "TerminalMap.jacobian", "scenario.coeff_jacobian"),
    ("cones", "nnls", "cones.nnls"),
    ("lattice", "Tree.repr_step", "lattice.repr_step"),
    ("lattice", "Tree.embed", "lattice.embed"),
]

# the FrozenCoefficients cache: lookups and misses
FROZEN = ("adjoint", "FrozenCoefficients._get")


class Tracer:
    def __init__(self):
        self.spans = []          # (name, parent index or None, op, start, end)
        self.counts = Counter()
        self.values = Counter()  # summed observations (sweeps, iterations)
        self.missing = []
        self.op = None
        self._stack = []
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, parent, tracer.op, start, end)
            if observe is not None:
                observe(tracer, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _frozen_wrapper(self, fn):
        counts = self.counts

        def wrapper(obj, key, make):
            counts["adjoint.frozen.lookups"] += 1

            def counted_make():
                counts["adjoint.frozen.misses"] += 1
                return make()
            return fn(obj, key, counted_make)
        return wrapper

    # -- patching ---------------------------------------------------------

    def _modules(self):
        return [m for n, m in sys.modules.items()
                if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def _patch(self, module_name, attr, make_wrapper):
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        owner_name, _, method = attr.rpartition(".")
        if module is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or method not in vars(owner):
                self.missing.append(f"{module_name}.{attr}")
                return
            orig = vars(owner)[method]
            setattr(owner, method, make_wrapper(orig))
            self._undo.append((owner, method, orig))
            return
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make_wrapper(orig)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, orig))

    def install(self):
        for module_name, attr, name, observe in SPANS:
            self._patch(module_name, attr,
                        lambda fn, n=name, o=observe: self._span_wrapper(n, fn, o))
        for module_name, attr, name in COUNTS:
            self._patch(module_name, attr,
                        lambda fn, n=name: self._count_wrapper(n, fn))
        self._patch(*FROZEN, self._frozen_wrapper)

    def restore(self):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def op_span(self, op):
        """Context for one traced op: the root span of its layer spans."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self.op = op
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = ("op", None, op, start, time.perf_counter())
            self.op = None

    def table(self):
        """Rows (name, parent name, calls, total_s, self_s) per span edge;
        self time is the span's duration minus its child spans'."""
        child_time = defaultdict(float)
        for name, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, parent, _, start, end) in enumerate(self.spans):
            parent_name = self.spans[parent][0] if parent is not None else None
            row = rows[(name, parent_name)]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[index]
        return [(name, parent, calls, total, own)
                for (name, parent), (calls, total, own) in sorted(
                    rows.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))]


def layer_metrics(tracer: Tracer, steps: int) -> dict:
    """Per-layer metric values of one traced pass at lattice size ``steps``.

    ``*.ns_per_node_level`` divides a solver's time by calls * N * 2^N,
    the size of one sweep over every node of every level.
    """
    rows = tracer.table()
    calls, total, own = Counter(), Counter(), Counter()
    for name, _, c, t, s in rows:
        calls[name] += c
        total[name] += t
        own[name] += s
    out = {}
    for _, _, name, _ in SPANS:
        out[f"{name}.s"] = float(total[name])
        out[f"{name}.calls"] = calls[name]
    for name in ("backward.solve_bsvie", "backward.solve_linear_backward"):
        work = calls[name] * steps * (1 << steps)
        out[f"{name}.ns_per_node_level"] = 1e9 * total[name] / work if work else 0.0
    out["adjoint.assemble_adjoint.self_s"] = float(own["adjoint.assemble_adjoint"])
    for _, _, name in COUNTS:
        out[f"{name}.calls"] = tracer.counts[name]
    lookups = tracer.counts["adjoint.frozen.lookups"]
    out["adjoint.frozen.lookups"] = lookups
    out["adjoint.frozen.hit_ratio"] = (
        1.0 - tracer.counts["adjoint.frozen.misses"] / lookups if lookups else 0.0)
    for name in ("backward.picard_sweeps", "verify.projected_gradient.iterations"):
        out[name] = tracer.values[name]
    # every projected_gradient call costs its start once; each iteration
    # accepts one trial, every other trial is a backtrack
    trials = sum(c for name, parent, c, _, _ in rows
                 if name == "verify.evaluate_cost"
                 and parent == "verify.projected_gradient")
    out["verify.projected_gradient.backtracks"] = (
        trials - calls["verify.projected_gradient"]
        - tracer.values["verify.projected_gradient.iterations"])
    return out
