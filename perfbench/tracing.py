"""Span tracing of ellip1d from outside the package.

The tracer replaces the package's public functions with timing wrappers in
every module that holds them (the defining module and each import site),
so calls between modules and within a module are both seen. Each call
becomes a span (name, start, end, parent, op id, counts), kept in memory
and written out when the run ends. Per-layer metrics are derived from the
spans afterwards; nothing inside the package is edited.

A target that a refactor removes cannot be wrapped. Its spans, and every
metric built only from them, are reported as absent rather than as zero.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import tracemalloc
from collections import Counter

import numpy as np

from workloads import FINE_GRID_ELEMS

BYTES_PER_NODE = 48  # six float64 arrays per node per factorization or back-substitution

# (module, attribute, span name). "Class.method" patches the method on the class.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("problems", "builtin_problem", "problems.build"),
    ("problems", "psi_of", "problems.make_field"),
    ("problems", "g_m", "problems.make_field"),
    ("problems", "flux_field", "problems.make_field"),
    ("problems", "flux_weighted_antiderivative", "problems.make_field"),
    ("problems", "exact_solution_via_flux", "problems.make_field"),
    ("integrate", "segment_integrals", "integrate.segments"),
    ("integrate", "integral", "integrate.scalar"),
    ("integrate", "cumulative", "integrate.cumulative"),
    ("fem", "build_mesh", "fem.mesh"),
    ("fem", "assemble_stiffness", "fem.assemble"),
    ("fem", "assemble_load", "fem.assemble"),
    ("fem", "assemble_gradient_load", "fem.gradient_load"),
    ("fem", "gradient_load_from_values", "fem.gradient_load"),
    ("fem", "apply_dirichlet", "fem.dirichlet"),
    ("fem", "factorize", "fem.factorize"),
    ("fem", "TridiagonalFactorization.solve", "fem.backsub"),
    ("fem", "solve_tridiagonal", "fem.solve_tridiagonal"),
    ("fem", "fem_solve", "fem.fem_solve"),
    ("decompose", "solve_u0", "decompose.solve"),
    ("decompose", "solve_original", "decompose.solve"),
    ("decompose", "solve_improved", "decompose.solve"),
    ("decompose", "semi_analytic_U_M", "decompose.reference"),
    ("norms", "l2_error", "norms.error"),
    ("norms", "h1_seminorm_error", "norms.error"),
    ("norms", "fine_grid_l2_error", "norms.error"),
    ("norms", "fine_grid_h1_error", "norms.error"),
    ("norms", "h1_seminorm", "norms.error"),
    ("norms", "sup_norm", "norms.error"),
    ("norms", "observed_order", "norms.error"),
    ("norms", "theorem_bound_check", "norms.theorem"),
    ("norms", "tail_bound", "norms.theorem"),
]

# evaluations of the fields these functions return get their own span
FIELD_SPANS = {
    "psi_of": "problems.series",
    "g_m": "problems.series",
    "flux_field": "problems.flux",
    "flux_weighted_antiderivative": "problems.flux",
    "exact_solution_via_flux": "problems.flux",
}
PROBLEM_FIELDS = ("kappa", "f", "exact", "exact_derivative")


class Patcher:
    """Replaces an object under every name that refers to it, and undoes it."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.undo = []

    def replace(self, module: str, attr: str, make_wrapper) -> bool:
        """Wrap module.attr; False if the package no longer has it."""
        owner = self.modules.get(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            orig = getattr(cls, meth, None)
            if orig is None:
                return False
            self.undo.append((cls, meth, orig))
            setattr(cls, meth, make_wrapper(orig))
            return True
        orig = getattr(owner, attr, None)
        if orig is None:
            return False
        wrapped = make_wrapper(orig)
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self.undo.append((mod, name, orig))
                    setattr(mod, name, wrapped)
        return True

    def restore(self):
        for owner, name, orig in reversed(self.undo):
            setattr(owner, name, orig)
        self.undo.clear()


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent, op, counts, end_index]."""

    def __init__(self, modules: dict):
        self.patcher = Patcher(modules)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.absent: set[str] = set()
        accuracy = getattr(modules.get("integrate"), "AccuracyError", None)
        self.accuracy_error = accuracy if isinstance(accuracy, type) else ()

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None):
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[5] = counts
        span[6] = len(self.spans)
        self.stack.pop()

    def timed(self, fn, name: str, before=None, after=None):
        """Wrap fn in a span. before(args) may swap arguments and returns a
        finisher; after(args, result) returns counts for the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            finish = None
            if before is not None:
                args, finish = before(args)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts = finish() if finish else {}
                counts["raised"] = type(exc).__name__
                counts["accuracy_error"] = isinstance(exc, tracer.accuracy_error)
                tracer.close(idx, counts)
                raise
            counts = finish() if finish else None
            if after is not None:
                counts = {**(counts or {}), **after(args, result)}
            tracer.close(idx, counts)
            return result

        return wrapper

    def op_span(self, op: int):
        """Open the root span of one op; close it with close()."""
        self.op = op
        return self.open("bench.op")

    # -- installation ----------------------------------------------------
    def install(self):
        installed: dict[str, bool] = {}
        for module, attr, span in TARGETS:
            ok = self.patcher.replace(module, attr, self._maker(attr, span))
            installed[span] = installed.get(span, False) or ok
            if attr in FIELD_SPANS:
                installed[FIELD_SPANS[attr]] = installed.get(FIELD_SPANS[attr], False) or ok
            if attr == "builtin_problem":
                installed["problems.field"] = ok
        self.absent = {span for span, ok in installed.items() if not ok}

    def uninstall(self):
        self.patcher.restore()

    def _wrap_field(self, field, name):
        if field is None or not hasattr(field, "fn"):
            return field
        return dataclasses.replace(field, fn=self.timed(field.fn, name))

    def _maker(self, attr, span):
        def segments_before(args):
            fn, rest = args[0], args[1:]
            points = [0]

            def counted(x):
                points[0] += np.size(x)
                return fn(x)

            return (counted, *rest), lambda: {"segments": len(rest[0]) - 1, "points": points[0]}

        def problem_after(args, problem):
            for name in PROBLEM_FIELDS:
                wrapped = self._wrap_field(getattr(problem, name, None), "problems.field")
                if wrapped is not None:
                    object.__setattr__(problem, name, wrapped)
            return {}

        def solver_after(args, result):
            return {
                key: getattr(result, key)
                for key in ("solve_count", "assembly_count", "factorization_count")
                if hasattr(result, key)
            }

        options = {}
        if attr == "segment_integrals":
            options["before"] = segments_before
        elif attr == "builtin_problem":
            options["after"] = problem_after
        elif attr == "TridiagonalFactorization.solve":
            options["after"] = lambda args, r: {"nodes": len(args[1])}
        elif attr == "factorize":
            options["after"] = lambda args, r: {"nodes": len(args[0].diag)}
        elif attr == "fem_solve":
            options["after"] = lambda args, r: {"n": len(r.values) - 1}
        elif span == "decompose.solve":
            options["after"] = solver_after

        def make(orig):
            wrapped = self.timed(orig, span, **options)
            if attr not in FIELD_SPANS:
                return wrapped

            @functools.wraps(orig)
            def field_maker(*args, **kwargs):
                return self._wrap_field(wrapped(*args, **kwargs), FIELD_SPANS[attr])

            return field_maker

        return make


def alloc_peak_mb(modules: dict, probe) -> float:
    """Largest tracemalloc peak inside one solver call while probe() runs.

    tracemalloc slows the Python-loop solvers about 18x, so this runs on a
    small fixed probe rather than on the workload's ops.
    """
    patcher = Patcher(modules)
    peaks = [0]

    def make(orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return orig(*args, **kwargs)
            tracemalloc.start()
            try:
                return orig(*args, **kwargs)
            finally:
                peaks[0] = max(peaks[0], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper

    found = [patcher.replace(module, attr, make) for module, attr in
             (("decompose", "solve_original"), ("decompose", "solve_improved"),
              ("fem", "fem_solve"))]
    try:
        probe()
    finally:
        patcher.restore()
    return peaks[0] / 2**20 if any(found) else None


# ---------------------------------------------------------------------------
# metrics from spans

def _analyse(spans):
    """Duration and self time (duration minus that of direct children) of every span."""
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.int64) if n else np.zeros(0, np.int64)
    child = np.zeros(n, dtype=np.int64)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    return dur, dur - child


def layer_metrics(tracer: Tracer, n_ops: int, direct_gap: dict, peak_mb) -> tuple[dict, dict]:
    """Per-layer metrics (per op where marked) and the self-time share by layer."""
    spans = tracer.spans
    dur, self_ns = _analyse(spans)
    in_op = [s[4] is not None for s in spans]
    names = [s[0] for s in spans]
    ms = 1e-6 / max(n_ops, 1)

    def idx(*wanted):
        return [i for i, name in enumerate(names) if in_op[i] and name in wanted]

    def top(*wanted):
        """Spans not nested inside another span of the same set."""
        out = []
        for i in idx(*wanted):
            p = spans[i][3]
            while p is not None and names[p] not in wanted:
                p = spans[p][3]
            if p is None:
                out.append(i)
        return out

    def entries(*wanted):
        """Calls into the set from outside it."""
        return [i for i in idx(*wanted) if spans[i][3] is None or names[spans[i][3]] not in wanted]

    def covered_ms(*wanted):
        return float(sum(dur[i] for i in top(*wanted))) * ms

    def self_ms(*wanted):
        return float(sum(self_ns[i] for i in idx(*wanted))) * ms

    def per_op(count):
        return count / max(n_ops, 1)

    def total(key, *wanted):
        return sum((spans[i][5] or {}).get(key, 0) for i in idx(*wanted))

    seg = idx("integrate.segments")
    segments = total("segments", "integrate.segments")
    points = total("points", "integrate.segments")
    backsub = idx("fem.backsub")
    backsub_nodes = total("nodes", "fem.backsub")
    factor_nodes = total("nodes", "fem.factorize")

    # counters the solvers report against what their spans show they did
    gaps = Counter()
    calls = 0
    for i in idx("decompose.solve"):
        counts = spans[i][5] or {}
        if "solve_count" not in counts:
            continue
        inner = Counter(names[j] for j in range(i + 1, spans[i][6]))
        gaps["solves"] += counts["solve_count"] - inner["fem.backsub"]
        gaps["assemblies"] += counts["assembly_count"] - inner["fem.gradient_load"]
        gaps["factorizations"] += counts["factorization_count"] - inner["fem.factorize"]
        calls += 1
    reported = [spans[i][5] for i in idx("decompose.solve") if spans[i][5]]

    m = {
        "problems.build_ms": covered_ms("problems.build"),
        "problems.series_ms": covered_ms("problems.series"),
        "problems.flux_self_ms": self_ms("problems.flux"),
        "integrate.self_ms": self_ms("integrate.segments", "integrate.scalar", "integrate.cumulative"),
        "integrate.calls": per_op(len(entries("integrate.segments", "integrate.scalar", "integrate.cumulative"))),
        "integrate.segments": per_op(segments),
        "integrate.points": per_op(points),
        "integrate.points_per_segment": points / segments if segments else 0.0,
        "integrate.accuracy_errors": float(sum(bool((spans[i][5] or {}).get("accuracy_error")) for i in seg)),
        "integrate.scalar_ms": covered_ms("integrate.scalar"),
        "fem.assemble_ms": self_ms("fem.assemble", "fem.gradient_load"),
        "fem.assemble_calls": per_op(len(top("fem.assemble", "fem.gradient_load"))),
        "fem.gradient_loads": per_op(len(top("fem.gradient_load"))),
        "fem.factorize_ms": self_ms("fem.factorize"),
        "fem.factorizations": per_op(len(idx("fem.factorize"))),
        "fem.backsub_ms": self_ms("fem.backsub"),
        "fem.backsubs": per_op(len(backsub)),
        "fem.backsub_ns_per_node": float(sum(dur[i] for i in backsub)) / backsub_nodes if backsub_nodes else 0.0,
        "fem.solve_bytes_computed": per_op(BYTES_PER_NODE * (backsub_nodes + factor_nodes)),
        "decompose.self_ms": self_ms("decompose.solve", "decompose.reference"),
        "decompose.solve_count": per_op(sum(c.get("solve_count", 0) for c in reported)),
        "decompose.assembly_count": per_op(sum(c.get("assembly_count", 0) for c in reported)),
        "decompose.counter_gap.solves": gaps["solves"] / calls if calls else 0.0,
        "decompose.counter_gap.assemblies": gaps["assemblies"] / calls if calls else 0.0,
        "decompose.counter_gap.factorizations": gaps["factorizations"] / calls if calls else 0.0,
        **{f"decompose.counter_gap.direct_{k}": float(v) for k, v in direct_gap.items()},
        "norms.error_self_ms": self_ms("norms.error"),
        "norms.theorem_self_ms": self_ms("norms.theorem"),
        "cli.self_ms": self_ms("cli.main"),
        "cli.fine_grid_solves": per_op(sum(
            1 for i in idx("fem.fem_solve") if (spans[i][5] or {}).get("n") == FINE_GRID_ELEMS)),
    }

    if peak_mb is not None:
        m["decompose.peak_alloc_mb"] = peak_mb

    layers = Counter()
    for i, name in enumerate(names):
        if in_op[i]:
            layers[name.split(".")[0]] += int(self_ns[i])
    whole = sum(layers.values()) or 1
    shares = {layer: ns / whole for layer, ns in layers.most_common()}
    return m, shares


# metric -> span names it is built from; absent if all of them are absent
METRIC_SOURCES = {
    "problems.build_ms": ["problems.build"],
    "problems.series_ms": ["problems.series"],
    "problems.flux_self_ms": ["problems.flux"],
    "integrate.self_ms": ["integrate.segments", "integrate.scalar", "integrate.cumulative"],
    "integrate.calls": ["integrate.segments", "integrate.scalar", "integrate.cumulative"],
    "integrate.segments": ["integrate.segments"],
    "integrate.points": ["integrate.segments"],
    "integrate.points_per_segment": ["integrate.segments"],
    "integrate.accuracy_errors": ["integrate.segments"],
    "integrate.scalar_ms": ["integrate.scalar"],
    "fem.assemble_ms": ["fem.assemble", "fem.gradient_load"],
    "fem.assemble_calls": ["fem.assemble", "fem.gradient_load"],
    "fem.gradient_loads": ["fem.gradient_load"],
    "fem.factorize_ms": ["fem.factorize"],
    "fem.factorizations": ["fem.factorize"],
    "fem.backsub_ms": ["fem.backsub"],
    "fem.backsubs": ["fem.backsub"],
    "fem.backsub_ns_per_node": ["fem.backsub"],
    "fem.solve_bytes_computed": ["fem.backsub", "fem.factorize"],
    "decompose.self_ms": ["decompose.solve", "decompose.reference"],
    "decompose.solve_count": ["decompose.solve"],
    "decompose.assembly_count": ["decompose.solve"],
    "decompose.counter_gap.solves": ["decompose.solve", "fem.backsub"],
    "decompose.counter_gap.assemblies": ["decompose.solve", "fem.gradient_load"],
    "decompose.counter_gap.factorizations": ["decompose.solve", "fem.factorize"],
    "decompose.counter_gap.direct_solves": ["fem.fem_solve", "fem.backsub"],
    "decompose.counter_gap.direct_assemblies": ["fem.fem_solve", "fem.gradient_load"],
    "decompose.counter_gap.direct_factorizations": ["fem.fem_solve", "fem.factorize"],
    "norms.error_self_ms": ["norms.error"],
    "norms.theorem_self_ms": ["norms.theorem"],
    "cli.self_ms": ["cli.main"],
    "cli.fine_grid_solves": ["fem.fem_solve"],
}


def absent_metrics(tracer: Tracer) -> set[str]:
    """Metrics whose sources the package no longer has. A gap metric needs
    every one of its sources; the others need at least one."""
    out = set()
    for metric, sources in METRIC_SOURCES.items():
        missing = [s in tracer.absent for s in sources]
        if all(missing) or ("counter_gap" in metric and any(missing)):
            out.add(metric)
    return out

