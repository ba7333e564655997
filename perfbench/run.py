"""Benchmark of ellip1d: four workloads driven through the package's own entry points.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ellip1d from ./src.
Each workload runs in its own process as a closed loop with one caller and
no threads, with BLAS pinned to one thread. Omit --workload to run all four,
each in a fresh process.

--trace 0 measures end to end with the package unmodified. --trace 1 runs
the workload untraced for half the time, replays the same ops with every
public function of the package wrapped in a span, and reports per-layer
metrics; spans and the self-time share by layer go to perfbench/out/.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. Exit status 0 means the run completed; a failed op
still exits 0 but reads correct: false.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("cli", "problems", "integrate", "fem", "decompose", "norms", "bench")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import ellip1d.cli; print(time.perf_counter() - t)")


def import_package() -> dict:
    if not (SRC / "ellip1d" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ellip1d sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    modules = {}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"ellip1d.{name}")
        except ModuleNotFoundError as exc:  # a module a refactor removed is traced as absent
            if exc.name != f"ellip1d.{name}":
                raise
    return modules


def import_seconds() -> float:
    """Import time of ellip1d.cli in a fresh interpreter, as that interpreter measures it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ellip1d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "commit": commit, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu": cpu, "blas_threads": BLAS_THREADS,
    }


class Runner:
    """Runs, times and checks ops of one workload."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.latencies: list[float] = []  # seconds, one per op that passed
        self.ratios: list[float] = []
        self.failures: list[str] = []

    @property
    def attempted(self):
        return len(self.latencies) + len(self.failures)

    def execute(self, op: dict) -> None:
        tracer = self.tracer
        root = tracer.op_span(self.attempted) if tracer else None
        t0 = time.perf_counter()
        try:
            output, error = self.wl.run(op), None
        except Exception:  # an op that raises is a failed op, not a failed run
            output, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close(root)
            tracer.op = None
        if error is None:
            try:
                self.ratios.append(self.wl.check(op, self.wl.observe(op, output)))
                self.latencies.append(elapsed)
                return
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        label = " ".join(f"{k}={v}" for k, v in op.items() if k not in ("disc", "problem_obj"))
        self.failures.append(f"{label}: {error}")

    def rounds(self, next_round, seconds=None) -> None:
        """Whole rounds from next_round() until it returns None or `seconds`
        would be passed; a round starts only if half of one still fits."""
        start = time.perf_counter()
        last = 0.0
        while seconds is None or time.perf_counter() - start + last / 2 < seconds:
            ops = next_round()
            if ops is None:
                break
            t0 = time.perf_counter()
            for op in ops:
                self.wl.prepare(op)
                self.execute(op)
                op.pop("disc", None)
                op.pop("problem_obj", None)
            last = time.perf_counter() - t0


def setup_once(wl, rng) -> tuple[float, dict, object]:
    """Argument generation, input preparation and one warm-up op, timed together."""
    t0 = time.perf_counter()
    first_round = wl.draw(rng, 0)
    for op in first_round:
        wl.prepare(op)
    warm = dict(wl.warmup)
    wl.prepare(warm)
    result = wl.observe(warm, wl.run(warm))
    return time.perf_counter() - t0, warm, result


def self_test(wl, op, result) -> list[str]:
    """The checker must pass the warm-up result and reject each perturbation of it."""
    out = []
    for i, (should_pass, candidate) in enumerate(wl.perturb(op, result)):
        try:
            wl.check(op, candidate)
            passed = True
        except Exception:
            passed = False
        if passed != should_pass:
            out.append(f"self-test case {i}: check {'rejected' if should_pass else 'accepted'} it")
    return out


def latency_metrics(latencies: list[float]) -> dict:
    ms = sorted(1e3 * x for x in latencies)
    n = len(ms)
    k = max(n - 10, 1)  # the k-th smallest has n - k >= 10 samples above it
    return {
        "ops_per_s": n / sum(latencies),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": ms[k - 1],
        "tail_percentile": 100.0 * k / n,
        "tail_samples_beyond": n - k,
    }


def direct_row_gap(modules) -> dict:
    """bench's direct-method counters against what one fem_solve call does."""
    bench, problems = modules.get("bench"), modules["problems"]
    decompose = modules["decompose"]
    if not hasattr(bench, "run_benchmark"):
        return {}
    tracer = tracing.Tracer(modules)
    tracer.install()
    tracer.op = 0
    try:
        report = bench.run_benchmark(problems.builtin_problem("ex1"), 16, 2, 3)
    finally:
        tracer.uninstall()
    row = report.methods[decompose.Method.DIRECT]
    names = [s[0] for s in tracer.spans]
    calls = [i for i, name in enumerate(names) if name == "fem.fem_solve"]
    if not calls:
        return {}
    i = calls[0]
    inner = [names[j] for j in range(i + 1, tracer.spans[i][6])]
    return {
        "solves": row.solves - inner.count("fem.backsub"),
        "assemblies": row.assemblies - inner.count("fem.gradient_load"),
        "factorizations": row.factorizations - inner.count("fem.factorize"),
    }


def alloc_probe(modules):
    """Fixed small solver calls on ex1 at N = 2^12, M = 10, one per method."""
    problems, fem, decompose = modules["problems"], modules["fem"], modules["decompose"]
    problem = problems.builtin_problem("ex1")
    rule = fem.QuadratureRule.gauss(3)
    decompose.solve_original(problem, 2**12, 10, rule)
    decompose.solve_improved(problem, 2**12, 10, rule)
    fem.fem_solve(problem, 2**12, rule)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = import_package()

    if args.workload is None:
        status = 0
        for name in workloads.WORKLOADS:
            done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                                   str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], timeout=600)
            status = max(status, done.returncode)
        return status
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")

    env = environment(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload](modules["cli"], modules)
    seed_seq = np.random.SeedSequence(args.seed)
    setup_seeds, run_seed = seed_seq.spawn(2)

    repeats = 1 if args.trace else SETUP_REPEATS
    setups = []
    for seq in setup_seeds.spawn(repeats):
        seconds, warm, warm_result = setup_once(wl, np.random.default_rng(seq))
        setups.append(import_seconds() + seconds)
    rejected = self_test(wl, warm, warm_result)

    rng = np.random.default_rng(run_seed)
    rounds: list[list[dict]] = []

    def draw():
        ops = wl.draw(rng, len(rounds))
        rounds.append([dict(op) for op in ops])
        return ops

    plain = Runner(wl)
    plain.rounds(draw, args.seconds / 2 if args.trace else args.seconds)
    runners = [plain]
    record = {"env": env, "rounds": len(rounds), "ops": len(plain.latencies),
              "self_test_failures": rejected}

    if args.workload == "table-sweep":
        keys = [json.dumps([op["problem"], op["method"], op["n_list"], op["m_list"]])
                for ops in rounds for op in ops]
        record["repeat_share"] = 1.0 - len(set(keys)) / len(keys)

    if args.trace:
        tracer = tracing.Tracer(modules)
        traced = Runner(wl, tracer)
        replay = iter([[dict(op) for op in ops] for ops in rounds])
        tracer.install()
        try:
            traced.rounds(lambda: next(replay, None))
        finally:
            tracer.uninstall()
        runners.append(traced)
        peak = tracing.alloc_peak_mb(modules, lambda: alloc_probe(modules))
        gap = direct_row_gap(modules)
        layer, shares = tracing.layer_metrics(tracer, traced.attempted, gap, peak)
        if plain.latencies and traced.latencies:
            layer["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
        absent = tracing.absent_metrics(tracer) | {
            m["name"] for m in spec["per_layer"] if m["name"] not in layer}
        metrics = {k: v for k, v in layer.items() if k not in absent}
        record.update(absent=sorted(absent), self_time_share=shares)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**record, "metrics": metrics,
                       "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "counts"],
                       "spans": [s[:6] for s in tracer.spans]}, fh, default=str)
        print(f"spans: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        print("self-time share by layer: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        if absent:
            print("absent: " + ", ".join(sorted(absent)))
    else:
        lat = latency_metrics(plain.latencies) if plain.latencies else {}
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": lat.get("ops_per_s", 0.0),
            "op_ms_p50": lat.get("op_ms_p50", 0.0),
            "op_ms_tail": lat.get("op_ms_tail", 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_ratio_max": max(plain.ratios, default=0.0),
            "ok_ratio": 1.0 - len(plain.failures) / plain.attempted,
        }
        record.update(tail_percentile=lat.get("tail_percentile"),
                      tail_samples_beyond=lat.get("tail_samples_beyond"),
                      failed_ratio=len(plain.failures) / plain.attempted)

    attempted = sum(r.attempted for r in runners)
    failed = sum(len(r.failures) for r in runners)
    for r in runners:
        for message in r.failures[:5]:
            print(f"failed op: {message}", file=sys.stderr)
    for message in rejected:
        print(message, file=sys.stderr)

    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("record: " + json.dumps(record, default=str))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit_of.get(name, '')}")
    if not args.trace and plain.latencies:
        print(f"  {'failed_ratio':40s} {record['failed_ratio']:14.6g} ratio")
        print(f"  op_ms_tail is p{record['tail_percentile']:.1f}, "
              f"{record['tail_samples_beyond']} samples beyond, of {len(plain.latencies)} ops")
    print(json.dumps({
        "correct": failed == 0 and not rejected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of.get(k, "")} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
