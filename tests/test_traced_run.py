"""A short traced benchmark run must still report every per-layer metric.

perfbench/run.py --trace 1 exits 0 even when a traced function no longer
exists: it drops the metrics built from it. This runs the cheapest workload,
the oracle workload and the large-solve workload for one second each under
the tracer, as separate
processes from a scratch checkout that links the package sources (so the
spans files land there), and checks each result line against
BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


def test_traced_table_sweep_reports_every_layer_metric(tmp_path):
    check_traced_run("table-sweep", tmp_path)


def test_traced_oracle_score_reports_every_layer_metric(tmp_path):
    check_traced_run("oracle-score", tmp_path)


def test_traced_solve_large_reports_every_layer_metric(tmp_path):
    check_traced_run("solve-large", tmp_path)


def check_traced_run(workload, tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = done.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True, done.stderr[-2000:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {metric["name"] for metric in spec["per_layer"]}
    missing = sorted(wanted - set(result["metrics"]))
    assert not missing, f"traced run lost per-layer metrics: {missing}"
