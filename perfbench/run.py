"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  With ``--trace 0`` it measures one workload
in a fresh worker process and prints the end-to-end metrics; set-up is timed
in SETUP_RUNS fresh processes (the measured run among them) and reported as
their median.  With ``--trace 1`` it prints the per-layer metrics of a
separate traced run (see README.md).  The last line of stdout is the result
as one JSON object; check failures are listed on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("tables_cold", "passage_warm", "mc_oracle", "cli_cold")
SETUP_RUNS = 3
FIXTURES = ("m1", "m2", "m3", "m4", "m5")
TIMEOUT_S = 150


def _worker(args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *args]


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_worker(args), stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker did not get ready: {line!r}")
    return proc, setup


def finish(proc: subprocess.Popen) -> dict | None:
    """Wait for a started worker; returns its last line as JSON, if it printed one."""
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def worker_json(args: list[str]) -> dict:
    proc = subprocess.run(_worker(args), capture_output=True, text=True, cwd=ROOT,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed(workload: str, seed: int, seconds: int) -> dict:
    base = ["timed", "--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_RUNS - 1):
        proc, setup = start_worker(base + ["--setup-only"])
        finish(proc)
        setups.append(setup)
    proc, setup = start_worker(base + ["--seconds", str(seconds)])
    setups.append(setup)
    doc = finish(proc)
    doc["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    if workload in ("tables_cold", "passage_warm"):
        cross = worker_json(["crosscheck"])
        doc["metrics"]["events_per_s"] = {"value": cross["events_per_s"], "unit": "1/s"}
        doc["correct"] = doc["correct"] and not cross["errors"]
        doc["errors"] += cross["errors"]
    return doc


def import_cli_ms() -> float:
    """``import bgwscale.cli`` in a fresh interpreter that has imported nothing else."""
    code = ("import time; t = time.perf_counter(); import bgwscale.cli; "
            "print(1e3 * (time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=TIMEOUT_S, check=True)
    return float(proc.stdout)


def traced(workload: str, seed: int) -> dict:
    import cli_cold

    base = ["slices", "--workload", workload, "--seed", str(seed)]
    doc = worker_json(base + ["--traced", "1"])
    plain = worker_json(base + ["--traced", "0"])
    metrics = doc.pop("metrics")
    metrics["trace.overhead_ratio"] = (doc["op_s"] / plain["op_s"], "1")
    errors = doc["errors"] + plain["errors"]

    libs = [worker_json(["cli-lib"]) for _ in range(SETUP_RUNS)]
    import_ms = statistics.median(import_cli_ms() for _ in range(SETUP_RUNS))
    dispatch = []
    for label, tail in cli_cold.DISPATCH:
        walls = []
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            rc, out, err = cli_cold.run_cli(tail)
            walls.append(1e3 * (time.perf_counter() - t0))
            if rc != 0:
                errors.append(f"cli {label}: exit {rc}: {err[-300:]}")
        lib_ms = statistics.median(lib["lib_ms"][label] for lib in libs)
        dispatch.append(statistics.median(walls) - import_ms - lib_ms)
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.dispatch_ms"] = (statistics.median(dispatch), "ms")

    for m in FIXTURES:
        res = worker_json(["analytic", "--fixture", m])
        metrics[f"verify.analytic_s.{m}"] = (res["seconds"], "s")
        if not res["ok"]:
            errors.append(f"verify analytic suite fails on {m}")
    for name in doc.get("missing", []):
        print(f"# wrapper target missing: {name}", file=sys.stderr)
    return {"correct": not errors, "attempted": doc["attempted"], "failed": doc["failed"],
            "errors": errors,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not (ROOT / "src" / "bgwscale" / "__init__.py").is_file():
        raise SystemExit(f"no bgwscale sources under {ROOT / 'src'}; run from a checkout")
    os.chdir(ROOT)
    doc = traced(a.workload, a.seed) if a.trace else timed(a.workload, a.seed, a.seconds)
    for line in doc.pop("errors", []):
        print(f"# check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": doc["metrics"]}))


if __name__ == "__main__":
    main()
