"""One fresh benchmark process; ``run.py`` starts it and reads its last line.

Modes:
  timed     set up one workload, print READY, run it for --seconds, print the result
  slices    run fixed rounds of tables_cold, passage_warm and mc_oracle, traced or not
  cli-lib   time the library calls behind the DISPATCH commands, cold
  analytic  time the analytic verify suite on one fixture, on fresh caches
  crosscheck  the fixed-seed MC cross-check behind events_per_s of the analytic workloads
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
OUT = HERE / "out"


def emit(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


def timed(workload: str, seed: int, seconds: float, setup_only: bool) -> dict | None:
    if workload == "cli_cold":
        import cli_cold
        cli_cold.write_models()
        print("READY", flush=True)
        return None if setup_only else cli_cold.cli_cold(seed, seconds)

    import workloads as wl
    if workload == "passage_warm":
        wl.warm_setup()
    print("READY", flush=True)
    if setup_only:
        return None
    if workload == "mc_oracle":
        run, _, events_per_s = wl.mc_oracle(seed, seconds)
        extra = {"events_per_s": (events_per_s, "1/s")}
    else:
        run = (wl.tables_cold if workload == "tables_cold" else wl.passage_warm)(seed, seconds)
        extra = {}  # events_per_s comes from the cross-check process
    return {"correct": not run.errors, "attempted": run.attempted, "failed": run.failed,
            "errors": run.errors, "metrics": run.metrics(extra)}


# ---------------------------------------------------------------------------
# traced slices
# ---------------------------------------------------------------------------

ROOTS = ("model.root_varphi", "model.root_phi_q", "model.root_varphi_qbar")
SCALE_FNS = ("scale.phi_q_fn", "scale.phi_0_fn", "scale.psi_q_fn", "scale.phi_q_qbar_fn")
BUILD = ("scale.ScaleTable.__init__", "scale.ScaleTable._build_level")
PASSAGE_GROUPS = {
    "lt": ("passage.lt_first_passage",), "prob": ("passage.prob_passage",),
    "explosion": ("passage.lt_explosion_before", "passage.prob_explosion_before"),
    "avalanche": ("passage.lt_joint_avalanche",),
    "atmin": ("passage.atmin_law", "passage.atmin_lt_G", "passage.atmin_lt_residual"),
    "condition": ("passage.conditioned_generator",),
}


def slices(primary: str, seed: int, traced: bool) -> dict:
    import workloads as wl
    from tracing import LAYERS, Tracer

    rounds = {w: 2 if w == primary else 1 for w in ("tables_cold", "passage_warm", "mc_oracle")}
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install(wl.MODULES)
    marks = [0]
    cold = wl.tables_cold(seed, None, rounds["tables_cold"], tracer)
    n_cold = cold.attempted
    evals_cold = tracer.counts["quad.integrand_evals"] if tracer else 0
    nodes_cold = list(tracer.table_nodes) if tracer else []
    marks.append(len(tracer.spans) if tracer else 0)
    wl.warm_setup()
    warm = wl.passage_warm(seed, None, rounds["passage_warm"], tracer)
    marks.append(len(tracer.spans) if tracer else 0)
    mc, per_job, _ = wl.mc_oracle(seed, None, rounds["mc_oracle"], tracer)
    runs = {"tables_cold": cold, "passage_warm": warm, "mc_oracle": mc}
    doc = {"correct": not any(r.errors for r in runs.values()),
           "errors": [e for r in runs.values() for e in r.errors],
           "attempted": sum(r.attempted for r in runs.values()),
           "failed": sum(r.failed for r in runs.values()),
           "op_s": sum(r.wall_s for r in runs.values())}
    if tracer is None:
        return doc

    c, w = tracer.summary(marks[0], marks[1]), tracer.summary(marks[1], marks[2])
    total = tracer.summary()
    tables = c.count("scale.ScaleTable.__init__")
    missing = set(tracer.missing)

    def val(x, *needs):
        return None if x is None or missing.intersection(needs) else x

    def per(num, den):
        return num / den if den else None

    met = {
        "model.roots_ms": (val(per(c.self_(*ROOTS) / 1e6, n_cold), *ROOTS), "ms"),
        "model.root_calls_per_op": (val(per(w.count(*ROOTS), w.ops), *ROOTS), "count"),
        "model.validate_calls_per_op": (val(per(w.count("model.validate"), w.ops), "model.validate"), "count"),
        "model.validate_us": (val(per(w.incl("model.validate") / 1e3, w.count("model.validate")),
                                  "model.validate"), "us"),
        "quad.panel_calls_per_table": (val(per(c.count("scale.gk_adaptive"), tables),
                                           "scale.gk_adaptive", BUILD[0]), "count"),
        "quad.integrand_evals_per_table": (val(per(evals_cold, tables), "scale.gk_adaptive",
                                               BUILD[0]), "count"),
        "quad.panel_us": (val(per(c.incl("scale.gk_adaptive") / 1e3, c.count("scale.gk_adaptive")),
                              "scale.gk_adaptive"), "us"),
        "scale.build_ms": (val(per(c.self_(*BUILD) / 1e6, tables), *BUILD), "ms"),
        "scale.levels_per_table": (val(per(c.count(BUILD[1]), tables), *BUILD), "count"),
        "scale.nodes_per_table": (val(per(sum(nodes_cold), len(nodes_cold)), BUILD[0]), "count"),
        "scale.eval_us": (val(per(w.incl(*SCALE_FNS) / 1e3, w.count(*SCALE_FNS)), *SCALE_FNS), "us"),
        "scale.calls_per_op": (val(per(w.count(*SCALE_FNS), w.ops), *SCALE_FNS), "count"),
        "control.bellman_ms": (val(per(w.incl("control.verify_bellman") / 1e6,
                                       w.count("control.verify_bellman")), "control.verify_bellman"), "ms"),
        "control.value_us": (val(per(w.incl("control.optimal_value") / 1e3,
                                     w.count("control.optimal_value")), "control.optimal_value"), "us"),
    }
    for group, names in PASSAGE_GROUPS.items():
        met[f"passage.self_us.{group}"] = (val(per(w.self_(*names) / 1e3, w.count(*names)), *names), "us")

    for job, (events, seconds) in per_job.items():
        met[f"sim.events_per_s.{job}"] = (events / seconds, "1/s")
        met[f"sim.events.{job}"] = (events, "count")

    shares = {layer: total.layer_self_ns[layer] / total.op_ns for layer in (*LAYERS, "op")}
    for layer, share in shares.items():
        met[f"self_share.{layer}"] = (share, "1")
    if abs(sum(shares.values()) - 1.0) > 1e-9:
        doc["correct"] = False
        doc["errors"].append(f"layer self times do not add up to the op time: {shares}")
    doc["metrics"] = met
    doc["missing"] = sorted(missing)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{primary}-{seed}.json",
                {"slices": dict(zip(("tables_cold", "passage_warm", "mc_oracle"), marks))})
    return doc


# ---------------------------------------------------------------------------
# cli and verify layers, each in a fresh process
# ---------------------------------------------------------------------------

def cli_lib() -> dict:
    import cli_cold
    import bgwscale.cli  # noqa: F401 - the CLI process imports it before any work
    from bgwscale import model as md
    from bgwscale import passage as ps
    from bgwscale import scale as sc

    cli_cold.write_models()
    load = lambda m: md.load_model(cli_cold.MODEL_DIR / f"{m}.json")  # noqa: E731
    lib = {"scale phi m1": lambda: sc.phi_q_fn(load("m1"), 0.5, 1),
           "lt m2": lambda: ps.lt_first_passage(load("m2"), 2.0, 1, 0),
           "classify m3": lambda: md.classify(load("m3")),
           "atmin m3": lambda: ps.atmin_law(load("m3"), 1.0, 5)}
    lib_ms = {}
    for label, _ in cli_cold.DISPATCH:
        t0 = time.perf_counter()
        lib[label]()
        lib_ms[label] = 1e3 * (time.perf_counter() - t0)
    return {"lib_ms": lib_ms}


def analytic(fixture: str) -> dict:
    import workloads as wl
    from bgwscale import verify as vf

    t0 = time.perf_counter()
    checks = vf.analytic_suite(wl.SPECS[fixture])
    return {"seconds": time.perf_counter() - t0, "ok": all(ok for _, ok, _ in checks)}


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("timed", "slices", "cli-lib", "analytic", "crosscheck"))
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--traced", type=int, default=0)
    p.add_argument("--fixture")
    a = p.parse_args()
    if a.mode == "timed":
        doc = timed(a.workload, a.seed, a.seconds, a.setup_only)
    elif a.mode == "slices":
        doc = slices(a.workload, a.seed, bool(a.traced))
    elif a.mode == "cli-lib":
        doc = cli_lib()
    elif a.mode == "crosscheck":
        import workloads as wl
        rate, errors = wl.crosscheck()
        doc = {"events_per_s": rate, "errors": errors}
    else:
        doc = analytic(a.fixture)
    if doc is not None:
        errors = doc.get("errors", [])
        if len(errors) > 30:
            doc["errors"] = errors[:30] + [f"... and {len(errors) - 30} more"]
        emit(doc)


if __name__ == "__main__":
    main()
