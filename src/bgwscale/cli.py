"""Command-line front end.

One subcommand per deliverable group: ``model`` (check/classify), ``scale``
(phi|psi|phi0|phiqq via --fn), ``passage`` (lt|prob|mean|explosion|atmin|
condition|tilt|avalanche), ``control`` (value|gap|bellman|simulate),
``simulate`` and ``verify``.  Success prints a single JSON document (or CSV
rows with --out csv) on stdout and exits 0; regime refusals exit 2 naming the
violated inequality; usage errors exit 64.  Stdout is byte-stable for fixed
inputs (wall time goes to stderr).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field

import click

from . import control as ctl
from . import model as md
from . import passage as ps
from . import scale as sc
from . import sim
from .errors import (AdmissibilityError, DomainError, ModelError,
                     PreconditionError, QuadratureError, UnsupportedRegimeError)
from .quad import DEFAULT_CFG, QuadConfig

EXIT_OK = 0
EXIT_REFUSED = 2
EXIT_USAGE = 64


@dataclass
class RunRecord:
    command: str
    model_digest: str
    params: dict
    payload: dict | None = None
    error: dict | None = None
    diagnostics: dict = field(default_factory=dict)
    wall_ms: float = 0.0


def _digest(spec: md.ModelSpec) -> str:
    doc = json.dumps(md.spec_to_dict(spec), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _parse_levels(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _tol_cfg(ctx, param, tol: float) -> QuadConfig:
    if not tol >= 1e-14:  # --tol is the tables' relative tolerance
        raise click.BadParameter(f"must be at least 1e-14, got {tol!r}")
    return QuadConfig(rel_tol=tol)


def _load(path: str) -> md.ModelSpec:
    try:
        return md.load_model(path)
    except (OSError, json.JSONDecodeError, ModelError, ValueError) as exc:
        raise click.UsageError(f"cannot load model {path}: {exc}")


def _finish(command: str, spec: md.ModelSpec, params: dict, payload: dict,
            t0: float, out_format: str = "json",
            rows: list[tuple] | None = None, header: tuple[str, ...] = ()) -> None:
    record = RunRecord(command=command, model_digest=_digest(spec), params=params,
                       payload=payload, wall_ms=1e3 * (time.perf_counter() - t0))
    if out_format == "csv" and rows is not None:
        click.echo(",".join(header))
        for row in rows:
            click.echo(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    else:
        click.echo(json.dumps(record.payload))
    print(f"# wall_ms={record.wall_ms:.1f} model={record.model_digest}", file=sys.stderr)


def _refuse(exc) -> None:
    inequality = exc.inequality if isinstance(exc, UnsupportedRegimeError) else "precondition"
    print(json.dumps({"refused": inequality, "detail": str(exc)}), file=sys.stderr)
    sys.exit(EXIT_REFUSED)


def guarded(fn):
    """Map library exceptions to the documented exit codes."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (UnsupportedRegimeError, PreconditionError, AdmissibilityError) as exc:
            _refuse(exc)
        except QuadratureError as exc:
            print(json.dumps({"refused": "quadrature non-convergence",
                              "detail": str(exc)}), file=sys.stderr)
            sys.exit(EXIT_REFUSED)
        except (DomainError, ModelError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(EXIT_USAGE)
    return wrapper


class _Group(click.Group):
    def main(self, *args, **kwargs):
        kwargs.setdefault("standalone_mode", False)
        try:
            rv = super().main(*args, **kwargs)
            sys.exit(rv if isinstance(rv, int) else EXIT_OK)
        except click.UsageError as exc:
            print(f"usage error: {exc.format_message()}", file=sys.stderr)
            sys.exit(EXIT_USAGE)
        except click.ClickException as exc:
            print(f"error: {exc.format_message()}", file=sys.stderr)
            sys.exit(EXIT_USAGE)
        except SystemExit:
            raise
        except click.exceptions.Abort:
            sys.exit(EXIT_USAGE)


@click.group(cls=_Group)
def main():
    """Scale functions and passage/explosion laws of branching chains with
    immigration and culling."""


_model_opt = click.option("--model", "model_path", required=True, type=click.Path())
_tol_opt = click.option("--tol", "cfg", default=DEFAULT_CFG.rel_tol, show_default=True,
                        callback=_tol_cfg, help="relative tolerance of the tables")
_out_opt = click.option("--out", "out_format", type=click.Choice(["json", "csv"]),
                        default="json", show_default=True)


# ---------------------------------------------------------------------- model

@main.group("model")
def model_group():
    """Model file checks and classification."""


@model_group.command("check")
@_model_opt
@guarded
def model_check(model_path):
    t0 = time.perf_counter()
    spec = _load(model_path)
    problems = md.validate(spec)
    payload = {"valid": not problems, "violations": problems}
    _finish("model check", spec, {"model": model_path}, payload, t0)
    if problems:
        sys.exit(EXIT_REFUSED)


@model_group.command("classify")
@_model_opt
@_tol_opt
@guarded
def model_classify(model_path, cfg):
    t0 = time.perf_counter()
    spec = _load(model_path)
    rep = md.classify(spec)
    payload = {"criticality": rep.criticality, "varphi": rep.varphi, "phi": rep.phi,
               "explosive": rep.explosive, "critical_tangency": rep.critical_tangency}
    _finish("model classify", spec, {"model": model_path}, payload, t0)


# ---------------------------------------------------------------------- scale

@main.command("scale")
@_model_opt
@click.option("--fn", type=click.Choice(["phi", "psi", "phi0", "phiqq"]), default="phi",
              show_default=True)
@click.option("--q", default=0.0, show_default=True)
@click.option("--qbar", default=0.0, show_default=True)
@click.option("--x", "x_text", default="1", show_default=True,
              help="level, or range lo..hi for CSV output")
@_tol_opt
@_out_opt
@guarded
def scale_cmd(model_path, fn, q, qbar, x_text, cfg, out_format):
    """Evaluate a scale function at one level or a range of levels."""
    t0 = time.perf_counter()
    spec = _load(model_path)
    xs = _parse_levels(x_text)
    evaluate = {
        "phi": lambda x: sc.phi_q_fn(spec, q, x, cfg) if q > 0.0 else sc.phi_0_fn(spec, x, cfg),
        "psi": lambda x: sc.psi_q_fn(spec, q, x, cfg),
        "phi0": lambda x: sc.phi_0_fn(spec, x, cfg),
        "phiqq": lambda x: sc.phi_q_qbar_fn(spec, q, qbar, x, cfg),
    }[fn]
    vals = [evaluate(x) for x in xs]
    key = {"phi": "phi_q", "psi": "psi_q", "phi0": "phi_0", "phiqq": "phi_q_qbar"}[fn]
    if len(xs) == 1:
        payload = {key: vals[0]}
    else:
        payload = {key: {str(x): v for x, v in zip(xs, vals)}}
    _finish("scale", spec, {"fn": fn, "q": q, "qbar": qbar, "x": x_text}, payload, t0,
            out_format, rows=list(zip(xs, vals)), header=("x", key))


# -------------------------------------------------------------------- passage

@main.group("passage")
def passage_group():
    """Passage/explosion transforms, probabilities, laws."""


def _levels_payload(xs, vals, name):
    if len(xs) == 1:
        return {name: vals[0]}
    return {name: {str(x): v for x, v in zip(xs, vals)}}


@passage_group.command("lt")
@_model_opt
@click.option("--q", required=True, type=float)
@click.option("--x", "x_text", required=True)
@click.option("--a", "a_level", required=True, type=int)
@_tol_opt
@_out_opt
@guarded
def passage_lt(model_path, q, x_text, a_level, cfg, out_format):
    t0 = time.perf_counter()
    spec = _load(model_path)
    xs = _parse_levels(x_text)
    vals = [ps.lt_first_passage(spec, q, x, a_level, cfg) for x in xs]
    _finish("passage lt", spec, {"q": q, "x": x_text, "a": a_level},
            _levels_payload(xs, vals, "value"), t0, out_format,
            rows=list(zip(xs, vals)), header=("x", "value"))


@passage_group.command("prob")
@_model_opt
@click.option("--x", "x_text", required=True)
@click.option("--a", "a_level", required=True, type=int)
@_tol_opt
@_out_opt
@guarded
def passage_prob(model_path, x_text, a_level, cfg, out_format):
    t0 = time.perf_counter()
    spec = _load(model_path)
    xs = _parse_levels(x_text)
    vals = [ps.prob_passage(spec, x, a_level, cfg) for x in xs]
    _finish("passage prob", spec, {"x": x_text, "a": a_level},
            _levels_payload(xs, vals, "value"), t0, out_format,
            rows=list(zip(xs, vals)), header=("x", "value"))


@passage_group.command("mean")
@_model_opt
@click.option("--x", "x_text", required=True)
@click.option("--a", "a_level", required=True, type=int)
@_tol_opt
@_out_opt
@guarded
def passage_mean(model_path, x_text, a_level, cfg, out_format):
    t0 = time.perf_counter()
    spec = _load(model_path)
    xs = _parse_levels(x_text)
    vals = [ps.mean_first_passage(spec, x, a_level, cfg) for x in xs]
    _finish("passage mean", spec, {"x": x_text, "a": a_level},
            _levels_payload(xs, vals, "value"), t0, out_format,
            rows=list(zip(xs, vals)), header=("x", "value"))


@passage_group.command("explosion")
@_model_opt
@click.option("--q", default=0.0, show_default=True,
              help="q > 0: Laplace transform; q = 0: probability")
@click.option("--x", "x_text", required=True)
@click.option("--a", "a_level", required=True, type=int)
@click.option("--mean", "want_mean", is_flag=True, help="mean explosion time instead")
@_tol_opt
@_out_opt
@guarded
def passage_explosion(model_path, q, x_text, a_level, want_mean, cfg, out_format):
    t0 = time.perf_counter()
    spec = _load(model_path)
    xs = _parse_levels(x_text)
    if want_mean:
        vals = [ps.mean_explosion(spec, x, cfg) for x in xs]
    elif q > 0.0:
        vals = [ps.lt_explosion_before(spec, q, x, a_level, cfg) for x in xs]
    else:
        vals = [ps.prob_explosion_before(spec, x, a_level, cfg) for x in xs]
    _finish("passage explosion", spec, {"q": q, "x": x_text, "a": a_level, "mean": want_mean},
            _levels_payload(xs, vals, "value"), t0, out_format,
            rows=list(zip(xs, vals)), header=("x", "value"))


@passage_group.command("atmin")
@_model_opt
@click.option("--q", required=True, type=float)
@click.option("--x", required=True, type=int)
@click.option("--alpha", default=0.0, show_default=True,
              help="also emit the conditional transforms at this argument")
@_tol_opt
@_out_opt
@guarded
def passage_atmin(model_path, q, x, alpha, cfg, out_format):
    t0 = time.perf_counter()
    spec = _load(model_path)
    law = ps.atmin_law(spec, q, x, cfg)
    payload = {"pmf": {str(k): p for k, p in enumerate(law.pmf)}}
    rows = [(k, p) for k, p in enumerate(law.pmf)]
    header = ("k", "pmf")
    if alpha > 0.0:
        payload["lt_G"] = {str(k): ps.atmin_lt_G(spec, q, alpha, x, k, cfg)
                           for k in range(x + 1)}
        if q > 0.0:
            payload["lt_residual"] = {str(k): ps.atmin_lt_residual(spec, q, alpha, x, k, cfg)
                                      for k in range(x + 1)}
    _finish("passage atmin", spec, {"q": q, "x": x, "alpha": alpha}, payload, t0,
            out_format, rows=rows, header=header)


@passage_group.command("condition")
@_model_opt
@click.option("--q", required=True, type=float)
@click.option("--x-max", default=5, show_default=True)
@_tol_opt
@guarded
def passage_condition(model_path, q, x_max, cfg):
    t0 = time.perf_counter()
    spec = _load(model_path)
    gen = ps.conditioned_generator(spec, q, x_max, cfg)
    payload = {
        "x_max": gen.x_max,
        "leave_rates": {str(x + 1): r for x, r in enumerate(gen.leave_rates)},
        "jumps": {str(x + 1): {str(t): p for t, p in sorted(row.items())}
                  for x, row in enumerate(gen.jumps)},
        "kill_rate": gen.kill_rate,
    }
    _finish("passage condition", spec, {"q": q, "x_max": x_max}, payload, t0)


@passage_group.command("tilt")
@_model_opt
@click.option("--qbar", required=True, type=float)
@_tol_opt
@guarded
def passage_tilt(model_path, qbar, cfg):
    t0 = time.perf_counter()
    spec = _load(model_path)
    tilted = ps.tilted_model(spec, qbar, cfg)
    _finish("passage tilt", spec, {"qbar": qbar}, md.spec_to_dict(tilted), t0)


@passage_group.command("avalanche")
@_model_opt
@click.option("--q", required=True, type=float)
@click.option("--qbar", required=True, type=float)
@click.option("--x", "x_text", required=True)
@click.option("--a", "a_level", required=True, type=int)
@_tol_opt
@_out_opt
@guarded
def passage_avalanche(model_path, q, qbar, x_text, a_level, cfg, out_format):
    t0 = time.perf_counter()
    spec = _load(model_path)
    xs = _parse_levels(x_text)
    vals = [ps.lt_joint_avalanche(spec, q, qbar, x, a_level, cfg) for x in xs]
    _finish("passage avalanche", spec, {"q": q, "qbar": qbar, "x": x_text, "a": a_level},
            _levels_payload(xs, vals, "value"), t0, out_format,
            rows=list(zip(xs, vals)), header=("x", "value"))


# -------------------------------------------------------------------- control

@main.group("control")
def control_group():
    """Optimal immigration control."""


def _problem(spec, floor, q):
    return ctl.ControlProblem(spec, floor, q)


@control_group.command("value")
@_model_opt
@click.option("--q", required=True, type=float)
@click.option("--floor", default=0, show_default=True)
@click.option("--x", "x_text", required=True)
@_tol_opt
@_out_opt
@guarded
def control_value(model_path, q, floor, x_text, cfg, out_format):
    t0 = time.perf_counter()
    spec = _load(model_path)
    prob = _problem(spec, floor, q)
    xs = _parse_levels(x_text)
    vals = [ctl.optimal_value(prob, x, cfg) for x in xs]
    _finish("control value", spec, {"q": q, "floor": floor, "x": x_text},
            _levels_payload(xs, vals, "value"), t0, out_format,
            rows=list(zip(xs, vals)), header=("x", "value"))


@control_group.command("gap")
@_model_opt
@click.option("--q", required=True, type=float)
@click.option("--floor", default=0, show_default=True)
@click.option("--a", "a_text", required=True)
@_tol_opt
@_out_opt
@guarded
def control_gap(model_path, q, floor, a_text, cfg, out_format):
    t0 = time.perf_counter()
    spec = _load(model_path)
    prob = _problem(spec, floor, q)
    alist = _parse_levels(a_text)
    vals = [ctl.barrier_gap(prob, a, cfg) for a in alist]
    _finish("control gap", spec, {"q": q, "floor": floor, "a": a_text},
            _levels_payload(alist, vals, "value"), t0, out_format,
            rows=list(zip(alist, vals)), header=("a", "value"))


@control_group.command("bellman")
@_model_opt
@click.option("--q", required=True, type=float)
@click.option("--floor", default=0, show_default=True)
@click.option("--x-max", default=12, show_default=True)
@click.option("--f-max", default=12, show_default=True)
@_tol_opt
@guarded
def control_bellman(model_path, q, floor, x_max, f_max, cfg):
    t0 = time.perf_counter()
    spec = _load(model_path)
    prob = _problem(spec, floor, q)
    rep = ctl.verify_bellman(prob, x_max, f_max, cfg)
    payload = {"ok": rep.ok, "counterexample": list(rep.counterexample)
               if rep.counterexample else None}
    _finish("control bellman", spec, {"q": q, "floor": floor,
                                      "x_max": x_max, "f_max": f_max}, payload, t0)
    if not rep.ok:
        sys.exit(EXIT_REFUSED)


@control_group.command("simulate")
@_model_opt
@click.option("--q", required=True, type=float)
@click.option("--floor", default=0, show_default=True)
@click.option("--policy", default="barrier", show_default=True,
              type=click.Choice(["barrier", "topup"]))
@click.option("--level", default=0, show_default=True,
              help="barrier level / topup amount")
@click.option("--x", required=True, type=int)
@click.option("--paths", default=10000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--max-jumps", default=1000000, show_default=True)
@click.option("--threshold", default=1000000, show_default=True)
@guarded
def control_simulate(model_path, q, floor, policy, level, x, paths, seed,
                     max_jumps, threshold):
    t0 = time.perf_counter()
    spec = _load(model_path)
    prob = _problem(spec, floor, q)
    cfg = sim.SimConfig(seed=seed, n_paths=paths, max_jumps=max_jumps,
                        explosion_threshold=threshold)
    est = sim.simulate_controlled(prob, (policy, level), x, cfg)
    payload = {"mean": est.mean, "se": est.se, "n": est.n_effective,
               "censored_fraction": est.censored_fraction}
    _finish("control simulate", spec,
            {"q": q, "floor": floor, "policy": policy, "level": level,
             "x": x, "paths": paths, "seed": seed}, payload, t0)


# ------------------------------------------------------------------- simulate

@main.command("simulate")
@_model_opt
@click.option("--kind", type=click.Choice(["lt", "prob", "avalanche", "mean", "explosion"]),
              default="lt", show_default=True)
@click.option("--q", default=0.0, show_default=True)
@click.option("--qbar", default=0.0, show_default=True)
@click.option("--x", required=True, type=int)
@click.option("--a", "a_level", default=0, show_default=True)
@click.option("--paths", default=10000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--max-jumps", default=1000000, show_default=True)
@click.option("--threshold", default=1000000, show_default=True)
@click.option("--horizon", default=math.inf)
@guarded
def simulate_cmd(model_path, kind, q, qbar, x, a_level, paths, seed, max_jumps,
                 threshold, horizon):
    """Monte Carlo estimate of a passage/explosion quantity."""
    t0 = time.perf_counter()
    spec = _load(model_path)
    cfg = sim.SimConfig(seed=seed, n_paths=paths, max_jumps=max_jumps,
                        explosion_threshold=threshold, horizon=horizon)
    if kind == "lt" or kind == "prob":
        est = sim.estimate_lt_passage(spec, q if kind == "lt" else 0.0, x, a_level, cfg)
    elif kind == "avalanche":
        est = sim.estimate_joint_avalanche(spec, q, qbar, x, a_level, cfg)
    elif kind == "mean":
        est = sim.estimate_mean_passage(spec, x, a_level, cfg)
    else:
        est = sim.estimate_explosion(spec, q, x, a_level, cfg)
    payload = {"mean": est.mean, "se": est.se, "n": est.n_effective,
               "censored_fraction": est.censored_fraction}
    payload.update({k: v for k, v in est.diagnostics.items()})
    _finish("simulate", spec, {"kind": kind, "q": q, "qbar": qbar, "x": x, "a": a_level,
                               "paths": paths, "seed": seed}, payload, t0)


# --------------------------------------------------------------------- verify

@main.command("verify")
@_model_opt
@click.option("--suite", type=click.Choice(["analytic", "mc", "control"]), required=True)
@click.option("--paths", default=20000, show_default=True)
@click.option("--seed", default=7, show_default=True)
@click.option("--q", default=0.5, show_default=True,
              help="discount rate for the control suite")
@click.option("--floor", default=0, show_default=True)
@guarded
def verify_cmd(model_path, suite, paths, seed, q, floor):
    """Run an invariant suite against the model; exit 0 iff all checks pass."""
    spec = _load(model_path)
    from . import verify as vf
    if suite == "analytic":
        checks = vf.analytic_suite(spec)
    elif suite == "mc":
        checks = vf.mc_suite(spec, paths, seed)
    else:
        checks = vf.control_suite(spec, paths, seed, q, floor)
    failed = 0
    for name, ok, detail in checks:
        click.echo(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
        failed += 0 if ok else 1
    click.echo(json.dumps({"suite": suite, "checks": len(checks), "failed": failed}))
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
