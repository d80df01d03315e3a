"""Command-line front end: a thin table over the library.

The level commands (``scale``, ``passage lt|prob|mean|explosion|avalanche``,
``control value|gap``) are the rows of ``LEVEL_COMMANDS``: group, name, the
library call ``value(spec, level, cfg, **opts)``, the options in display order
(one of them the level option, ``--x`` or ``--a`` for ``gap``) and the payload
key; ``_level_command`` turns each row into a click command.  A level is ``n``
or an inclusive range ``lo..hi``: one level prints ``{key: value}``, a range
``{key: {level: value}}``, and ``--out csv`` a header and one row per level.
``model``, ``passage atmin|condition|tilt``, ``control bellman|simulate``,
``simulate`` and ``verify`` have payloads of their own and are written out.

Success prints one JSON document (or CSV rows) on stdout and exits 0; in JSON a
non-finite float (an infinite standard error, a NaN mean) prints as ``null``.
``_Group.main`` alone maps errors to exit codes: regime refusals exit 2 naming
the violated inequality; usage errors (malformed options or levels, rates or
levels outside a function's domain) exit 64.  Stdout is byte-stable for fixed
inputs (wall time goes to stderr).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time

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


def _digest(spec: md.ModelSpec) -> str:
    doc = json.dumps(md.spec_to_dict(spec), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _levels(ctx, param, text: str) -> list[int]:
    """``n`` or the inclusive range ``lo..hi``, as a nonempty list of levels."""
    lo, dots, hi = text.partition("..")
    try:
        levels = list(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        raise click.BadParameter(f"expected a level n or a range lo..hi, got {text!r}") from None
    if not levels:
        raise click.BadParameter(f"empty range {text!r}")
    return levels


def _tol_cfg(ctx, param, tol: float) -> QuadConfig:
    if not tol >= 1e-14:  # --tol is the tables' relative tolerance
        raise click.BadParameter(f"must be at least 1e-14, got {tol!r}")
    return QuadConfig(rel_tol=tol)


def _load(path: str) -> md.ModelSpec:
    try:
        return md.load_model(path)
    except (OSError, json.JSONDecodeError, ModelError, ValueError) as exc:
        raise click.UsageError(f"cannot load model {path}: {exc}")


def _strict(value):
    """``value`` with every non-finite float as None: RFC 8259 JSON has no NaN or Infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _finish(spec: md.ModelSpec, payload: dict, t0: float, out_format: str = "json",
            rows=(), header: tuple[str, ...] = ()) -> None:
    if out_format == "csv":
        click.echo(",".join(header))
        for row in rows:
            click.echo(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    else:
        click.echo(json.dumps(_strict(payload)))
    print(f"# wall_ms={1e3 * (time.perf_counter() - t0):.1f} model={_digest(spec)}",
          file=sys.stderr)


def _exit(code: int, message: str):
    print(message, file=sys.stderr)
    sys.exit(code)


class _Group(click.Group):
    def main(self, *args, **kwargs):
        """Run a command and map every error to the documented exit code."""
        kwargs.setdefault("standalone_mode", False)
        try:
            rv = super().main(*args, **kwargs)
        except click.UsageError as exc:
            _exit(EXIT_USAGE, f"usage error: {exc.format_message()}")
        except click.ClickException as exc:
            _exit(EXIT_USAGE, f"error: {exc.format_message()}")
        except click.exceptions.Abort:
            sys.exit(EXIT_USAGE)
        except (DomainError, ModelError) as exc:
            _exit(EXIT_USAGE, f"error: {exc}")
        except (UnsupportedRegimeError, PreconditionError, AdmissibilityError,
                QuadratureError) as exc:
            refused = (exc.inequality if isinstance(exc, UnsupportedRegimeError)
                       else "quadrature non-convergence" if isinstance(exc, QuadratureError)
                       else "precondition")
            _exit(EXIT_REFUSED, json.dumps({"refused": refused, "detail": str(exc)}))
        sys.exit(rv if isinstance(rv, int) else EXIT_OK)


@click.group(cls=_Group)
def main():
    """Scale functions and passage/explosion laws of branching chains with
    immigration and culling."""


@main.group("model")
def model_group():
    """Model file checks and classification."""


@main.group("passage")
def passage_group():
    """Passage/explosion transforms, probabilities, laws."""


@main.group("control")
def control_group():
    """Optimal immigration control."""


_model_opt = click.option("--model", "model_path", required=True, type=click.Path())
_tol_opt = click.option("--tol", "cfg", default=DEFAULT_CFG.rel_tol, show_default=True,
                        callback=_tol_cfg, help="relative tolerance of the tables")
_out_opt = click.option("--out", "out_format", type=click.Choice(["json", "csv"]),
                        default="json", show_default=True)
_q_opt = click.option("--q", required=True, type=float)
_qbar_opt = click.option("--qbar", required=True, type=float)
_a_opt = click.option("--a", required=True, type=int)
_floor_opt = click.option("--floor", default=0, show_default=True)


def _levels_opt(name: str, **kwargs):
    return click.option(name, "levels", callback=_levels, help="level n, or range lo..hi",
                        **kwargs)


_x_opt = _levels_opt("--x", required=True)


# --------------------------------------------------------------- level commands

_SCALE_KEYS = {"phi": "phi_q", "psi": "psi_q", "phi0": "phi_0", "phiqq": "phi_q_qbar"}


def _scale(spec, x, cfg, fn, q, qbar):
    """Evaluate a scale function at one level or a range of levels."""
    if fn == "psi":
        return sc.psi_q_fn(spec, q, x, cfg)
    if fn == "phiqq":
        return sc.phi_q_qbar_fn(spec, q, qbar, x, cfg)
    return sc.phi_fn(spec, 0.0 if fn == "phi0" else q, x, cfg)


def _explosion(spec, x, cfg, q, a, mean):
    if mean:
        return ps.mean_explosion(spec, x, cfg)
    if q == 0.0:
        return ps.prob_explosion_before(spec, x, a, cfg)
    return ps.lt_explosion_before(spec, q, x, a, cfg)


# (group, name, value(spec, level, cfg, **opts), options in display order[, payload key]);
# the library is looked up at call time, so wrapping its module attributes reaches the CLI.
LEVEL_COMMANDS = [
    (main, "scale", _scale,
     (click.option("--fn", type=click.Choice(list(_SCALE_KEYS)), default="phi",
                   show_default=True),
      click.option("--q", default=0.0, show_default=True),
      click.option("--qbar", default=0.0, show_default=True),
      _levels_opt("--x", default="1", show_default=True)),
     lambda fn, **_: _SCALE_KEYS[fn]),
    (passage_group, "lt", lambda spec, x, cfg, q, a: ps.lt_first_passage(spec, q, x, a, cfg),
     (_q_opt, _x_opt, _a_opt)),
    (passage_group, "prob", lambda spec, x, cfg, a: ps.prob_passage(spec, x, a, cfg),
     (_x_opt, _a_opt)),
    (passage_group, "mean", lambda spec, x, cfg, a: ps.mean_first_passage(spec, x, a, cfg),
     (_x_opt, _a_opt)),
    (passage_group, "explosion", _explosion,
     (click.option("--q", default=0.0, show_default=True,
                   help="q > 0: Laplace transform; q = 0: probability"),
      _x_opt, _a_opt,
      click.option("--mean", is_flag=True, help="mean explosion time instead"))),
    (passage_group, "avalanche",
     lambda spec, x, cfg, q, qbar, a: ps.lt_joint_avalanche(spec, q, qbar, x, a, cfg),
     (_q_opt, _qbar_opt, _x_opt, _a_opt)),
    (control_group, "value",
     lambda spec, x, cfg, q, floor: ctl.optimal_value(ctl.ControlProblem(spec, floor, q), x, cfg),
     (_q_opt, _floor_opt, _x_opt)),
    (control_group, "gap",
     lambda spec, a, cfg, q, floor: ctl.barrier_gap(ctl.ControlProblem(spec, floor, q), a, cfg),
     (_q_opt, _floor_opt, _levels_opt("--a", required=True))),
]


def _level_command(group, name, value, options, key="value") -> None:
    """Add ``group name``: ``value(spec, level, cfg, **opts)`` at each requested level."""

    def run(model_path, levels, cfg, out_format, **opts):
        t0 = time.perf_counter()
        spec = _load(model_path)
        vals = [value(spec, level, cfg, **opts) for level in levels]
        k = key(**opts) if callable(key) else key
        by_level = {str(level): v for level, v in zip(levels, vals)}
        _finish(spec, {k: vals[0] if len(levels) == 1 else by_level}, t0, out_format,
                rows=zip(levels, vals), header=(axis, k))

    for option in reversed((_model_opt, *options, _tol_opt, _out_opt)):
        run = option(run)
    command = group.command(name, help=value.__doc__)(run)
    # the CSV header names the level option (set before any call of run)
    axis = next(p.opts[0].lstrip("-") for p in command.params if p.name == "levels")


for _row in LEVEL_COMMANDS:
    _level_command(*_row)


# ----------------------------------------------------------------- model

@model_group.command("check")
@_model_opt
def model_check(model_path):
    t0 = time.perf_counter()
    spec = _load(model_path)
    problems = md.validate(spec)
    _finish(spec, {"valid": not problems, "violations": problems}, t0)
    if problems:
        sys.exit(EXIT_REFUSED)


@model_group.command("classify")
@_model_opt
def model_classify(model_path):
    t0 = time.perf_counter()
    spec = _load(model_path)
    rep = md.classify(spec)
    payload = {"criticality": rep.criticality, "varphi": rep.varphi, "phi": rep.phi,
               "explosive": rep.explosive, "critical_tangency": rep.critical_tangency}
    _finish(spec, payload, t0)


# --------------------------------------------------------------- passage

@passage_group.command("atmin")
@_model_opt
@_q_opt
@click.option("--x", required=True, type=int)
@click.option("--alpha", default=0.0, show_default=True,
              help="also emit the conditional transforms at this argument")
@_tol_opt
@_out_opt
def passage_atmin(model_path, q, x, alpha, cfg, out_format):
    t0 = time.perf_counter()
    spec = _load(model_path)
    pmf = ps.atmin_law(spec, q, x, cfg).pmf
    payload = {"pmf": {str(k): p for k, p in enumerate(pmf)}}
    if alpha != 0.0:
        payload["lt_G"] = {str(k): ps.atmin_lt_G(spec, q, alpha, x, k, cfg)
                           for k in range(x + 1)}
        if q > 0.0:
            payload["lt_residual"] = {str(k): ps.atmin_lt_residual(spec, q, alpha, x, k, cfg)
                                      for k in range(x + 1)}
    _finish(spec, payload, t0, out_format, rows=enumerate(pmf), header=("k", "pmf"))


@passage_group.command("condition")
@_model_opt
@_q_opt
@click.option("--x-max", default=5, show_default=True)
@_tol_opt
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
    _finish(spec, payload, t0)


@passage_group.command("tilt")
@_model_opt
@_qbar_opt
def passage_tilt(model_path, qbar):
    t0 = time.perf_counter()
    spec = _load(model_path)
    _finish(spec, md.spec_to_dict(ps.tilted_model(spec, qbar)), t0)


# --------------------------------------------------------------- control

@control_group.command("bellman")
@_model_opt
@_q_opt
@_floor_opt
@click.option("--x-max", default=12, show_default=True)
@click.option("--f-max", default=12, show_default=True)
@_tol_opt
def control_bellman(model_path, q, floor, x_max, f_max, cfg):
    t0 = time.perf_counter()
    spec = _load(model_path)
    rep = ctl.verify_bellman(ctl.ControlProblem(spec, floor, q), x_max, f_max, cfg)
    payload = {"ok": rep.ok, "counterexample": list(rep.counterexample)
               if rep.counterexample else None}
    _finish(spec, payload, t0)
    if not rep.ok:
        sys.exit(EXIT_REFUSED)


@control_group.command("simulate")
@_model_opt
@_q_opt
@_floor_opt
@click.option("--policy", default="barrier", show_default=True,
              type=click.Choice(["barrier", "topup"]))
@click.option("--level", default=0, show_default=True,
              help="barrier level / topup amount")
@click.option("--x", required=True, type=int)
@click.option("--paths", default=10000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--max-jumps", default=1000000, show_default=True)
@click.option("--threshold", default=1000000, show_default=True)
def control_simulate(model_path, q, floor, policy, level, x, paths, seed,
                     max_jumps, threshold):
    t0 = time.perf_counter()
    spec = _load(model_path)
    cfg = sim.SimConfig(seed=seed, n_paths=paths, max_jumps=max_jumps,
                        explosion_threshold=threshold)
    est = sim.simulate_controlled(ctl.ControlProblem(spec, floor, q), (policy, level), x, cfg)
    payload = {"mean": est.mean, "se": est.se, "n": est.n_effective,
               "censored_fraction": est.censored_fraction}
    _finish(spec, payload, t0)


# -------------------------------------------------------------- simulate

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
    _finish(spec, payload, t0)


# ---------------------------------------------------------------- verify

@main.command("verify")
@_model_opt
@click.option("--suite", type=click.Choice(["analytic", "mc", "control"]), required=True)
@click.option("--paths", default=20000, show_default=True)
@click.option("--seed", default=7, show_default=True)
@click.option("--q", default=0.5, show_default=True,
              help="discount rate for the control suite")
@_floor_opt
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
