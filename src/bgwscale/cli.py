"""Command-line front end: a thin table over the library.

Every command is a body ``body(spec, **opts)`` put in the tree by ``_command``,
which loads ``--model``, times the call, prints what the body returns and exits
with its code.  A body returns its payload, ``(payload, rows, header)`` when it
also has a CSV form, or ``(payload, code)`` for a nonzero exit code.

The level commands (``scale``, ``passage lt|prob|mean|explosion|avalanche``,
``control value|gap``) are the rows of ``LEVEL_COMMANDS``: group, name, the
library call ``value(spec, level, cfg, **opts)``, the options in display order
(one of them the level option, ``--x`` or ``--a`` for ``gap``) and the payload
key; ``_level_command`` turns each row into a body.  A level is ``n`` or an
inclusive range ``lo..hi``: one level prints ``{key: value}``, a range
``{key: {level: value}}``, and ``--out csv`` a header and one row per level.

Success prints one JSON document (or CSV rows) on stdout and exits 0; in JSON a
non-finite float (an infinite standard error, a NaN mean) prints as ``null``.
``verify`` prints one PASS/FAIL line per check before its summary and exits 1
when a check fails.  ``_Group.main`` alone maps errors to exit codes: regime
refusals exit 2 naming the violated inequality; usage errors (malformed options
or levels, rates or levels outside a function's domain) exit 64.  Stdout is
byte-stable for fixed inputs (wall time goes to stderr).
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
_sim_opts = (  # the fields of sim.SimConfig shared by both simulate commands
    click.option("--paths", "n_paths", default=10000, show_default=True),
    click.option("--seed", default=0, show_default=True),
    click.option("--max-jumps", default=1000000, show_default=True),
    click.option("--threshold", "explosion_threshold", default=1000000, show_default=True),
)


def _levels_opt(name: str, **kwargs):
    return click.option(name, "levels", callback=_levels, help="level n, or range lo..hi",
                        **kwargs)


_x_opt = _levels_opt("--x", required=True)


def _command(group, name: str, *options):
    """Decorator: add ``group name`` (``--model`` first, then ``options``) running ``body``.

    The command loads the model, calls ``body(spec, **opts)`` and prints the
    payload it returns as JSON, or its rows under ``--out csv``, then the wall
    time and the model's digest on stderr; it exits with the body's code.
    """

    def decorate(body):
        def run(model_path, out_format="json", **opts):
            t0 = time.perf_counter()
            spec = _load(model_path)
            result = body(spec, **opts)
            payload, *more = result if isinstance(result, tuple) else (result,)
            if out_format == "csv":
                rows, header = more
                click.echo(",".join(header))
                for row in rows:
                    click.echo(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
            else:
                click.echo(json.dumps(_strict(payload)))
            print(f"# wall_ms={1e3 * (time.perf_counter() - t0):.1f} model={_digest(spec)}",
                  file=sys.stderr)
            return more[0] if len(more) == 1 else EXIT_OK

        for option in reversed((_model_opt, *options)):
            run = option(run)
        return group.command(name, help=body.__doc__)(run)

    return decorate


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

    def body(spec, levels, cfg, **opts):
        vals = [value(spec, level, cfg, **opts) for level in levels]
        k = key(**opts) if callable(key) else key
        by_level = {str(level): v for level, v in zip(levels, vals)}
        return {k: vals[0] if len(levels) == 1 else by_level}, zip(levels, vals), (axis, k)

    body.__doc__ = value.__doc__
    command = _command(group, name, *options, _tol_opt, _out_opt)(body)
    # the CSV header names the level option (set before any call of body)
    axis = next(p.opts[0].lstrip("-") for p in command.params if p.name == "levels")


for _row in LEVEL_COMMANDS:
    _level_command(*_row)


# ----------------------------------------------------------------- model

@_command(model_group, "check")
def model_check(spec):
    problems = md.validate(spec)
    return {"valid": not problems, "violations": problems}, EXIT_REFUSED if problems else EXIT_OK


@_command(model_group, "classify")
def model_classify(spec):
    rep = md.classify(spec)
    return {"criticality": rep.criticality, "varphi": rep.varphi, "phi": rep.phi,
            "explosive": rep.explosive, "critical_tangency": rep.critical_tangency}


# --------------------------------------------------------------- passage

@_command(passage_group, "atmin",
          _q_opt,
          click.option("--x", required=True, type=int),
          click.option("--alpha", default=0.0, show_default=True,
                       help="also emit the conditional transforms at this argument"),
          _tol_opt,
          _out_opt)
def passage_atmin(spec, q, x, alpha, cfg):
    pmf = ps.atmin_law(spec, q, x, cfg).pmf
    payload = {"pmf": {str(k): p for k, p in enumerate(pmf)}}
    if alpha != 0.0:
        payload["lt_G"] = {str(k): ps.atmin_lt_G(spec, q, alpha, x, k, cfg)
                           for k in range(x + 1)}
        if q > 0.0:
            payload["lt_residual"] = {str(k): ps.atmin_lt_residual(spec, q, alpha, x, k, cfg)
                                      for k in range(x + 1)}
    return payload, enumerate(pmf), ("k", "pmf")


@_command(passage_group, "condition",
          _q_opt,
          click.option("--x-max", default=5, show_default=True),
          _tol_opt)
def passage_condition(spec, q, x_max, cfg):
    gen = ps.conditioned_generator(spec, q, x_max, cfg)
    return {
        "x_max": gen.x_max,
        "leave_rates": {str(x + 1): r for x, r in enumerate(gen.leave_rates)},
        "jumps": {str(x + 1): {str(t): p for t, p in sorted(row.items())}
                  for x, row in enumerate(gen.jumps)},
        "kill_rate": gen.kill_rate,
    }


@_command(passage_group, "tilt", _qbar_opt)
def passage_tilt(spec, qbar):
    return md.spec_to_dict(ps.tilted_model(spec, qbar))


# --------------------------------------------------------------- control

@_command(control_group, "bellman",
          _q_opt,
          _floor_opt,
          click.option("--x-max", default=12, show_default=True),
          click.option("--f-max", default=12, show_default=True),
          _tol_opt)
def control_bellman(spec, q, floor, x_max, f_max, cfg):
    rep = ctl.verify_bellman(ctl.ControlProblem(spec, floor, q), x_max, f_max, cfg)
    payload = {"ok": rep.ok, "counterexample": list(rep.counterexample)
               if rep.counterexample else None}
    return payload, EXIT_OK if rep.ok else EXIT_REFUSED


# ------------------------------------------------------------- simulation

def _estimate(est: sim.Estimate) -> dict:
    return {"mean": est.mean, "se": est.se, "n": est.n_effective,
            "censored_fraction": est.censored_fraction}


@_command(control_group, "simulate",
          _q_opt,
          _floor_opt,
          click.option("--policy", default="barrier", show_default=True,
                       type=click.Choice(["barrier", "topup"])),
          click.option("--level", default=0, show_default=True,
                       help="barrier level / topup amount"),
          click.option("--x", required=True, type=int),
          *_sim_opts)
def control_simulate(spec, q, floor, policy, level, x, **sim_cfg):
    cfg = sim.SimConfig(**sim_cfg)
    return _estimate(sim.simulate_controlled(ctl.ControlProblem(spec, floor, q), (policy, level),
                                             x, cfg))


@_command(main, "simulate",
          click.option("--kind", default="lt", show_default=True,
                       type=click.Choice(["lt", "prob", "avalanche", "mean", "explosion"])),
          click.option("--q", default=0.0, show_default=True),
          click.option("--qbar", default=0.0, show_default=True),
          click.option("--x", required=True, type=int),
          click.option("--a", "a_level", default=0, show_default=True),
          *_sim_opts,
          click.option("--horizon", default=math.inf))
def simulate_cmd(spec, kind, q, qbar, x, a_level, **sim_cfg):
    """Monte Carlo estimate of a passage/explosion quantity."""
    cfg = sim.SimConfig(**sim_cfg)
    if kind == "lt" or kind == "prob":
        est = sim.estimate_lt_passage(spec, q if kind == "lt" else 0.0, x, a_level, cfg)
    elif kind == "avalanche":
        est = sim.estimate_joint_avalanche(spec, q, qbar, x, a_level, cfg)
    elif kind == "mean":
        est = sim.estimate_mean_passage(spec, x, a_level, cfg)
    else:
        est = sim.estimate_explosion(spec, q, x, a_level, cfg)
    return {**_estimate(est), **est.diagnostics}


# ---------------------------------------------------------------- verify

@_command(main, "verify",
          click.option("--suite", type=click.Choice(["analytic", "mc", "control"]), required=True),
          click.option("--paths", default=20000, show_default=True),
          click.option("--seed", default=7, show_default=True),
          click.option("--q", default=0.5, show_default=True,
                       help="discount rate for the control suite"),
          _floor_opt)
def verify_cmd(spec, suite, paths, seed, q, floor):
    """Run an invariant suite against the model; exit 0 iff all checks pass."""
    from . import verify as vf
    if suite == "analytic":
        checks = vf.analytic_suite(spec)
    elif suite == "mc":
        checks = vf.mc_suite(spec, paths, seed)
    else:
        checks = vf.control_suite(spec, paths, seed, q, floor)
    for name, ok, detail in checks:
        click.echo(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
    failed = sum(not ok for _, ok, _ in checks)
    return {"suite": suite, "checks": len(checks), "failed": failed}, 1 if failed else EXIT_OK


if __name__ == "__main__":
    main()
