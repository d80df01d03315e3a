"""Invariant suites behind ``bgwscale verify``.

Each suite returns a list of (name, ok, detail) rows.  The analytic suite
checks internal identities (roots, harmonic equation, telescoping, dichotomy);
the mc suite cross-checks analytic values against the exact simulator at 3-4
sigma; the control suite checks barrier optimality and the Bellman grid.
"""

from __future__ import annotations

import math

import numpy as np

from . import control as ctl
from . import model as md
from . import passage as ps
from . import scale as sc
from . import sim
from .errors import PreconditionError, QuadratureError, UnsupportedRegimeError
from .quad import DEFAULT_CFG

Check = tuple[str, bool, str]


def _supported_qs(spec: md.ModelSpec, qs=(0.25, 1.0, 4.0), resolve=sc._phi) -> list[float]:
    """The rates in ``qs`` that ``resolve`` answers; the rest it refuses by
    regime or by the chart's band, and the suites skip them."""
    out = []
    for q in qs:
        try:
            resolve(spec, q, DEFAULT_CFG)
        except (UnsupportedRegimeError, QuadratureError):
            continue
        out.append(q)
    return out


def analytic_suite(spec: md.ModelSpec) -> list[Check]:
    checks: list[Check] = []
    problems = md.validate(spec)
    checks.append(("model valid", not problems, ";".join(problems)))
    if problems:
        return checks

    err = abs(spec.offspring.pgf(1.0) - 1.0)
    checks.append(("offspring pgf(1) = 1", err <= 1e-12, f"err={err:.2e}"))
    if spec.has_immigration:
        err = abs(spec.immigration.pgf(1.0) - 1.0)
        checks.append(("immigration pgf(1) = 1", err <= 1e-12, f"err={err:.2e}"))

    varphi = md.root_varphi(spec)
    resid = abs(spec.offspring.pgf(varphi) - varphi)
    bound = 10 * 1e-13 * max(1.0, abs(spec.offspring.pgf_prime(min(varphi, 1 - 1e-9))))
    checks.append(("varphi root residual", resid <= max(bound, 5e-12), f"resid={resid:.2e}"))
    if varphi < 1.0:
        grid = np.linspace(varphi * 0.05, varphi * 0.95, 8)
        ok = bool(np.all(spec.offspring.pgf(grid) > grid))
        checks.append(("pgf above identity below varphi", ok, ""))

    if spec.has_culling:
        phis = [md.root_phi_q(spec, q) for q in (0.25, 0.5, 1.0, 2.0, 4.0)]
        ok = all(a > b for a, b in zip(phis, phis[1:]))
        checks.append(("phi_q strictly decreasing in q", ok, ""))
    vqs = [md.root_varphi_qbar(spec, qb) for qb in (0.5, 1.0, 2.0, 4.0)]
    ok = all(a > b for a, b in zip(vqs, vqs[1:])) and vqs[0] < varphi + 1e-12
    checks.append(("varphi_qbar decreasing below varphi", ok, ""))

    worst = 0.0
    for q in _supported_qs(spec):
        for x in range(1, 21):
            worst = max(worst, sc.harmonic_residual(spec, q, 0.0, "phi_q", x))
    checks.append(("harmonic residual Phi_q < 1e-6", worst < 1e-6, f"worst={worst:.2e}"))
    if md.is_explosive(spec):
        worst = 0.0
        for q in _supported_qs(spec, resolve=sc._psi_q):
            for x in range(1, 21):
                worst = max(worst, sc.harmonic_residual(spec, q, 0.0, "psi_q", x))
        checks.append(("harmonic residual Psi_q < 1e-6", worst < 1e-6, f"worst={worst:.2e}"))

    qs = _supported_qs(spec, (1.0, 2.0))
    if qs:
        q = qs[0]
        law = ps.atmin_law(spec, q, 10)
        tot = sum(law.pmf)
        checks.append(("at-minimum pmf telescopes to 1", abs(tot - 1.0) <= 1e-10,
                       f"sum={tot!r}"))

    if md.is_explosive(spec):
        try:
            worst = 0.0
            for x, a in ((1, 0), (2, 0), (3, 1)):
                s = ps.prob_explosion_before(spec, x, a) + ps.prob_passage(spec, x, a)
                worst = max(worst, abs(s - 1.0))
            checks.append(("explosion/passage dichotomy", worst <= 1e-8, f"worst={worst:.2e}"))
        except (UnsupportedRegimeError, PreconditionError) as exc:
            checks.append(("explosion/passage dichotomy", True, f"skipped: {exc}"))

    # delimiter invariance of Phi_q ratios
    for q in _supported_qs(spec, (2.0, 4.0))[:1]:
        r1 = sc.phi_q_fn(spec, q, 3) / sc.phi_q_fn(spec, q, 1)
        r2 = (sc.phi_q_with_delimiter(spec, q, 3, varphi / 2)
              / sc.phi_q_with_delimiter(spec, q, 1, varphi / 2))
        checks.append(("delimiter invariance of ratios", abs(r1 - r2) <= 1e-9,
                       f"diff={abs(r1 - r2):.2e}"))

    tilted = ps.tilted_model(spec, 1.0)
    mean = tilted.offspring.mean()
    tot = float(np.sum(tilted.offspring.pmf))
    checks.append(("tilted mean not supercritical", mean <= 1.0 + 1e-9, f"mean={mean!r}"))
    checks.append(("tilted offspring pmf sums to 1", abs(tot - 1.0) <= 1e-12, f"sum={tot!r}"))
    return checks


def _mc_params(spec: md.ModelSpec) -> dict:
    explosive = md.is_explosive(spec)
    supercrit = md.root_varphi(spec) < 1.0
    if explosive:
        return {"explosion_threshold": 100000, "max_jumps": 1000000, "horizon": math.inf}
    if supercrit:
        return {"explosion_threshold": 500, "max_jumps": 200000, "horizon": math.inf}
    return {"explosion_threshold": 800, "max_jumps": 1000000, "horizon": 80.0}


def mc_suite(spec: md.ModelSpec, paths: int, seed: int) -> list[Check]:
    checks: list[Check] = []
    pars = _mc_params(spec)
    phi = md.root_phi_q(spec, 0.0)

    def cfg(s_off: int) -> sim.SimConfig:
        return sim.SimConfig(seed=seed + s_off, n_paths=paths, **pars)

    for q in _supported_qs(spec, (1.0,)):
        want = ps.lt_first_passage(spec, q, 1, 0)
        est = sim.estimate_lt_passage(spec, q, 1, 0, cfg(1))
        dev = abs(est.mean - want) / max(est.se, 1e-12)
        checks.append((f"MC lt passage q={q} x=1", dev <= 3.0,
                       f"dev={dev:.2f}sigma est={est.mean!r} want={want!r}"))

    if _supported_qs(spec, (0.0,)):
        want = ps.prob_passage(spec, 1, 0)
        est = sim.estimate_lt_passage(spec, 0.0, 1, 0, cfg(2))
        dev = abs(est.mean - want) / max(est.se, 1e-12)
        checks.append(("MC passage probability x=1", dev <= 3.0 or est.se == 0.0,
                       f"dev={dev:.2f}sigma censored={est.censored_fraction}"))

    for q in _supported_qs(spec, (1.0,)):
        law = ps.atmin_law(spec, q, 3)
        res = sim.atmin_clock_sample(spec, q, 3, cfg(3))
        done = (res.status == sim.CLOCK_RING) | (res.status == sim.HIT)
        # a path stopped at the explosion threshold has already seen its minimum
        done |= res.status == sim.THRESHOLD
        counts = np.bincount(res.min_level[done], minlength=4)[:4]
        n = int(np.sum(done))
        worst = 0.0
        for k in range(4):
            p = law.pmf[k]
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            worst = max(worst, abs(counts[k] / n - p) / sigma)
        checks.append((f"MC at-minimum law q={q} x=3", worst <= 4.0,
                       f"worst cell dev={worst:.2f}sigma"))

    if md.is_explosive(spec):
        want = ps.prob_explosion_before(spec, 1, 0)
        est = sim.estimate_explosion(spec, 0.0, 1, 0, cfg(4))
        dev = abs(est.mean - want) / max(est.se, 1e-12)
        checks.append(("MC explosion probability", dev <= 3.0,
                       f"dev={dev:.2f}sigma proxy_delta={est.diagnostics['proxy_delta']!r}"))

    try:
        want = ps.lt_joint_avalanche(spec, 0.5, 0.5, 2, 0)
        est = sim.estimate_joint_avalanche(spec, 0.5, 0.5, 2, 0, cfg(5))
        dev = abs(est.mean - want) / max(est.se, 1e-12)
        checks.append(("MC avalanche transform q=qbar=0.5", dev <= 3.0,
                       f"dev={dev:.2f}sigma"))
    except (UnsupportedRegimeError, PreconditionError):
        pass

    try:
        if ps.certain_extinction(spec) and phi < 1.0:
            want = ps.mean_first_passage(spec, 1, 0)
            est = sim.estimate_mean_passage(spec, 1, 0, cfg(6))
            dev = abs(est.mean - want) / max(est.se, 1e-12)
            checks.append(("MC mean passage time", dev <= 3.0, f"dev={dev:.2f}sigma"))
    except (UnsupportedRegimeError, PreconditionError):
        pass
    return checks


def control_suite(spec: md.ModelSpec, paths: int, seed: int, q: float,
                  floor: int) -> list[Check]:
    checks: list[Check] = []
    try:
        prob = ctl.ControlProblem(spec, floor, q)
    except PreconditionError as exc:  # reported, not raised; a DomainError is a usage error
        return [("control problem admissible", False, str(exc))]

    gaps = [ctl.barrier_gap(prob, a) for a in range(floor, floor + 7)]
    ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    checks.append(("B(a) strictly decreasing", ok, ""))

    x_probe = floor + 1
    vals = [ctl.barrier_value(prob, a, x_probe) for a in range(floor, floor + 7)]
    checks.append(("barrier value minimized at the floor",
                   int(np.argmin(vals)) == 0, f"values={[round(v, 6) for v in vals]}"))

    v1, v5, v20 = (ctl.optimal_value(prob, x) for x in (floor + 1, floor + 5, floor + 20))
    checks.append(("value function decreasing to 0", v20 < v5 < v1,
                   f"V={v1!r},{v5!r},{v20!r}"))

    rep = ctl.verify_bellman(prob, 12, 12)
    checks.append(("Bellman inequalities on grid", rep.ok, str(rep.counterexample)))

    cfg = sim.SimConfig(seed=seed, n_paths=paths, explosion_threshold=10**6)
    est = sim.simulate_controlled(prob, ("barrier", floor), floor + 1, cfg)
    want = ctl.optimal_value(prob, floor + 1)
    dev = abs(est.mean - want) / max(est.se, 1e-12)
    checks.append(("MC barrier cost matches value", dev <= 3.0,
                   f"dev={dev:.2f}sigma est={est.mean!r} want={want!r}"))
    return checks
