"""Optimal immigration control: barrier-strategy costs, the value function,
and the finite-grid Bellman inequality checks.

The controlled chain is pure branching (mu = 0); control immigrates individuals
at death times (and at time 0) to keep the population above a floor, each
immigrant costing 1, costs discounted at rate q.  The optimal strategy is the
barrier strategy at the floor itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import model as md
from . import scale as sc
from .errors import PreconditionError, check_level, check_rate
from .quad import DEFAULT_CFG, QuadConfig


@dataclass(frozen=True)
class ControlProblem:
    spec: md.ModelSpec
    floor: int       # protected level: the controlled population must stay above it
    q: float         # discount rate

    def __post_init__(self):
        if self.spec.has_immigration:
            raise PreconditionError(
                "control problems require a pure branching model (mu = 0); "
                "endogenous immigration mixed with control is not supported")
        check_level(self.floor, "floor")
        check_rate(self.q, "q")
        if self.q == 0.0 and md.root_varphi(self.spec) >= 1.0:
            raise PreconditionError(
                "q = 0 requires supercritical branching (value is infinite otherwise)")


def _gap(problem: ControlProblem, a: int, cfg: QuadConfig) -> tuple[sc._Resolved, float, float]:
    """(Phi_q, B(a), log B(a)).  B(a) = Phi_q(a) - Phi_q(a+1) is one table integral
    with the kernel 1 - v, whose log stays finite where Phi_q(a) underflows, or
    varphi^a - varphi^(a+1) exactly on the power branch."""
    a = check_level(a, "a")
    if a < problem.floor:
        raise PreconditionError("barrier must sit at or above the floor")
    r = sc._phi(problem.spec, problem.q, cfg)
    if r.tbl is None:
        log_gap = a * math.log(r.base) + (math.log1p(-r.base) if r.base < 1.0 else -math.inf)
        return r, r.base ** a - r.base ** (a + 1), log_gap
    log_gap = r.log_pref + r.tbl.log_value(a, r.tbl.log_d_one)
    return r, math.exp(log_gap), log_gap


def barrier_gap(problem: ControlProblem, a: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """B(a) = Phi_q(a) - Phi_q(a+1) > 0; maximal at the floor."""
    return _gap(problem, a, cfg)[1]


def barrier_value(problem: ControlProblem, a: int, x: int,
                  cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Expected discounted cost W_a(x) of the barrier strategy at level a:
    Phi_q(x)/B(a) above a, a + 1 - x + Phi_q(a+1)/B(a) at or below it.  The
    ratio is exp of a log difference, except on the power branch while B(a)
    is a normal float, where it stays varphi^y / B(a)."""
    x = sc._check_x(x)
    r, gap, log_gap = _gap(problem, a, cfg)
    y = x if x > a else a + 1
    ratio = (r.value(y) / gap if r.tbl is None and gap >= sys.float_info.min
             else math.exp(r.log(y) - log_gap))
    return ratio if x > a else a + 1 - x + ratio


def optimal_value(problem: ControlProblem, x: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """V(x): the barrier strategy at the floor is optimal."""
    return barrier_value(problem, problem.floor, x, cfg)


class BellmanReport(NamedTuple):
    ok: bool
    counterexample: tuple[int, int] | None  # (x, f) of the first violation


def verify_bellman(problem: ControlProblem, x_max: int, f_max: int,
                   cfg: QuadConfig = DEFAULT_CFG) -> BellmanReport:
    """Falsification harness for the two Bellman inequalities on a finite grid.

    (ii)  x <= floor, f >= floor+2-x:  f + Phi(x+f)/B >= floor+1-x + Phi(floor+1)/B
    (iii) floor < x <= x_max, f >= 1:  f + Phi(x+f)/B >= Phi(x)/B

    The analytic proof covers all f; the grid check guards the implementation.
    Every Phi(y)/B is exp of a log difference, read from one array call over
    the levels floor+1..max(floor, x_max)+f_max (the only ones the checks read,
    so Phi(y)/B cannot overflow); the first violation in (x, f) order is reported.
    """
    fl, x_max, f_max = problem.floor, check_level(x_max, "x_max"), check_level(f_max, "f_max")
    r, _, log_gap = _gap(problem, fl, cfg)
    x = np.arange(max(fl, x_max) + 1)[:, None]
    f = np.arange(1, f_max + 1)
    ratio = np.exp(r.log(np.arange(fl + 1, max(fl, x_max) + max(f_max, 1) + 1)) - log_gap)
    over = lambda y: ratio[np.maximum(y - fl - 1, 0)]  # Phi(y)/B for y > fl
    rhs_low = fl + 1 + ratio[0]
    tol = 1e-9 * max(1.0, rhs_low)
    low = x <= fl
    bad = (np.where(low, f >= fl + 2 - x, True)
           & (f + over(x + f) < np.where(low, rhs_low - x, over(x)) - tol))
    first = np.flatnonzero(bad)
    if first.size:
        x0, f0 = divmod(int(first[0]), f_max)
        return BellmanReport(False, (x0, f0 + 1))
    return BellmanReport(True, None)
