"""Optimal immigration control: barrier-strategy costs, the value function,
and the finite-grid Bellman inequality checks.

The controlled chain is pure branching (mu = 0); control immigrates individuals
at death times (and at time 0) to keep the population above a floor, each
immigrant costing 1, costs discounted at rate q.  The optimal strategy is the
barrier strategy at the floor itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import model as md
from . import scale as sc
from .errors import DomainError, PreconditionError
from .quad import DEFAULT_CFG, QuadConfig


@dataclass(frozen=True)
class ControlProblem:
    spec: md.ModelSpec
    floor: int       # protected level: the controlled population must stay above it
    q: float         # discount rate

    def __post_init__(self):
        if self.spec.mu != 0.0 or self.spec.immigration.kind != "none":
            raise PreconditionError(
                "control problems require a pure branching model (mu = 0); "
                "endogenous immigration mixed with control is not supported")
        if self.floor < 0 or self.floor != int(self.floor):
            raise DomainError("floor must be a nonnegative integer")
        if self.q < 0.0:
            raise DomainError("q must be >= 0")
        if self.q == 0.0 and md.root_varphi(self.spec) >= 1.0:
            raise PreconditionError(
                "q = 0 requires supercritical branching (value is infinite otherwise)")


def barrier_gap(problem: ControlProblem, a: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """B(a) = Phi_q(a) - Phi_q(a+1) > 0; maximal at the floor."""
    if a < problem.floor:
        raise PreconditionError("barrier must sit at or above the floor")
    spec, q = problem.spec, problem.q
    return sc.phi_fn(spec, q, a, cfg) - sc.phi_fn(spec, q, a + 1, cfg)


def barrier_value(problem: ControlProblem, a: int, x: int,
                  cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Expected discounted cost W_a(x) of the barrier strategy at level a."""
    if x < 0 or x != int(x):
        raise DomainError("x must be a nonnegative integer")
    gap = barrier_gap(problem, a, cfg)
    spec, q = problem.spec, problem.q
    if x > a:
        return sc.phi_fn(spec, q, x, cfg) / gap
    return a + 1 - x + sc.phi_fn(spec, q, a + 1, cfg) / gap


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
    """
    fl = problem.floor
    B = barrier_gap(problem, fl, cfg)
    phi = lambda y: sc.phi_fn(problem.spec, problem.q, y, cfg)
    rhs_low = fl + 1 + phi(fl + 1) / B
    tol = 1e-9 * max(1.0, rhs_low)
    for x in range(0, fl + 1):
        for f in range(fl + 2 - x, f_max + 1):
            if f + phi(x + f) / B < rhs_low - x - tol:
                return BellmanReport(False, (x, f))
    for x in range(fl + 1, x_max + 1):
        target = phi(x) / B
        for f in range(1, f_max + 1):
            if f + phi(x + f) / B < target - tol:
                return BellmanReport(False, (x, f))
    return BellmanReport(True, None)
