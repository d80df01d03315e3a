"""Reference values computed apart from bgwscale.

Nothing here imports the package under test.  Three kinds of reference:

* the birth-death oracle, for binary offspring (p0, p2) at rate lam with
  +1 immigration or -1 culling at rate mu: a continued fraction for
  Phi(y)/Phi(y-1) under state-dependent killing q + qbar*y, the series for the
  mean passage time, and the exact sum for the q = 0 passage probability;
* the paper's closed forms on the fixtures m1-m5;
* properties every answer must have (used by the workloads directly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BirthDeath:
    """Binary branching with an optional +1 (``step=1``) or -1 (``step=-1``) jump at rate mu."""

    p0: float
    p2: float
    lam: float
    step: int = 0
    mu: float = 0.0

    def up(self, y: int) -> float:
        return self.lam * self.p2 * y + (self.mu if self.step == 1 else 0.0)

    def down(self, y: int) -> float:
        return self.lam * self.p0 * y + (self.mu if self.step == -1 else 0.0)

    def ratios(self, q: float, qbar: float, y_max: int) -> list[float]:
        """r[y] = Phi(y)/Phi(y-1) for y = 1..y_max (r[0] unused), killing q + qbar*y.

        Backward continued fraction r(y) = d(y) / (b(y) + d(y) + k(y) - b(y) r(y+1)),
        started far above y_max at the smaller root of the frozen-rate quadratic;
        the backward recursion damps the start error geometrically.
        """
        if q == 0.0 and qbar == 0.0:
            return self._ratios_q0(y_max)
        top = 2 * y_max + 400
        b, d = self.up(top), self.down(top)
        s = b + d + q + qbar * top
        r = (s - math.sqrt(s * s - 4.0 * b * d)) / (2.0 * b) if b > 0.0 else d / s
        out = [0.0] * (y_max + 1)
        for y in range(top, 0, -1):
            b, d = self.up(y), self.down(y)
            r = d / (b + d + q + qbar * y - b * r)
            if y <= y_max:
                out[y] = r
        return out

    def _ratios_q0(self, y_max: int) -> list[float]:
        """P_y(T_{y-1} < inf) = S_y / (1 + S_y), S_y = sum_{k>=y} prod_{j=y}^k d(j)/b(j)."""
        out = [0.0] * (y_max + 1)
        for y in range(1, y_max + 1):
            out[y] = self._hit_below(y)
        return out

    def _hit_below(self, y: int) -> float:
        if self.p0 == self.p2 and self.step == 1:
            # d(j)/b(j) = j/(j+c), c = 2mu/lam: the sum is the Gauss series y/(c-1)
            c = 2.0 * self.mu / self.lam
            return 1.0 if c <= 1.0 else y / (y + c - 1.0)
        if self.down(10 ** 6) >= self.up(10 ** 6):
            return 1.0  # ratios d/b stay >= 1 far out: the sum diverges
        total, term, k = 0.0, 1.0, y
        while True:
            term *= self.down(k) / self.up(k)
            total += term
            if term < 1e-18 * total:
                return total / (1.0 + total)
            k += 1

    def lt(self, q: float, qbar: float, x: int, a: int) -> float:
        """P_x[exp(-q T_a - qbar int X); T_a < inf]."""
        if x == a:
            return 1.0
        r = self.ratios(q, qbar, x)
        return math.prod(r[a + 1:x + 1])

    def mean_passage(self, x: int, a: int) -> float:
        """E_x[T_a] as sum over y of m(y) = sum_{k>=y} prod_{j=y}^{k-1} b(j) / prod_{j=y}^k d(j)."""
        total = 0.0
        for y in range(a + 1, x + 1):
            term = 1.0 / self.down(y)
            m, k = term, y
            while term > 1e-18 * m:
                term *= self.up(k) / self.down(k + 1)
                m += term
                k += 1
            total += m
        return total


# -- fixtures ---------------------------------------------------------------

#: The five models of the paper's examples, as plain parameters.
FIXTURES = {
    "m1": {"offspring": {"type": "tabular", "pmf": {"0": 0.75, "2": 0.25}}, "lambda": 1.0,
           "immigration": {"type": "none"}, "mu": 0.0},
    "m2": {"offspring": {"type": "tabular", "pmf": {"0": 1 / 3, "2": 2 / 3}}, "lambda": 3.0,
           "immigration": {"type": "tabular", "pmf": {"-1": 1.0}}, "mu": 1.0},
    "m3": {"offspring": {"type": "tabular", "pmf": {"0": 0.75, "2": 0.25}}, "lambda": 2.0,
           "immigration": {"type": "tabular", "pmf": {"1": 1.0}}, "mu": 1.0},
    "m4": {"offspring": {"type": "sibuya_mix", "p0": 0.2, "alpha": 0.5}, "lambda": 1.0,
           "immigration": {"type": "none"}, "mu": 0.0},
    "m5": {"offspring": {"type": "tabular", "pmf": {"0": 0.5, "2": 0.5}}, "lambda": 1.0,
           "immigration": {"type": "sibuya", "alpha": 0.5}, "mu": 1.0},
}

BD = {
    "m1": BirthDeath(0.75, 0.25, 1.0),
    "m2": BirthDeath(1 / 3, 2 / 3, 3.0, -1, 1.0),
    "m3": BirthDeath(0.75, 0.25, 2.0, 1, 1.0),
}

#: varphi of m4: 1 - (1 - p0)^(1/(1 - alpha)).
M4_VARPHI = 1.0 - 0.8 ** 2

_PHI_M1_HALF = 3.0 - 6.0 * math.log(1.5)

#: The paper's closed forms, keyed by a label that names the call.
CLOSED = {
    "phi_q(m1, 1/2, 1)": _PHI_M1_HALF,
    "lt(m2, 1, 1, 0)": 0.5,
    "lt(m2, 2, 1, 0)": 2.0 * math.log(2.0) - 1.0,
    "psi_q(m4, 1, 1)": 1.28 / 12.0,
    "psi_q(m4, 2, 1)": 1.28 / 30.0,
    "mean_explosion(m4, 1)": 1.92,
    "prob_explosion_before(m4, 1, 0)": 0.64,
    "avalanche(m1, 0, 1, 2, 0)": (4.0 - math.sqrt(13.0)) ** 2,
    "avalanche(m3, 3/2, 1/2, 3, 1)": 0.5 * ((5.0 - math.sqrt(13.0)) / 2.0) ** 2,
    "mean_first_passage(m1, 1, 0)": 4.0 * math.log(1.5),
    "V(m1, 1/2, floor 0, 1)": _PHI_M1_HALF / (1.0 - _PHI_M1_HALF),
}


def atmin_uniform_m3(x: int) -> list[float]:
    """At q = 1 the at-minimum law of m3 from x is uniform on 0..x."""
    return [1.0 / (x + 1)] * (x + 1)


def close(value: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - want) <= max(rel * abs(want), abs_tol)
