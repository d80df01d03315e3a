"""Differential sweep of first-passage transforms against a birth-death oracle.

Binary offspring (p0 = 1 - p2, p2) at rate lam, with no immigration, +1
immigration or -1 culling at rate mu, is a birth-death chain with
b(y) = lam p2 y + mu [+1] and d(y) = lam p0 y + mu [-1].  Every case must match
the oracle within REL or refuse with a typed error; levels reach (900, 899),
where Phi_q itself underflows.
"""

import math

import pytest

from bgwscale import model as md
from bgwscale import passage as ps
from bgwscale.errors import PreconditionError, QuadratureError, UnsupportedRegimeError

REL = 1e-8
REFUSALS = (UnsupportedRegimeError, PreconditionError, QuadratureError)
LEVELS = ((1, 0), (5, 0), (20, 3), (60, 50), (200, 199), (900, 899))
Y_MAX = max(x for x, _ in LEVELS)

FAMILIES = [(p2, lam, step, mu) for p2 in (0.25, 0.5, 0.75) for lam in (1.0, 2.0)
            for step, mu in ((0, 0.0), (1, 0.7), (1, 1.5), (-1, 0.49), (-1, 1.5))]
QS = (0.0, 0.3, 1.0, 3.0)
#: Endpoint exponent s = 0.020 at the root: the tanh-sinh chart drops about
#: e^(-634 s) of the mass, and the table is served unconverged.
NEAR_TIE = (0.75, 2.0, -1, 0.49, 1.0)


def _rates(p2, lam, step, mu):
    return (lambda y: lam * p2 * y + (mu if step == 1 else 0.0),
            lambda y: lam * (1.0 - p2) * y + (mu if step == -1 else 0.0))


def _log_steps(p2, lam, step, mu, q):
    """log P_y[e^{-q T_{y-1}}; T_{y-1} < inf] for y = 1..Y_MAX (index 0 unused).

    q > 0: the minimal solution r_y = d(y) / (q + b(y) + d(y) - b(y) r_{y+1}),
    run backward from far above Y_MAX, started at the fixed point of the rates
    frozen there.  q = 0: the exact sum r_y = S_y / (1 + S_y) with
    S_y = sum_{k>=y} prod_{j=y}^k d(j)/b(j); it diverges (r_y = 1) unless the
    drift is upward.  At p0 = p2 with +1 immigration d(j)/b(j) = j/(j + c),
    c = 2 mu/lam, and Gauss's sum gives r_y = y/(y + c - 1) for c > 1.
    """
    b, d = _rates(p2, lam, step, mu)
    out = [0.0] * (Y_MAX + 1)
    if q > 0.0:
        top = 4 * Y_MAX + 2000
        s = q + b(top) + d(top)
        r = (s - math.sqrt(s * s - 4.0 * b(top) * d(top))) / (2.0 * b(top))
        for y in range(top, 0, -1):
            r = d(y) / (q + b(y) + d(y) - b(y) * r)
            if y <= Y_MAX:
                out[y] = math.log(r)
        return out
    c = 2.0 * mu / lam
    for y in range(1, Y_MAX + 1):
        if p2 == 0.5 and step == 1:
            out[y] = math.log(y / (y + c - 1.0)) if c > 1.0 else 0.0
        elif p2 > 0.5:
            total, term, k = 0.0, 1.0, y
            while term > 1e-18 * total:
                term *= d(k) / b(k)
                total += term
                k += 1
            out[y] = math.log(total / (1.0 + total))
    return out


def _cases():
    for fam in FAMILIES:
        for q in QS:
            marks = ([pytest.mark.xfail(strict=True, reason="near-tie endpoint exponent")]
                     if fam + (q,) == NEAR_TIE else [])
            p2, lam, step, mu = fam
            yield pytest.param(*fam, q, marks=marks,
                               id=f"p2={p2}-lam={lam}-step={step:+d}-mu={mu}-q={q}")


@pytest.mark.parametrize("p2, lam, step, mu, q", list(_cases()))
def test_lt_first_passage_matches_birth_death(p2, lam, step, mu, q, time_limit):
    imm = md.ImmigrationLaw.tabular({step: 1.0}) if step else None
    spec = md.make_spec(md.OffspringLaw.tabular({0: 1.0 - p2, 2: p2}), lam, imm, mu)
    logs = _log_steps(p2, lam, step, mu, q)
    with time_limit(5):
        for x, a in LEVELS:
            try:
                got = ps.lt_first_passage(spec, q, x, a)
            except REFUSALS:
                continue
            want = math.exp(math.fsum(logs[a + 1:x + 1]))
            assert got == pytest.approx(want, rel=REL, abs=0.0), (x, a)
