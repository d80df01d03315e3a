import math

import numpy as np
import pytest

from bgwscale import control as ctl
from bgwscale import model as md
from bgwscale import scale as sc
from bgwscale.errors import PreconditionError
from test_sweep import _log_steps

LOG15 = math.log(1.5)
PHI1 = 3 - 6 * LOG15            # Phi_0.5(1) on m1
PHI2 = 6 * (2.5 - 6 * LOG15)    # Phi_0.5(2) on m1


@pytest.fixture(scope="module")
def prob_m1(m1):
    return ctl.ControlProblem(m1, 0, 0.5)


class TestProblem:
    def test_rejects_immigration(self, m3):
        with pytest.raises(PreconditionError):
            ctl.ControlProblem(m3, 0, 0.5)

    def test_assumption(self, m1, m2prime):
        with pytest.raises(PreconditionError):
            ctl.ControlProblem(m1, 0, 0.0)  # q=0 subcritical: infinite value
        ctl.ControlProblem(m2prime, 0, 0.0)  # supercritical: fine


class TestBarrier:
    def test_gap_values(self, prob_m1):
        assert ctl.barrier_gap(prob_m1, 0) == pytest.approx(1 - PHI1, rel=1e-11)
        assert ctl.barrier_gap(prob_m1, 1) == pytest.approx(PHI1 - PHI2, rel=1e-11)
        assert ctl.barrier_gap(prob_m1, 1) < ctl.barrier_gap(prob_m1, 0)

    def test_gap_q0_is_power_difference(self, m2prime):
        p0 = ctl.ControlProblem(m2prime, 0, 0.0)
        varphi = md.root_varphi(m2prime)
        for a in range(8):
            assert ctl.barrier_gap(p0, a) == varphi ** a - varphi ** (a + 1)

    def test_gap_decreasing(self, m1, m2prime):
        for q in (0.25, 0.5, 2.0):
            p = ctl.ControlProblem(m1, 0, q)
            gaps = [ctl.barrier_gap(p, a) for a in range(0, 7)]
            assert all(x > y for x, y in zip(gaps, gaps[1:]))
        p0 = ctl.ControlProblem(m2prime, 0, 0.0)
        gaps = [ctl.barrier_gap(p0, a) for a in range(0, 7)]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))

    def test_value_cases(self, prob_m1):
        assert ctl.barrier_value(prob_m1, 0, 1) == pytest.approx(PHI1 / (1 - PHI1), rel=1e-10)
        assert ctl.barrier_value(prob_m1, 0, 0) == pytest.approx(
            1 + PHI1 / (1 - PHI1), rel=1e-10)
        assert ctl.barrier_value(prob_m1, 1, 2) == pytest.approx(
            PHI2 / (PHI1 - PHI2), rel=1e-10)

    def test_below_floor_rejected(self, m1):
        p = ctl.ControlProblem(m1, 2, 0.5)
        with pytest.raises(PreconditionError):
            ctl.barrier_gap(p, 1)


class TestOptimalValue:
    def test_values(self, prob_m1):
        assert ctl.optimal_value(prob_m1, 1) == pytest.approx(1.310586, abs=1e-6)
        assert ctl.optimal_value(prob_m1, 2) == pytest.approx(PHI2 / (1 - PHI1), rel=1e-10)
        assert ctl.optimal_value(prob_m1, 2) == pytest.approx(0.931757, abs=5e-6)

    def test_supercritical_q0(self, m2prime):
        p = ctl.ControlProblem(m2prime, 0, 0.0)
        assert ctl.optimal_value(p, 1) == pytest.approx(1.0, rel=1e-12)

    def test_min_over_barriers_at_floor(self, m1, m2prime):
        for p in (ctl.ControlProblem(m1, 0, 0.5), ctl.ControlProblem(m1, 2, 0.25),
                  ctl.ControlProblem(m2prime, 0, 0.0)):
            for x in range(0, p.floor + 7):
                vals = [ctl.barrier_value(p, a, x) for a in range(p.floor, p.floor + 7)]
                assert min(vals) == pytest.approx(vals[0], rel=1e-12)
                assert int(np.argmin(vals)) == 0

    def test_decreasing_to_zero(self, prob_m1):
        v1, v5, v20 = (ctl.optimal_value(prob_m1, x) for x in (1, 5, 20))
        assert v20 < v5 < v1


class TestBellman:
    def test_m1_floor0(self, prob_m1):
        rep = ctl.verify_bellman(prob_m1, 10, 10)
        assert rep.ok and rep.counterexample is None

    def test_m1_floor2(self, m1):
        rep = ctl.verify_bellman(ctl.ControlProblem(m1, 2, 0.5), 10, 10)
        assert rep.ok

    def test_vacuous(self, prob_m1):
        assert ctl.verify_bellman(prob_m1, 5, 0).ok

    def test_supercritical_q0(self, m2prime):
        rep = ctl.verify_bellman(ctl.ControlProblem(m2prime, 0, 0.0), 12, 12)
        assert rep.ok


class TestDeepFloor:
    """Binary p0 = 1/4, p2 = 3/4, lam = 2, q = 1 (phi_q = 0 < varphi = 1/3):
    Phi_q(a) underflows near a = 700.  The oracle is W_a(0) = a + 1 + r/(1 - r)
    with r = Phi(a+1)/Phi(a) from the birth-death continued fraction
    (b(y) = 1.5 y, d(y) = 0.5 y)."""

    @pytest.fixture(scope="class")
    def spec(self):
        return md.make_spec(md.OffspringLaw.tabular({0: 0.25, 2: 0.75}), 2.0)

    @pytest.mark.parametrize("a", [700, 800])
    def test_value_matches_birth_death(self, spec, a):
        r = math.exp(_log_steps(0.75, 2.0, 0, 0.0, 1.0)[a + 1])
        got = ctl.barrier_value(ctl.ControlProblem(spec, 0, 1.0), a, 0)
        assert got == pytest.approx(a + 1 + r / (1 - r), rel=1e-10, abs=0.0)

    def test_power_branch_past_underflow(self, m2prime):
        # Phi_0 = 2^-x on m2'; B(1100) underflows, Phi(a+1)/B(a) = 1 exactly
        p = ctl.ControlProblem(m2prime, 0, 0.0)
        assert ctl.barrier_gap(p, 1100) == 0.0
        assert ctl.barrier_value(p, 1100, 0) == pytest.approx(1102.0, rel=1e-12)
        assert ctl.barrier_value(p, 1100, 1103) == pytest.approx(0.25, rel=1e-12)

    def test_bellman_at_deep_floor(self, spec):
        p = ctl.ControlProblem(spec, 700, 1.0)
        assert ctl.verify_bellman(p, 705, 6) == ctl.BellmanReport(True, None)


def _first_violation(problem, x_max, f_max, B):
    """The grid check as scalar loops over linear values."""
    fl = problem.floor
    phi = lambda y: sc.phi_fn(problem.spec, problem.q, y)
    rhs_low = fl + 1 + phi(fl + 1) / B
    tol = 1e-9 * max(1.0, rhs_low)
    for x in range(0, fl + 1):
        for f in range(fl + 2 - x, f_max + 1):
            if f + phi(x + f) / B < rhs_low - x - tol:
                return (x, f)
    for x in range(fl + 1, x_max + 1):
        for f in range(1, f_max + 1):
            if f + phi(x + f) / B < phi(x) / B - tol:
                return (x, f)
    return None


@pytest.mark.parametrize("shrink", [3.0, 10.0])
def test_bellman_first_counterexample_order(m1, m2prime, monkeypatch, shrink):
    """With B(floor) shrunk the inequalities fail; the array check must report
    the first failing (x, f) of the loop order."""
    real = ctl._gap
    monkeypatch.setattr(ctl, "_gap", lambda problem, a, cfg: (
        lambda r, gap, log_gap: (r, gap / shrink, log_gap - math.log(shrink)))(
            *real(problem, a, cfg)))
    seen = set()
    for p in (ctl.ControlProblem(m1, 0, 0.5), ctl.ControlProblem(m1, 2, 0.5),
              ctl.ControlProblem(m2prime, 1, 0.0)):
        for x_max, f_max in ((10, 10), (1, 4), (6, 1)):
            want = _first_violation(p, x_max, f_max, ctl.barrier_gap(p, p.floor))
            assert ctl.verify_bellman(p, x_max, f_max).counterexample == want
            seen.add(want)
    assert len(seen) > 2
