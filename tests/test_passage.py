import math

import numpy as np
import pytest

from bgwscale import model as md
from bgwscale import passage as ps
from bgwscale import scale as sc
from bgwscale.errors import (DomainError, PreconditionError, QuadratureError,
                             UnsupportedRegimeError)

LOG15 = math.log(1.5)


class TestLtFirstPassage:
    def test_m2_closed_forms(self, m2):
        assert ps.lt_first_passage(m2, 1.0, 1, 0) == pytest.approx(0.5, abs=1e-10)
        assert ps.lt_first_passage(m2, 2.0, 1, 0) == pytest.approx(2 * math.log(2) - 1, abs=1e-10)

    def test_m3_uniform_ratio(self, m3):
        assert ps.lt_first_passage(m3, 1.0, 3, 1) == pytest.approx(0.5, abs=1e-10)

    def test_x_equals_a(self, m1):
        assert ps.lt_first_passage(m1, 0.7, 4, 4) == 1.0

    def test_monotone_in_q_and_x(self, m1, m3):
        for spec in (m1, m3):
            vals = [ps.lt_first_passage(spec, q, 2, 0) for q in (0.25, 0.5, 1, 2, 4)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            vals = [ps.lt_first_passage(spec, 1.0, x, 0) for x in (1, 2, 3, 5)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_regime_refusal(self, m2):
        with pytest.raises(UnsupportedRegimeError):
            ps.lt_first_passage(m2, 0.5, 1, 0)


class TestProbPassage:
    def test_values(self, m1, m4):
        assert ps.prob_passage(m1, 5, 0) == 1.0
        assert ps.prob_passage(m4, 1, 0) == pytest.approx(0.36, rel=1e-11)

    def test_m5_interior(self, m5):
        p = ps.prob_passage(m5, 1, 0)
        assert 0.0 < p < 1.0
        assert p == pytest.approx(0.33969, abs=2e-4)  # quadrature value, cross-checked by MC


class TestCertainExtinction:
    def test_trio(self, m1, m3, m5):
        assert ps.certain_extinction(m1) is True
        assert ps.certain_extinction(m3) is True
        assert ps.certain_extinction(m5) is False

    def test_m2_unsupported(self, m2):
        with pytest.raises(UnsupportedRegimeError):
            ps.certain_extinction(m2)


def _birth_death_passage(alpha: float, beta: float, x: int, a: int) -> float:
    """P_x(T_a < inf) = T(x)/T(a) for a birth-death chain with death/birth
    ratio (i + alpha)/(i + beta) in state i >= 1 and beta - alpha > 1:
    T(k) = beta/(beta - alpha - 1) - sum_{j<k} rho_j with
    rho_j = prod_{1<=i<=j} (i + alpha)/(i + beta), where beta/(beta - alpha - 1)
    is Gauss's sum of 2F1(1, 1 + alpha; 1 + beta; 1) = sum_j rho_j."""
    def tail(k):
        total, rho = 0.0, 1.0
        for j in range(k):
            if j:
                rho *= (j + alpha) / (j + beta)
            total += rho
        return beta / (beta - alpha - 1.0) - total
    return tail(x) / tail(a)


def _critical_binary(lam: float, mu: float, r_minus1: float = 0.0) -> md.ModelSpec:
    """p0 = p2 = 1/2 with culling r_-1 and unit immigration r_1 = 1 - r_-1: a
    birth-death chain with alpha = 2 mu r_-1/lam, beta = 2 mu r_1/lam."""
    return md.make_spec(md.OffspringLaw.tabular({0: 0.5, 2: 0.5}), lam,
                        md.ImmigrationLaw.tabular({-1: r_minus1, 1: 1.0 - r_minus1}), mu)


class TestCriticalImmigrationRegime:
    """At a double root of D at 1 the q = 0 integral converges iff
    k = 2 mu r~'(1)/(lam p~''(1)) > 1; with r_1 = 1, k = c = 2 mu/lam."""

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("c", [1.04, 1.1, 1.2, 1.4, 1.5])
    def test_convergent_integral_matches_birth_death(self, c, lam, time_limit):
        spec = _critical_binary(lam, 0.5 * c * lam)
        for x, a in ((1, 0), (5, 0), (20, 3)):
            with time_limit(1):
                got = ps.prob_passage(spec, x, a)
            assert got == pytest.approx(_birth_death_passage(0.0, c, x, a), rel=1e-10, abs=0.0)
        assert ps.certain_extinction(spec) is False

    def test_culling_and_immigration(self, time_limit):
        # k = 2*1.1*(0.7 - 0.3)/0.8 = 1.1, with phi = 3/7 > 0
        spec = _critical_binary(0.8, 1.1, 0.3)
        for x, a in ((1, 0), (5, 0), (20, 3)):
            with time_limit(1):
                got = ps.prob_passage(spec, x, a)
            assert got == pytest.approx(_birth_death_passage(0.825, 1.925, x, a),
                                        rel=1e-10, abs=0.0)
        assert ps.certain_extinction(spec) is False

    @pytest.mark.parametrize("c", [0.6, 1.0])
    def test_divergent_integral_is_certain_extinction(self, c, time_limit):
        spec = _critical_binary(1.0, 0.5 * c)
        with time_limit(1):
            assert ps.prob_passage(spec, 5, 0) == 1.0
            assert ps.certain_extinction(spec) is True

    def test_slow_endpoint_decay_refuses(self, time_limit):
        # s = c - 1 = 0.02: the chart would drop ~e^(-634*0.02) = 3e-6 of the mass
        spec = _critical_binary(1.0, 0.51)
        with time_limit(1), pytest.raises(QuadratureError):
            ps.prob_passage(spec, 1, 0)
        assert ps.certain_extinction(spec) is False

    def test_mean_passage_needs_certain_extinction(self):
        with pytest.raises(PreconditionError):
            ps.mean_first_passage(_critical_binary(1.0, 0.52), 1, 0)


class TestDeepLevels:
    """Ratios of scale functions that underflow, taken as log differences
    (references: the birth-death continued fraction)."""

    def test_lt_first_passage(self, m2):
        # q = 1 is the tie branch (phi_q = varphi = 1/2)
        assert ps.lt_first_passage(m2, 1.0, 1100, 1099) == pytest.approx(0.5, rel=0.0, abs=1e-10)
        assert ps.lt_first_passage(m2, 4.0, 2000, 1999) == pytest.approx(
            0.4992533525027354, rel=0.0, abs=1e-10)

    def test_joint_avalanche(self, m2):
        assert ps.lt_joint_avalanche(m2, 4.0, 1.0, 600, 443) == pytest.approx(
            1.584264600270553e-84, rel=1e-10, abs=0.0)

    @staticmethod
    def _m2_ratio(q, k):
        """Phi_q(k)/Phi_q(k-1) on m2, a birth-death chain with b(y) = 2y and
        d(y) = y + 1: r_y = d(y)/(q + b(y) + d(y) - b(y) r_{y+1}) from above."""
        r = 0.5
        for y in range(k + 200, k - 1, -1):
            r = (y + 1) / (q + 3 * y + 1 - 2 * y * r)
        return r

    def test_atmin_residual(self, m2):
        # Phi_2 and Phi_4 underflow near x ~ 1000
        k = 1400
        want = 0.5 * (1.0 - self._m2_ratio(4.0, k)) / (1.0 - self._m2_ratio(2.0, k))
        assert ps.atmin_lt_residual(m2, 2.0, 2.0, 1500, k) == pytest.approx(want, rel=1e-8)

    def test_conditioned_generator(self, m2):
        x = 1100
        gen = ps.conditioned_generator(m2, 4.0, x)
        down = (x + 1) / ((4.0 + 1.0 + 3.0 * x) * self._m2_ratio(4.0, x))
        assert gen.jumps[-1][x - 1] == pytest.approx(down, rel=1e-8)
        assert sum(gen.jumps[-1].values()) == pytest.approx(1.0, abs=1e-8)


class TestMeanPassageCriticalOffspring:
    """Critical offspring with certain extinction: E_x[T_a] = +inf, refused
    in closed form before any table is built."""

    @pytest.mark.parametrize("mu, xs", [(0.0, (1, 5)), (0.001, (1, 5, 20))])
    def test_refuses(self, monkeypatch, mu, xs):
        imm = md.ImmigrationLaw.tabular({1: 1.0}) if mu else None
        spec = md.make_spec(md.OffspringLaw.tabular({0: 0.5, 2: 0.5}), 1.0, imm, mu)
        assert ps.certain_extinction(spec)
        monkeypatch.setattr(sc, "_table", lambda *a, **k: pytest.fail("table built"))
        for x in xs:
            with pytest.raises(PreconditionError, match="critical"):
                ps.mean_first_passage(spec, x, 0)


class TestExplosion:
    def test_lt_values(self, m4):
        assert ps.lt_explosion_before(m4, 1.0, 1, 0) == pytest.approx(1.28 / 12, abs=1e-10)
        assert ps.lt_explosion_before(m4, 2.0, 1, 0) == pytest.approx(1.28 / 30, abs=1e-10)
        assert ps.lt_explosion_before(m4, 1.0, 1, 1) == 0.0

    def test_prob_values(self, m4):
        assert ps.prob_explosion_before(m4, 1, 0) == pytest.approx(0.64, rel=1e-11)
        assert ps.prob_explosion_before(m4, 2, 0) == pytest.approx(0.8704, rel=1e-11)
        assert ps.prob_explosion_before(m4, 2, 2) == 0.0

    def test_dichotomy(self, m4):
        for x, a in ((1, 0), (2, 0), (3, 1)):
            s = ps.prob_explosion_before(m4, x, a) + ps.prob_passage(m4, x, a)
            assert s == pytest.approx(1.0, abs=1e-8)

    def test_non_explosive_refused(self, m1):
        with pytest.raises(PreconditionError):
            ps.prob_explosion_before(m1, 1, 0)


class TestMeans:
    def test_m1_closed_forms(self, m1):
        assert ps.mean_first_passage(m1, 1, 0) == pytest.approx(4 * LOG15, rel=1e-10)
        assert ps.mean_first_passage(m1, 2, 1) == pytest.approx(12 * LOG15 - 4, rel=1e-10)

    def test_m3_value(self, m3):
        # closed form: integrand reduces to (3-v)/2
        assert ps.mean_first_passage(m3, 1, 0) == pytest.approx(1.25, rel=1e-10)

    def test_preconditions(self, m1, m5):
        with pytest.raises(DomainError):
            ps.mean_first_passage(m1, 1, 1)
        with pytest.raises(PreconditionError):
            ps.mean_first_passage(m5, 1, 0)  # extinction not certain

    def test_mean_explosion(self, m4):
        assert ps.mean_explosion(m4, 1) == pytest.approx(1.92, rel=1e-10)
        cond = ps.mean_explosion(m4, 1) / ps.prob_explosion_before(m4, 1, 0)
        assert cond == pytest.approx(3.0, rel=1e-10)
        assert ps.mean_explosion(m4, 2) > 0.0

    def test_mean_explosion_preconditions(self, m1, m5):
        with pytest.raises(PreconditionError):
            ps.mean_explosion(m1, 1)
        with pytest.raises(PreconditionError):
            ps.mean_explosion(m5, 1)


class TestAvalanche:
    def test_m1_power(self, m1):
        want = (4 - math.sqrt(13)) ** 2
        assert ps.lt_joint_avalanche(m1, 0.0, 1.0, 2, 0) == pytest.approx(want, rel=1e-12)

    def test_qbar0_equals_lt(self, m1):
        a = ps.lt_joint_avalanche(m1, 0.5, 0.0, 2, 0)
        b = ps.lt_first_passage(m1, 0.5, 2, 0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_m3_shifted_functional_identity(self, m3):
        # P_x[e^{-qbar int (1+X)}; T_a < e_1] = ((a+1)/(x+1)) varphi_qbar^{x-a}
        for qbar in (0.5, 2.0):
            vq = md.root_varphi_qbar(m3, qbar)
            got = ps.lt_joint_avalanche(m3, 1.0 + qbar, qbar, 3, 1)
            assert got == pytest.approx(0.5 * vq ** 2, rel=1e-11)


class TestAtMin:
    def test_m3_uniform(self, m3):
        law = ps.atmin_law(m3, 1.0, 3)
        for p in law.pmf:
            assert p == pytest.approx(0.25, abs=1e-10)

    def test_m1_values(self, m1):
        law = ps.atmin_law(m1, 0.5, 2)
        assert law.pmf[0] == pytest.approx(0.403256, abs=1e-6)
        assert law.pmf[1] == pytest.approx(0.307692, abs=1e-6)
        assert law.pmf[2] == pytest.approx(0.289052, abs=1e-6)

    def test_x0(self, m1):
        assert ps.atmin_law(m1, 0.5, 0).pmf == (1.0,)

    def test_telescoping(self, m1, m2, m3):
        for spec, q in ((m1, 0.5), (m2, 1.0), (m2, 2.5), (m3, 1.0)):
            for x in range(1, 11):
                law = ps.atmin_law(spec, q, x)
                assert sum(law.pmf) == pytest.approx(1.0, abs=1e-10)
                assert all(p >= 0.0 for p in law.pmf)

    def test_q0_overall_infimum(self, m4):
        law = ps.atmin_law(m4, 0.0, 2)
        # Phi_0 = 0.36^x: P(inf = k) geometric-like over {0,1,2}
        assert sum(law.pmf) == pytest.approx(1.0, abs=1e-12)
        assert law.pmf[2] == pytest.approx(1 - 0.36, rel=1e-9)

    def test_lt_G(self, m1):
        assert ps.atmin_lt_G(m1, 0.5, 0.0, 2, 1) == 1.0
        assert ps.atmin_lt_G(m1, 0.5, 3.0, 2, 2) == 1.0
        phi05 = lambda x: sc.phi_q_fn(m1, 0.5, x)
        phi1 = lambda x: sc.phi_q_fn(m1, 1.0, x)
        want = phi1(2) * phi05(1) / (phi05(2) * phi1(1))
        got = ps.atmin_lt_G(m1, 0.5, 0.5, 2, 1)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.788467, abs=5e-6)

    def test_lt_residual(self, m1):
        assert ps.atmin_lt_residual(m1, 0.5, 0.5, 2, 0) == pytest.approx(0.5, rel=1e-14)
        assert ps.atmin_lt_residual(m1, 0.5, 0.0, 2, 1) == 1.0
        phi05 = lambda x: sc.phi_q_fn(m1, 0.5, x)
        phi1 = lambda x: sc.phi_q_fn(m1, 1.0, x)
        want = 0.5 * (1 - phi1(1) / phi1(0)) / (1 - phi05(1) / phi05(0))
        assert ps.atmin_lt_residual(m1, 0.5, 0.5, 2, 1) == pytest.approx(want, rel=1e-12)


class TestConditionedGenerator:
    def test_m1_state1(self, m1):
        gen = ps.conditioned_generator(m1, 0.5, 3)
        assert gen.leave_rates[0] == pytest.approx(1.5)
        assert gen.jumps[0][2] == pytest.approx(0.118491, abs=1e-6)
        assert gen.kill_rate == pytest.approx(1.322263, abs=1e-6)
        # jump prob + kill prob = 1 at state 1
        total = gen.jumps[0][2] + gen.kill_rate / gen.leave_rates[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_row_sums(self, m1, m3):
        for spec, q in ((m1, 0.5), (m3, 1.0)):
            gen = ps.conditioned_generator(spec, q, 6)
            for x in range(2, 7):
                assert sum(gen.jumps[x - 1].values()) == pytest.approx(1.0, abs=1e-8)

    def test_m3_down_probability(self, m3):
        gen = ps.conditioned_generator(m3, 1.0, 3)
        # (p0 lam x) Phi(x-1) / ((q+mu+lam x) Phi(x)) with Phi(k) prop 1/(k+1)
        x = 2
        want = (0.75 * 2.0 * x) * (1 / 2) / ((1 + 1 + 2 * x) * (1 / 3))
        assert gen.jumps[1][1] == pytest.approx(want, rel=1e-9)

    def test_q_floor(self, m2):
        with pytest.raises(PreconditionError):
            ps.conditioned_generator(m2, 0.5, 3)  # q below mu*(r~(varphi)-1) = 1
        gen = ps.conditioned_generator(m2, 1.0, 3)  # boundary value allowed
        assert sum(gen.jumps[1].values()) == pytest.approx(1.0, abs=1e-8)


class TestTiltedModel:
    def test_m2_at_qbar0(self, m2):
        tilted = ps.tilted_model(m2, 0.0)
        assert tilted.offspring.pmf[0] == pytest.approx(2 / 3, abs=1e-10)
        assert tilted.offspring.pmf[2] == pytest.approx(1 / 3, abs=1e-10)
        assert tilted.offspring.mean() == pytest.approx(2 / 3, abs=1e-10)
        assert tilted.lam == pytest.approx(3.0)
        assert tilted.immigration.r_minus1 == pytest.approx(1.0, abs=1e-12)
        assert tilted.mu == pytest.approx(2.0, abs=1e-10)

    def test_m1_at_qbar1(self, m1):
        tilted = ps.tilted_model(m1, 1.0)
        assert tilted.offspring.pmf[0] == pytest.approx(0.950694, abs=1e-6)
        assert tilted.offspring.pmf[2] == pytest.approx(0.049306, abs=1e-6)
        assert tilted.lam == pytest.approx(2.0)

    def test_pmf_sums_and_never_supercritical(self, m1, m2, m3, m4, m5):
        for spec in (m1, m2, m3, m4, m5):
            tilted = ps.tilted_model(spec, 1.0)
            assert float(np.sum(tilted.offspring.pmf)) == pytest.approx(1.0, abs=1e-12)
            assert tilted.offspring.mean() <= 1.0 + 1e-9
            if spec.has_immigration:
                imm_total = tilted.immigration.r_minus1 + float(np.sum(tilted.immigration.pmf_up))
                assert imm_total == pytest.approx(1.0, abs=1e-12)

    def test_qbar0_needs_supercritical(self, m1):
        with pytest.raises(PreconditionError):
            ps.tilted_model(m1, 0.0)
