import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgwscale import model as md
from bgwscale import quad
from bgwscale.errors import DomainError, PreconditionError, QuadratureError


class TestIntegrate:
    def test_constant(self):
        val, err = quad.integrate(lambda v: np.ones_like(v), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_inverse_sqrt_singularity(self):
        val, _ = quad.integrate(lambda v: v ** -0.5, 0.0, 1.0)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_log_singularity(self):
        val, _ = quad.integrate(lambda v: np.log(1.0 / v), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_both_endpoints(self):
        # Beta(1/2,1/2): int v^-.5 (1-v)^-.5 = pi.  A black-box f(v) cannot see
        # the exact right-endpoint distance once 1-v saturates, capping the
        # attainable accuracy near sqrt(eps) for a -1/2 power there.
        val, _ = quad.integrate(lambda v: v ** -0.5 * (1 - v) ** -0.5, 0.0, 1.0)
        assert val == pytest.approx(math.pi, rel=1e-7)

    def test_nonconvergence_reports_estimate(self):
        with pytest.raises(QuadratureError) as exc_info:
            quad.integrate(lambda v: np.cos(200.0 / (v + 1e-3)), 0.0, 1.0, max_level=5)
        assert math.isfinite(exc_info.value.estimate)
        assert exc_info.value.achieved_error >= 0.0

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            quad.integrate(lambda v: v, 1.0, 0.0)


@given(st.floats(min_value=-0.85, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_integrate_power_random(s):
    val, _ = quad.integrate(lambda v: v ** s, 0.0, 1.0)
    assert val == pytest.approx(1.0 / (1.0 + s), rel=1e-9)


class TestGaussKronrod:
    def test_polynomial_exact(self):
        for deg in (3, 7, 13):
            val, err = quad.gk_adaptive(lambda x, d=deg: x ** d, 0.0, 1.0, 1e-15, 1e-14)
            assert val == pytest.approx(1.0 / (deg + 1), rel=1e-14)

    def test_against_known(self):
        val, _ = quad.gk_adaptive(np.exp, 0.0, 1.0, 1e-15, 1e-13)
        assert val == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_panels_flag_kink_then_refine(self):
        # |x - c| has its kink inside panel 5 only; elsewhere one K15 step is exact
        c = 0.537

        def g(x):
            return np.exp(x) + np.abs(x - c)

        edges = np.linspace(0.0, 1.0, 11)
        vals, _, fail = quad.gk_panels(g, edges[:-1], edges[1:], 1e-15, 1e-13)
        assert np.flatnonzero(fail).tolist() == [5]
        vals[fail] = [quad.gk_adaptive(g, edges[i], edges[i + 1], 1e-15, 1e-13)[0]
                      for i in np.flatnonzero(fail)]
        for i in range(10):
            want, _ = quad.gk_adaptive(g, edges[i], edges[i + 1], 1e-15, 1e-13)
            assert vals[i] == pytest.approx(want, rel=1e-15, abs=1e-17)
        exact = math.e - 1.0 + 0.5 * (c ** 2 + (1.0 - c) ** 2)
        assert float(np.sum(vals)) == pytest.approx(exact, rel=1e-14)

    def test_noisy_integrand_refuses(self, time_limit):
        # values jump by ~1e-9 relative at every scale above ~1e-15, so no
        # panel meets rel_tol 1e-13 until it is ~1e-17 wide
        def g(x):
            return 1.0 + 1e-9 * np.sin(1e15 * x)

        with time_limit(1), pytest.raises(QuadratureError) as exc_info:
            quad.gk_adaptive(g, 0.0, 1.0, 1e-15, 1e-13)
        assert exc_info.value.estimate == pytest.approx(1.0, rel=1e-8)

    def test_panels_across_blocks(self):
        edges = np.linspace(-3.0, 2.0, 1201)  # more panels than one block
        vals, _, fail = quad.gk_panels(np.sin, edges[:-1], edges[1:], 1e-15, 1e-13)
        assert not fail.any()
        assert float(np.sum(vals)) == pytest.approx(math.cos(-3.0) - math.cos(2.0), rel=1e-13)


class TestWeights:
    def test_rho_values(self, m1, m2, m4):
        assert quad.rho(m1, 0.5) == pytest.approx(0.3125, abs=1e-15)
        assert quad.rho(m2, 0.25) == pytest.approx(0.375, abs=1e-14)
        assert quad.rho(m4, 0.75) == pytest.approx(0.15, abs=1e-15)

    def test_rho_singularity(self, m2):
        with pytest.raises(DomainError):
            quad.rho(m2, md.root_varphi(m2))

    def test_gamma_values(self, m1, m3):
        assert quad.gamma_q(m1, 0.5, 0.5) == pytest.approx(1.6, abs=1e-14)
        # (1 + 1*(1-0.5)) / (2*(0.8125-0.5)) = 1.5/0.625
        assert quad.gamma_q(m3, 1.0, 0.5) == pytest.approx(2.4, abs=1e-13)

    def test_gamma_sign_change_at_phi_q(self, m2):
        # q = 2: phi_2 = 1/3 sits strictly below varphi = 1/2
        phi2 = md.root_phi_q(m2, 2.0)
        for v in (0.05, 0.2, phi2 - 1e-3):
            assert quad.gamma_q(m2, 2.0, v) < 0.0
        for v in (phi2 + 1e-3, 0.45, 0.55, 0.9):
            assert quad.gamma_q(m2, 2.0, v) > 0.0
        assert abs(quad.gamma_q(m2, 2.0, phi2)) < 1e-10


class TestLogOmegaLower:
    def test_m1_closed_form(self, m1):
        # antiderivative 2q*log((3-v)/(3(1-v))), phi_q = 0
        got = quad.log_omega_lower(m1, 0.5, 0.5)
        assert got == pytest.approx(-math.log(2.5 / 1.5), abs=1e-11)

    def test_at_delimiter_zero(self, m2):
        phi2 = md.root_phi_q(m2, 2.0)
        assert quad.log_omega_lower(m2, 2.0, phi2) == 0.0

    def test_m3_vs_fixed_order_oracle(self, m3):
        # independent oracle: 200-point Gauss-Legendre of gamma_1 on [0, 0.5]
        x, w = np.polynomial.legendre.leggauss(200)
        nodes = 0.25 * (x + 1.0)
        gam = np.array([quad.gamma_q(m3, 1.0, v) for v in nodes])
        oracle = -0.25 * float(np.dot(w, gam))
        got = quad.log_omega_lower(m3, 1.0, 0.5)
        assert got == pytest.approx(oracle, abs=1e-10)
        # closed form: gamma_1 = -(log D)' with D = (3-v)(1-v)/2
        assert got == pytest.approx(math.log(0.625 / 1.5), abs=1e-11)

    def test_ode_property(self, m1, m3):
        # numerical derivative of log_omega_lower equals -gamma_q to 1e-6 relative
        h = 1e-5
        for spec, q, v in ((m1, 0.5, 0.4), (m3, 1.0, 0.55)):
            dl = (quad.log_omega_lower(spec, q, v + h) -
                  quad.log_omega_lower(spec, q, v - h)) / (2 * h)
            assert dl == pytest.approx(-quad.gamma_q(spec, q, v), rel=1e-6)

    def test_delimiter_shift_is_constant(self, m2):
        q = 2.0
        shifts = []
        for v in (0.05, 0.2, 0.4):
            a = quad.log_omega_lower(m2, q, v, theta=0.1)
            b = quad.log_omega_lower(m2, q, v, theta=0.3)
            shifts.append(a - b)
        assert max(shifts) - min(shifts) < 1e-10

    def test_mu0_linear_in_q(self, m1):
        vals = {q: quad.log_omega_lower(m1, q, 0.6) for q in (0.25, 0.5, 1.0)}
        assert vals[0.5] / vals[0.25] == pytest.approx(2.0, rel=1e-10)
        assert vals[1.0] / vals[0.25] == pytest.approx(4.0, rel=1e-10)

    def test_precondition(self, m2):
        # m2 at q = 0.5 has phi_q = 2/3 > varphi = 1/2
        with pytest.raises(PreconditionError):
            quad.log_omega_lower(m2, 0.5, 0.25)


class TestLogOmegaUpper:
    def test_m4_closed_form(self, m4):
        # I(v) = 2 log(0.8/(0.8-sqrt(1-v))); at v = 0.99, sqrt = 0.1
        got = quad.log_omega_upper(m4, 1.0, 0.99)
        assert got == pytest.approx(-2.0 * math.log(0.8 / 0.7), abs=1e-11)

    def test_linear_in_q(self, m4):
        a = quad.log_omega_upper(m4, 1.0, 0.99)
        b = quad.log_omega_upper(m4, 2.0, 0.99)
        assert b == pytest.approx(2.0 * a, rel=1e-11)

    def test_vanishes_at_one(self, m4):
        assert abs(quad.log_omega_upper(m4, 1.0, 1.0 - 1e-9)) < 1e-4

    def test_requires_explosive(self, m1):
        with pytest.raises(PreconditionError):
            quad.log_omega_upper(m1, 1.0, 0.99)

    def test_weight_eval(self, m4):
        we = quad.weight_eval(m4, 1.0, 0.99)
        assert we.rho == pytest.approx(quad.rho(m4, 0.99), rel=1e-14)
        assert we.log_omega == pytest.approx(-2.0 * math.log(0.8 / 0.7), abs=1e-11)
