import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgwscale import model as md
from bgwscale import quad
from bgwscale import scale as sc
from bgwscale.errors import DomainError, QuadratureError, UnsupportedRegimeError


def _chart_integral(f, a, b):
    """int_a^b f(v) dv as the t-integral of f(v(t)) v'(t) over the tanh-sinh
    chart of (a, b), by gk_adaptive; ``f`` gets the chart points, so it can use
    the exact endpoint distances ``da`` and ``db``."""
    chart = quad.TSMap(a, b)

    def g(t):
        p = chart.points(t)
        return f(p) * p.dvdt

    lo, hi = np.array([-quad.T_MAX]), np.array([quad.T_MAX])
    return quad.gk_adaptive(g, lo, hi, 1e-15, 1e-13)[0][0]


class TestIntegrate:
    """Endpoint-singular integrals in the chart the scale tables are built on."""

    def test_constant(self):
        val = _chart_integral(lambda p: np.ones_like(p.v), 0.0, 1.0)
        assert val == pytest.approx(1.0, rel=1e-13)

    def test_inverse_sqrt_singularity(self):
        val = _chart_integral(lambda p: p.da ** -0.5, 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-13)

    def test_log_singularity(self):
        val = _chart_integral(lambda p: -p.log_da, 0.0, 1.0)
        assert val == pytest.approx(1.0, rel=1e-13)

    def test_both_endpoints(self):
        # Beta(1/2,1/2): int v^-.5 (1-v)^-.5 = pi.  The exact distance to the
        # right endpoint keeps the -1/2 power there fully accurate.
        val = _chart_integral(lambda p: (p.da * p.db) ** -0.5, 0.0, 1.0)
        assert val == pytest.approx(math.pi, rel=1e-13)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            quad.TSMap(1.0, 0.0)


@given(st.floats(min_value=-0.85, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_integrate_power_random(s):
    val = _chart_integral(lambda p: np.exp(s * p.log_da), 0.0, 1.0)
    assert val == pytest.approx(1.0 / (1.0 + s), rel=1e-13)


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
        vals[fail] = quad.gk_adaptive(g, edges[:-1][fail], edges[1:][fail], 1e-15, 1e-13)[0]
        for i in range(10):
            want, _ = quad.gk_adaptive(g, edges[i:i + 1], edges[i + 1:i + 2], 1e-15, 1e-13)
            assert vals[i] == pytest.approx(want[0], rel=1e-15, abs=1e-17)
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

    def test_oriented_panels_match_single_calls(self):
        # every other panel reversed, the kinked one (5) among them
        def g(x):
            return np.exp(x) + np.abs(x - 0.537)

        edges = np.linspace(0.0, 1.0, 11)
        lo, hi = edges[:-1].copy(), edges[1:].copy()
        lo[1::2], hi[1::2] = edges[2::2], edges[1:-1:2]
        vals, _ = quad.gk_adaptive(g, lo, hi, 1e-15, 1e-13)
        for i in range(10):
            want, _ = quad.gk_adaptive(g, lo[i:i + 1], hi[i:i + 1], 1e-15, 1e-13)
            assert vals[i] == pytest.approx(want[0], rel=1e-15, abs=1e-17)
        fwd, _ = quad.gk_adaptive(g, edges[:-1], edges[1:], 1e-15, 1e-13)
        assert np.array_equal(vals[1::2], -fwd[1::2]) and np.array_equal(vals[::2], fwd[::2])

    def test_noisy_panel_among_resolved_refuses(self, time_limit):
        # the noise of test_noisy_integrand_refuses on the first quarter only
        def g(x):
            return np.where(x < 0.25, 1.0 + 1e-9 * np.sin(1e15 * x), 1.0)

        edges = np.linspace(0.0, 1.0, 5)
        with time_limit(1), pytest.raises(QuadratureError) as exc_info:
            quad.gk_adaptive(g, edges[:-1], edges[1:], 1e-15, 1e-13)
        assert exc_info.value.estimate == pytest.approx(1.0, rel=1e-8)

    def test_panel_values_independent_of_batch(self):
        # a panel's K15 value and error estimate are the same bits whichever
        # panels share its gk_panels call
        def g(x):
            return np.exp(x) + np.abs(x - 0.537)

        edges = np.sort(np.random.default_rng(0).uniform(0.0, 2.0, 137))
        lo, hi = edges[:-1], edges[1:]
        alone = np.array([quad.gk_panels(g, lo[i:i + 1], hi[i:i + 1], 0.0, 1e-10)[:2]
                          for i in range(len(lo))])[:, :, 0]
        for n in range(1, 101):
            for s in range(0, len(lo), n):
                vals, err, _ = quad.gk_panels(g, lo[s:s + n], hi[s:s + n], 0.0, 1e-10)
                assert np.array_equal(vals, alone[s:s + n, 0])
                assert np.array_equal(err, alone[s:s + n, 1])

    def test_panels_across_blocks(self):
        edges = np.linspace(-3.0, 2.0, 1201)  # more panels than one block
        vals, _, fail = quad.gk_panels(np.sin, edges[:-1], edges[1:], 1e-15, 1e-13)
        assert not fail.any()
        assert float(np.sum(vals)) == pytest.approx(math.cos(-3.0) - math.cos(2.0), rel=1e-13)


def _gamma(spec, q, v, upper=False):
    """gamma_q(v) = (q + mu(1 - r~(v))) / |D(v)| from the t-space integrand of
    the table on v's side of varphi."""
    tbl = sc._table(spec, q, branch="upper" if upper else "lower")
    t = np.array([tbl.chart.t_of(v)])
    return float(tbl.gamma_t(t)[0] / tbl.chart.points(t).dvdt[0])


class TestWeights:
    def test_rho_values(self, m1, m2, m4):
        # rho = |D(v)| = lam |p~(v) - v|
        for spec, v, want in ((m1, 0.5, 0.3125), (m2, 0.25, 0.375), (m4, 0.75, 0.15)):
            d_root = md.root_varphi(spec) - v
            den = md.GapEvaluator(spec).den(np.array([v]), np.array([d_root]), np.array([1.0 - v]))
            assert abs(float(den[0])) == pytest.approx(want, abs=1e-14)

    def test_gamma_values(self, m1, m3):
        assert _gamma(m1, 0.5, 0.5) == pytest.approx(1.6, abs=1e-14)
        # (1 + 1*(1-0.5)) / (2*(0.8125-0.5)) = 1.5/0.625
        assert _gamma(m3, 1.0, 0.5) == pytest.approx(2.4, abs=1e-13)

    def test_gamma_sign_change_at_phi_q(self, m2, m4):
        # q = 2: phi_2 = 1/3 sits strictly below varphi = 1/2
        phi2 = md.root_phi_q(m2, 2.0)
        for v in (0.05, 0.2, phi2 - 1e-3):
            assert _gamma(m2, 2.0, v) < 0.0
        for v in (phi2 + 1e-3, 0.45):
            assert _gamma(m2, 2.0, v) > 0.0
        assert abs(_gamma(m2, 2.0, phi2)) < 1e-10
        # above varphi, on an upper table; those exist for explosive chains
        # only, such as m4 (varphi = 0.36)
        for v in (0.45, 0.9):
            assert _gamma(m4, 2.0, v, upper=True) > 0.0


# log omega = -int gamma is ScaleTable.logw on the table's own nodes.  The
# closed forms below hold on every node the ladder kept, to 1e-14 relative.

def _assert_logw(tbl, want, floor=1e-30):
    """|logw - want| <= 1e-14 |want| + floor on every finite node."""
    fin = np.isfinite(tbl.logw)
    assert fin.sum() > 500
    err = np.abs(tbl.logw[fin] - want[fin])
    assert np.all(err <= 1e-14 * np.abs(want[fin]) + floor), float(np.max(err))


def _m2_antiderivative(v, db):
    """int gamma_2 on (0, varphi) for m2, where gamma_2 = (3v - 1)/(v(1 - v)(1 - 2v)):
    -log v + 2 log(1 - v) - log(1 - 2v), with db = varphi - v and 1 - 2v = 2 db."""
    return -np.log(v) + 2.0 * np.log(0.5 + db) - np.log(2.0 * db)


def _common(a, b):
    return np.isfinite(a.logw) & np.isfinite(b.logw)


class TestLogOmegaLower:
    def test_m1_closed_form(self, m1):
        # gamma_q = q/rho, antiderivative 2q log((3-v)/(3(1-v))) = 2q log1p(2v/(3 db)), phi_q = 0
        for q in (0.25, 0.5, 1.0):
            tbl = sc._table(m1, q)
            assert tbl.theta == 0.0
            _assert_logw(tbl, -2.0 * q * np.log1p(2.0 * tbl.pts.v / (3.0 * tbl.pts.db)))

    def test_at_delimiter_zero(self, m2):
        # the Phi_2 table is anchored at its delimiter phi_2 = 1/3, where logw vanishes
        tbl = sc._table(m2, 2.0)
        assert tbl.theta == md.root_phi_q(m2, 2.0)
        at_theta = _m2_antiderivative(tbl.theta, tbl.high - tbl.theta)
        _assert_logw(tbl, at_theta - _m2_antiderivative(tbl.pts.v, tbl.pts.db), floor=1e-14)

    def test_m3_closed_form(self, m3):
        # gamma_1 = -(log D)' with D = (3-v)(1-v)/2, so logw = log((3-v)(1-v)/3)
        tbl = sc._table(m3, 1.0)
        v, db = tbl.pts.v, tbl.pts.db
        want = np.log((3.0 - v) * db / 3.0)
        near_zero = v < 0.5  # (3-v)(1-v)/3 = 1 - v(4-v)/3
        want[near_zero] = np.log1p(-v[near_zero] * (4.0 - v[near_zero]) / 3.0)
        _assert_logw(tbl, want)

    def test_delimiter_shift_is_constant(self, m2):
        xs = range(40)
        a, b = ([math.log(sc.phi_q_with_delimiter(m2, 2.0, x, theta)) for x in xs]
                for theta in (0.1, 0.3))
        shift = np.subtract(a, b)
        assert np.ptp(shift) < 1e-13
        # -int_0.1^0.3 gamma_2
        varphi = md.root_varphi(m2)
        want = _m2_antiderivative(0.1, varphi - 0.1) - _m2_antiderivative(0.3, varphi - 0.3)
        assert np.mean(shift) == pytest.approx(want, abs=1e-13)

    def test_mu0_linear_in_q(self, m1):
        # at mu = 0, gamma_q = q/rho: the panel sums scale by exact powers of 2
        base = sc._table(m1, 0.25)
        for q in (0.5, 1.0):
            tbl = sc._table(m1, q)
            both = _common(base, tbl)
            assert both.sum() > 500
            assert np.array_equal(tbl.logw[both], q / 0.25 * base.logw[both])

    def test_precondition(self, m2):
        # m2 at q = 0.5 has phi_q = 2/3 > varphi = 1/2: no table is built
        with pytest.raises(UnsupportedRegimeError):
            sc.phi_q_with_delimiter(m2, 0.5, 1, 0.25)


def _m4_upper_logw(tbl, q):
    """-int_v^1 gamma_q for m4: 2q log(1 - sqrt(db)/0.8); near varphi,
    0.8 - sqrt(db) = da/(0.8 + sqrt(db)) with da measured from the table's root."""
    sq = np.sqrt(tbl.pts.db)
    near_one = sq < 0.4
    out = np.empty_like(sq)
    out[near_one] = np.log1p(-sq[near_one] / 0.8)
    out[~near_one] = np.log(tbl.pts.da[~near_one] / (0.8 * (0.8 + sq[~near_one])))
    return 2.0 * q * out


class TestLogOmegaUpper:
    def test_m4_closed_form(self, m4):
        # I(v) = 2q log(0.8/(0.8-sqrt(1-v))); the last node carries the ~1e-137
        # left out beyond it
        for q in (1.0, 2.0):
            tbl = sc._table(m4, q, branch="upper")
            _assert_logw(tbl, _m4_upper_logw(tbl, q))

    def test_linear_in_q(self, m4):
        a = sc._table(m4, 1.0, branch="upper")
        b = sc._table(m4, 2.0, branch="upper")
        both = _common(a, b)
        assert both.sum() > 500
        assert np.array_equal(b.logw[both], 2.0 * a.logw[both])

    def test_vanishes_at_one(self, m4):
        tbl = sc._table(m4, 1.0, branch="upper")
        fin = np.isfinite(tbl.logw)
        assert tbl.logw[-1] == 0.0
        assert np.all(np.diff(tbl.logw[fin]) >= 0.0)
        assert np.all(np.abs(tbl.logw[fin & (tbl.pts.db < 1e-9)]) < 1e-4)

    def test_requires_explosive(self, m1):
        # varphi = 1: the upper interval (varphi, 1) is empty
        with pytest.raises(DomainError):
            sc._table(m1, 1.0, branch="upper")
