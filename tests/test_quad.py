import math
from decimal import Decimal, localcontext

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
            gap = md.GapEvaluator(spec)
            d_root = gap.root - v
            den = abs(d_root) ** gap.m * abs(float(gap.quotient(v, d_root, 1.0 - v)))
            assert den == pytest.approx(want, abs=1e-14)

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


def _sibuya_log_abs_gap(gap, off, lam, qbar, d_root, d_one) -> np.ndarray:
    """log|D| of a Sibuya mixture at chart nodes, from 34-digit decimals of
    the exact distances: lam (u - (1-p0) u^alpha) - qbar (1-u) at u = d_one,
    and near the root, |d_root| <= us/2 with us = 1 - U, the expansion
    (lam + qbar) delta - lam (1-p0) us^alpha ((1 + delta/us)^alpha - 1),
    delta = d_root, because tables take D(U) = 0."""
    with localcontext() as ctx:
        ctx.prec = 34
        p0, a, lam, qbar, us = map(Decimal, (off.p0, off.alpha, lam, qbar, 1.0 - gap.root))
        c = lam * (1 - p0)
        c_us = c * (a * us.ln()).exp()
        out = []
        for dr, u in zip(d_root.tolist(), d_one.tolist()):
            delta = Decimal(dr)
            if abs(delta) <= us / 2:
                x = delta / us
                if abs(x) < Decimal("1e-10"):  # the binomial series, to 1e-40
                    pow_diff = a * x * (1 + (a - 1) / 2 * x * (1 + (a - 2) / 3 * x
                                                               * (1 + (a - 3) / 4 * x)))
                else:
                    pow_diff = (a * (1 + x).ln()).exp() - 1
                D = (lam + qbar) * delta - c_us * pow_diff
            else:
                u = Decimal(u)
                D = lam * u - c * (a * u.ln()).exp() - qbar * (1 - u)
            f = float(D)  # log|D| = log|f| + log(D/f), with D/f within an ulp of 1
            out.append(math.log(abs(f)) + float(D / Decimal(f) - 1))
    return np.array(out)


def _chart_nodes(gap, upper: bool):
    """(v, d_root, log|d_root|, d_one) on the level-6 nodes of the chart (0, U)
    or (U, 1), as ScaleTable passes them."""
    chart = quad.TSMap(gap.root, 1.0) if upper else quad.TSMap(0.0, gap.root)
    p = chart.points(np.arange(-384, 385) / 64.0)
    return (p.v, -p.da, p.log_da, p.db) if upper else (p.v, p.db, p.log_db, 1.0 - p.v)


#: m4 and twenty seeded Sibuya mixtures (offspring law, lam, qbar > 0)
_RNG = np.random.default_rng(2025)
SIBUYA_GAPS = [(md.OffspringLaw.sibuya_mix(0.2, 0.5), 1.0, 0.5)] + [
    (md.OffspringLaw.sibuya_mix(_RNG.uniform(0.05, 0.8), _RNG.uniform(0.1, 0.9)),
     _RNG.uniform(0.3, 3.0), math.exp(_RNG.uniform(math.log(1e-3), math.log(10.0))))
    for _ in range(20)]


class TestGap:
    """The branching gap D(v) = (v - U)^m Q(v) of model.GapEvaluator."""

    def test_sibuya_log_abs_den(self):
        # every node of both charts, at qbar = 0 and qbar > 0, down to |d_root|
        # ~ e^-634; bound about twice the worst error (8.0e-16)
        tiny = 0
        for off, lam, qbar in SIBUYA_GAPS:
            spec = md.make_spec(off, lam)
            for qb in (0.0, qbar):
                gap = md.GapEvaluator(spec, qb)
                for upper in (False, True):
                    v, d_root, log_abs_droot, d_one = _chart_nodes(gap, upper)
                    got = gap.log_abs_den(v, d_root, log_abs_droot, d_one)
                    want = _sibuya_log_abs_gap(gap, off, lam, qb, d_root, d_one)
                    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
                    assert np.max(err) <= 1.6e-15, (off, lam, qb, upper)
                    tiny += int(np.sum(np.abs(d_root) < 1e-250))
        assert tiny > 500

    def test_double_root_ratio(self):
        # critical binary at lam = 1: D(v) = (1 - v)^2/2, so Q = 1/2 and m = 2;
        # num = d_root gives 2/d_root, finite where d_root^2 underflows
        spec = md.make_spec(md.OffspringLaw.tabular({0: 0.5, 2: 0.5}), 1.0)
        gap = md.GapEvaluator(spec)
        assert (gap.root, gap.m) == (1.0, 2)
        for d in (1e-100, 1.4e-154, 1e-200, 1e-300):
            got = gap.ratio(d, 1.0, d, d)
            assert math.isfinite(got) and got == pytest.approx(2.0 / d, rel=1e-15)
            assert gap.log_abs_den(1.0, d, math.log(d), d) == pytest.approx(
                2.0 * math.log(d) - math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("q", [0.5, 1.5, 2.0, 4.0])
    def test_endpoint_exponent_simple_root(self, m1, m2, m3, q):
        # s = N(U)/|Q(U)|: 2q on m1, q on m3, q - 1 on m2 (phi_q > varphi below q = 1)
        assert sc._endpoint(m1, q, 0.0)[1] == pytest.approx(2.0 * q, rel=1e-14)
        assert sc._endpoint(m3, q, 0.0)[1] == pytest.approx(q, rel=1e-14)
        if q > 1.0:
            assert sc._endpoint(m2, q, 0.0)[1] == pytest.approx(q - 1.0, rel=1e-14)

    def test_endpoint_exponent_double_root(self, m3crit, m5):
        # s = mu r~'(1)/|Q(1)| - 1 with Q(1) = lam p~''(1)/2 at q = 0, else inf
        assert md.GapEvaluator(m3crit).m == 2
        assert sc._endpoint(m3crit, 0.0, 0.0)[1] == pytest.approx(1.0, rel=1e-14)
        assert sc._endpoint(m3crit, 0.5, 0.0)[1] == math.inf
        assert sc._endpoint(m5, 0.0, 0.0)[1] == math.inf

    def test_endpoint_exponent_exact_tie(self):
        # p0 = p2 = 1/2, lam = 2, mu = 1, r_1 = 1: Q(1) = 1 = mu r~'(1), so s = 0
        # exactly, and Phi_0 is the power function 1^x
        spec = md.make_spec(md.OffspringLaw.tabular({0: 0.5, 2: 0.5}), 2.0,
                            md.ImmigrationLaw.tabular({1: 1.0}), 1.0)
        assert sc._endpoint(spec, 0.0, 0.0)[1] == 0.0
        assert sc._phi_0(spec, quad.DEFAULT_CFG).tbl is None
        assert [sc.phi_0_fn(spec, x) for x in (0, 1, 50)] == [1.0, 1.0, 1.0]


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
