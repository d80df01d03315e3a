import math

import numpy as np
import pytest
from scipy import integrate as sci

from bgwscale import model as md
from bgwscale import passage as ps
from bgwscale import quad
from bgwscale import scale as sc
from bgwscale.errors import DomainError, PreconditionError, UnsupportedRegimeError

LOG15 = math.log(1.5)

PHI_M1 = {  # closed forms: Phi_q(x) = x int_0^1 v^{x-1} (3(1-v)/(3-v))^{2q} dv
    (0.5, 0): 1.0,
    (0.5, 1): 3 - 6 * LOG15,
    (0.5, 2): 6 * (2.5 - 6 * LOG15),
    (1.0, 1): 15 - 36 * LOG15,
    (1.0, 2): 18 * (6.5 - 16 * LOG15),
}


class TestPhiQ:
    @pytest.mark.parametrize("q,x", sorted(PHI_M1))
    def test_m1_closed_forms(self, m1, q, x):
        assert sc.phi_q_fn(m1, q, x) == pytest.approx(PHI_M1[(q, x)], abs=1e-12)

    def test_tie_branch_power_function(self, m2):
        # q = 1 = mu*(r~(varphi)-1): Phi_q is exactly varphi^x
        for x in range(5):
            assert sc.phi_q_fn(m2, 1.0, x) == pytest.approx(0.5 ** x, rel=1e-12)

    def test_strictly_decreasing_vanishing(self, m1, m3, m4):
        for spec in (m1, m3, m4):
            vals = [sc.phi_q_fn(spec, 1.0, x) for x in range(31)]
            assert all(v > 0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert vals[30] / vals[0] < vals[15] / vals[0]

    def test_unsupported_regime(self, m2):
        # m2 at q < 1 has phi_q > varphi (analytic continuation not attempted)
        with pytest.raises(UnsupportedRegimeError) as e:
            sc.phi_q_fn(m2, 0.5, 1)
        assert "phi_q" in str(e.value)

    def test_q_zero_rejected(self, m1):
        with pytest.raises(DomainError):
            sc.phi_q_fn(m1, 0.0, 1)

    def test_m3_uniform_scale(self, m3):
        # Phi_1(x) proportional to 1/(x+1)
        base = sc.phi_q_fn(m3, 1.0, 0)
        for x in (1, 2, 3, 6):
            assert sc.phi_q_fn(m3, 1.0, x) / base == pytest.approx(1 / (x + 1), rel=1e-11)

    def test_mu0_simplified_form_agrees(self, m1):
        for q in (0.5, 2.0):
            for x in (1, 2, 5):
                a = sc.phi_q_fn(m1, q, x)
                b = sc.phi_q_mu0_simplified(m1, q, x)
                assert a == pytest.approx(b, rel=1e-9)

    def test_delimiter_ratio_invariance(self, m1, m2):
        varphi = md.root_varphi(m1)
        r1 = sc.phi_q_fn(m1, 0.5, 2) / sc.phi_q_fn(m1, 0.5, 0)
        r2 = (sc.phi_q_with_delimiter(m1, 0.5, 2, varphi / 2)
              / sc.phi_q_with_delimiter(m1, 0.5, 0, varphi / 2))
        assert r1 == pytest.approx(r2, abs=1e-9)
        varphi = md.root_varphi(m2)
        r1 = sc.phi_q_fn(m2, 2.0, 2) / sc.phi_q_fn(m2, 2.0, 0)
        r2 = (sc.phi_q_with_delimiter(m2, 2.0, 2, varphi / 2)
              / sc.phi_q_with_delimiter(m2, 2.0, 0, varphi / 2))
        assert r1 == pytest.approx(r2, abs=1e-9)


class TestPsiQ:
    def test_m4_values(self, m4):
        assert sc.psi_q_fn(m4, 1.0, 1) == pytest.approx(1.28 / 12, abs=1e-12)
        assert sc.psi_q_fn(m4, 2.0, 1) == pytest.approx(1.28 / 30, abs=1e-12)
        assert sc.psi_q_fn(m4, 1.0, 0) == pytest.approx(0.0, abs=1e-12)

    def test_increasing_in_x_bounded(self, m4):
        vals = [sc.psi_q_fn(m4, 1.0, x) for x in range(0, 25)]
        assert all(b > a for a, b in zip(vals[1:], vals[2:]))
        assert all(-1e-12 <= v < 1.0 for v in vals)

    def test_preconditions(self, m1, m4):
        with pytest.raises(PreconditionError):
            sc.psi_q_fn(m1, 1.0, 1)  # non-explosive
        with pytest.raises(DomainError):
            sc.psi_q_fn(m4, 0.0, 1)


class TestPhi0:
    def test_mu0_power(self, m1, m4):
        assert sc.phi_0_fn(m1, 3) == 1.0
        for x in (1, 2, 5):
            assert sc.phi_0_fn(m4, x) == pytest.approx(0.36 ** x, rel=1e-12)

    def test_m3_divergent_branch(self, m3):
        # integrand ~ C/(1-v): divergent, so Phi_0 = varphi^x = 1
        for x in (0, 1, 3):
            assert sc.phi_0_fn(m3, x) == 1.0

    def test_m5_integral_branch_vs_quadrature_oracle(self, m5):
        # independent oracle: scipy quadrature of 2 e^4 e^{-4/sqrt(1-v)} (1-v)^-2 v^x
        def g(v, x):
            return 2 * math.exp(4.0) * math.exp(-4.0 / math.sqrt(1 - v)) / (1 - v) ** 2 * v ** x
        for x in (0, 1, 2):
            want, _ = sci.quad(g, 0.0, 1.0, args=(x,), epsabs=1e-13, epsrel=1e-12, limit=200)
            assert sc.phi_0_fn(m5, x) == pytest.approx(want, rel=1e-8)
        assert sc.phi_0_fn(m5, 1) / sc.phi_0_fn(m5, 0) < 1.0

    def test_m3crit_uniform(self, m3crit):
        # Phi_0(x)/Phi_0(0) = 1/(x+1): finite-integral branch of the case split
        base = sc.phi_0_fn(m3crit, 0)
        for x in (1, 2, 3):
            assert sc.phi_0_fn(m3crit, x) / base == pytest.approx(1 / (x + 1), rel=1e-9)

    def test_regime_error(self, m2):
        with pytest.raises(UnsupportedRegimeError):
            sc.phi_0_fn(m2, 1)


class TestPhiQQbar:
    def test_qbar0_proportional_to_phi_q(self, m1):
        r1 = sc.phi_q_qbar_fn(m1, 0.5, 0.0, 2) / sc.phi_q_qbar_fn(m1, 0.5, 0.0, 0)
        r2 = sc.phi_q_fn(m1, 0.5, 2) / sc.phi_q_fn(m1, 0.5, 0)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_mu0_collapse(self, m1):
        vq = md.root_varphi_qbar(m1, 1.0)
        for x in (1, 2, 5):
            got = sc.phi_q_qbar_fn(m1, 0.0, 1.0, x) / sc.phi_q_qbar_fn(m1, 0.0, 1.0, 0)
            assert got == pytest.approx(vq ** x, rel=1e-12)

    def test_r_minus1_zero_display(self, m3):
        # mu > 0, no culling, q = 0: the specialized integral form applies
        vq = md.root_varphi_qbar(m3, 0.5)

        def g(v, x):
            # exp{-int_0^v mu(1-r~)/(lam(p~-id)-qbar id)} / (lam(p~-id)-qbar v) * v^x
            den = lambda w: 2 * (0.75 + w * w / 4 - w) - 0.5 * w
            inner, _ = sci.quad(lambda w: (1 - w) / den(w), 0.0, v, epsabs=1e-14)
            return math.exp(-inner) / den(v) * v ** x
        for x in (0, 2):
            want, _ = sci.quad(g, 0.0, vq, args=(x,), epsabs=1e-13, limit=200)
            got = sc.phi_q_qbar_fn(m3, 0.0, 0.5, x)
            # same normalization: prefactor mu*(1 - r~(vq))
            want *= 1.0 * (1.0 - vq)
            assert got == pytest.approx(want, rel=1e-9)

    def test_positive_decreasing(self, m3):
        vals = [sc.phi_q_qbar_fn(m3, 1.0, 0.7, x) for x in range(12)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_strict_precondition(self, m2):
        # q must exceed mu*(r~(varphi_qbar)-1) strictly
        vq = md.root_varphi_qbar(m2, 1.0)
        bad_q = 1.0 * (m2.immigration.pgf(vq) - 1.0)
        with pytest.raises(UnsupportedRegimeError):
            sc.phi_q_qbar_fn(m2, bad_q, 1.0, 1)
        assert sc.phi_q_qbar_fn(m2, bad_q + 0.5, 1.0, 1) > 0.0


class TestHarmonicResidual:
    @pytest.mark.parametrize("q", [0.25, 1.0, 4.0])
    def test_phi_q_all_fixtures(self, m1, m3, m4, q):
        for spec in (m1, m3, m4):
            for x in range(1, 21):
                assert sc.harmonic_residual(spec, q, 0.0, "phi_q", x) < 1e-6

    @pytest.mark.parametrize("q", [0.25, 1.0, 4.0])
    def test_psi_q_m4(self, m4, q):
        for x in range(1, 21):
            assert sc.harmonic_residual(m4, q, 0.0, "psi_q", x) < 1e-6

    @pytest.mark.parametrize("q", [0.25, 1.0, 4.0])
    def test_phi_q_qbar_m1(self, m1, q):
        for x in range(1, 21):
            assert sc.harmonic_residual(m1, q, 1.0, "phi_q_qbar", x) < 1e-6

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_phi_q_m4_where_phi_underflows(self, m4, q):
        # Phi_q(x) and both sides of the equation underflow from x ~ 800
        for x in (800, 900, 5000):
            assert 0.0 < sc.harmonic_residual(m4, q, 0.0, "phi_q", x) < 1e-6

    def test_tie_branch_exact(self, m2):
        assert sc.harmonic_residual(m2, 1.0, 0.0, "phi_q", 2) < 1e-12

    @pytest.mark.parametrize("q", [0.25, 1.0, 4.0])
    def test_phi_q_m5_heavy_immigration(self, m5, q):
        # critical branching, double root at 1, sibuya immigration weight
        for x in range(1, 21):
            assert sc.harmonic_residual(m5, q, 0.0, "phi_q", x) < 1e-6

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_phi_q_m2_with_culling(self, m2, q):
        # culling pole at 0 in the inner weight (phi_q > 0 delimiter)
        for x in range(1, 21):
            assert sc.harmonic_residual(m2, q, 0.0, "phi_q", x) < 1e-6

    def test_thread_safety_of_table_cache(self, m3):
        # concurrent first-time evaluations must agree bit-for-bit
        import concurrent.futures

        def work(_):
            return sc.phi_q_fn(m3, 2.5, 7)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            vals = list(pool.map(work, range(16)))
        assert len(set(vals)) == 1

    def test_m1_closed_form_identity(self, m1):
        # (q+lam)Phi(1) = lam(p0 Phi(0) + p2 Phi(2)) at q=0.5
        lhs = 1.5 * PHI_M1[(0.5, 1)]
        rhs = 0.75 * 1.0 + 0.25 * PHI_M1[(0.5, 2)]
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert sc.harmonic_residual(m1, 0.5, 0.0, "phi_q", 1) < 1e-6


# ---------------------------------------------------------------------------
# batched table build against the sequential panel-by-panel ladder
# ---------------------------------------------------------------------------

def _reference_logw(tbl: sc.ScaleTable) -> np.ndarray:
    """The table's last level rebuilt node by node, one gk_adaptive call per panel."""
    pts = tbl.pts
    t = pts.t
    npts = len(t)

    def panel(t0, t1):
        return quad.gk_adaptive(tbl.gamma_t, t0, t1, 1e-15, 1e-13)[0]

    theta_anchored = not (tbl.anchor_end or tbl.branch == "upper")
    if not theta_anchored:
        ja = npts - 1
    elif tbl.theta <= 0.0:
        ja = 0
    else:
        ja = int(np.argmin(np.abs(t - tbl.chart.t_of(tbl.theta))))
    base = 0.0
    if theta_anchored and tbl.theta > 0.0:
        base = -panel(tbl.chart.t_of(tbl.theta), t[ja])
    logw = np.full(npts, -np.inf)
    logw[ja] = base
    no_cut = tbl.numerator == "unit"
    left_sign = -1.0 if tbl.branch == "upper" else 1.0
    best = -math.inf
    acc = base
    for i in range(ja, npts - 1):
        term0 = tbl.log_ts_w[i] + acc - tbl.log_absD[i]
        best = max(best, term0)
        if term0 < best - sc._LOG_CUT and i > ja + 8 and not no_cut:
            break
        acc = acc - panel(t[i], t[i + 1])
        logw[i + 1] = acc
    acc = base
    for i in range(ja, 0, -1):
        term0 = tbl.log_ts_w[i] + acc - tbl.log_absD[i]
        best = max(best, term0)
        if term0 < best - sc._LOG_CUT and i < ja - 8 and not no_cut:
            break
        acc = acc + left_sign * panel(t[i - 1], t[i])
        logw[i - 1] = acc
    return logw


class TestBatchedBuild:
    """Every fixture table that the warm passage benchmark prebuilds."""

    def _tables(self, m1, m2, m3, m4, m5):
        tables = [sc._table(spec, q) for spec, qs in
                  ((m1, (0.5, 1.0, 2.0)), (m2, (2.0, 4.0)), (m3, (0.5, 1.0, 2.0)),
                   (m4, (1.0, 2.0)), (m5, (1.0, 2.0))) for q in qs]
        tables += [sc._table(spec, q, qbar=qbar, theta=md.root_phi_q(spec, q))
                   for spec, q, qbar in ((m1, 0.5, 0.5), (m1, 1.0, 1.0), (m2, 4.0, 1.0),
                                         (m3, 1.5, 0.5), (m3, 1.0, 1.0))]
        tables += [sc._table(m4, q, branch="upper") for q in (1.0, 2.0)]
        tables.append(sc._table(m5, 0.0, numerator="imm", theta=md.root_phi_q(m5, 0.0)))
        return tables

    def test_logw_matches_sequential_ladder(self, m1, m2, m3, m4, m5):
        for tbl in self._tables(m1, m2, m3, m4, m5):
            ref = _reference_logw(tbl)
            assert np.array_equal(np.isneginf(tbl.logw), np.isneginf(ref))
            fin = np.isfinite(ref)
            assert np.all(np.isfinite(tbl.logw) == fin)
            assert np.max(np.abs(tbl.logw[fin] - ref[fin])) <= 1e-13
            # refinement level and node count as built panel by panel
            assert (tbl.diagnostics.level, tbl.diagnostics.n_nodes) == (6, 769)
            assert tbl.diagnostics.converged


def _bd_mean_passage(lam, p0, p2, mu_up, x, a):
    """Birth-death series E_x[T_a] = sum_{y=a+1}^x sum_{k>=y} prod_{j=y}^{k-1} b(j) / prod_{j=y}^k d(j)."""
    def b(y):
        return lam * p2 * y + mu_up

    def d(y):
        return lam * p0 * y

    total = 0.0
    for y in range(a + 1, x + 1):
        term = 1.0 / d(y)
        terms, k = [term], y
        while term > 1e-20 * terms[0]:
            term *= b(k) / d(k + 1)
            terms.append(term)
            k += 1
        total += math.fsum(terms)
    return total


class TestMeanPassageTable:
    """End-anchored tables probe the mean passage times they serve."""

    @pytest.mark.parametrize("name, mu_up", [("m1", 0.0), ("m3", 1.0)])
    def test_converges_at_level_6(self, request, name, mu_up):
        spec = request.getfixturevalue(name)
        lam = spec.lam
        for x, a in ((1, 0), (2, 1), (8, 7), (24, 23), (24, 0), (40, 3)):
            want = _bd_mean_passage(lam, 0.75, 0.25, mu_up, x, a)
            assert ps.mean_first_passage(spec, x, a) == pytest.approx(want, rel=1e-12)
        theta = md.root_phi_q(spec, 0.0) if spec.mu > 0.0 else 0.0
        tbl = sc._table(spec, 0.0, numerator="imm", theta=theta, anchor_end=True)
        assert tbl.diagnostics.converged
        assert tbl.diagnostics.level <= 6
        assert tbl.diagnostics.achieved_error <= sc.DEFAULT_CFG.rel_tol


class TestTableCache:
    def test_bounded_with_identical_rebuild(self, monkeypatch, m1):
        assert sc._CACHE_MAX > 21  # the warm passage benchmark prebuilds 21 tables
        monkeypatch.setattr(sc, "_CACHE", {})
        monkeypatch.setattr(sc, "_CACHE_MAX", 4)
        qs = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
        first = sc._table(m1, qs[0])
        for q in qs[1:]:
            sc._table(m1, q)
            assert len(sc._CACHE) == min(qs.index(q) + 1, 4)
        assert [key[1] for key in sc._CACHE] == list(qs[2:])
        again = sc._table(m1, qs[0])
        assert again is not first
        assert np.array_equal(again.logw, first.logw)
        assert again.log_value(7) == first.log_value(7)
        assert len(sc._CACHE) == 4

    def test_root_caches_bounded(self):
        for fn in (md.root_varphi, md.root_phi_q, md.root_varphi_qbar):
            assert fn.cache_info().maxsize is not None


class TestLogScaleFunctions:
    def test_logs_match_values(self, m1, m2, m4, m5):
        for spec, q in ((m1, 0.5), (m2, 1.0), (m2, 4.0), (m4, 0.0), (m5, 0.0), (m5, 1.0)):
            for x in (0, 1, 7, 30):
                assert sc.log_phi_fn(spec, q, x) == pytest.approx(
                    math.log(sc.phi_fn(spec, q, x)), rel=1e-13, abs=1e-13)
        assert sc.log_phi_q_qbar_fn(m1, 0.5, 0.5, 7) == pytest.approx(
            math.log(sc.phi_q_qbar_fn(m1, 0.5, 0.5, 7)), rel=1e-13)

    def test_finite_where_value_underflows(self, m2):
        assert sc.phi_q_fn(m2, 4.0, 2000) == 0.0
        log_phi = sc.log_phi_fn(m2, 4.0, 2000)
        assert math.isfinite(log_phi) and log_phi < math.log(5e-324)

    def test_log_value_of_empty_integrand(self, m1):
        assert sc._table(m1, 0.5).log_value(3, -np.inf) == -math.inf


class TestPhiFn:
    def test_dispatch(self, m1, m3, m4):
        for spec in (m1, m3, m4):
            for x in (0, 1, 5):
                assert sc.phi_fn(spec, 0.0, x) == sc.phi_0_fn(spec, x)
                assert sc.phi_fn(spec, 1.5, x) == sc.phi_q_fn(spec, 1.5, x)

    def test_negative_q_is_domain_error(self, m1):
        with pytest.raises(DomainError):
            sc.phi_fn(m1, -1.0, 1)
