import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgwscale import control as ctl
from bgwscale import model as md
from bgwscale import passage as ps
from bgwscale.errors import DomainError, ModelError, NoImmigrationError

BINARY = md.OffspringLaw.tabular({0: 0.75, 2: 0.25})
SUPER = md.OffspringLaw.tabular({0: 0.25, 2: 0.75})
SIBUYA = md.OffspringLaw.sibuya_mix(0.2, 0.5)

#: Two forms of one chain, a call that earlier versions refused on the first
#: form (or None), and its value on the second.
SAME_CHAIN = [
    # p_1 is removed on construction
    (md.make_spec(md.OffspringLaw.tabular({0: 0.25, 1: 0.5, 2: 0.25}), 4.0),
     md.make_spec(md.OffspringLaw.tabular({0: 0.5, 2: 0.5}), 2.0), None, None),
    # no immigration: mu > 0 with law "none", mu = 0 with a law, and the plain spec
    (md.make_spec(SUPER, 1.0, None, mu=0.5), md.make_spec(SUPER, 1.0),
     lambda s: ps.lt_joint_avalanche(s, 0.0, 1.0, 3, 1), 0.01728775514312062),
    (md.make_spec(SIBUYA, 1.0, md.ImmigrationLaw.none(), 0.7), md.make_spec(SIBUYA, 1.0),
     lambda s: ps.mean_explosion(s, 1), 1.919999999999993),
    (md.make_spec(SIBUYA, 1.0, md.ImmigrationLaw.none(), 0.7), md.make_spec(SIBUYA, 1.0),
     lambda s: ctl.optimal_value(ctl.ControlProblem(s, 0, 0.5), 1), 0.2295081967213117),
    (md.make_spec(BINARY, 1.0, md.ImmigrationLaw.tabular({1: 1.0}), 0.0),
     md.make_spec(BINARY, 1.0), lambda s: ctl.optimal_value(ctl.ControlProblem(s, 0, 0.5), 1),
     1.3105859683466703),
    # zero probabilities at the top of the support are dropped, also those that
    # removing p_1 leaves
    (md.make_spec(md.OffspringLaw.tabular({0: 0.5, 1: 0.5}), 2.0),
     md.make_spec(md.OffspringLaw.tabular({0: 1.0}), 1.0), None, None),
    (md.make_spec(md.OffspringLaw.tabular({0: 0.5, 2: 0.5, 3: 0.0}), 1.0),
     md.make_spec(md.OffspringLaw.tabular({0: 0.5, 2: 0.5}), 1.0),
     lambda s: ps.lt_first_passage(s, 1.0, 3, 1), 0.18306022237543873),
    (md.make_spec(BINARY, 1.0, md.ImmigrationLaw.tabular({-1: 0.5, 1: 0.5, 5: 0.0}), 1.0),
     md.make_spec(BINARY, 1.0, md.ImmigrationLaw.tabular({-1: 0.5, 1: 0.5}), 1.0),
     lambda s: ps.lt_first_passage(s, 1.0, 3, 1), 0.4027826028189503),
]


class TestPgf:
    def test_m1_point(self, m1):
        assert m1.offspring.pgf(0.5) == pytest.approx(0.8125, abs=1e-15)

    def test_at_one_is_one(self, m1, m2, m3, m4, m5):
        for spec in (m1, m2, m3, m4, m5):
            assert spec.offspring.pgf(1.0) == pytest.approx(1.0, abs=1e-12)
            if spec.immigration.kind != "none":
                assert spec.immigration.pgf(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_sibuya_mix_closed_form(self, m4):
        # (1-0.75)^{1/2} = 0.5, so pgf = 0.2 + 0.8*0.5
        assert m4.offspring.pgf(0.75) == pytest.approx(0.6, abs=1e-15)

    @pytest.mark.parametrize("kmax", [0, 1, 2, 1000])
    def test_sibuya_pmf_terms_match_scalar_recursion(self, m4, m5, kmax):
        # the recursion p_{k+1} = p_k (k - alpha)/(k + 1) one term at a time; the
        # vectorized product rounds differently, by < 3e-15 relative up to k = 1000
        def loop(p1, alpha):
            out = [p1] if kmax else []
            for k in range(1, kmax):
                out.append(out[-1] * (k - alpha) / (k + 1.0))
            return np.array(out)
        off, imm = m4.offspring, m5.immigration
        assert off.pmf_terms(kmax)[0] == off.p0
        assert off.pmf_terms(kmax)[1:] == pytest.approx(loop((1.0 - 0.2) * 0.5, 0.5), rel=1e-13)
        assert imm.pmf_terms(kmax)[0] == 0.0
        assert imm.pmf_terms(kmax)[2:] == pytest.approx(loop(0.5, 0.5), rel=1e-13)

    @pytest.mark.parametrize("law, pmf", [
        (BINARY, {0: 0.75, 2: 0.25}),
        (md.OffspringLaw.tabular({0: 0.5, 1: 0.2, 4: 0.3}), {0: 0.5, 1: 0.2, 4: 0.3}),
        (md.ImmigrationLaw.tabular({-1: 1.0}), {-1: 1.0}),  # m2: culling only, no k >= 0 term
        (md.ImmigrationLaw.tabular({-1: 0.7, 3: 0.3}), {-1: 0.7, 3: 0.3}),
        (md.ImmigrationLaw.none(), {}),
    ], ids=["binary", "offspring-p1", "culling-only", "culling-batch", "none"])
    def test_tabular_laws_match_hand_sums(self, law, pmf):
        for kmax in (0, 2, 6):
            want = [pmf.get(k, 0.0) for k in range(law.lo, kmax + 1)]
            assert law.pmf_terms(kmax).tolist() == want
        assert law.mean() == pytest.approx(sum(k * p for k, p in pmf.items()), rel=1e-15)
        for v in (0.3, 0.8, 1.0):
            if law.kind == "none":
                with pytest.raises(NoImmigrationError):
                    law.pgf(v)
                with pytest.raises(NoImmigrationError):
                    law.pgf_prime(v)
                continue
            assert law.pgf(v) == pytest.approx(sum(p * v**k for k, p in pmf.items()), rel=1e-15)
            assert law.pgf_prime(v) == pytest.approx(
                sum(k * p * v ** (k - 1) for k, p in pmf.items()), rel=1e-15)

    def test_immigration_values(self, m2, m3, m5):
        assert m2.immigration.pgf(0.5) == pytest.approx(2.0, abs=1e-14)
        assert m3.immigration.pgf(0.5) == pytest.approx(0.5, abs=1e-15)
        assert m5.immigration.pgf(0.75) == pytest.approx(0.5, abs=1e-15)

    def test_domain_errors(self, m1, m3):
        with pytest.raises(DomainError):
            m1.offspring.pgf(0.0)
        with pytest.raises(DomainError):
            m1.offspring.pgf(1.5)
        with pytest.raises(NoImmigrationError):
            md.ImmigrationLaw.none().pgf(0.5)

    def test_one_minus_pgf_stable(self, m3):
        # 1 - r~(v) = 1 - v for m3; check deep into the cancellation zone
        got = m3.immigration.one_minus_pgf(1.0, 1e-200)
        assert got == pytest.approx(1e-200, rel=1e-12)


class TestNormalization:
    def test_conditioning(self):
        spec = md.make_spec(md.OffspringLaw.tabular({0: 0.5, 1: 0.5}), 2.0)
        assert spec.offspring.pmf[0] == pytest.approx(1.0)
        assert spec.offspring.prob1 == 0.0
        assert spec.lam == pytest.approx(1.0)

    def test_idempotent_on_m1(self, m1):
        again = md.make_spec(m1.offspring, m1.lam)
        assert again.lam == m1.lam
        assert again.offspring.pmf == m1.offspring.pmf
        assert again == m1

    def test_same_chain_same_spec(self):
        # both forms describe one chain, so they compare equal and share cache keys
        for one, other, call, want in SAME_CHAIN:
            assert one == other
            assert hash(one) == hash(other)
            if call is not None:
                assert call(one) == call(other) == pytest.approx(want, rel=1e-12)

    def test_three_point(self):
        spec = md.make_spec(md.OffspringLaw.tabular({0: 0.25, 1: 0.5, 2: 0.25}), 4.0)
        assert spec.offspring.pmf[0] == pytest.approx(0.5)
        assert spec.offspring.pmf[2] == pytest.approx(0.5)
        assert spec.lam == pytest.approx(2.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ModelError):
            md.make_spec(md.OffspringLaw.tabular({1: 1.0}), 1.0)


class TestValidate:
    def test_fixtures_clean(self, m1, m2, m3, m4, m5):
        for spec in (m1, m2, m3, m4, m5):
            assert md.validate(spec) == []

    def test_nonincreasing_paths(self):
        spec = md.make_spec(md.OffspringLaw.tabular({0: 1.0}), 1.0,
                            md.ImmigrationLaw.tabular({-1: 1.0}), 1.0)
        assert any("nonincreasing" in v for v in md.validate(spec))

    def test_p0_positive(self):
        spec = md.make_spec(md.OffspringLaw.tabular({2: 1.0}), 1.0)
        assert any("p_0" in v for v in md.validate(spec))


class TestRoots:
    def test_varphi(self, m1, m2, m4):
        assert md.root_varphi(m1) == 1.0
        assert md.root_varphi(m2) == pytest.approx(0.5, abs=1e-13)
        assert md.root_varphi(m4) == pytest.approx(0.36, abs=1e-13)

    @pytest.mark.parametrize("p2", [0.502, 0.505, 0.5022, 0.51])
    def test_varphi_near_critical_binary(self, p2):
        # p~(z) - z near z = 1 is below the pgf's rounding here; the root is p0/p2
        spec = md.make_spec(md.OffspringLaw.tabular({0: 1.0 - p2, 2: p2}), 1.0)
        want = (1.0 - p2) / p2
        assert abs(md.root_varphi(spec) - want) <= 2 * math.ulp(want)

    def test_phi_q(self, m2, m3):
        # m2: r~(z) = 1/z, so mu(r~(z)-1) = q at z = 1/(1+q)
        assert md.root_phi_q(m2, 1.0) == pytest.approx(0.5, abs=1e-13)
        assert md.root_phi_q(m2, 3.0) == pytest.approx(0.25, abs=1e-13)
        assert md.root_phi_q(m3, 1.0) == 0.0  # no culling
        assert md.root_phi_q(m2, 0.0) == 1.0  # 1 is the only root of r~(z)=1

    def test_varphi_qbar(self, m1, m2):
        assert md.root_varphi_qbar(m1, 0.0) == 1.0
        assert md.root_varphi_qbar(m1, 1.0) == pytest.approx(4.0 - math.sqrt(13), abs=1e-12)
        # m2, qbar=3: 2 z^2 - 6 z + 1 = 0, smaller root (3-sqrt(7))/2
        assert md.root_varphi_qbar(m2, 3.0) == pytest.approx((3 - math.sqrt(7)) / 2, abs=1e-12)

    def test_phi_q_decreasing_onto_0_phi(self, m2):
        phi = md.root_phi_q(m2, 0.0)
        qs = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [md.root_phi_q(m2, q) for q in qs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < phi for v in vals)

    def test_varphi_qbar_decreasing(self, m2):
        varphi = md.root_varphi(m2)
        qs = [0.25, 0.5, 1.0, 2.0]
        vals = [md.root_varphi_qbar(m2, q) for q in qs]
        assert vals[0] < varphi
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_varphi_residual_and_smallest(self, m2, m4):
        for spec in (m2, m4):
            v = md.root_varphi(spec)
            resid = abs(spec.offspring.pgf(v) - v)
            assert resid <= 10 * 1e-13 * max(1.0, abs(spec.offspring.pgf_prime(v)))
            grid = np.linspace(v * 0.02, v * 0.98, 17)
            assert np.all(spec.offspring.pgf(grid) > grid)


def _ulps(got: float, want: Decimal) -> float:
    """|got - want| in ulps of want rounded to a float."""
    return float(abs(Decimal(got) - want) / Decimal(math.ulp(float(want))))


def _small_root(rate: float, up: float, q: float, down: float) -> Decimal:
    """Smaller root of rate*up*z^2 - (rate + q)*z + rate*down, to 40 digits: the
    root of rate*(pgf(z) - z) = q*z for binary offspring (up = p2, down = p0), and
    of rate*(r~(z) - 1) = q for {-1, 1} culling (up = r_1, down = r_-1)."""
    with localcontext() as ctx:
        ctx.prec = 40
        rate, up, q, down = map(Decimal, (rate, up, q, down))
        a, b, c = rate * up, rate + q, rate * down
        return 2 * c / (b + (b * b - 4 * a * c).sqrt())


def _sibuya_varphi(p0: float, alpha: float) -> Decimal:
    """1 - (1-p0)^(1/(1-alpha)) to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        return 1 - (1 - Decimal(p0)) ** (1 / (1 - Decimal(alpha)))


def _bisect(f, hi: float = 1.0) -> Decimal:
    """Root of f on (0, hi) with f(0) > 0 > f(hi), bisected to 40 digits (call
    under a 40-digit context; f maps Decimal to Decimal)."""
    lo, hi = Decimal(0), Decimal(hi)
    for _ in range(135):  # 2^-135 < 1e-40
        z = (lo + hi) / 2
        lo, hi = (z, hi) if f(z) > 0 else (lo, z)
    return lo


def _sibuya_varphi_qbar(p0: float, alpha: float, lam: float, qbar: float) -> Decimal:
    """Root of lam*(pgf(z) - z) = qbar*z for sibuya_mix(p0, alpha), to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        p0, alpha, lam, qbar = map(Decimal, (p0, alpha, lam, qbar))
        return _bisect(lambda z: lam * (p0 + (1 - p0) * (1 - (1 - z) ** alpha) - z) - qbar * z)


def _culling(r1: float, mu: float = 1.0) -> md.ModelSpec:
    """Binary p2 = 1/4 offspring with {-1, 1} culling; r_-1 = 1 - r1 is exact for r1 >= 1/2."""
    return md.make_spec(BINARY, 1.0, md.ImmigrationLaw.tabular({-1: 1.0 - r1, 1: r1}), mu)


#: 1/2 + 10^-k, k = 1..9: r_1 (or p2) within 10^-k of critical, where phi (varphi) -> 1
NEAR_CRITICAL = [0.5 + 10.0**-k for k in range(1, 10)]


class TestRootAccuracy:
    """Roots against 40-digit references; each bound is about twice the worst
    error that model._root gives on these cases."""

    @pytest.mark.parametrize("p2", NEAR_CRITICAL + [0.75, 0.9, 0.99])
    def test_binary_varphi(self, p2):
        spec = md.make_spec(md.OffspringLaw.tabular({0: 1.0 - p2, 2: p2}), 1.0)
        assert _ulps(md.root_varphi(spec), Decimal(1.0 - p2) / Decimal(p2)) <= 1.0

    @pytest.mark.parametrize("p0", [1e-4, 1e-3, 1e-2])
    def test_small_p0_varphi(self, p0):
        # g(0) = p0 is its own coefficient, not 1 - sum_{k>0} p_k, which cancels
        pmf = {0: p0, 2: 0.5, 3: 0.5 - p0}
        spec = md.make_spec(md.OffspringLaw.tabular(pmf), 1.0)
        with localcontext() as ctx:
            ctx.prec = 40
            law = {k: Decimal(p) for k, p in pmf.items()}
            want = _bisect(lambda z: sum(p * z**k for k, p in law.items()) - z, 0.5)
        assert _ulps(md.root_varphi(spec), want) <= 2.0

    @pytest.mark.parametrize("r1", NEAR_CRITICAL + [0.75, 0.9, 0.99])
    def test_culling_phi(self, r1):
        # r~(z) - 1 near phi ~ 1 is below the rounding of the pgf when r1 is near 1/2
        assert _ulps(md.root_phi_q(_culling(r1), 0.0), Decimal(1.0 - r1) / Decimal(r1)) <= 1.0

    def test_classify_near_critical_culling(self):
        spec = md.make_spec(BINARY, 1.0, md.ImmigrationLaw.tabular({-1: 0.499, 1: 0.501}), 1.0)
        assert _ulps(md.classify(spec).phi, Decimal(0.499) / Decimal(0.501)) <= 1.0

    @pytest.mark.parametrize("r1", NEAR_CRITICAL + [0.9, 0.5, 0.4, 0.1])
    @pytest.mark.parametrize("mu", [0.5, 2.0])
    @pytest.mark.parametrize("q", [1e-3, 1.0, 1e3])
    def test_culling_phi_q(self, r1, mu, q):
        got = md.root_phi_q(_culling(r1, mu), q)
        assert _ulps(got, _small_root(mu, r1, q, 1.0 - r1)) <= 2.5

    @pytest.mark.parametrize("p2", [0.1, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    @pytest.mark.parametrize("qbar", [1e-3, 1.0, 1e3])
    def test_binary_varphi_qbar(self, p2, lam, qbar):
        spec = md.make_spec(md.OffspringLaw.tabular({0: 1.0 - p2, 2: p2}), lam)
        want = _small_root(lam, p2, qbar, 1.0 - p2)
        assert _ulps(md.root_varphi_qbar(spec, qbar), want) <= 2.5

    @pytest.mark.parametrize("lam", [1.0, 3.0])
    @pytest.mark.parametrize("qbar", [1e-6, 1e-12, 1e-30, 1e-300])
    def test_critical_binary_varphi_qbar(self, lam, qbar):
        # the root 1 - sqrt(2 qbar/lam) of critical offspring, where pgf(z) - z
        # cancels; the worst case here is 0.35 ulps (it was 7.5e-9 relative at
        # qbar = 1e-300 and 5.0e-11 at 1e-12 when solved through pgf(z) - z)
        spec = md.make_spec(md.OffspringLaw.tabular({0: 0.5, 2: 0.5}), lam)
        assert _ulps(md.root_varphi_qbar(spec, qbar), _small_root(lam, 0.5, qbar, 0.5)) <= 0.5

    @pytest.mark.parametrize("q", [1e13, 1e14, 1e16, 1e17, 1e20])
    def test_phi_q_below_1e_14(self, m2, q):
        # m2 culls only, r~(z) = 1/z, so phi_q = 1/(1 + q); the bracket starts at
        # mu r_-1/(mu + q), not at a fixed 1e-14 where the root used to stop
        with localcontext() as ctx:
            ctx.prec = 40
            assert _ulps(md.root_phi_q(m2, q), 1 / (1 + Decimal(q))) <= 1.0

    @pytest.mark.parametrize("qbar", [1e13, 1e14, 1e16, 1e17, 1e20])
    def test_varphi_qbar_below_1e_14(self, m2, qbar):
        # lam (p0 + p2 z^2 - z) = qbar z on m2 (lam = 3, p2 = 2/3): the root ~ 1/qbar
        want = _small_root(3.0, m2.offspring.pmf[2], qbar, m2.offspring.pmf[0])
        assert _ulps(md.root_varphi_qbar(m2, qbar), want) <= 2.0

    @pytest.mark.parametrize("p0,alpha", [(0.2, 0.5), (0.1, 0.3), (0.5, 0.8), (0.05, 0.5)])
    def test_sibuya_varphi(self, p0, alpha):
        spec = md.make_spec(md.OffspringLaw.sibuya_mix(p0, alpha), 1.0)
        assert _ulps(md.root_varphi(spec), _sibuya_varphi(p0, alpha)) <= 5.0

    @pytest.mark.parametrize("p0,alpha", [(0.2, 0.5), (0.1, 0.3), (0.05, 0.5)])
    @pytest.mark.parametrize("lam,qbar", [(1.0, 1e-3), (1.0, 1.0), (2.0, 1e3)])
    def test_sibuya_varphi_qbar(self, p0, alpha, lam, qbar):
        spec = md.make_spec(md.OffspringLaw.sibuya_mix(p0, alpha), lam)
        want = _sibuya_varphi_qbar(p0, alpha, lam, qbar)
        assert _ulps(md.root_varphi_qbar(spec, qbar), want) <= 12.0


class TestRegime:
    def test_explosivity(self, m1, m2, m4, m5):
        assert not md.is_explosive(m1)
        assert not md.is_explosive(m2)  # finite support: integral diverges at 1
        assert md.is_explosive(m4)
        assert not md.is_explosive(m5)

    def test_classify(self, m1, m2, m3):
        r1 = md.classify(m1)
        assert (r1.criticality, r1.varphi, r1.phi, r1.explosive) == ("subcritical", 1.0, 0.0, False)
        r2 = md.classify(m2)
        assert r2.criticality == "supercritical"
        assert r2.varphi == pytest.approx(0.5, abs=1e-13)
        assert r2.phi == 1.0
        assert not r2.explosive
        r3 = md.classify(m3)
        assert (r3.criticality, r3.varphi, r3.phi) == ("subcritical", 1.0, 0.0)


class TestJson:
    def test_round_trip(self, m1, m2, m3, m4, m5, tmp_path):
        for i, spec in enumerate((m1, m2, m3, m4, m5)):
            path = tmp_path / f"spec{i}.json"
            md.dump_model(spec, path)
            back = md.load_model(path)
            assert back.lam == pytest.approx(spec.lam, rel=1e-15)
            assert back.mu == pytest.approx(spec.mu, rel=1e-15)
            for v in (0.25, 0.8):
                assert back.offspring.pgf(v) == pytest.approx(spec.offspring.pgf(v), rel=1e-15)
                if spec.immigration.kind != "none":
                    assert back.immigration.pgf(v) == pytest.approx(
                        spec.immigration.pgf(v), rel=1e-15)

    def test_rejects_r0(self):
        with pytest.raises(ModelError):
            md.ImmigrationLaw.tabular({0: 0.5, 1: 0.5})

    def test_rejects_support_below_culling(self):
        for pmf in ({-2: 0.5, 1: 0.5}, {-3: 0.0, 2: 1.0}):
            msg = f"support point {min(pmf)} below allowed minimum -1"
            with pytest.raises(ModelError, match=msg):
                md.ImmigrationLaw.tabular(pmf)


@st.composite
def tabular_offspring(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    total = sum(raw)
    pmf = {0: raw[0] / total}
    for k, w in enumerate(raw[1:], start=2):
        pmf[k] = w / total
    return md.make_spec(md.OffspringLaw.tabular(pmf), 1.0)


@given(tabular_offspring())
@settings(max_examples=60, deadline=None)
def test_varphi_properties_random(spec):
    v = md.root_varphi(spec)
    assert 0.0 < v <= 1.0
    assert (v < 1.0) == (spec.offspring.mean() > 1.0)
    assert abs(spec.offspring.pgf(v) - v) <= 10 * 1e-13 * max(1.0, spec.offspring.pgf_prime(v))
    assert not md.is_explosive(spec)
