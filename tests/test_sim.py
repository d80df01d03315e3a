import math

import numpy as np
import pytest

from bgwscale import control as ctl
from bgwscale import model as md
from bgwscale import passage as ps
from bgwscale import sim
from bgwscale.errors import AdmissibilityError, DomainError, PreconditionError
from bgwscale.sim import SimConfig


def _dev(est, want):
    return abs(est.mean - want) / max(est.se, 1e-12)


class TestSamplers:
    def test_m1_frequency(self, m1):
        rng = np.random.default_rng(0)
        s = sim._JumpSampler(m1.offspring)
        draws = s.draw(rng.random(100000))
        p_hat = np.mean(draws == 0)
        sigma = math.sqrt(0.75 * 0.25 / 100000)
        assert abs(p_hat - 0.75) <= 4 * sigma
        assert set(np.unique(draws)) <= {0, 2}

    def test_degenerate(self):
        law = md.OffspringLaw.tabular({0: 1.0})
        rng = np.random.default_rng(1)
        assert sim._JumpSampler(law).draw(rng.random(1)).tolist() == [0]

    def test_sibuya_mixture_survival(self, m4):
        rng = np.random.default_rng(2)
        s = sim._JumpSampler(m4.offspring)
        draws = s.draw(rng.random(200000))
        n = len(draws)
        for k in (1, 4, 16):
            surv = 1.0
            for j in range(1, k + 1):
                surv *= 1.0 - 0.5 / j
            want = 0.8 * surv
            p_hat = np.mean(draws > k)
            sigma = math.sqrt(want * (1 - want) / n)
            assert abs(p_hat - want) <= 4 * sigma

    def test_sibuya_tail_inversion_exact(self):
        # deep-tail inversion agrees with the exact survival recursion
        alpha = 0.5
        table = sim._sibuya_tables(alpha)
        for u in (0.95, 0.99, 0.999):
            k = int(sim._invert_sibuya(np.array([u]), alpha, table)[0])
            logw = math.log(1.0 - u)
            assert sim._sibuya_log_surv(np.array([float(k)]), alpha)[0] <= logw
            assert sim._sibuya_log_surv(np.array([float(k - 1)]), alpha)[0] > logw

    @pytest.mark.parametrize("alpha, e", [(0.01, 20), (0.05, 53)])
    def test_deep_tail_capped_without_overflow(self, alpha, e):
        # the asymptotic start overflows to inf at 1 - u = 2^-e; the cap must take it silently
        law = md.ImmigrationLaw.sibuya(alpha)
        u = np.array([1.0 - 2.0 ** -e])
        assert sim._JumpSampler(law).draw(u).tolist() == [sim._K_CAP]

    def test_immigration_sampler(self, m2, m5):
        rng = np.random.default_rng(3)
        assert sim._JumpSampler(m2.immigration).draw(rng.random(1)).tolist() == [-1]
        s = sim._JumpSampler(m5.immigration)
        draws = s.draw(np.random.default_rng(4).random(50000))
        assert np.all(draws >= 1)
        p1 = np.mean(draws == 1)
        assert abs(p1 - 0.5) <= 4 * math.sqrt(0.25 / 50000)

    def test_u_one_stays_in_support(self, m1, m2, m5):
        # _u01 returns exactly 1.0 once in 2^53 draws: (2^53 - 1) + 0.5 rounds up
        assert ((2.0 ** 53 - 1.0) + 0.5) * 2.0 ** -53 == 1.0
        u = np.array([1.0])
        assert sim._JumpSampler(m1.offspring).draw(u).tolist() == [2]
        assert sim._JumpSampler(m2.immigration).draw(u).tolist() == [-1]
        k = sim._JumpSampler(m5.immigration).draw(u)
        assert 64 < k[0] <= sim._K_CAP


class TestSinglePath:
    def test_single_death_chain(self):
        spec = md.make_spec(md.OffspringLaw.tabular({0: 1.0}), 2.0)
        cfg = SimConfig(seed=5, n_paths=20000)
        res = sim._run_batch(spec, 1, 0, cfg)
        assert np.all(res.status == sim.HIT)
        assert np.all(res.jumps == 1)
        mean_t = res.time.mean()
        se = res.time.std(ddof=1) / math.sqrt(len(res.time))
        assert abs(mean_t - 0.5) <= 4 * se
        # area = holding time * 1
        mean_area = res.area.mean()
        se_a = res.area.std(ddof=1) / math.sqrt(len(res.area))
        assert abs(mean_area - 0.5) <= 4 * se_a

    def test_outcome_object(self, m1):
        res = sim._run_batch(m1, 3, 0, SimConfig(seed=9, n_paths=1))
        assert res.status[0] in {sim.HIT, sim.THRESHOLD, sim.CENSORED}
        assert res.time[0] > 0.0
        assert res.area[0] > 0.0
        assert res.min_level[0] >= 0

    def test_immediate_hit(self, m1):
        res = sim._run_batch(m1, 2, 2, SimConfig(seed=9, n_paths=1))
        assert res.status[0] == sim.HIT
        assert res.time[0] == 0.0

    def test_m4_threshold_fraction(self, m4):
        cfg = SimConfig(seed=6, n_paths=20000, explosion_threshold=50000)
        res = sim._run_batch(m4, 1, 0, cfg)
        frac = np.mean(res.status == sim.THRESHOLD)
        sigma = math.sqrt(0.64 * 0.36 / 20000)
        assert abs(frac - 0.64) <= 4 * sigma


class TestEstimators:
    def test_lt_passage_m1(self, m1):
        cfg = SimConfig(seed=11, n_paths=40000, explosion_threshold=2000, max_jumps=10**6)
        est = sim.estimate_lt_passage(m1, 0.5, 1, 0, cfg)
        assert _dev(est, 3 - 6 * math.log(1.5)) <= 3.0

    def test_lt_passage_m2(self, m2):
        cfg = SimConfig(seed=12, n_paths=40000, explosion_threshold=400, max_jumps=10**5)
        est = sim.estimate_lt_passage(m2, 1.0, 1, 0, cfg)
        assert _dev(est, 0.5) <= 3.0

    def test_q0_certain_extinction(self, m1):
        cfg = SimConfig(seed=13, n_paths=5000, explosion_threshold=10**6, max_jumps=10**6)
        est = sim.estimate_lt_passage(m1, 0.0, 1, 0, cfg)
        assert est.mean == 1.0
        assert est.censored_fraction == 0.0

    def test_m2_passage_probability_bounds(self, m2):
        # Remark-style coupling bounds: P_x(T_a < inf) in [0.5^{x-a}, 1]
        cfg = SimConfig(seed=14, n_paths=20000, explosion_threshold=500, max_jumps=10**5)
        for x, a in ((1, 0), (2, 0), (3, 1)):
            est = sim.estimate_lt_passage(m2, 0.0, x, a, cfg)
            assert 0.5 ** (x - a) - 4 * est.se <= est.mean <= 1.0
        # exact value at x=1, a=0 is 3/4 (analytic continuation of the transform)
        est = sim.estimate_lt_passage(m2, 0.0, 1, 0, cfg)
        assert _dev(est, 0.75) <= 3.0

    def test_avalanche_m1(self, m1):
        cfg = SimConfig(seed=15, n_paths=40000, explosion_threshold=2000, max_jumps=10**6)
        est = sim.estimate_joint_avalanche(m1, 0.0, 1.0, 2, 0, cfg)
        assert _dev(est, (4 - math.sqrt(13)) ** 2) <= 3.0

    def test_avalanche_qbar0_identical_to_lt(self, m1):
        cfg = SimConfig(seed=16, n_paths=5000, explosion_threshold=2000, max_jumps=10**6)
        a = sim.estimate_joint_avalanche(m1, 0.5, 0.0, 1, 0, cfg)
        b = sim.estimate_lt_passage(m1, 0.5, 1, 0, cfg)
        assert a.mean == b.mean  # same seeds -> identical paths -> identical output
        assert a.se == b.se

    def test_mean_passage(self, m1):
        cfg = SimConfig(seed=17, n_paths=40000, explosion_threshold=10**6, max_jumps=10**6)
        est = sim.estimate_mean_passage(m1, 1, 0, cfg)
        assert _dev(est, 4 * math.log(1.5)) <= 3.0
        est2 = sim.estimate_mean_passage(m1, 2, 1, cfg)
        assert _dev(est2, 12 * math.log(1.5) - 4) <= 3.0
        est3 = sim.estimate_mean_passage(m1, 2, 2, cfg)
        assert est3.mean == 0.0

    def test_explosion_estimates(self, m4):
        cfg = SimConfig(seed=18, n_paths=30000, explosion_threshold=10**5)
        est = sim.estimate_explosion(m4, 1.0, 1, 0, cfg)
        assert _dev(est, 1.28 / 12) <= 3.0
        assert "proxy_delta" in est.diagnostics
        est0 = sim.estimate_explosion(m4, 0.0, 1, 0, cfg)
        assert _dev(est0, 0.64) <= 3.0
        estt = sim.estimate_explosion_time(m4, 1, cfg)
        assert _dev(estt, 1.92) <= 3.0

    @pytest.mark.parametrize("estimate", [
        lambda spec, cfg: sim.estimate_explosion(spec, 0.0, 1, 0, cfg),
        lambda spec, cfg: sim.estimate_explosion_time(spec, 1, cfg),
    ], ids=["explosion", "explosion_time"])
    def test_explosion_estimates_refuse_non_explosive(self, m1, estimate):
        # P_x[zeta; zeta < inf] = 0 on m1, yet threshold crossings gave 0.0416 +- 0.010
        cfg = SimConfig(seed=1, n_paths=2000, explosion_threshold=5)
        with pytest.raises(PreconditionError, match="explosive"):
            estimate(m1, cfg)

    def test_clock_vs_weighting_equivalence(self, m1):
        # P(T <= e_q) by explicit clock vs E[e^{-qT}] weighting agree within 3 sigma
        q = 0.5
        cfg = SimConfig(seed=19, n_paths=40000, explosion_threshold=10**4, max_jumps=10**6)
        res = sim.atmin_clock_sample(m1, q, 1, cfg)
        p_clock = np.mean(res.status == sim.HIT)
        se_clock = math.sqrt(p_clock * (1 - p_clock) / len(res.status))
        est = sim.estimate_lt_passage(m1, q, 1, 0, cfg)
        assert abs(p_clock - est.mean) <= 3 * math.hypot(se_clock, est.se)

    def test_clock_past_horizon_is_censored(self, m3):
        # a clock that would ring after the horizon is censored there, not reported as a ring
        cfg = SimConfig(seed=3, n_paths=20_000, horizon=0.5, explosion_threshold=10**6)
        res = sim.atmin_clock_sample(m3, 1.0, 3, cfg)
        ring, censored = res.status == sim.CLOCK_RING, res.status == sim.CENSORED
        assert ring.any() and censored.any()
        assert np.all(res.time <= 0.5)
        assert np.array_equal(res.time[ring], res.clock[ring])
        assert np.all(res.time[censored] == 0.5) and np.all(res.clock[censored] >= 0.5)
        assert np.array_equal(ring | censored, res.status != sim.HIT)

    def test_atmin_histogram_m3(self, m3):
        cfg = SimConfig(seed=20, n_paths=30000, explosion_threshold=10**6, max_jumps=10**6)
        res = sim.atmin_clock_sample(m3, 1.0, 3, cfg)
        done = (res.status == sim.CLOCK_RING) | (res.status == sim.HIT)
        counts = np.bincount(res.min_level[done], minlength=4)
        n = done.sum()
        for k in range(4):
            sigma = math.sqrt(0.25 * 0.75 / n)
            assert abs(counts[k] / n - 0.25) <= 4 * sigma


class TestDeterminism:
    def test_bit_identical_reruns(self, m3):
        cfg = SimConfig(seed=42, n_paths=3000, explosion_threshold=10**5, max_jumps=10**5)
        a = sim.estimate_lt_passage(m3, 1.0, 2, 0, cfg)
        b = sim.estimate_lt_passage(m3, 1.0, 2, 0, cfg)
        assert (a.mean, a.se, a.censored_fraction) == (b.mean, b.se, b.censored_fraction)

    def test_seed_changes_result(self, m3):
        a = sim.estimate_lt_passage(m3, 1.0, 2, 0, SimConfig(seed=1, n_paths=3000,
                                                             explosion_threshold=10**5))
        b = sim.estimate_lt_passage(m3, 1.0, 2, 0, SimConfig(seed=2, n_paths=3000,
                                                             explosion_threshold=10**5))
        assert a.mean != b.mean

    def test_path_streams_order_independent(self, m1):
        # the same path index gives the same outcome regardless of batch size, free
        # or refilled to 1 (barrier(0), discounted at 0.5)
        for x0, horizon, refill in ((2, math.inf, None), (0, 20.0, (1, 0.5))):
            small = sim._run_batch(m1, x0, 0, SimConfig(seed=7, n_paths=10, horizon=horizon),
                                   refill=refill)
            big = sim._run_batch(m1, x0, 0, SimConfig(seed=7, n_paths=50, horizon=horizon),
                                 refill=refill)
            for name in ("status", "time", "area", "min_level", "t_last_min", "jumps", "pop",
                         "cost"):
                assert np.array_equal(getattr(small, name), getattr(big, name)[:10]), name

    def test_negative_seed(self, m3):
        cfg = SimConfig(seed=-3, n_paths=3000, explosion_threshold=10**5)
        est = sim.estimate_lt_passage(m3, 1.0, 2, 0, cfg)
        assert 0.0 < est.mean < 1.0
        # integral floats are stored as the ints they equal
        again = SimConfig(seed=-3.0, n_paths=3000.0, explosion_threshold=1e5)
        assert again == cfg and type(again.seed) is int
        assert sim.estimate_lt_passage(m3, 1.0, 2, 0, again).mean == est.mean


class TestControlled:
    def test_barrier_matches_value(self, m1):
        prob = ctl.ControlProblem(m1, 0, 0.5)
        cfg = SimConfig(seed=21, n_paths=30000, explosion_threshold=10**6)
        est = sim.simulate_controlled(prob, ("barrier", 0), 1, cfg)
        assert _dev(est, ctl.optimal_value(prob, 1)) <= 3.0

    def test_barrier1_matches_w1(self, m1):
        prob = ctl.ControlProblem(m1, 0, 0.5)
        cfg = SimConfig(seed=22, n_paths=30000, explosion_threshold=10**6)
        est = sim.simulate_controlled(prob, ("barrier", 1), 2, cfg)
        assert _dev(est, ctl.barrier_value(prob, 1, 2)) <= 3.0

    def test_topup_suboptimal(self, m1):
        prob = ctl.ControlProblem(m1, 0, 0.5)
        cfg = SimConfig(seed=23, n_paths=20000, explosion_threshold=10**6)
        est = sim.simulate_controlled(prob, ("topup", 2), 1, cfg)
        assert est.mean - 3 * est.se > ctl.optimal_value(prob, 1)

    def test_custom_policy(self, m1):
        # a policy is a ("barrier" | "topup", level) pair; max(1 - level, 0) is barrier(0)
        prob = ctl.ControlProblem(m1, 0, 0.5)
        cfg = SimConfig(seed=24, n_paths=2000, explosion_threshold=10**6)
        with pytest.raises(DomainError):
            sim.simulate_controlled(prob, lambda lv: np.maximum(1 - lv, 0), 1, cfg)
        est = sim.simulate_controlled(prob, ("barrier", 0), 1, cfg)
        assert est.mean > 0.0

    def test_inadmissible_policy(self, m1):
        # topup(0) never immigrates, so extinction reaches the floor
        prob = ctl.ControlProblem(m1, 0, 0.5)
        cfg = SimConfig(seed=25, n_paths=200, explosion_threshold=10**6)
        with pytest.raises(AdmissibilityError):
            sim.simulate_controlled(prob, ("topup", 0), 1, cfg)

    def test_barrier_below_floor(self, m1):
        prob = ctl.ControlProblem(m1, 2, 0.5)
        with pytest.raises(PreconditionError):
            sim.simulate_controlled(prob, ("barrier", 1), 3, SimConfig(seed=1, n_paths=10))

    def test_supercritical_q0(self, m2prime):
        prob = ctl.ControlProblem(m2prime, 0, 0.0)
        cfg = SimConfig(seed=26, n_paths=20000, explosion_threshold=300)
        est = sim.simulate_controlled(prob, ("barrier", 0), 1, cfg)
        assert _dev(est, 1.0) <= 3.0

    # exact bits at seed 5, 3 000 paths, m1 at floor 0 and q = 0.5 unless a case says
    # otherwise: (name, fixture, floor, q, policy, x0, SimConfig fields, mean, se, censored)
    PINNED = [
        ("topup2", "m1", 0, 0.5, ("topup", 2), 1, {},
         "0x1.bb4182f9216e4p+1", "0x1.77919a9993ca4p-6", 0.0),
        ("barrier1_from0", "m1", 0, 0.5, ("barrier", 1), 0, {},
         "0x1.1da0c17c90b71p+2", "0x1.77919a9993ca4p-6", 0.0),
        ("floor2_barrier3_from0", "m1", 2, 0.5, ("barrier", 3), 0, {},
         "0x1.1438dd3dacfa2p+3", "0x1.10b03b9de3ca0p-5", 0.0),
        ("barrier0_max_jumps40", "m1", 0, 0.5, ("barrier", 0), 1, {"max_jumps": 40},
         "0x1.4f49b6c19845ap+0", "0x1.050f271f0d627p-6", 1.0),
        ("barrier0_horizon7.5", "m1", 0, 0.5, ("barrier", 0), 1, {"horizon": 7.5},
         "0x1.47dd6a3720cefp+0", "0x1.04d2193ae69a8p-6", 0.0),
        ("q0_supercritical", "m2prime", 0, 0.0, ("barrier", 0), 1, {"explosion_threshold": 300},
         "0x1.07ae147ae147bp+0", "0x1.b2f88e9712bf3p-6", 0.0),
    ]

    @pytest.mark.parametrize("name, fixture, floor, q, policy, x0, fields, mean, se, censored",
                             PINNED, ids=[case[0] for case in PINNED])
    def test_pinned_bits(self, request, name, fixture, floor, q, policy, x0, fields,
                         mean, se, censored):
        # t = 0 cost, topup, floors above 0, censoring and horizon stops, which the
        # benchmark fingerprint (barrier(0) from 1 only) does not reach
        prob = ctl.ControlProblem(request.getfixturevalue(fixture), floor, q)
        est = sim.simulate_controlled(prob, policy, x0, SimConfig(seed=5, n_paths=3000, **fields))
        assert (est.mean.hex(), est.se.hex(), est.censored_fraction) == (mean, se, censored)
        assert est.diagnostics == {"policy": f"{policy[0]}({policy[1]})"}


class TestTiltedSimulation:
    def test_tilted_m2_goes_extinct(self, m2):
        tilted = ps.tilted_model(m2, 0.0)
        cfg = SimConfig(seed=27, n_paths=10000, explosion_threshold=10**5, max_jumps=10**5)
        res = sim._run_batch(tilted, 1, 0, cfg)
        extinct = np.mean(res.status == sim.HIT)
        assert extinct > 0.995
