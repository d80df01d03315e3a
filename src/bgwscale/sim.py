"""Exact event-driven simulation of the chain plus Monte Carlo estimators.

Paths evolve by Gillespie stepping: in state x > a the holding time is
exponential with rate lam*x + mu; the event is a branching death (probability
lam*x/(lam*x+mu), x -> x - 1 + K) or an immigration/culling event (x -> x + J).
One loop, ``_run_batch``, steps every path; a control policy is a refill to a
fixed level after each jump, whose discounted immigrants are the path's cost.

Randomness is counter-based: every uniform is a pure hash of
(seed, path index, per-path event index, slot), so replications are
order-independent, runs are reproducible bit-for-bit regardless of batch
layout, and two estimators driven by the same seed consume identical paths.

Sibuya jump sizes beyond K = 64 are inverted through a closed Stirling form of
the log survival function, so the simulator needs numpy and ``math`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as md
from .errors import AdmissibilityError, DomainError, PreconditionError, check_level, check_rate

__all__ = [
    "SimConfig", "Estimate",
    "estimate_lt_passage", "estimate_joint_avalanche", "estimate_mean_passage",
    "estimate_explosion", "estimate_explosion_time",
    "atmin_clock_sample", "simulate_controlled",
]

HIT, THRESHOLD, CENSORED, CLOCK_RING = 1, 2, 3, 4  # CENSORED: jump limit or horizon


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    n_paths: int = 1
    max_jumps: int = 10_000_000
    explosion_threshold: int = 1_000_000
    horizon: float = math.inf

    def __post_init__(self):
        for name, low in (("seed", -math.inf), ("n_paths", 1), ("max_jumps", 1),
                          ("explosion_threshold", 2)):
            object.__setattr__(self, name, check_level(getattr(self, name), name, low=low))
        if not self.horizon > 0.0:  # inf allowed, NaN refused
            raise DomainError(f"horizon must be > 0, got {self.horizon!r}")


@dataclass(frozen=True)
class Estimate:
    mean: float
    se: float
    n_effective: int
    censored_fraction: float
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# counter-based uniforms
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1


def _mix_int(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _u01(seed: int, path: np.ndarray, step: np.ndarray | np.int64, slot: int) -> np.ndarray:
    """Uniform(0,1) draws indexed by (seed, path, per-path step, slot); one integer
    step broadcasts to every path."""
    c = np.uint64(_mix_int(seed * 0x9E3779B97F4A7C15 + slot * 0xD1B54A32D192ED03 + 0x2545F4914F6CDD1D))
    with np.errstate(over="ignore"):
        x = (path.astype(np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
        x ^= (step.astype(np.uint64) + np.uint64(1)) * np.uint64(0xD1B54A32D192ED03)
        x ^= c
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        x = (x ^ (x >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
    return ((x >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


# ---------------------------------------------------------------------------
# jump-size samplers (inverse CDF throughout: one uniform per draw)
# ---------------------------------------------------------------------------

_SIBUYA_TABLE_LEN = 64
_K_CAP = 1 << 40


def _sibuya_tables(alpha: float) -> np.ndarray:
    """F_k = P(K <= k) for k = 0..64 of the Sibuya(alpha) law on {1,2,...}."""
    return 1.0 - np.cumprod(np.r_[1.0, 1.0 - alpha / np.arange(1.0, _SIBUYA_TABLE_LEN + 1)])


def _stirling_tail(z: np.ndarray) -> np.ndarray:
    """lgamma(z) - (z - 1/2) log z + z - log(2 pi)/2, four terms, z >= 64 in use."""
    r = 1.0 / z
    r2 = r * r
    return r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0)))


def _sibuya_log_surv(k: np.ndarray, alpha: float) -> np.ndarray:
    """log S_k = lgamma(k+1-alpha) - lgamma(k+1) - lgamma(1-alpha), with the two
    large lgamma terms cancelled in closed form (Stirling difference)."""
    b = k + 1.0
    return ((k + 0.5 - alpha) * np.log1p(-alpha / b) + alpha - alpha * np.log(b)
            + _stirling_tail(b - alpha) - _stirling_tail(b) - math.lgamma(1.0 - alpha))


def _invert_sibuya(u: np.ndarray, alpha: float, cdf_table: np.ndarray) -> np.ndarray:
    """K = min{k >= 1 : P(K <= k) >= u}; the table up to 64, beyond it one Newton step
    from S_k ~ k^-alpha / Gamma(1 - alpha), which lands within one of K (seen for alpha
    in [0.02, 0.999]), then exact survival comparisons until nothing moves."""
    k = np.searchsorted(cdf_table, u, side="left").astype(np.int64)
    tail = k > _SIBUYA_TABLE_LEN
    if np.any(tail):
        logw = np.log(1.0 - u[tail])         # survival target: min k with S_k <= 1 - u
        with np.errstate(over="ignore"):     # small alpha: an inf start is capped like any k
            kf = np.minimum(np.exp(-(logw + math.lgamma(1.0 - alpha)) / alpha), float(_K_CAP))
            resid = _sibuya_log_surv(kf, alpha) - logw   # Newton in log k: d logS/d logk ~ -alpha
            kt = np.ceil(np.clip(kf * np.exp(resid / alpha), 65.0, float(_K_CAP))).astype(np.int64)
        for _ in range(4):                   # exact local adjustment
            too_big = (kt > 65) & (_sibuya_log_surv(kt - 1.0, alpha) <= logw)
            kt = np.where(too_big, kt - 1, kt)
            too_small = (_sibuya_log_surv(kt.astype(float), alpha) > logw) & (kt < _K_CAP)
            kt = np.where(too_small, kt + 1, kt)
            if not (too_big.any() or too_small.any()):
                break
        k[tail] = np.maximum(kt, 65)
    return k


class _JumpSampler:
    """Jump sizes of an offspring or immigration law, one uniform per draw.

    A tabular law searches a cdf over its nonzero support whose last entry is
    +inf, so every u in (0, 1] lands in the support.  A Sibuya law draws the
    atom p0 at 0 (none for immigration) and inverts the Sibuya(alpha) tail.
    """

    def __init__(self, law: md.OffspringLaw | md.ImmigrationLaw):
        self.tabular, self.alpha = law.kind == "tabular", law.alpha
        if self.tabular:
            probs = np.asarray(law.pmf)
            self.vals = np.arange(law.lo, law.lo + len(probs))[probs > 0.0]
            cdf = np.cumsum(probs[probs > 0.0])
            self.cdf = np.r_[cdf[:-1] / cdf[-1], math.inf]
        else:
            self.p0 = law.p0
            self.table = _sibuya_tables(law.alpha)

    def draw(self, u: np.ndarray) -> np.ndarray:
        if self.tabular:
            return self.vals[np.searchsorted(self.cdf, u, side="right")]
        v = np.clip((u - self.p0) / (1.0 - self.p0), 1e-300, 1.0 - 1e-16)
        return np.where(u < self.p0, 0, _invert_sibuya(v, self.alpha, self.table))


# ---------------------------------------------------------------------------
# batched Gillespie core
# ---------------------------------------------------------------------------

@dataclass
class _BatchResult:
    status: np.ndarray
    time: np.ndarray
    area: np.ndarray
    min_level: np.ndarray
    t_last_min: np.ndarray
    jumps: np.ndarray
    pop: np.ndarray
    clock: np.ndarray
    cost: np.ndarray


def _run_batch(spec: md.ModelSpec, x0: int, a: int, cfg: SimConfig,
               qclock: float | None = None,
               refill: tuple[int, float] | None = None) -> _BatchResult:
    """Paths from x0 until a, the threshold, the jump limit, or the first of the
    horizon and an Exp(qclock) clock.  ``refill=(top, q)``: x0 is the level before
    the t = 0 refill to top, every jump is refilled to top, reaching the floor a
    raises, and ``cost`` sums the immigrants discounted at rate q."""
    # monotone-paths degeneracy is fine to simulate; only structural problems block
    problems = [p for p in md.validate(spec) if "nonincreasing" not in p]
    if problems:
        raise md.ModelError("invalid model: " + "; ".join(problems))
    a = check_level(a, "a")
    x0 = check_level(x0, "x0", low=a if refill is None else 0)
    top, q = refill or (x0, 0.0)
    cost0 = max(top - x0, 0)  # the t = 0 immigrants seed each path's cost
    x0 += cost0
    n = cfg.n_paths
    lam, mu = spec.lam, spec.mu
    off = _JumpSampler(spec.offspring)
    imm = _JumpSampler(spec.immigration) if spec.has_immigration else None

    res = _BatchResult(
        status=np.zeros(n, dtype=np.int8),
        time=np.zeros(n), area=np.zeros(n),
        min_level=np.full(n, x0, dtype=np.int64),
        t_last_min=np.zeros(n),
        jumps=np.zeros(n, dtype=np.int64),
        pop=np.full(n, x0, dtype=np.int64),
        clock=np.full(n, math.inf),
        cost=np.full(n, float(cost0)),
    )
    pid = np.arange(n, dtype=np.int64)  # live path indices; rebound, never written
    if qclock is not None:
        check_rate(qclock, "qclock", positive=True)
        res.clock = -np.log(_u01(cfg.seed, pid, np.zeros(n, dtype=np.int64), 3)) / qclock

    if x0 == a:
        res.status[:] = HIT
        return res

    # live working set, updated in place between compactions; every live path
    # has taken the same number of jumps, so the step counter is one scalar
    pop, minlev, cost = res.pop.copy(), res.min_level.copy(), res.cost.copy()
    t, area, tmin = np.zeros(n), np.zeros(n), np.zeros(n)
    clock = np.minimum(res.clock, cfg.horizon)  # one test stops at the ring or the horizon
    steps = np.int64(0)

    def retire(stop: np.ndarray, status: np.ndarray, time: np.ndarray, area_then: np.ndarray):
        """Record the stopped paths and drop them from the live set."""
        nonlocal pid, pop, t, area, minlev, tmin, cost, clock
        gone, live = np.flatnonzero(stop), np.flatnonzero(~stop)
        idx = pid[gone]
        res.status[idx] = status[gone]
        res.time[idx] = time[gone]
        res.area[idx] = area_then[gone]
        res.min_level[idx] = minlev[gone]
        res.t_last_min[idx] = tmin[gone]
        res.jumps[idx] = steps
        res.pop[idx] = pop[gone]
        res.cost[idx] = cost[gone]
        pid, pop, t, area, minlev, tmin, cost, clock = (
            arr[live] for arr in (pid, pop, t, area, minlev, tmin, cost, clock))
        return live

    while pid.size:
        rate = lam * pop
        if mu > 0.0:
            rate += mu
        t_next = t - np.log(_u01(cfg.seed, pid, steps, 0)) / rate

        stop = t_next >= clock
        if np.any(stop):
            t_next = t_next[retire(stop, np.where(clock < cfg.horizon, CLOCK_RING, CENSORED),
                                   clock, area + pop * (clock - t))]

        area += pop * (t_next - t)
        t = t_next
        u2 = _u01(cfg.seed, pid, steps, 2)
        if mu > 0.0:
            births = lam * pop
            branching = _u01(cfg.seed, pid, steps, 1) < births / (births + mu)
            jump = np.empty(pid.size, dtype=np.int64)
            if np.any(branching):
                jump[branching] = off.draw(u2[branching]) - 1
            if not np.all(branching):
                jump[~branching] = imm.draw(u2[~branching])
        else:
            jump = off.draw(u2) - 1
        steps += 1
        pop += jump
        np.minimum(pop, 2 * _K_CAP, out=pop)
        if refill is not None:
            immigrants = np.maximum(top - pop, 0)
            pop += immigrants
            cost += immigrants * np.exp(-q * t)

        lower = pop < minlev
        np.copyto(minlev, pop, where=lower)
        np.copyto(tmin, t, where=lower)

        hit, exceeded = pop <= a, pop >= cfg.explosion_threshold
        if refill is not None and np.any(hit):
            raise AdmissibilityError("policy let the population reach the floor")
        stop = hit | exceeded | (steps >= cfg.max_jumps)
        if np.any(stop):
            retire(stop, np.where(hit, HIT, np.where(exceeded, THRESHOLD, CENSORED)), t, area)
    return res


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _estimate_from_weights(w: np.ndarray, censored: np.ndarray,
                           diagnostics: dict | None = None) -> Estimate:
    n = len(w)
    mean = float(np.sum(w)) / n
    se = float(np.std(w, ddof=1)) / math.sqrt(n) if n > 1 else math.inf
    return Estimate(mean=mean, se=se, n_effective=n,
                    censored_fraction=float(np.sum(censored)) / n,
                    diagnostics=diagnostics or {})


def estimate_lt_passage(spec: md.ModelSpec, q: float, x: int, a: int,
                        cfg: SimConfig) -> Estimate:
    """MC estimate of P_x[e^{-q T_a^-}; T_a^- < inf]; censored and
    threshold-stopped paths contribute 0, with the omitted mass bounded by
    e^{-q t_stop} per path (reported, not subtracted)."""
    check_rate(q, "q")
    res = _run_batch(spec, x, a, cfg)
    hit = res.status == HIT
    w = np.where(hit, np.exp(-q * res.time), 0.0)
    censored = res.status == CENSORED
    stopped = censored | (res.status == THRESHOLD)
    bias = float(np.sum(np.exp(-q * res.time[stopped]))) / len(w) if q > 0.0 \
        else float(np.sum(stopped)) / len(w)
    return _estimate_from_weights(w, censored, {"bias_bound": bias})


def estimate_joint_avalanche(spec: md.ModelSpec, q: float, qbar: float, x: int, a: int,
                             cfg: SimConfig) -> Estimate:
    check_rate(q, "q")
    check_rate(qbar, "qbar")
    res = _run_batch(spec, x, a, cfg)
    hit = res.status == HIT
    w = np.where(hit, np.exp(-q * res.time - qbar * res.area), 0.0)
    censored = res.status == CENSORED
    return _estimate_from_weights(w, censored)


def estimate_mean_passage(spec: md.ModelSpec, x: int, a: int, cfg: SimConfig) -> Estimate:
    if check_level(x) == check_level(a, "a"):
        return Estimate(mean=0.0, se=0.0, n_effective=cfg.n_paths, censored_fraction=0.0)
    res = _run_batch(spec, x, a, cfg)
    hit = res.status == HIT
    times = res.time[hit]
    n_eff = int(np.sum(hit))
    mean = float(np.mean(times)) if n_eff else math.nan
    se = float(np.std(times, ddof=1)) / math.sqrt(n_eff) if n_eff > 1 else math.inf
    censored = res.status == CENSORED
    return Estimate(mean=mean, se=se, n_effective=n_eff,
                    censored_fraction=float(np.sum(censored)) / cfg.n_paths)


def _explosion_weights(spec, q, x, a, cfg) -> tuple[np.ndarray, np.ndarray]:
    res = _run_batch(spec, x, a, cfg)
    crossed = res.status == THRESHOLD
    w = np.where(crossed, np.exp(-q * res.time) if q > 0.0 else 1.0, 0.0)
    censored = res.status == CENSORED
    return w, censored


def estimate_explosion(spec: md.ModelSpec, q: float, x: int, a: int,
                       cfg: SimConfig) -> Estimate:
    """MC estimate of P_x[e^{-q zeta}; zeta < T_a^-] via the threshold-crossing
    proxy for zeta; the estimate is recomputed at threshold/10 and the shift
    reported as the proxy-bias diagnostic."""
    if not md.is_explosive(spec):
        raise PreconditionError("estimate_explosion requires an explosive chain")
    check_rate(q, "q")
    w, censored = _explosion_weights(spec, q, x, a, cfg)
    cfg10 = replace(cfg, explosion_threshold=max(2, cfg.explosion_threshold // 10))
    w10, _ = _explosion_weights(spec, q, x, a, cfg10)
    diag = {"proxy_delta": float(np.mean(w10) - np.mean(w)),
            "proxy_threshold": cfg.explosion_threshold}
    return _estimate_from_weights(w, censored, diag)


def estimate_explosion_time(spec: md.ModelSpec, x: int, cfg: SimConfig) -> Estimate:
    """MC estimate of P_x[zeta; zeta < inf] (threshold-crossing proxy for zeta)."""
    if not md.is_explosive(spec):
        raise PreconditionError("estimate_explosion_time requires an explosive chain")
    res = _run_batch(spec, x, 0, cfg)
    crossed = res.status == THRESHOLD
    w = np.where(crossed, res.time, 0.0)
    censored = res.status == CENSORED
    return _estimate_from_weights(w, censored)


def atmin_clock_sample(spec: md.ModelSpec, q: float, x: int, cfg: SimConfig) -> _BatchResult:
    """Paths run against an explicit Exp(q) clock; the running minimum at the
    ring (or at absorption, whichever comes first) realizes X_{G_{e_q}}."""
    return _run_batch(spec, x, 0, cfg, qclock=q)


# ---------------------------------------------------------------------------
# controlled simulation
# ---------------------------------------------------------------------------

def simulate_controlled(problem, policy, x0: int, cfg: SimConfig) -> Estimate:
    """Mean discounted immigration cost of a control policy.

    ``policy``: ("barrier", a) with a >= floor, or ("topup", m) refilling to
    max(current, floor+m) after each death; a and m are levels.
    """
    spec = problem.spec
    fl, q = problem.floor, problem.q
    md.require_valid(spec)

    kind, par = policy if isinstance(policy, tuple) and len(policy) == 2 else (policy, None)
    if kind not in ("barrier", "topup"):
        raise DomainError(f"policy must be ('barrier' | 'topup', level), got {policy!r}")
    par = check_level(par, f"{kind} level")
    if kind == "barrier" and par < fl:
        raise PreconditionError("barrier below the floor is inadmissible")
    top = par + 1 if kind == "barrier" else fl + par

    x0 = check_level(x0, "x0")
    if max(x0, top) <= fl:
        raise AdmissibilityError("policy left the population at or below the floor at t=0")
    # discount e^-50 at the horizon: the remaining cost is negligible
    horizon = min(cfg.horizon, 50.0 / q) if q > 0.0 else cfg.horizon
    res = _run_batch(spec, x0, fl, replace(cfg, horizon=horizon), refill=(top, q))
    # horizon stops are not censored; a threshold crossing at the last jump is
    return _estimate_from_weights(res.cost, res.jumps >= cfg.max_jumps,
                                  {"policy": f"{kind}({par})"})
