"""Probabilistic outputs built from the scale functions: Laplace transforms of
first-passage and explosion times, passage/explosion probabilities, means,
at-minimum factorization laws, the extinction-conditioned generator, and the
exponential tilting of the model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as md
from . import scale as sc
from .errors import PreconditionError, UnsupportedRegimeError, check_level, check_rate
from .quad import DEFAULT_CFG, QuadConfig

__all__ = [
    "AtMinLaw", "ConditionedGenerator",
    "lt_first_passage", "prob_passage", "certain_extinction",
    "lt_explosion_before", "prob_explosion_before",
    "mean_first_passage", "mean_explosion", "lt_joint_avalanche",
    "atmin_law", "atmin_lt_G", "atmin_lt_residual",
    "conditioned_generator", "tilted_model",
]


def _check_levels(x: int, a: int, name: str = "a") -> tuple[int, int]:
    """Levels x and a as ints; x must be at or above a."""
    a = check_level(a, name)
    return check_level(x, low=a), a


def lt_first_passage(spec: md.ModelSpec, q: float, x: int, a: int,
                     cfg: QuadConfig = DEFAULT_CFG) -> float:
    """P_x[e^{-q T_a^-}; T_a^- < inf] = Phi_q(x)/Phi_q(a), for phi_q <= varphi."""
    x, a = _check_levels(x, a)
    check_rate(q, "q")
    if x == a:
        return 1.0
    return math.exp(sc.log_phi_fn(spec, q, x, cfg) - sc.log_phi_fn(spec, q, a, cfg))


def prob_passage(spec: md.ModelSpec, x: int, a: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """P_x(T_a^- < inf) = Phi_0(x)/Phi_0(a), for phi <= varphi."""
    return lt_first_passage(spec, 0.0, x, a, cfg)


def certain_extinction(spec: md.ModelSpec) -> bool:
    """Whether P_x(T_0^- < inf) = 1 for all x: varphi = 1 and Phi_0 is the power
    function (mu = 0, phi = 1, or a divergent q = 0 scale integral), decided
    by the closed-form endpoint exponent s <= 0 of ``scale._endpoint``; no
    quadrature runs."""
    U, s, _ = sc._endpoint(spec, 0.0, 0.0)
    return U == 1.0 and s <= 0.0


def lt_explosion_before(spec: md.ModelSpec, q: float, x: int, a: int,
                        cfg: QuadConfig = DEFAULT_CFG) -> float:
    """P_x[e^{-q zeta}; zeta < T_a^-] = Psi_q(x) - Psi_q(a) Phi_q(x)/Phi_q(a)."""
    x, a = _check_levels(x, a)
    check_rate(q, "q", positive=True)
    if x == a:
        return 0.0
    psi_x = sc.psi_q_fn(spec, q, x, cfg)
    psi_a = sc.psi_q_fn(spec, q, a, cfg)
    return psi_x - psi_a * lt_first_passage(spec, q, x, a, cfg)


def prob_explosion_before(spec: md.ModelSpec, x: int, a: int,
                          cfg: QuadConfig = DEFAULT_CFG) -> float:
    """P_x(zeta < T_a^-) = 1 - Phi_0(x)/Phi_0(a) (the exact dichotomy for phi <= varphi;
    avoids a numerically delicate q -> 0 limit)."""
    x, a = _check_levels(x, a)
    if not md.is_explosive(spec):
        raise PreconditionError("prob_explosion_before requires an explosive chain")
    if x == a:
        return 0.0
    return 1.0 - prob_passage(spec, x, a, cfg)


def mean_first_passage(spec: md.ModelSpec, x: int, a: int,
                       cfg: QuadConfig = DEFAULT_CFG) -> float:
    """P_x[T_a^-] when extinction is a.s. finite and phi < 1; 0 at x == a."""
    x, a = _check_levels(x, a)
    if x == a:
        return 0.0
    if not certain_extinction(spec):
        raise PreconditionError("mean_first_passage requires certain extinction")
    if spec.offspring.mean() >= 1.0:  # critical: the integrand ~ u^(-1-k), k >= 0, at v = 1
        raise PreconditionError("mean_first_passage is infinite for critical offspring")
    phi = md.root_phi_q(spec, 0.0)
    if phi >= 1.0:
        raise PreconditionError("mean_first_passage requires phi < 1")
    tbl = sc._table(spec, 0.0, cfg=cfg)  # s <= 0: int (v^a - v^x) exp{int_v^1 gamma_0} / D dv
    log_mean = tbl.log_value(a, tbl.log_one_minus_pow(x - a))
    try:
        return math.exp(log_mean)
    except OverflowError:
        raise PreconditionError(f"mean passage time e^{log_mean:.6g} exceeds floats") from None


def mean_explosion(spec: md.ModelSpec, x: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """P_x[zeta; zeta < inf] for pure branching (mu = 0) explosive chains."""
    x = check_level(x, low=1)
    if spec.has_immigration:
        raise PreconditionError("mean_explosion requires mu = 0")
    if not md.is_explosive(spec):
        raise PreconditionError("mean_explosion requires an explosive chain")
    tbl = sc._table(spec, 0.0, branch="upper", cfg=cfg)  # q = mu = 0: s = 0 and logw = 0
    # x int v^(x-1) int_v^1 dw/|D| dv = int_varphi^1 (w^x - varphi^x)/|D(w)| dw (Fubini)
    return math.exp(x * tbl.log_root + tbl.log_value(0, tbl.log_one_minus_pow(x)))


def lt_joint_avalanche(spec: md.ModelSpec, q: float, qbar: float, x: int, a: int,
                       cfg: QuadConfig = DEFAULT_CFG) -> float:
    """P_x[e^{-q T_a^- - qbar int_0^{T_a^-} X_s ds}; T_a^- < inf]
    = Phi_{q,qbar}(x)/Phi_{q,qbar}(a)."""
    x, a = _check_levels(x, a)
    check_rate(q, "q")
    check_rate(qbar, "qbar")
    if x == a:
        return 1.0
    return math.exp(sc.log_phi_q_qbar_fn(spec, q, qbar, x, cfg)
                    - sc.log_phi_q_qbar_fn(spec, q, qbar, a, cfg))


# ---------------------------------------------------------------------------
# factorization at the minimum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtMinLaw:
    """Law of the last-strict-minimum level X_G before an independent Exp(q) clock."""

    x: int
    q: float
    pmf: tuple[float, ...]  # index k = 0..x


def atmin_law(spec: md.ModelSpec, q: float, x: int, cfg: QuadConfig = DEFAULT_CFG) -> AtMinLaw:
    """P_x(X_G = k) = Phi_q(x)/Phi_q(k) - Phi_q(x)/Phi_q(k-1) 1{k>=1}; telescopes to 1.

    Taken as Phi_q(x)/Phi_q(k) * (1 - Phi_q(k)/Phi_q(k-1)), the second factor
    -expm1 of a log difference, so nothing cancels where Phi_q(k)/Phi_q(k-1) -> 1."""
    x = sc._check_x(x)
    check_rate(q, "q")
    logs = sc.log_phi_fn(spec, q, np.arange(x + 1), cfg)
    pmf = np.exp(logs[x] - logs) * -np.expm1(np.diff(logs, prepend=math.inf))
    return AtMinLaw(x=x, q=q, pmf=tuple(pmf.tolist()))


def atmin_lt_G(spec: md.ModelSpec, q: float, alpha: float, x: int, k: int,
               cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Conditional transform P_x[e^{-alpha G} | X_G = k]."""
    check_rate(q, "q")
    check_rate(alpha, "alpha")
    x, k = _check_levels(x, k, "k")
    if alpha == 0.0 or k == x:
        return 1.0
    f, g = (sc.log_phi_fn(spec, r, np.array([x, k]), cfg) for r in (q, q + alpha))
    return math.exp(g[0] - f[0] + f[1] - g[1])


def atmin_lt_residual(spec: md.ModelSpec, q: float, alpha: float, x: int, k: int,
                      cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Conditional transform P_x[e^{-alpha (e_q - G)} | X_G = k], q > 0."""
    check_rate(q, "q", positive=True)
    check_rate(alpha, "alpha")
    x, k = _check_levels(x, k, "k")
    if alpha == 0.0:
        return 1.0
    head = q / (q + alpha)
    if k == 0:
        return head
    f, g = (sc.log_phi_fn(spec, r, np.array([k, k - 1]), cfg) for r in (q, q + alpha))
    return head * math.expm1(g[0] - g[1]) / math.expm1(f[0] - f[1])


# ---------------------------------------------------------------------------
# conditioned chain and tilted model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionedGenerator:
    """Transition mechanism of the chain conditioned on extinction before e_q.

    For each state x in 1..x_max: total leave rate q + mu + lam*x, jump
    distribution over reachable states, and (at x = 1) the killing rate."""

    x_max: int
    leave_rates: tuple[float, ...]              # index x-1
    jumps: tuple[dict[int, float], ...]         # index x-1: {target: probability}
    kill_rate: float                            # from state 1


_JUMP_TAIL_TOL = 1e-14


def conditioned_generator(spec: md.ModelSpec, q: float, x_max: int,
                          cfg: QuadConfig = DEFAULT_CFG) -> ConditionedGenerator:
    md.require_valid(spec)
    x_max = check_level(x_max, "x_max", low=1)
    check_rate(q, "q")
    try:
        sc._endpoint(spec, q, 0.0)
    except UnsupportedRegimeError as exc:
        raise PreconditionError(f"conditioned_generator needs q >= floor: {exc}") from None
    lam, mu, r_minus1 = spec.lam, spec.mu, spec.immigration.r_minus1
    p0 = spec.offspring.prob0
    # Upward jumps x -> x+k, k <= kmax, for all rows at once.  A row ends at its first k > 8
    # with term < _JUMP_TAIL_TOL (kept), first zero weight past both supports, or k = 100001.
    k_zero = max(len(spec.offspring.pmf), len(spec.immigration.pmf_up), 8)  # Sibuya: w > 0
    x = np.arange(1, x_max + 1)
    rate = q + mu + lam * x
    kmax = 64
    while True:
        k = np.arange(1, kmax + 1)
        logs = sc.log_phi_fn(spec, q, np.arange(x_max + kmax + 1), cfg)
        pk = spec.offspring.pmf_terms(kmax + 1)
        w = np.multiply.outer(x, pk[2:] * lam) + mu * spec.immigration.pmf_terms(kmax)[2:]
        with np.errstate(invalid="ignore", over="ignore"):
            term = w * np.exp(logs[x[:, None] + k] - logs[x, None]) / rate[:, None]
        stop = np.where(w > 0.0, (term < _JUMP_TAIL_TOL) & (k > 8), k > k_zero) | (k > 100000)
        if stop.any(axis=1).all():
            break
        kmax *= 2
    keep = (w > 0.0) & (term > 0.0) & (k <= np.argmax(stop, axis=1)[:, None] + 1)
    down = (p0 * lam * x + r_minus1 * mu) * np.exp(logs[x - 1] - logs[x]) / rate
    rows = [({y - 1: d} if y >= 2 else {}) | dict(zip((y + k[s]).tolist(), t[s].tolist()))
            for y, d, s, t in zip(x.tolist(), down.tolist(), keep, term)]
    kill = (p0 * lam + r_minus1 * mu) * math.exp(logs[0] - logs[1])
    return ConditionedGenerator(x_max=x_max, leave_rates=tuple(rate.tolist()),
                                jumps=tuple(rows), kill_rate=kill)


_TILT_TAIL_TOL = 1e-12
#: Most terms a Sibuya law is tilted into; a longer table is refused before it is allocated.
_TILT_MAX_TERMS = 1 << 17


def tilted_model(spec: md.ModelSpec, qbar: float) -> md.ModelSpec:
    """Exponentially tilted model: offspring p_k -> p_k v^k / p~(v), rate lam+qbar,
    immigration r_k -> r_k v^k / r~(v), rate mu*r~(v), with v = varphi_qbar.

    The tilted branching mechanism is never supercritical.  Analytic laws are
    tilted into tabular ones truncated where the remaining tilted mass drops
    below 1e-12 (the geometric factor makes the tail summable), and refused
    past _TILT_MAX_TERMS terms (varphi_qbar too close to 1).
    """
    md.require_valid(spec)
    check_rate(qbar, "qbar")
    v = md.root_varphi_qbar(spec, qbar)
    if v >= 1.0:
        raise PreconditionError("tilting requires varphi_qbar < 1 "
                                "(supercritical branching when qbar = 0)")
    off, imm = spec.offspring, spec.immigration
    cutoff = _tilt_cutoff(v)
    if cutoff > _TILT_MAX_TERMS and (off.kind == "sibuya_mix" or imm.kind == "sibuya"):
        raise PreconditionError(f"tilting a Sibuya law needs {cutoff} > {_TILT_MAX_TERMS} terms")
    ptilde_v = off.pgf(v)
    terms = off.pmf if off.kind == "tabular" else off.pmf_terms(cutoff)
    new_off = md.OffspringLaw.tabular({k: p * v**k / ptilde_v
                                       for k, p in enumerate(terms) if p > 0.0})

    if spec.has_immigration:
        rtilde_v = imm.pgf(v)
        terms = imm.pmf if imm.kind == "tabular" else imm.pmf_terms(cutoff)
        rpmf = {k: p * v**k / rtilde_v for k, p in enumerate(terms[2:], start=1) if p > 0.0}
        if imm.r_minus1 > 0.0:
            rpmf[-1] = imm.r_minus1 / (v * rtilde_v)
        new_imm = md.ImmigrationLaw.tabular(rpmf)
        new_mu = spec.mu * rtilde_v
    else:
        new_imm = md.ImmigrationLaw.none()
        new_mu = 0.0
    return md.make_spec(new_off, spec.lam + qbar, new_imm, new_mu)


def _tilt_cutoff(v: float) -> int:
    # tail of sum p_k v^k beyond K is < v^K / (1-v); solve for the tolerance
    return max(16, int(math.log(_TILT_TAIL_TOL * (1.0 - v)) / math.log(v)) + 2)
