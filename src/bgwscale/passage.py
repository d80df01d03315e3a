"""Probabilistic outputs built from the scale functions: Laplace transforms of
first-passage and explosion times, passage/explosion probabilities, means,
at-minimum factorization laws, the extinction-conditioned generator, and the
exponential tilting of the model."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import model as md
from . import scale as sc
from .errors import DomainError, PreconditionError
from .quad import DEFAULT_CFG, QuadConfig

__all__ = [
    "AtMinLaw", "ConditionedGenerator",
    "lt_first_passage", "prob_passage", "certain_extinction",
    "lt_explosion_before", "prob_explosion_before",
    "mean_first_passage", "mean_explosion", "lt_joint_avalanche",
    "atmin_law", "atmin_lt_G", "atmin_lt_residual",
    "conditioned_generator", "tilted_model",
]


def _check_levels(x: int, a: int) -> tuple[int, int]:
    if x != int(x) or a != int(a) or a < 0:
        raise DomainError("levels must be nonnegative integers")
    if a > x:
        raise DomainError("need a <= x")
    return int(x), int(a)


def lt_first_passage(spec: md.ModelSpec, q: float, x: int, a: int,
                     cfg: QuadConfig = DEFAULT_CFG) -> float:
    """P_x[e^{-q T_a^-}; T_a^- < inf] = Phi_q(x)/Phi_q(a), for phi_q <= varphi."""
    x, a = _check_levels(x, a)
    if q < 0.0:
        raise DomainError("q must be >= 0")
    if x == a:
        return 1.0
    return math.exp(sc.log_phi_fn(spec, q, x, cfg) - sc.log_phi_fn(spec, q, a, cfg))


def prob_passage(spec: md.ModelSpec, x: int, a: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """P_x(T_a^- < inf) = Phi_0(x)/Phi_0(a), for phi <= varphi."""
    return lt_first_passage(spec, 0.0, x, a, cfg)


def certain_extinction(spec: md.ModelSpec) -> bool:
    """Whether P_x(T_0^- < inf) = 1 for all x: varphi = 1 and Phi_0 is the power
    function (mu = 0, phi = 1, or a divergent q = 0 scale integral).  The
    decision is the closed-form rule of ``scale._phi0_uses_integral``; no
    quadrature runs."""
    md.require_valid(spec)
    return not sc._phi0_uses_integral(spec) and md.root_varphi(spec) == 1.0


def lt_explosion_before(spec: md.ModelSpec, q: float, x: int, a: int,
                        cfg: QuadConfig = DEFAULT_CFG) -> float:
    """P_x[e^{-q zeta}; zeta < T_a^-] = Psi_q(x) - Psi_q(a) Phi_q(x)/Phi_q(a)."""
    x, a = _check_levels(x, a)
    if q <= 0.0:
        raise DomainError("q must be > 0")
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
    """P_x[T_a^-] when extinction is a.s. finite and phi < 1 (and a < x)."""
    x, a = _check_levels(x, a)
    if a >= x:
        raise DomainError("need a < x")
    if not certain_extinction(spec):
        raise PreconditionError("mean_first_passage requires certain extinction")
    if spec.offspring.mean() >= 1.0:  # critical: the integrand ~ u^(-1-k), k >= 0, at v = 1
        raise PreconditionError("mean_first_passage is infinite for critical offspring")
    phi = md.root_phi_q(spec, 0.0)
    if phi >= 1.0:
        raise PreconditionError("mean_first_passage requires phi < 1")
    tbl = sc._table(spec, 0.0, numerator="imm", theta=phi if spec.mu > 0.0 else 0.0,
                    anchor_end=True, cfg=cfg)
    # int (v^a - v^x) exp{int_v^1 gamma_0} / D dv
    return math.exp(tbl.log_value(a, tbl.log_one_minus_pow(x - a)))


def mean_explosion(spec: md.ModelSpec, x: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """P_x[zeta; zeta < inf] for pure branching (mu = 0) explosive chains."""
    if x < 1 or x != int(x):
        raise DomainError("x must be >= 1")
    if spec.mu != 0.0:
        raise PreconditionError("mean_explosion requires mu = 0")
    if not md.is_explosive(spec):
        raise PreconditionError("mean_explosion requires an explosive chain")
    tbl = sc._table(spec, 1.0, branch="upper", numerator="unit", cfg=cfg)
    with np.errstate(divide="ignore"):  # x int v^(x-1) J(v) dv, J = int_v^1 dw/rho = -logw
        return int(x) * math.exp(tbl.log_value(int(x) - 1, weight=np.log(-tbl.logw)))


def lt_joint_avalanche(spec: md.ModelSpec, q: float, qbar: float, x: int, a: int,
                       cfg: QuadConfig = DEFAULT_CFG) -> float:
    """P_x[e^{-q T_a^- - qbar int_0^{T_a^-} X_s ds}; T_a^- < inf]
    = Phi_{q,qbar}(x)/Phi_{q,qbar}(a)."""
    x, a = _check_levels(x, a)
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

    def lt_G(self, alpha: float, k: int, spec: md.ModelSpec,
             cfg: QuadConfig = DEFAULT_CFG) -> float:
        return atmin_lt_G(spec, self.q, alpha, self.x, k, cfg)

    def lt_residual(self, alpha: float, k: int, spec: md.ModelSpec,
                    cfg: QuadConfig = DEFAULT_CFG) -> float:
        return atmin_lt_residual(spec, self.q, alpha, self.x, k, cfg)


def atmin_law(spec: md.ModelSpec, q: float, x: int, cfg: QuadConfig = DEFAULT_CFG) -> AtMinLaw:
    """P_x(X_G = k) = Phi_q(x)/Phi_q(k) - Phi_q(x)/Phi_q(k-1) 1{k>=1}; telescopes to 1."""
    if x != int(x) or x < 0:
        raise DomainError("x must be a nonnegative integer")
    x = int(x)
    if q < 0.0:
        raise DomainError("q must be >= 0")
    logs = [sc.log_phi_fn(spec, q, k, cfg) for k in range(x + 1)]
    ratio = [math.exp(logs[x] - lk) for lk in logs]
    pmf = [ratio[k] - (ratio[k - 1] if k >= 1 else 0.0) for k in range(x + 1)]
    return AtMinLaw(x=x, q=q, pmf=tuple(pmf))


def atmin_lt_G(spec: md.ModelSpec, q: float, alpha: float, x: int, k: int,
               cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Conditional transform P_x[e^{-alpha G} | X_G = k]."""
    if alpha < 0.0:
        raise DomainError("alpha must be >= 0")
    if not (0 <= k <= x):
        raise DomainError("need 0 <= k <= x")
    if alpha == 0.0 or k == x:
        return 1.0
    f = lambda y: sc.log_phi_fn(spec, q, y, cfg)
    g = lambda y: sc.log_phi_fn(spec, q + alpha, y, cfg)
    return math.exp(g(x) - f(x) + f(k) - g(k))


def atmin_lt_residual(spec: md.ModelSpec, q: float, alpha: float, x: int, k: int,
                      cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Conditional transform P_x[e^{-alpha (e_q - G)} | X_G = k], q > 0."""
    if q <= 0.0:
        raise DomainError("q must be > 0")
    if alpha < 0.0:
        raise DomainError("alpha must be >= 0")
    if not (0 <= k <= x):
        raise DomainError("need 0 <= k <= x")
    if alpha == 0.0:
        return 1.0
    head = q / (q + alpha)
    if k == 0:
        return head
    f = lambda y: sc.log_phi_fn(spec, q, y, cfg)
    g = lambda y: sc.log_phi_fn(spec, q + alpha, y, cfg)
    return head * math.expm1(g(k) - g(k - 1)) / math.expm1(f(k) - f(k - 1))


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
    if x_max < 1:
        raise DomainError("x_max must be >= 1")
    varphi = md.root_varphi(spec)
    floor_q = max(spec.mu * (spec.immigration.pgf(varphi) - 1.0), 0.0) \
        if spec.has_immigration else 0.0
    if q < floor_q - 1e-12:
        raise PreconditionError(
            f"conditioned_generator needs q >= max(mu*(r~(varphi)-1), 0) = {floor_q!r}")
    lam, mu = spec.lam, spec.mu
    p0 = spec.offspring.prob0
    r_minus1 = spec.immigration.r_minus1 if spec.immigration.kind == "tabular" else 0.0
    mu_eff = mu if spec.has_immigration else 0.0

    kmax = 64
    log_phi = functools.lru_cache(maxsize=None)(lambda y: sc.log_phi_fn(spec, q, y, cfg))

    leave, rows = [], []
    for x in range(1, x_max + 1):
        rate = q + mu_eff + lam * x
        leave.append(rate)
        row: dict[int, float] = {}
        if x >= 2:
            row[x - 1] = ((p0 * lam * x + r_minus1 * mu_eff)
                          * math.exp(log_phi(x - 1) - log_phi(x)) / rate)
        # upward jumps x -> x+k, truncated where the tail stops moving the row sum
        pk = spec.offspring.pmf_terms(kmax + 1)
        _, rk = spec.immigration.pmf_terms(kmax) if spec.has_immigration else (0.0, np.zeros(kmax))
        k = 1
        while True:
            if k > kmax:
                kmax *= 2
                pk = spec.offspring.pmf_terms(kmax + 1)
                _, rk = spec.immigration.pmf_terms(kmax) if spec.has_immigration \
                    else (0.0, np.zeros(kmax))
            w = pk[k + 1] * lam * x + mu_eff * rk[k - 1]
            if w > 0.0:
                term = w * math.exp(log_phi(x + k) - log_phi(x)) / rate
                if term > 0.0:
                    row[x + k] = term
                if term < _JUMP_TAIL_TOL and k > 8:
                    break
            elif k > max(len(spec.offspring.pmf), 8) and (
                    spec.immigration.kind != "sibuya"):
                break
            if k > 100000:
                break
            k += 1
        rows.append(row)
    kill = (p0 * lam + r_minus1 * mu_eff) * math.exp(log_phi(0) - log_phi(1))
    return ConditionedGenerator(x_max=x_max, leave_rates=tuple(leave),
                                jumps=tuple(rows), kill_rate=kill)


_TILT_TAIL_TOL = 1e-12


def tilted_model(spec: md.ModelSpec, qbar: float) -> md.ModelSpec:
    """Exponentially tilted model: offspring p_k -> p_k v^k / p~(v), rate lam+qbar,
    immigration r_k -> r_k v^k / r~(v), rate mu*r~(v), with v = varphi_qbar.

    The tilted branching mechanism is never supercritical.  Analytic laws are
    tilted into tabular ones truncated where the remaining tilted mass drops
    below 1e-12 (the geometric factor makes the tail summable).
    """
    md.require_valid(spec)
    if qbar < 0.0:
        raise DomainError("qbar must be >= 0")
    v = md.root_varphi_qbar(spec, qbar)
    if v >= 1.0:
        raise PreconditionError("tilting requires varphi_qbar < 1 "
                                "(supercritical branching when qbar = 0)")
    ptilde_v = spec.offspring.pgf(v)

    if spec.offspring.kind == "tabular":
        pmf = {k: p * v**k / ptilde_v for k, p in enumerate(spec.offspring.pmf) if p > 0.0}
    else:
        terms = spec.offspring.pmf_terms(_tilt_cutoff(v))
        pmf = {k: p * v**k / ptilde_v for k, p in enumerate(terms) if p > 0.0}
    new_off = md.OffspringLaw.tabular(pmf)

    if spec.has_immigration:
        rtilde_v = spec.immigration.pgf(v)
        if spec.immigration.kind == "tabular":
            rpmf = {k + 1: p * v ** (k + 1) / rtilde_v
                    for k, p in enumerate(spec.immigration.pmf_up) if p > 0.0}
            if spec.immigration.r_minus1 > 0.0:
                rpmf[-1] = spec.immigration.r_minus1 / (v * rtilde_v)
        else:
            _, terms = spec.immigration.pmf_terms(_tilt_cutoff(v))
            rpmf = {k + 1: p * v ** (k + 1) / rtilde_v for k, p in enumerate(terms) if p > 0.0}
        new_imm = md.ImmigrationLaw.tabular(rpmf)
        new_mu = spec.mu * rtilde_v
    else:
        new_imm = md.ImmigrationLaw.none()
        new_mu = 0.0
    return md.make_spec(new_off, spec.lam + qbar, new_imm, new_mu)


def _tilt_cutoff(v: float) -> int:
    # tail of sum p_k v^k beyond K is < v^K / (1-v); solve for the tolerance
    return max(16, int(math.log(_TILT_TAIL_TOL * (1.0 - v)) / math.log(v)) + 2)
