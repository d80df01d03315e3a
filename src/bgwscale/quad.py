"""Singularity-aware quadrature primitives.

The scale-function integrands live on (0, varphi), (varphi, 1) or (0, varphi_qbar)
and behave like integrable powers (or faster decay) at the endpoints, with the
inner weight gamma_q carrying a non-integrable pole *at* the endpoint root.  All
heavy lifting happens in the tanh-sinh variable t of the relevant interval:

    v(t) = m + r*tanh((pi/2)*sinh t),

under which endpoint distances shrink double-exponentially, endpoint power
singularities of the outer integrands become double-exponentially damped
terms, and the pole of gamma_q becomes mild exponential growth that adaptive
Gauss-Kronrod panels resolve.  Endpoint distances are carried exactly through
every evaluation; recomputing 1-v or varphi-v from the double v would lose all
relative accuracy exactly where the integrand mass concentrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import model as md
from .errors import DomainError, PreconditionError, QuadratureError, check_rate

__all__ = [
    "QuadConfig", "WeightEval", "IntegralResult", "integrate",
    "rho", "gamma_q", "log_omega_lower", "log_omega_upper", "weight_eval",
]


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10

    def __post_init__(self):
        check_rate(self.rel_tol, "rel_tol", positive=True)


DEFAULT_CFG = QuadConfig()


class IntegralResult(NamedTuple):
    value: float
    error: float


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 panel rule (QUADPACK abscissae)
# ---------------------------------------------------------------------------

_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_G_IDX = np.array([1, 3, 5, 7, 9, 11, 13])


_BLOCK = 512  # panels per integrand call: bounds the working set of a level

# The temporaries of one integrand call on a block span about 1 MiB.  glibc
# returns the top of the heap to the system once more than its trim threshold
# (128 KiB at start) lies free there, so every call would fault those pages
# in again.  Freeing one memory-mapped block raises the mmap threshold to its
# size and the trim threshold to twice that, which keeps the block working
# set on the heap.
np.empty(1 << 17)


def gk_panels(g: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
              abs_tol: float, rel_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One G7/K15 step of a vectorized integrand on every panel [lo_i, hi_i]:
    K15 values, error estimates, and the mask of panels failing the test."""
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    y = np.empty((len(mid), len(_XK)))
    for s in range(0, len(mid), _BLOCK):
        x = mid[s:s + _BLOCK, None] + rad[s:s + _BLOCK, None] * _XK
        with np.errstate(all="ignore"):
            y[s:s + _BLOCK] = np.reshape(g(x.ravel()), x.shape)
    # non-finite values only arise where endpoint distances underflowed,
    # i.e. where the true contribution is below representable size
    y[~np.isfinite(y)] = 0.0
    k = rad * (y @ _WK)
    err = np.abs(k - rad * (y[:, _G_IDX] @ _WG))
    ok = (err <= np.fmax(abs_tol, rel_tol * np.abs(k))) | (rad < 1e-17 * (1 + np.abs(mid)))
    return k, err, ~ok


#: G7/K15 steps one gk_adaptive call may take before it refuses.  A smooth
#: integrand needs a few dozen; one whose values are noisy at the panel scale
#: would otherwise subdivide until panels are ~1e-17 wide.
MAX_PANELS = 1000


def gk_adaptive(g: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                abs_tol: float, rel_tol: float) -> tuple[float, float]:
    """Adaptive G7/K15 of a vectorized integrand over [a, b].

    Raises QuadratureError once MAX_PANELS steps leave panels unresolved.
    """
    if a == b:
        return 0.0, 0.0
    sign, a, b = (1.0, a, b) if a < b else (-1.0, b, a)
    stack = [(a, b, abs_tol)]
    total = total_err = 0.0
    for _ in range(MAX_PANELS):
        if not stack:
            break
        lo, hi, tol = stack.pop()
        k, err, fail = gk_panels(g, np.array([lo]), np.array([hi]), tol, rel_tol)
        if fail[0]:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, 0.5 * tol))
            stack.append((mid, hi, 0.5 * tol))
        else:
            total += float(k[0])
            total_err += float(err[0])
    if stack:
        lo, hi, _ = np.array(stack).T
        k, err, _ = gk_panels(g, lo, hi, abs_tol, rel_tol)
        raise QuadratureError("adaptive Gauss-Kronrod left panels unresolved after "
                              f"{MAX_PANELS} steps", sign * (total + float(np.sum(k))),
                              total_err + float(np.sum(err)))
    return sign * total, total_err


# ---------------------------------------------------------------------------
# tanh-sinh chart of an interval
# ---------------------------------------------------------------------------

# Endpoint distances stay normal-range doubles up to here: at t = 6.0 the mapped
# distance is ~e^-634 (> DBL_MIN) while the tanh-sinh weight is also ~e^-634, so
# nothing integrable is lost and no intermediate quantity overflows.
T_MAX = 6.0


class TSPoints(NamedTuple):
    t: np.ndarray
    v: np.ndarray
    da: np.ndarray        # v - a, exact
    db: np.ndarray        # b - v, exact
    log_da: np.ndarray    # finite even where da underflows
    log_db: np.ndarray
    dvdt: np.ndarray
    log_dvdt: np.ndarray


class TSMap:
    """tanh-sinh parametrization of (a, b)."""

    def __init__(self, a: float, b: float):
        if not (b > a):
            raise DomainError("need b > a")
        self.a = a
        self.b = b
        self.mid = 0.5 * (a + b)
        self.rad = 0.5 * (b - a)

    def points(self, t) -> TSPoints:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        u = 0.5 * math.pi * np.sinh(t)
        au = np.abs(u)
        em = np.exp(-2.0 * au)           # may underflow to 0, fine
        near = 2.0 * em / (1.0 + em)     # 1 - |tanh(u)|
        far = 2.0 / (1.0 + em)           # 1 + |tanh(u)|
        log_near = math.log(2.0) - 2.0 * au - np.log1p(em)
        log_far = math.log(2.0) - np.log1p(em)
        pos = u >= 0
        da = self.rad * np.where(pos, far, near)
        db = self.rad * np.where(pos, near, far)
        log_da = math.log(self.rad) + np.where(pos, log_far, log_near)
        log_db = math.log(self.rad) + np.where(pos, log_near, log_far)
        v = np.where(pos, self.b - db, self.a + da)
        # dv/dt = rad * (pi/2) cosh t / cosh^2 u;  1/cosh^2 u = 4 em / (1+em)^2
        sech2 = 4.0 * em / (1.0 + em) ** 2
        dvdt = self.rad * 0.5 * math.pi * np.cosh(t) * sech2
        log_dvdt = (math.log(self.rad * 0.5 * math.pi) + np.log(np.cosh(t))
                    + math.log(4.0) - 2.0 * au - 2.0 * np.log1p(em))
        return TSPoints(t, v, da, db, log_da, log_db, dvdt, log_dvdt)

    def t_of(self, v: float) -> float:
        """Chart coordinate of an interior point (clipped to +-T_MAX)."""
        y = (v - self.mid) / self.rad
        if y <= -1.0:
            return -T_MAX
        if y >= 1.0:
            return T_MAX
        u = math.atanh(y)
        t = math.asinh(2.0 * u / math.pi)
        return max(-T_MAX, min(T_MAX, t))


# ---------------------------------------------------------------------------
# Generic endpoint-singularity-tolerant integration (public operation)
# ---------------------------------------------------------------------------

_ABS_TOL = 1e-13  # absolute error at which ``integrate`` accepts a refinement


def integrate(f: Callable, a: float, b: float, cfg: QuadConfig = DEFAULT_CFG,
              max_level: int = 10) -> IntegralResult:
    """Integrate ``f`` over (a, b), tolerating integrable power/log endpoint
    singularities.  ``f`` must be vectorized over numpy arrays (scalars work
    via numpy broadcasting).

    Raises QuadratureError (carrying the last estimate and achieved error)
    when successive tanh-sinh refinements fail to certify the tolerance.
    """
    chart = TSMap(a, b)  # refuses b <= a

    def gsum(h: float, only_odd: bool) -> float:
        n = int(T_MAX / h)
        j = np.arange(-n, n + 1)
        if only_odd:
            j = j[j % 2 != 0]
        pts = chart.points(j * h)
        with np.errstate(all="ignore"):
            fv = np.asarray(f(pts.v), dtype=float)
            terms = fv * pts.dvdt
        terms = np.where(np.isfinite(terms), terms, 0.0)
        return h * float(np.sum(terms))

    est = gsum(2.0 ** -3, only_odd=False)
    err = math.inf
    for level in range(4, max_level + 1):
        h = 2.0 ** -level
        new = 0.5 * est + gsum(h, only_odd=True)
        err = abs(new - est)
        est = new
        if level >= 5 and err <= max(_ABS_TOL, cfg.rel_tol * abs(new)):
            return IntegralResult(est, err)
    raise QuadratureError("tanh-sinh refinement did not converge", est, err)


# ---------------------------------------------------------------------------
# Weight functions
# ---------------------------------------------------------------------------

_SINGULARITY_TOL = 1e-14


def rho(spec: md.ModelSpec, v: float) -> float:
    """lam * |p~(v) - v| for v in (0,1) away from varphi."""
    md.require_valid(spec)
    if not (0.0 < v < 1.0):
        raise DomainError("v must lie in (0,1)")
    varphi = md.root_varphi(spec)
    if abs(v - varphi) <= _SINGULARITY_TOL:
        raise DomainError(f"rho is singular at varphi = {varphi!r}")
    return spec.lam * abs(spec.offspring.pgf(v) - v)


def gamma_q(spec: md.ModelSpec, q: float, v: float) -> float:
    """(q + mu*(1 - r~(v))) / rho(v); negative on (0, phi_q), positive beyond."""
    check_rate(q, "q")
    r = rho(spec, v)
    num = q
    if spec.has_immigration:
        num += spec.mu * spec.immigration.one_minus_pgf(v)
    return num / r


@dataclass(frozen=True)
class WeightEval:
    v: float
    rho: float
    gamma_q: float
    log_omega: float


def weight_eval(spec: md.ModelSpec, q: float, v: float,
                cfg: QuadConfig = DEFAULT_CFG) -> WeightEval:
    varphi = md.root_varphi(spec)
    lo = log_omega_lower(spec, q, v, cfg) if v < varphi else log_omega_upper(spec, q, v, cfg)
    return WeightEval(v=v, rho=rho(spec, v), gamma_q=gamma_q(spec, q, v), log_omega=lo)


# -- gamma integrand on a chart ---------------------------------------------

def make_gamma_t(spec: md.ModelSpec, q: float, chart: TSMap, *,
                 qbar: float = 0.0, numerator: str = "full",
                 upper: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """t-space integrand of gamma over the chart, as a function of t.

    ``numerator``: "full" -> q + mu(1-r~), "imm" -> mu(1-r~), "unit" -> 1.
    ``upper``: chart is (varphi, 1), denominator lam*(v - p~(v)) (> 0 there).
    """
    gap = md.GapEvaluator(spec, qbar)
    has_imm = spec.has_immigration
    mu = spec.mu
    imm = spec.immigration
    b_is_one = abs(chart.b - 1.0) < 1e-15

    def g(t: np.ndarray) -> np.ndarray:
        p = chart.points(t)
        if upper:
            d_root = -p.da          # root (= varphi) sits at the left endpoint
            d_one = p.db
        else:
            d_root = p.db           # root (= U) sits at the right endpoint
            d_one = p.db if b_is_one else 1.0 - p.v
        if numerator == "unit":
            num = np.ones_like(p.v)
        else:
            num = np.zeros_like(p.v) if numerator == "imm" else np.full_like(p.v, q)
            if has_imm:
                num = num + mu * imm.one_minus_pgf(p.v, d_one)
        gamma = gap.ratio(num, p.v, d_root, d_one)
        return (-gamma if upper else gamma) * p.dvdt

    return g


def _gamma_integral(spec: md.ModelSpec, q: float, w_from: float, w_to: float,
                    cfg: QuadConfig, *, upper: bool, qbar: float = 0.0,
                    numerator: str = "full") -> float:
    """Oriented integral of gamma_q from w_from to w_to inside one branch interval."""
    varphi = md.root_varphi(spec)
    if upper:
        chart = TSMap(varphi, 1.0)
    else:
        chart = TSMap(0.0, md.root_varphi_qbar(spec, qbar))
    g = make_gamma_t(spec, q, chart, qbar=qbar, numerator=numerator, upper=upper)
    val, _ = gk_adaptive(g, chart.t_of(w_from), chart.t_of(w_to), 1e-15, 0.1 * cfg.rel_tol)
    return val


def log_omega_lower(spec: md.ModelSpec, q: float, v: float,
                    cfg: QuadConfig = DEFAULT_CFG, theta: float | None = None) -> float:
    """log of the Phi_q integrating factor: -int_{phi_q}^{v} gamma_q(w) dw.

    Requires phi_q < varphi and v in (0, varphi); diverges to -inf as v -> varphi.
    ``theta`` replaces the lower delimiter phi_q (changing the value by an
    additive, v-independent constant).
    """
    md.require_valid(spec)
    varphi = md.root_varphi(spec)
    phi_q = md.root_phi_q(spec, q)
    if phi_q >= varphi:
        raise PreconditionError(f"need phi_q < varphi, got phi_q={phi_q!r}, varphi={varphi!r}")
    if not (0.0 < v < varphi):
        raise DomainError("v must lie in (0, varphi)")
    lower = phi_q if theta is None else theta
    if not (0.0 <= lower < varphi):
        raise DomainError("theta must lie in [0, varphi)")
    if v == lower:
        return 0.0
    return -_gamma_integral(spec, q, lower, v, cfg, upper=False)


def log_omega_upper(spec: md.ModelSpec, q: float, v: float,
                    cfg: QuadConfig = DEFAULT_CFG) -> float:
    """log of the Psi_q integrating factor: -int_v^1 gamma_q(w) dw (explosive chains).

    Finite for v in (varphi, 1), tending to -inf as v -> varphi+ and 0 at 1-.
    """
    md.require_valid(spec)
    if not md.is_explosive(spec):
        raise PreconditionError("log_omega_upper requires an explosive chain")
    check_rate(q, "q", positive=True)
    varphi = md.root_varphi(spec)
    phi_q = md.root_phi_q(spec, q)
    if phi_q >= varphi:
        raise PreconditionError(f"need phi_q < varphi, got phi_q={phi_q!r}, varphi={varphi!r}")
    if not (varphi < v < 1.0):
        raise DomainError("v must lie in (varphi, 1)")
    return -_gamma_integral(spec, q, v, 1.0, cfg, upper=True)
