"""The scale/harmonic functions Phi_q, Psi_q, Phi_0, Phi_{q,qbar}, in log space.

Each is either a power function U^x (U = varphi_qbar, the root end of its
chart) or

    exp(log_pref) * int_I exp{ -int_theta^v gamma } / D(v) * v^x dv

over I = (0, U) or I = (varphi, 1).  The integrand behaves like u^(s-1) at
the root end, u = |v - U|, and the one closed-form exponent s (``_endpoint``)
decides every branch in one resolver (``_resolve``): s < 0 is the regime
phi_q > varphi_qbar (UnsupportedRegimeError), s = 0 the power function (the
tie; refused on the upper chart), and s > 0 the integral, refused with
QuadratureError when the chart's last node, about e^-634 from the root, would
drop a share e^(-634 s) of the mass above rel_tol.  Its value, its log and
``harmonic_residual`` share the resolved form.

One table per (model, q, qbar, chart) owns the one inner weight gamma_q =
(q + mu(1 - r~(v)))/D(v) (``ScaleTable.gamma_t``) and serves levels for s > 0
(anchored at theta = phi_q, or at 1 on the upper chart), else level
differences (mean passage and explosion times; anchored at the right end).
It is the tanh-sinh node ladder of I at step 2^-level, the inner integral
telescoped from the anchor by one blocked G7/K15 pass over all panels, each
side cut once its terms fall _LOG_CUT below the running peak (towards the
root at level _X_MAX, the cap on served levels), failing panels inside the
cut refined by one adaptive call.  Level 6 is built first and certified on
its own even nodes, the step-2h ladder: it is served once both give the same
probes, else the next level is built, up to level 9 or QuadratureError.
Tables hold logs only, and ``ScaleTable.log_value`` is their one evaluator:
m + log sum exp(lt - m) over the node terms lt, with an optional log kernel
added on every node.  It takes one level or a 1-D integer array of levels,
reduced in blocks (bit for bit the scalar logs), and so do ``log_phi_fn`` and
``log_phi_q_qbar_fn``.  Ratios such as Phi_q(x)/Phi_q(a) are exp of log
differences, so they stay accurate where Phi itself underflows.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import model as md
from .errors import (DomainError, PreconditionError, QuadratureError, UnsupportedRegimeError,
                     check_level, check_rate)
from .quad import DEFAULT_CFG, QuadConfig, T_MAX, TSMap, gk_adaptive, gk_panels

_LOG_CUT = 180.0      # stop extending the ladder once terms fall this far (in log) below the peak
#: highest level a table of levels serves: the cut of its root side holds up to it
_X_MAX = 1 << 20
#: log of the distance from 1 of the last node of the (0, 1) chart
_LOG_U_END = -math.pi * math.sinh(T_MAX)

_PROBE_XS = np.array([0, 1, 8, 24])
#: (x, a) probes of tables of level differences: the raw integral may grow
#: without bound as the step shrinks, the served differences do not.
_PROBE_PASSAGES = np.array([(1, 0), (8, 7), (24, 23), (24, 0)]).T
#: node terms per block (64 KiB) when levels are arrays: small blocks keep the heap flat
_BLOCK = 1 << 13


@dataclass
class KernelDiagnostics:
    level: int = 0               # the served level
    achieved_error: float = 0.0  # its probe gap, step h vs step 2h on its own nodes
    n_nodes: int = 0


class ScaleTable:
    """Quadrature table for one scale-function integral family."""

    def __init__(self, spec: md.ModelSpec, q: float, qbar: float, branch: str, cfg: QuadConfig):
        self.spec = spec
        self.q = q
        self.branch = branch          # "lower" | "upper"
        self.cfg = cfg
        U, s, _ = _endpoint(spec, q, qbar)
        self.differences = s <= 0.0   # serves level differences, anchored at the right end
        self.log_root = math.log(U)
        self.low, self.high = (0.0, U) if branch == "lower" else (U, 1.0)
        # the delimiter, where logw vanishes: phi_q on lower tables of levels, else the right end
        self.theta = md.root_phi_q(spec, q) if branch == "lower" and s > 0.0 else self.high
        self.chart = TSMap(self.low, self.high)
        self.gap = md.GapEvaluator(spec, qbar)
        self.diagnostics = KernelDiagnostics()
        self._refine()

    # -- construction --------------------------------------------------------

    def _refine(self) -> None:
        # t = i*h with n even: the even nodes, weighted by 2h, are the step-2h ladder
        x, a = _PROBE_PASSAGES
        for level in range(6, 10):
            self._build_level(level)
            coarse = np.where(np.arange(self.logv.size) % 2, -math.inf, math.log(2.0))
            fine, rough = (self.log_value(a, self.log_one_minus_pow(x - a) + c)
                           if self.differences else self.log_value(_PROBE_XS, c)
                           for c in (0.0, coarse))
            with np.errstate(over="ignore", invalid="ignore"):  # probes are logs
                err = float(np.max(np.abs(np.expm1(rough - fine))))
                estimate = float(np.exp(fine[0]))
            self.diagnostics.level, self.diagnostics.achieved_error = level, err
            if err <= self.cfg.rel_tol:
                return
        raise QuadratureError(f"table did not converge by level {level}", estimate, err)

    def _build_level(self, level: int) -> None:
        h = 2.0 ** -level
        n = int(T_MAX / h)
        pts = self.chart.points(np.arange(-n, n + 1) * h)
        self.diagnostics.n_nodes = npts = len(pts.t)

        # exact distances to the root and to 1, and their logs, which stay
        # finite where the distances underflow
        d_root, d_one = self._distances(pts)
        log_d_one = pts.log_db if self.high == 1.0 else np.log1p(-pts.v)
        if self.branch == "lower":
            log_abs_droot, logv = pts.log_db, pts.log_da  # a = 0, so v = da exactly
        else:
            log_abs_droot, logv = pts.log_da, np.log1p(-pts.db)
        log_absD = self.gap.log_abs_den(pts.v, d_root, log_abs_droot, d_one)

        # anchor node for the telescoped inner integral, and the (oriented)
        # correction from theta to its nearest grid node
        ja, base = npts - 1, 0.0
        if self.theta < self.high:
            t_theta = self.chart.t_of(self.theta)  # -T_MAX at theta = 0
            ja = int(np.argmin(np.abs(pts.t - t_theta)))
            if self.theta > 0.0:
                base = -gk_adaptive(self.gamma_t, t_theta, pts.t[ja], 1e-15, 1e-13)[0][0]
        log_ts_w = math.log(h) + pts.log_dvdt

        # Panel P_i = int_{t_i}^{t_{i+1}} gamma dt from one batched G7/K15 step,
        # summed away from the anchor into logw = -int_theta^v (-P on the upper
        # chart's left walk).  Only a right walk reaches the root, where v^x
        # gains on every earlier node, so its cut is taken at level _X_MAX.
        # Failing panels inside the kept ladders get the adaptive rule, which
        # may move the cuts; failing panels outside them are never used.
        left_sign = -1.0 if self.branch == "upper" else 1.0
        P, _, fail = gk_panels(self.gamma_t, pts.t[:-1], pts.t[1:], 1e-15, 1e-13)
        while True:
            with np.errstate(invalid="ignore", over="ignore"):
                right = np.cumsum(np.concatenate(([base], -P[ja:])))
                left = np.cumsum(np.concatenate(([base], left_sign * P[:ja][::-1])))
                nr, best = _ladder_len(log_ts_w[ja:-1] + right[:-1] - log_absD[ja:-1],
                                       -math.inf, _X_MAX * logv[ja:-1])
                nl, _ = _ladder_len(log_ts_w[ja:0:-1] + left[:-1] - log_absD[ja:0:-1], best)
            redo = np.flatnonzero(fail[ja - nl:ja + nr]) + (ja - nl)
            if not redo.size:
                break
            P[redo] = gk_adaptive(self.gamma_t, pts.t[redo], pts.t[redo + 1], 1e-15, 1e-13)[0]
            fail[redo] = False
        logw = np.full(npts, -np.inf)
        logw[ja:ja + nr + 1] = right[:nr + 1]
        logw[ja - nl:ja + 1] = left[nl::-1]

        self.pts = pts
        self.logv = logv
        self.log_d_one = log_d_one  # log(1 - v), for kernels and pgf factors
        self.log_absD = log_absD
        self.logw = logw
        self.log_ts_w = log_ts_w
        self.log_node = log_ts_w + logw - log_absD

    def _distances(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """(root - v, 1 - v) on chart points, both exact: the root is the right
        end of the lower chart and the left end of the upper one, and 1 - v is
        db where the chart ends at 1."""
        d_one = pts.db if self.high == 1.0 else 1.0 - pts.v
        return (pts.db if self.branch == "lower" else -pts.da), d_one

    def gamma_t(self, t: np.ndarray) -> np.ndarray:
        """The inner weight gamma_q = (q + mu(1 - r~(v)))/D(v) times dv/dt at
        chart coordinates t, negated on the upper chart (where D < 0)."""
        p = self.chart.points(t)
        d_root, d_one = self._distances(p)
        num = np.full_like(p.v, self.q)
        if self.spec.has_immigration:
            num = num + self.spec.mu * self.spec.immigration.one_minus_pgf(p.v, d_one)
        gamma = self.gap.ratio(num, p.v, d_root, d_one)
        return (-gamma if self.branch == "upper" else gamma) * p.dvdt

    # -- evaluation -----------------------------------------------------------

    def log_value(self, x, extra: np.ndarray | float = 0.0):
        """log of the table integral at level x, with ``extra`` added to the log
        integrand on every node: m + log sum exp(lt - m) over the node terms lt,
        -inf when every term is -inf.  ``x`` may be a 1-D integer array of
        levels (``extra`` then one row per level or one for all), reduced
        _BLOCK node terms at a time, bit for bit the scalars."""
        base = self.log_node
        if not isinstance(x, np.ndarray) or x.ndim == 0:
            lt = base + x * self.logv + extra
            m = float(np.max(lt))
            return m if m == -math.inf else m + float(np.log(np.sum(np.exp(lt - m))))
        extra = np.asarray(extra)
        out = np.empty(len(x))
        rows = max(1, _BLOCK // base.size)
        for i in range(0, len(x), rows):
            blk = slice(i, i + rows)
            lt = np.multiply.outer(x[blk], self.logv)
            lt += base
            lt += extra[blk] if extra.ndim == 2 else extra
            m = np.max(lt, axis=1)
            m[m == -np.inf] = 0.0  # all-(-inf) rows sum to 0 and give -inf
            lt -= m[:, None]
            with np.errstate(divide="ignore"):
                out[blk] = m + np.log(np.sum(np.exp(lt, out=lt), axis=1))
        return out

    def log_one_minus_pow(self, n) -> np.ndarray:
        """log|1 - (v/U)^n| on the nodes (one row per n for an array n), U the
        chart's root end: the difference kernel of mean passage times,
        v^a - v^x = v^a (1 - v^(x-a)) at U = 1, and of mean explosion times,
        w^x - U^x = U^x |1 - (w/U)^x|."""
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.expm1(np.multiply.outer(n, self.logv - self.log_root))))

    def log_pgf_factors(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(log p~(v_i), log r~(v_i)) on the nodes, for generating-function sums."""
        log_p = np.log(self.spec.offspring.pgf(np.clip(self.pts.v, 1e-300, 1.0)))
        log_r = None
        if self.spec.has_immigration:
            imm, d_one = self.spec.immigration, np.exp(self.log_d_one)
            log_r = np.log(np.maximum(1.0 - imm.one_minus_pgf(self.pts.v, d_one), 1e-300))
            # culling makes r~ blow up like r_-1/v near 0; take that term alone there
            if imm.r_minus1 > 0.0:
                log_r = np.where(self.pts.v < 1e-250, math.log(imm.r_minus1) - self.logv, log_r)
        return log_p, log_r


def _ladder_len(terms: np.ndarray, best: float, tilt=0.0) -> tuple[int, float]:
    """Steps a ladder takes (at least 9) before a node term plus ``tilt`` falls
    _LOG_CUT below the running peak of those sums (seeded with ``best``; NaN
    never moves it), and the peak of the plain terms there."""
    tilted = terms + tilt
    peak = np.fmax.accumulate(np.concatenate(([best], tilted)))
    stop = tilted < peak[1:] - _LOG_CUT
    stop[:9] = False
    k = int(np.argmax(stop)) if stop.any() else len(terms)
    return k, float(np.fmax.reduce(terms[:k + 1], initial=best))


# ---------------------------------------------------------------------------
# table cache
# ---------------------------------------------------------------------------

#: Tables kept; inserting beyond this evicts the oldest (insertion order).
_CACHE_MAX = 128
_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def _table(spec: md.ModelSpec, q: float, *, qbar: float = 0.0, branch: str = "lower",
           cfg: QuadConfig = DEFAULT_CFG) -> ScaleTable:
    key = (spec, q, qbar, branch, cfg)
    tbl = _CACHE.get(key)
    if tbl is None:
        with _CACHE_LOCK:
            tbl = _CACHE.get(key)
            if tbl is None:
                tbl = ScaleTable(spec, q, qbar, branch, cfg)
                if len(_CACHE) >= _CACHE_MAX:
                    del _CACHE[next(iter(_CACHE))]
                _CACHE[key] = tbl
    return tbl


# ---------------------------------------------------------------------------
# public scale functions
# ---------------------------------------------------------------------------

def _check_x(x):
    """One nonnegative integer level as an int, or a 1-D array of them as int64."""
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        return check_level(x)
    with np.errstate(invalid="ignore"):
        xi = x.astype(np.int64)
    if xi.ndim != 1 or not np.array_equal(xi, x) or np.any(xi < 0):
        raise DomainError("levels must be a 1-D array of nonnegative integers")
    return xi


class _Resolved(NamedTuple):
    """One scale function at one parameter point: base**x on the power-function
    branch (``tbl`` is None; values are base**x bit for bit), else
    exp(log_pref) times the table integral, refused with QuadratureError above
    level _X_MAX.  ``log`` takes one level or a 1-D array of levels."""

    base: float = math.nan
    log_pref: float = 0.0
    tbl: ScaleTable | None = None

    def log(self, x, extra: np.ndarray | float = 0.0):
        x = _check_x(x)
        if self.tbl is None:
            return x * math.log(self.base) + extra
        if (x.max(initial=0) if isinstance(x, np.ndarray) else x) > _X_MAX:
            raise QuadratureError(f"level above the table's cap {_X_MAX}", math.nan, math.nan)
        return self.log_pref + self.tbl.log_value(x, extra)

    def value(self, x) -> float:
        return self.base ** _check_x(x) if self.tbl is None else math.exp(self.log(x))


#: |N(U)| within this share of q + mu(1 + r~(U)) is the tie N(U) = 0 (exact on m2 at
#: q = 1): it covers roots rounded on other chains, and q given at a regime floor
_TIE_SHARE = 1e-12


@lru_cache(maxsize=md._ROOT_CACHE_MAX)
def _endpoint(spec: md.ModelSpec, q: float, qbar: float) -> tuple[float, float, float]:
    """(U, s, n) at rate q >= 0: the chart's root end U = varphi_qbar, the
    exponent s of the integrand ~ u^(s-1) as u = |v - U| -> 0, and n = N(U),
    N = q + mu(1 - r~), read off the gap D = (v - U)^m Q (``md.GapEvaluator``).
    At a simple root s = n/|Q(U)|, and |n| within _TIE_SHARE of q + mu(1 + r~(U))
    is the tie s = 0.  At the double root of critical tabular offspring (m = 2,
    U = 1), D ~ Q(1) u^2, Q(1) = lam p~''(1)/2, and N ~ q + mu r~'(1) u: s = inf
    for q > 0 or Sibuya immigration (N ~ mu u^alpha), else s = mu r~'(1)/|Q(1)| - 1.
    n below the tie is the regime phi_q > varphi_qbar, which the paper leaves open."""
    gap = md.GapEvaluator(spec, qbar)
    U = gap.root
    n = tol = q
    if spec.has_immigration:
        r = spec.immigration.pgf(U)
        n, tol = q - spec.mu * (r - 1.0), q + spec.mu * (1.0 + r)
    tol *= _TIE_SHARE
    if n < -tol:
        raise UnsupportedRegimeError("phi_q <= varphi_qbar",
                                     f"N(varphi_qbar)={n!r} < 0; need q >= mu*(r~(varphi_qbar)-1)")
    slope = abs(float(gap.quotient(U, 0.0, 1.0 - U)))
    if gap.m == 2:
        if q > 0.0 or spec.immigration.kind == "sibuya":
            return U, math.inf, n
        return U, spec.mu * spec.immigration.mean() / slope - 1.0, n
    if abs(n) <= tol:
        return U, 0.0, n
    return U, n / slope, n


def _resolve(spec: md.ModelSpec, q: float, qbar: float, branch: str, pref: float,
             cfg: QuadConfig) -> _Resolved:
    """The one branch decision of every scale function, from the exponent s
    of ``_endpoint``: the power function U^x for s <= 0 (refused on the upper
    chart), QuadratureError when the chart's last node, e^_LOG_U_END from the
    root, drops a share e^(s _LOG_U_END) above ``cfg.rel_tol`` of the mass,
    else ``pref`` times the table integral."""
    U, s, _ = _endpoint(spec, q, qbar)
    if s <= 0.0:
        if branch == "upper":
            raise UnsupportedRegimeError("phi_q < varphi", f"q={q!r} is at the tie")
        return _Resolved(U)
    lost = math.exp(s * _LOG_U_END)
    if lost > cfg.rel_tol:
        raise QuadratureError(f"integrand ~ u^({s:.3g}-1) decays too slowly at the root "
                              "for the chart", math.nan, lost)
    return _Resolved(log_pref=math.log(pref),
                     tbl=_table(spec, q, qbar=qbar, branch=branch, cfg=cfg))


def _phi_q(spec: md.ModelSpec, q: float, cfg: QuadConfig) -> _Resolved:
    check_rate(q, "q", positive=True)
    return _resolve(spec, q, 0.0, "lower", q, cfg)


def phi_q_fn(spec: md.ModelSpec, q: float, x: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Phi_q(x): positive harmonic function of the killed chain vanishing at infinity."""
    return _phi_q(spec, q, cfg).value(x)


def _psi_q(spec: md.ModelSpec, q: float, cfg: QuadConfig) -> _Resolved:
    check_rate(q, "q", positive=True)
    if not md.is_explosive(spec):
        raise PreconditionError("psi_q_fn requires an explosive chain")
    return _resolve(spec, q, 0.0, "upper", q, cfg)


def psi_q_fn(spec: md.ModelSpec, q: float, x: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Psi_q(x) = 1 - q int_varphi^1 omega/rho v^x dv: the explosion-side harmonic function."""
    return 1.0 - _psi_q(spec, q, cfg).value(x)


def _phi_0(spec: md.ModelSpec, cfg: QuadConfig) -> _Resolved:
    return _resolve(spec, 0.0, 0.0, "lower", spec.mu, cfg)


def phi_0_fn(spec: md.ModelSpec, x: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Phi_0(x): the q = 0 scale function (passage probabilities Phi_0(x)/Phi_0(a)).

    Phi_0 is the mu-weighted integral when that converges and varphi^x
    otherwise, decided in closed form from the integrand's exponent s at the
    root end (``_endpoint``): varphi^x for s <= 0, which covers mu = 0, a
    simple root at varphi = 1 and critical offspring with k <= 1.  Like every
    scale function it refuses with QuadratureError when s is positive but
    below ~0.036 (at rel_tol 1e-10), where the chart would drop more than
    rel_tol of the mass.
    """
    return _phi_0(spec, cfg).value(x)


def _phi(spec: md.ModelSpec, q: float, cfg: QuadConfig) -> _Resolved:
    return _phi_0(spec, cfg) if q == 0.0 else _phi_q(spec, q, cfg)


def phi_fn(spec: md.ModelSpec, q: float, x: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Phi_q(x) for any q >= 0: phi_0_fn at q = 0, phi_q_fn otherwise (q < 0 is a DomainError)."""
    return _phi(spec, q, cfg).value(x)


def log_phi_fn(spec: md.ModelSpec, q: float, x, cfg: QuadConfig = DEFAULT_CFG):
    """log Phi_q(x), finite where Phi_q(x) itself underflows; ratios
    Phi_q(x)/Phi_q(a) are exp(log_phi_fn(x) - log_phi_fn(a)).  ``x`` may be a
    1-D integer array of levels (one log-sum-exp for all of them)."""
    return _phi(spec, q, cfg).log(x)


def _phi_q_qbar(spec: md.ModelSpec, q: float, qbar: float, cfg: QuadConfig) -> _Resolved:
    check_rate(q, "q")
    check_rate(qbar, "qbar")
    vq, _, n = _endpoint(spec, q, qbar)
    if q == 0.0 and vq >= 1.0:
        raise PreconditionError("need q > 0 or varphi_qbar < 1")
    return _resolve(spec, q, qbar, "lower", n, cfg)


def phi_q_qbar_fn(spec: md.ModelSpec, q: float, qbar: float, x: int,
                  cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Phi_{q,qbar}(x): joint discount/accumulated-population scale function."""
    return _phi_q_qbar(spec, q, qbar, cfg).value(x)


def log_phi_q_qbar_fn(spec: md.ModelSpec, q: float, qbar: float, x,
                      cfg: QuadConfig = DEFAULT_CFG):
    """log Phi_{q,qbar}(x), the log counterpart of ``phi_q_qbar_fn``; ``x`` may
    be a 1-D integer array of levels."""
    return _phi_q_qbar(spec, q, qbar, cfg).log(x)


# ---------------------------------------------------------------------------
# harmonic equation residual
# ---------------------------------------------------------------------------

def harmonic_residual(spec: md.ModelSpec, q: float, qbar: float, f: str, x: int,
                      cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Relative residual of (q + qbar*x + lam*x + mu) f(x) = lam*x sum_k p_k f(x+k-1)
    + mu sum_k r_k f(x+k) for f one of "phi_q" | "psi_q" | "phi_q_qbar".

    The sums are evaluated in generating-function form (sum_k p_k v^{x+k-1} =
    v^{x-1} p~(v) under the integral), which is exact for the heavy-tailed
    analytic laws where direct truncation cannot reach 1e-6.  The three terms
    are taken in logs and scaled by the largest, so the residual stays
    meaningful where f itself underflows.
    """
    x = check_level(x, low=1)
    resolve = {"phi_q": lambda: _phi_q(spec, q, cfg), "psi_q": lambda: _psi_q(spec, q, cfg),
               "phi_q_qbar": lambda: _phi_q_qbar(spec, q, qbar, cfg)}.get(f)
    if resolve is None:
        raise DomainError(f"unknown scale function tag {f!r}")
    r = resolve()
    lam, mu = spec.lam, spec.mu
    imm = spec.has_immigration
    if r.tbl is None:
        log_p = math.log(spec.offspring.pgf(r.base))
        log_r = math.log(spec.immigration.pgf(r.base)) if imm else None
    else:
        log_p, log_r = r.tbl.log_pgf_factors()

    def log_f(y, extra=0.0):
        # log of sum_k w_k f(y+k), with log w~(v) = extra on the nodes;
        # Psi_q = 1 - integral, and the weights sum to 1
        lv = r.log(y, extra)
        return math.log1p(-math.exp(lv)) if f == "psi_q" else lv

    logs = (log_f(x), log_f(x - 1, log_p), log_f(x, log_r) if imm else -math.inf)
    top = max(logs)
    lhs, sp, sr = (c * math.exp(lg - top)
                   for c, lg in zip((q + qbar * x + lam * x + mu, lam * x, mu), logs))
    return abs(lhs - sp - sr) / max(lhs, sp + sr)


def phi_q_with_delimiter(spec: md.ModelSpec, q: float, x: int, theta: float,
                         cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Phi_q with the lower delimiter replaced by theta in (0, varphi): the
    x-independent shift Phi_q(x) exp(int_{phi_q}^theta gamma_q); varphi^x at the tie."""
    check_rate(q, "q", positive=True)
    varphi = _endpoint(spec, q, 0.0)[0]  # refuses the regimes that phi_q_fn refuses
    if not (0.0 < theta < varphi):
        raise DomainError("theta must lie in (0, varphi)")
    r = _phi_q(spec, q, cfg)
    if r.tbl is not None:
        t_of = r.tbl.chart.t_of
        r = r._replace(log_pref=r.log_pref + gk_adaptive(
            r.tbl.gamma_t, t_of(r.tbl.theta), t_of(theta), 1e-15, 1e-13)[0][0])
    return r.value(x)
