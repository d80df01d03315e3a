"""The scale/harmonic functions Phi_q, Psi_q, Phi_0, Phi_{q,qbar}, in log space.

Each is either a power function base^x (the tie branch; Phi_0 = varphi^x) or

    exp(log_pref) * int_I exp{ -int_theta^v gamma } / D(v) * v^x dv

over I = (0, U) (U the smallest root of D: varphi or varphi_qbar) or
I = (varphi, 1).  One resolver per function picks the branch and returns the
base or (log_pref, table); its value, its log and ``harmonic_residual`` share
it.  One table per (model, q, qbar, branch) serves all x: the tanh-sinh node
ladder of I at step 2^-level, the inner integral telescoped from an anchor
node by one blocked G7/K15 pass over all panels, each side cut once its terms
fall _LOG_CUT below the running peak, failing panels inside the cut refined
adaptively; levels refine until probe values settle.  Tables hold logs only,
and ``ScaleTable.log_value`` is their one evaluator: m + log sum exp(lt - m)
over the node terms lt, with an optional log kernel added on every node.
Ratios such as Phi_q(x)/Phi_q(a) are exp of log differences (``log_phi_fn``,
``log_phi_q_qbar_fn``), so they stay accurate where Phi itself underflows.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import model as md
from .errors import DomainError, PreconditionError, QuadratureError, UnsupportedRegimeError
from .quad import DEFAULT_CFG, QuadConfig, T_MAX, TSMap, gk_adaptive, gk_panels, make_gamma_t

#: |phi_q - varphi| below this selects the power-function branch Phi_q = varphi^x.
BOUNDARY_TIE_TOL = 1e-9

_LOG_CUT = 180.0      # stop extending the ladder once terms fall this far (in log) below the peak
_DIVERGENCE_LOG = 500.0
#: log of the distance from 1 of the last node of the (0, 1) chart
_LOG_U_END = -math.pi * math.sinh(T_MAX)

_PROBE_XS = (0, 1, 8, 24)
#: (x, a) probes of end-anchored tables, which serve mean passage times: the
#: raw integral there grows without bound as the step shrinks, the served
#: differences do not.
_PROBE_PASSAGES = ((1, 0), (8, 7), (24, 23), (24, 0))


@dataclass
class KernelDiagnostics:
    level: int = 0
    converged: bool = True
    achieved_error: float = 0.0
    n_nodes: int = 0


class ScaleTable:
    """Quadrature table for one scale-function integral family."""

    def __init__(self, spec: md.ModelSpec, q: float, qbar: float, branch: str,
                 numerator: str, theta: float, anchor_end: bool, cfg: QuadConfig):
        self.spec = spec
        self.branch = branch          # "lower" | "upper"
        self.numerator = numerator    # "full" | "imm" | "unit"
        self.theta = theta
        self.anchor_end = anchor_end  # anchor the inner integral at the right endpoint
        self.cfg = cfg
        if branch == "lower":
            self.low, self.high = 0.0, md.root_varphi_qbar(spec, qbar)
        else:
            self.low, self.high = md.root_varphi(spec), 1.0
        self.chart = TSMap(self.low, self.high)
        self.gap = md.GapEvaluator(spec, qbar if branch == "lower" else 0.0)
        self.gamma_t = make_gamma_t(spec, q, self.chart, qbar=qbar if branch == "lower" else 0.0,
                                    numerator=numerator, upper=(branch == "upper"))
        self.diagnostics = KernelDiagnostics()
        self._refine()

    # -- construction --------------------------------------------------------

    def _refine(self) -> None:
        prev = None
        for level in range(5, 10):
            self._build_level(level)
            probes = np.exp([self.log_value(a, self.log_one_minus_pow(x - a))
                             for x, a in _PROBE_PASSAGES]
                            if self.anchor_end else [self.log_value(x) for x in _PROBE_XS])
            if prev is not None:
                scale = np.maximum(np.abs(probes), 1e-300)
                err = float(np.max(np.abs(probes - prev) / scale))
                self.diagnostics.achieved_error = err
                if err <= self.cfg.rel_tol:
                    self.diagnostics.converged = True
                    self.diagnostics.level = level
                    return
            prev = probes
        self.diagnostics.converged = False
        self.diagnostics.level = level

    def _build_level(self, level: int) -> None:
        h = 2.0 ** -level
        n = int(T_MAX / h)
        pts = self.chart.points(np.arange(-n, n + 1) * h)
        npts = len(pts.t)
        self.diagnostics.n_nodes = npts

        if self.branch == "lower":
            d_root, log_abs_droot = pts.db, pts.log_db
            d_one = pts.db if self.high == 1.0 else 1.0 - pts.v
            logv = pts.log_da  # a = 0, so v = da exactly
        else:
            d_root, log_abs_droot = -pts.da, pts.log_da
            d_one = pts.db
            logv = np.log1p(-pts.db)
        log_absD = self.gap.log_abs_den(pts.v, d_root, log_abs_droot, d_one)

        # anchor node for the telescoped inner integral, and the (oriented)
        # correction from theta to its nearest grid node
        ja, base = npts - 1, 0.0
        if not (self.anchor_end or self.branch == "upper"):
            ja = 0
            if self.theta > 0.0:
                t_theta = self.chart.t_of(self.theta)
                ja = int(np.argmin(np.abs(pts.t - t_theta)))
                base = -self._panel(t_theta, pts.t[ja])
        log_ts_w = math.log(h) + pts.log_dvdt

        # Panel P_i = int_{t_i}^{t_{i+1}} gamma dt, all from one batched G7/K15
        # step.  Updates per kernel type, walking away from the anchor:
        #   theta-anchored  logw = -int_theta^v:  right: -P,  left: +P
        #   upper           logw = -int_v^1:      left: -P
        #   end-anchored    logw = +int_v^b:      left: +P (may diverge)
        # Failing panels inside the kept ladders get the adaptive rule, which
        # may move the cuts; failing panels outside them are never used.
        left_sign = -1.0 if self.branch == "upper" else 1.0
        P, _, fail = gk_panels(self.gamma_t, pts.t[:-1], pts.t[1:], 1e-15, 1e-13)
        while True:
            with np.errstate(invalid="ignore", over="ignore"):
                right = np.cumsum(np.concatenate(([base], -P[ja:])))
                left = np.cumsum(np.concatenate(([base], left_sign * P[:ja][::-1])))
                nr, best = self._ladder_len(log_ts_w[ja:-1] + right[:-1] - log_absD[ja:-1],
                                            -math.inf)
                nl, _ = self._ladder_len(log_ts_w[ja:0:-1] + left[:-1] - log_absD[ja:0:-1], best)
            # the left walk ends at its first divergent node
            div = np.flatnonzero(left[1:nl + 1] > _DIVERGENCE_LOG)
            nl = int(div[0]) + 1 if div.size else nl
            redo = np.flatnonzero(fail[ja - nl:ja + nr]) + (ja - nl)
            if not redo.size:
                break
            P[redo] = [self._panel(pts.t[i], pts.t[i + 1]) for i in redo]
            fail[redo] = False
        if div.size:
            raise QuadratureError("inner weight integral diverges", math.inf, math.inf)
        logw = np.full(npts, -np.inf)
        logw[ja:ja + nr + 1] = right[:nr + 1]
        logw[ja - nl:ja + 1] = left[nl::-1]

        self.pts = pts
        self.logv = logv
        self.log_absD = log_absD
        self.logw = logw
        self.log_ts_w = log_ts_w

    def _ladder_len(self, terms: np.ndarray, best: float) -> tuple[int, float]:
        """Steps a ladder takes before a node term falls _LOG_CUT below the
        running peak (seeded with ``best``; NaN never moves it), and the peak
        there.  The first 9 steps are always taken.  The J-weighted assembly
        (unit numerator) has no 1/omega damping, so it is never cut."""
        peak = np.fmax.accumulate(np.concatenate(([best], terms)))
        stop = terms < peak[1:] - _LOG_CUT
        stop[:9] = False
        k = int(np.argmax(stop)) if stop.any() and self.numerator != "unit" else len(terms)
        return k, peak[min(k + 1, len(terms))]

    def _panel(self, t0: float, t1: float) -> float:
        """int_{t0}^{t1} gamma dt in the chart variable (oriented)."""
        return gk_adaptive(self.gamma_t, t0, t1, 1e-15, 1e-13)[0]

    # -- evaluation -----------------------------------------------------------

    def log_value(self, x: float, extra: np.ndarray | float = 0.0,
                  weight: np.ndarray | None = None) -> float:
        """log of the table integral at level x, with ``extra`` added to the log
        integrand on every node: m + log sum exp(lt - m) over the node terms lt,
        -inf when every term is -inf.  ``weight`` replaces the node weight
        logw - log|D| for the special forms that do not use it."""
        lt = (self.log_ts_w + self.logw - self.log_absD if weight is None
              else self.log_ts_w + weight) + x * self.logv + extra
        m = float(np.max(lt))
        if m == -math.inf:
            return m
        return m + math.log(float(np.sum(np.exp(lt - m))))

    def log_one_minus_pow(self, n: int) -> np.ndarray:
        """log(1 - v^n) on the nodes: the mean passage kernel v^a - v^x is
        v^a (1 - v^(x-a))."""
        with np.errstate(divide="ignore"):
            return np.log(-np.expm1(n * self.logv))

    def log_pgf_factors(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(log p~(v_i), log r~(v_i)) on the nodes, for generating-function sums."""
        log_p = np.log(self.spec.offspring.pgf(np.clip(self.pts.v, 1e-300, 1.0)))
        log_r = None
        if self.spec.has_immigration:
            imm = self.spec.immigration
            d_one = self.pts.db if self.high == 1.0 else 1.0 - self.pts.v
            log_r = np.log(np.maximum(1.0 - imm.one_minus_pgf(self.pts.v, d_one), 1e-300))
            # culling makes r~ blow up like r_-1/v near 0; take that term alone there
            if imm.kind == "tabular" and imm.r_minus1 > 0.0:
                log_r = np.where(self.pts.v < 1e-250, math.log(imm.r_minus1) - self.logv, log_r)
        return log_p, log_r


# ---------------------------------------------------------------------------
# table cache
# ---------------------------------------------------------------------------

#: Tables kept; inserting beyond this evicts the oldest (insertion order).
_CACHE_MAX = 128
_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def _table(spec: md.ModelSpec, q: float, *, qbar: float = 0.0, branch: str = "lower",
           numerator: str = "full", theta: float | None = None, anchor_end: bool = False,
           cfg: QuadConfig = DEFAULT_CFG) -> ScaleTable:
    if theta is None:
        theta = md.root_phi_q(spec, q if numerator == "full" else 0.0)
    key = (spec, q, qbar, branch, numerator, theta, anchor_end, cfg)
    tbl = _CACHE.get(key)
    if tbl is None:
        with _CACHE_LOCK:
            tbl = _CACHE.get(key)
            if tbl is None:
                tbl = ScaleTable(spec, q, qbar, branch, numerator, theta, anchor_end, cfg)
                if len(_CACHE) >= _CACHE_MAX:
                    del _CACHE[next(iter(_CACHE))]
                _CACHE[key] = tbl
    return tbl


# ---------------------------------------------------------------------------
# public scale functions
# ---------------------------------------------------------------------------

def _check_x(x) -> int:
    if x != int(x) or x < 0:
        raise DomainError("x must be a nonnegative integer")
    return int(x)


class _Resolved(NamedTuple):
    """One scale function at one parameter point: base**x on the power-function
    branch (``tbl`` is None; values are base**x bit for bit), else
    exp(log_pref) times the table integral."""

    base: float = math.nan
    log_pref: float = 0.0
    tbl: ScaleTable | None = None

    def log(self, x, extra: np.ndarray | float = 0.0) -> float:
        x = _check_x(x)
        if self.tbl is None:
            return x * math.log(self.base) + extra
        return self.log_pref + self.tbl.log_value(x, extra)

    def value(self, x) -> float:
        return self.base ** _check_x(x) if self.tbl is None else math.exp(self.log(x))


def _phi_q(spec: md.ModelSpec, q: float, cfg: QuadConfig) -> _Resolved:
    md.require_valid(spec)
    if q <= 0.0:
        raise DomainError("phi_q_fn requires q > 0 (use phi_0_fn for q = 0)")
    varphi = md.root_varphi(spec)
    phi_q = md.root_phi_q(spec, q)
    if phi_q > varphi + BOUNDARY_TIE_TOL:
        raise UnsupportedRegimeError("phi_q <= varphi",
                                     f"phi_q={phi_q!r} > varphi={varphi!r}; need q >= mu*(r~(varphi)-1)")
    if abs(phi_q - varphi) < BOUNDARY_TIE_TOL:
        return _Resolved(varphi)
    return _Resolved(log_pref=math.log(q), tbl=_table(spec, q, cfg=cfg))


def phi_q_fn(spec: md.ModelSpec, q: float, x: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Phi_q(x): positive harmonic function of the killed chain vanishing at infinity."""
    return _phi_q(spec, q, cfg).value(x)


def _psi_q(spec: md.ModelSpec, q: float, cfg: QuadConfig) -> _Resolved:
    md.require_valid(spec)
    if q <= 0.0:
        raise DomainError("psi_q_fn requires q > 0")
    if not md.is_explosive(spec):
        raise PreconditionError("psi_q_fn requires an explosive chain")
    varphi = md.root_varphi(spec)
    phi_q = md.root_phi_q(spec, q)
    if phi_q >= varphi - BOUNDARY_TIE_TOL:
        raise UnsupportedRegimeError("phi_q < varphi",
                                     f"phi_q={phi_q!r}, varphi={varphi!r}")
    return _Resolved(log_pref=math.log(q), tbl=_table(spec, q, branch="upper", cfg=cfg))


def psi_q_fn(spec: md.ModelSpec, q: float, x: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Psi_q(x) = 1 - q int_varphi^1 omega/rho v^x dv: the explosion-side harmonic function."""
    return 1.0 - _psi_q(spec, q, cfg).value(x)


def _phi0_exponent(spec: md.ModelSpec) -> float:
    """Exponent s with Phi_0 integrand ~ u^(s-1) as u = 1 - v -> 0, for varphi = 1.

    At a simple root of D at 1, gamma_0 = N/D stays finite because
    N(1) = mu*(1 - r~(1)) = 0: s = 0.  At the double root of critical tabular
    offspring, D ~ lam p~''(1) u^2/2 and N ~ mu r~'(1) u, so gamma_0 ~ k/u with
    k = 2 mu r~'(1)/(lam p~''(1)) and s = k - 1.  Sibuya immigration has
    N ~ mu u^alpha, so the weight decays faster than any power: s = inf.
    """
    off = spec.offspring
    if off.mean() < 1.0:
        return 0.0
    if spec.immigration.kind == "sibuya":
        return math.inf
    curvature = sum(k * (k - 1) * p for k, p in enumerate(off.pmf))
    return 2.0 * spec.mu * spec.immigration.drift_at_one() / (spec.lam * curvature) - 1.0


def _phi0_uses_integral(spec: md.ModelSpec) -> bool:
    """Case split for Phi_0, in closed form: the mu-weighted integral when it
    converges, the power function varphi^x otherwise.  Below varphi < 1 it
    converges (mu*(1 - r~(varphi)) > 0 there); at varphi = 1 iff s > 0 in
    ``_phi0_exponent``."""
    if not spec.has_immigration:
        return False
    varphi = md.root_varphi(spec)
    phi = md.root_phi_q(spec, 0.0)
    if phi > varphi + BOUNDARY_TIE_TOL:
        raise UnsupportedRegimeError("phi <= varphi", f"phi={phi!r} > varphi={varphi!r}")
    if abs(phi - varphi) <= BOUNDARY_TIE_TOL:
        return False
    return varphi < 1.0 or _phi0_exponent(spec) > 0.0


def _phi_0(spec: md.ModelSpec, cfg: QuadConfig) -> _Resolved:
    md.require_valid(spec)
    varphi = md.root_varphi(spec)
    if not _phi0_uses_integral(spec):
        return _Resolved(varphi)
    if varphi == 1.0:
        lost = math.exp(_phi0_exponent(spec) * _LOG_U_END)
        if lost > cfg.rel_tol:
            raise QuadratureError("Phi_0 integrand decays too slowly at v = 1 for the chart",
                                  math.nan, lost)
    phi = md.root_phi_q(spec, 0.0)
    return _Resolved(log_pref=math.log(spec.mu),
                     tbl=_table(spec, 0.0, numerator="imm", theta=phi, cfg=cfg))


def phi_0_fn(spec: md.ModelSpec, x: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Phi_0(x): the q = 0 scale function (passage probabilities Phi_0(x)/Phi_0(a)).

    Phi_0 is the mu-weighted integral when that converges and varphi^x
    otherwise, decided in closed form from the integrand's exponent s at the
    root endpoint (``_phi0_uses_integral``).  At varphi = 1 the chart's last
    node lies u_N ~ e^-634 from 1, and about u_N^s of the mass lies beyond it;
    when that share exceeds ``cfg.rel_tol`` (s below ~0.036 at 1e-10) the call
    raises QuadratureError.
    """
    return _phi_0(spec, cfg).value(x)


def _phi(spec: md.ModelSpec, q: float, cfg: QuadConfig) -> _Resolved:
    return _phi_0(spec, cfg) if q == 0.0 else _phi_q(spec, q, cfg)


def phi_fn(spec: md.ModelSpec, q: float, x: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Phi_q(x) for any q >= 0: phi_0_fn at q = 0, phi_q_fn otherwise (q < 0 is a DomainError)."""
    return _phi(spec, q, cfg).value(x)


def log_phi_fn(spec: md.ModelSpec, q: float, x: int, cfg: QuadConfig = DEFAULT_CFG) -> float:
    """log Phi_q(x), finite where Phi_q(x) itself underflows; ratios
    Phi_q(x)/Phi_q(a) are exp(log_phi_fn(x) - log_phi_fn(a))."""
    return _phi(spec, q, cfg).log(x)


def _phi_q_qbar(spec: md.ModelSpec, q: float, qbar: float, cfg: QuadConfig) -> _Resolved:
    md.require_valid(spec)
    if q < 0.0 or qbar < 0.0:
        raise DomainError("q and qbar must be >= 0")
    vq = md.root_varphi_qbar(spec, qbar)
    if q == 0.0 and vq >= 1.0:
        raise PreconditionError("need q > 0 or varphi_qbar < 1")
    if spec.mu == 0.0 and q == 0.0:
        # q -> 0 limit of the general expression (power function)
        return _Resolved(vq)
    shift = spec.mu * (spec.immigration.pgf(vq) - 1.0) if spec.has_immigration else 0.0
    if not q > shift + 1e-12:
        raise UnsupportedRegimeError("q > mu*(r~(varphi_qbar)-1)",
                                     f"q={q!r}, mu*(r~(varphi_qbar)-1)={shift!r}")
    theta = md.root_phi_q(spec, q)
    return _Resolved(log_pref=math.log(q - shift),
                     tbl=_table(spec, q, qbar=qbar, theta=theta, cfg=cfg))


def phi_q_qbar_fn(spec: md.ModelSpec, q: float, qbar: float, x: int,
                  cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Phi_{q,qbar}(x): joint discount/accumulated-population scale function."""
    return _phi_q_qbar(spec, q, qbar, cfg).value(x)


def log_phi_q_qbar_fn(spec: md.ModelSpec, q: float, qbar: float, x: int,
                      cfg: QuadConfig = DEFAULT_CFG) -> float:
    """log Phi_{q,qbar}(x), the log counterpart of ``phi_q_qbar_fn``."""
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
    if x < 1:
        raise DomainError("x must be >= 1")
    resolve = {"phi_q": lambda: _phi_q(spec, q, cfg), "psi_q": lambda: _psi_q(spec, q, cfg),
               "phi_q_qbar": lambda: _phi_q_qbar(spec, q, qbar, cfg)}.get(f)
    if resolve is None:
        raise DomainError(f"unknown scale function tag {f!r}")
    r = resolve()
    lam, mu = spec.lam, spec.mu
    imm = mu > 0.0 and spec.has_immigration
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


# internal alternates used by property tests -------------------------------

def phi_q_mu0_simplified(spec: md.ModelSpec, q: float, x: int,
                         cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Integration-by-parts form valid for mu = 0:
    Phi_q(x) = delta_{x0} + x int_0^varphi v^{x-1} exp{-int_0^v gamma_q} dv."""
    if spec.mu != 0.0:
        raise PreconditionError("simplified form needs mu = 0")
    x = _check_x(x)
    if x == 0:
        return 1.0
    tbl = _table(spec, q, cfg=cfg)
    return x * math.exp(tbl.log_value(x - 1, weight=tbl.logw))


def phi_q_with_delimiter(spec: md.ModelSpec, q: float, x: int, theta: float,
                         cfg: QuadConfig = DEFAULT_CFG) -> float:
    """Phi_q with the lower delimiter replaced by theta in (0, varphi); differs
    from phi_q_fn by an x-independent factor only."""
    if not (0.0 < theta < md.root_varphi(spec)):
        raise DomainError("theta must lie in (0, varphi)")
    return q * math.exp(_table(spec, q, theta=theta, cfg=cfg).log_value(_check_x(x)))
