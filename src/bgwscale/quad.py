"""Singularity-aware quadrature primitives of the scale tables.

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

This module holds only the chart (``TSMap``) and the model-free G7/K15 rules on
arrays of panels: one step (``gk_panels``) or one step per depth (``gk_adaptive``).
``scale.ScaleTable`` owns the t-space gamma integrand (``ScaleTable.gamma_t``)
and stores log omega = -int gamma on every node as ``ScaleTable.logw``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, QuadratureError, check_rate

__all__ = ["MAX_PANELS", "QuadConfig", "TSMap", "gk_adaptive", "gk_panels"]


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10

    def __post_init__(self):
        check_rate(self.rel_tol, "rel_tol", positive=True)


DEFAULT_CFG = QuadConfig()


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
_WG = np.array([  # on the odd Kronrod abscissae _XK[1::2]
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


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
    # einsum on y and its strided Gauss columns sums each row alone, so a panel's bits
    # do not depend on the panels sharing the call (a BLAS product's order does)
    k = rad * np.einsum("ij,j->i", y, _WK)
    err = np.abs(k - rad * np.einsum("ij,j->i", y[:, 1::2], _WG))
    ok = (err <= np.fmax(abs_tol, rel_tol * np.abs(k))) | (rad < 1e-17 * (1 + np.abs(mid)))
    return k, err, ~ok


#: G7/K15 steps gk_adaptive may take on one panel before it refuses.  A
#: smooth integrand needs a few dozen; one whose values are noisy at the
#: panel scale would otherwise subdivide until panels are ~1e-17 wide.
MAX_PANELS = 1000


def gk_adaptive(g: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
                abs_tol: float, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive G7/K15 of a vectorized integrand on every oriented panel [lo_i, hi_i]
    (values and error estimates): each depth halves every failing sub-panel, at
    half the absolute tolerance, in one gk_panels call.  Raises QuadratureError
    (estimate: the signed sum) once a panel would take more than MAX_PANELS steps."""
    lo, hi = np.atleast_1d(lo, hi)
    n, sign = lo.size, np.where(hi < lo, -1.0, 1.0)
    total, total_err, steps = np.zeros(n), np.zeros(n), np.zeros(n)
    owner = np.flatnonzero(lo != hi)  # the panel each live sub-panel belongs to
    a, b = np.fmin(lo, hi)[owner], np.fmax(lo, hi)[owner]
    while owner.size:
        steps += np.bincount(owner, minlength=n)
        k, err, fail = gk_panels(g, a, b, abs_tol, rel_tol)
        total += np.bincount(owner, np.where(fail, 0.0, k), n)
        total_err += np.bincount(owner, np.where(fail, 0.0, err), n)
        owner, a, b = owner[fail], a[fail], b[fail]
        if np.any(steps[owner] + 2 * np.bincount(owner)[owner] > MAX_PANELS):
            total += np.bincount(owner, k[fail], n)
            raise QuadratureError("adaptive Gauss-Kronrod left panels unresolved after "
                                  f"{MAX_PANELS} steps", float(np.sum(sign * total)),
                                  float(np.sum(total_err) + np.sum(err[fail])))
        mid = 0.5 * (a + b)
        owner, (a, b) = np.repeat(owner, 2), np.column_stack((a, mid, mid, b)).reshape(-1, 2).T
        abs_tol *= 0.5
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
