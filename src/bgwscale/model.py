"""Branching/immigration mechanisms, model validation, roots and regime classification.

A model is a continuous-time branching chain: each of the ``x`` individuals dies
at rate ``lam`` leaving ``k`` offspring with probability ``p_k`` (``p_1 = 0``
after normalization), and independently, at rate ``mu``, either one individual
is culled (probability ``r_-1``) or ``k >= 1`` individuals immigrate
(probability ``r_k``), until the population dies out or explodes.

Both mechanisms are laws of a jump size read through their generating
functions, one type with two lowest support points (0 for offspring, -1 for
immigration).  Two representations are supported: finite-support tabular pmfs
and the analytic heavy-tailed families

* offspring ``sibuya_mix(p0, alpha)``:   pgf(z) = p0 + (1-p0)*(1-(1-z)**alpha)
* immigration ``sibuya(alpha)``:         pgf(z) = 1-(1-z)**alpha, no culling

which cover every fixture used in the tests without a symbolic engine.

The roots varphi_qbar, phi_q and phi have one solver, ``_root``: each function
is convex or concave, so Newton's method from the end where f f'' > 0 moves
monotonically to the root and stops there, with no tolerance.  varphi, phi and
varphi_qbar of tabular offspring solve deflated forms, (p~(z) - z)/(1 - z) and
z(r~(z) - 1)/(1 - z), which keep their digits near 1, and brackets start at closed-form
lower bounds.  ``GapEvaluator`` factors the gap D(v) = lam(p~(v) - v) - qbar v once at
its root U = varphi_qbar as (v - U)^m Q(v), for the tables and their endpoint exponent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import DomainError, ModelError, NoImmigrationError, check_rate

_PMF_SUM_TOL = 1e-12
#: |pgf'(varphi) - 1| below this is reported as critical tangency (diagnostic only).
CRITICAL_TANGENCY_TOL = 1e-9
#: Entries kept by each root cache (least recently used evicted).
_ROOT_CACHE_MAX = 1024


def _as_float_array(pmf: dict[int, float], lo: int) -> np.ndarray:
    """Dense pmf over k = lo..max(K, 0), K the largest k with p_k > 0, so one law
    has one array; it covers k = 0, so the pgf's polynomial part is never empty."""
    if not pmf:
        raise ModelError("empty pmf")
    kmin = min(pmf)
    if kmin < lo:
        raise ModelError(f"support point {kmin} below allowed minimum {lo}")
    dense = np.zeros(max(max(pmf), 0) + 1 - lo)
    for k, p in pmf.items():
        if not (0.0 <= p <= 1.0):
            raise ModelError(f"probability {p!r} for k={k} outside [0,1]")
        dense[k - lo] = p
    return dense[:max(len(np.trim_zeros(dense, "b")), 1 - lo)]


@dataclass(frozen=True)
class _JumpLaw:
    """Law of a jump size k >= lo, read through its generating function.

    Either tabular, a dense pmf over k = lo..K, or the Sibuya mixture with
    pgf p0 + (1-p0)*(1-(1-v)**alpha): an atom p0 at 0 and Sibuya(alpha) on
    k >= 1.  A law with alpha > 0 is a Sibuya mixture.
    """

    lo: ClassVar[int] = 0
    kind: str
    pmf: tuple[float, ...] = ()  # dense over k = lo..K (tabular only)
    p0: float = 0.0              # Sibuya mixture parameters
    alpha: float = 0.0

    @classmethod
    def tabular(cls, pmf: dict[int, float]):
        return cls(kind="tabular", pmf=tuple(_as_float_array(pmf, cls.lo)))

    def _array(self, v) -> np.ndarray:
        if self.kind == "none":
            raise NoImmigrationError("model has no immigration/culling mechanism")
        return np.asarray(v, dtype=float)

    def pgf(self, v):
        """sum_k pi_k v^k for v in (0,1]; with lo = -1 this includes the term pi_-1 / v."""
        v = self._array(v)
        if np.any(v <= 0.0) or np.any(v > 1.0):
            raise DomainError("pgf argument must lie in (0,1]")
        if self.alpha:
            out = self.p0 + (1.0 - self.p0) * (1.0 - (1.0 - v) ** self.alpha)
        else:
            out = np.polynomial.polynomial.polyval(v, np.asarray(self.pmf[-self.lo:]))
            if self.lo:
                out = self.pmf[0] / v + out
        return float(out) if out.ndim == 0 else out

    def pgf_prime(self, v):
        """d/dv of :meth:`pgf`."""
        v = self._array(v)
        if self.alpha:
            out = (1.0 - self.p0) * self.alpha * (1.0 - v) ** (self.alpha - 1.0)
        else:
            c = np.asarray(self.pmf[-self.lo:])
            dc = c[1:] * np.arange(1, len(c))
            out = np.polynomial.polynomial.polyval(v, dc) if len(dc) else np.zeros_like(v)
            if self.lo:
                out = -self.pmf[0] / v**2 + out
        return float(out) if out.ndim == 0 else out

    def mean(self) -> float:
        """Mean jump sum_k k pi_k (the pgf's slope at 1-); inf for a Sibuya mixture."""
        if self.alpha:
            return math.inf
        up = sum(k * p for k, p in enumerate(self.pmf[1 - self.lo:], start=1))
        return float(up - sum(self.pmf[:-self.lo]))  # k = -1 contributes -pi_-1

    def _deflated_gap(self) -> np.ndarray:
        """Coefficients of Q(v) = (P(v) - v)/(1 - v), P(v) = sum_i pmf[i] v^i (p~ for
        offspring, v r~(v) for immigration; tabular only).  Q_0 = pmf[0] and
        Q_j = -sum_{i>j} pmf[i] are sums of one sign, so none cancels."""
        return np.r_[self.pmf[0], -np.cumsum(self.pmf[:1:-1])[::-1]]

    def pmf_terms(self, kmax: int) -> np.ndarray:
        """pi_k for k = lo..kmax (exact for tabular, recursion for a Sibuya mixture)."""
        out = np.zeros(kmax + 1 - self.lo)
        if self.alpha:  # the Sibuya recursion p_{k+1} = p_k (k - alpha)/(k + 1) from p_1
            k = np.arange(1.0, kmax)
            p1 = (1.0 - self.p0) * self.alpha
            out[-self.lo] = self.p0
            out[1 - self.lo:] = np.cumprod(np.r_[p1, (k - self.alpha) / (k + 1.0)])[:kmax]
        else:
            n = min(len(out), len(self.pmf))
            out[:n] = self.pmf[:n]
        return out


class OffspringLaw(_JumpLaw):
    """Number-of-offspring distribution over {0, 1, ...}: "tabular" or "sibuya_mix"."""

    @classmethod
    def sibuya_mix(cls, p0: float, alpha: float) -> "OffspringLaw":
        if not (0.0 < p0 < 1.0):
            raise ModelError("sibuya_mix requires p0 in (0,1)")
        if not (0.0 < alpha < 1.0):
            raise ModelError("sibuya_mix requires alpha in (0,1)")
        return cls(kind="sibuya_mix", p0=p0, alpha=alpha)

    @property
    def prob0(self) -> float:
        return self.pmf[0] if self.kind == "tabular" else self.p0

    @property
    def prob1(self) -> float:
        if self.kind == "tabular":
            return self.pmf[1] if len(self.pmf) > 1 else 0.0
        return (1.0 - self.p0) * self.alpha


class ImmigrationLaw(_JumpLaw):
    """Immigration/culling distribution over {-1} u {1,2,...}: "none", "tabular" or
    "sibuya" (the Sibuya mixture with p0 = 0, no culling); r_0 = 0 by convention."""

    lo = -1

    @classmethod
    def none(cls) -> "ImmigrationLaw":
        return cls(kind="none")

    @classmethod
    def tabular(cls, pmf: dict[int, float]) -> "ImmigrationLaw":
        if pmf.get(0, 0.0) != 0.0:
            raise ModelError("r_0 must be 0")
        return super().tabular(pmf)

    @classmethod
    def sibuya(cls, alpha: float) -> "ImmigrationLaw":
        if not (0.0 < alpha < 1.0):
            raise ModelError("sibuya requires alpha in (0,1)")
        return cls(kind="sibuya", alpha=alpha)

    @property
    def r_minus1(self) -> float:
        return float(self.pmf[0]) if self.pmf else 0.0

    @property
    def pmf_up(self) -> tuple[float, ...]:
        """r_k for k = 1..K (tabular only)."""
        return self.pmf[2:]

    def one_minus_pgf(self, v, d_one=None):
        """1 - r~(v), evaluated without cancellation near v = 1.

        ``d_one`` is 1 - v; the tabular branch factors the root at 1 out of
        v*(1-r~(v)) so the value stays accurate when d_one underflows the
        working precision of 1 - v.
        """
        v = self._array(v)
        d_one = 1.0 - v if d_one is None else np.asarray(d_one, dtype=float)
        if self.alpha:
            out = d_one**self.alpha
        else:
            # v*(1-r~(v)) = v - r_-1 - sum_k r_k v^{k+1} has a root at v=1.
            out = -d_one * np.polynomial.polynomial.polyval(v, self._deflated_gap()) / v
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ModelSpec:
    """Full chain specification.  Use :func:`make_spec` (or ``from_dict``) to build."""

    offspring: OffspringLaw
    lam: float
    immigration: ImmigrationLaw = field(default_factory=ImmigrationLaw.none)
    mu: float = 0.0

    def __post_init__(self):
        # a chain without immigration has one form, so equal chains share cache keys
        if self.mu == 0.0 or self.immigration.kind == "none":
            object.__setattr__(self, "immigration", ImmigrationLaw.none())
            object.__setattr__(self, "mu", 0.0)

    @property
    def has_immigration(self) -> bool:
        return self.mu > 0.0

    @property
    def has_culling(self) -> bool:
        return self.has_immigration and self.immigration.r_minus1 > 0.0


def make_spec(offspring: OffspringLaw, lam: float,
              immigration: ImmigrationLaw | None = None, mu: float = 0.0) -> ModelSpec:
    """Construct a ModelSpec, removing p_1 (tabular) by conditioning and rescaling lam."""
    try:
        check_rate(lam, "lam", positive=True)
        check_rate(mu, "mu")
    except DomainError as exc:
        raise ModelError(str(exc)) from None
    immigration = immigration if immigration is not None else ImmigrationLaw.none()
    if offspring.kind == "tabular" and offspring.prob1 > 0.0:
        offspring, lam = _remove_p1(offspring, lam)
    return ModelSpec(offspring=offspring, lam=lam, immigration=immigration, mu=mu)


def _remove_p1(law: OffspringLaw, lam: float) -> tuple[OffspringLaw, float]:
    p1 = law.prob1
    if p1 >= 1.0:
        raise ModelError("degenerate offspring law: p_1 = 1")
    keep = np.asarray(law.pmf, dtype=float).copy()
    keep[1] = 0.0
    keep /= 1.0 - p1
    return OffspringLaw(kind="tabular", pmf=tuple(np.trim_zeros(keep, "b"))), lam * (1.0 - p1)


def validate(spec: ModelSpec) -> list[str]:
    """Return the list of violated model assumptions (empty iff the model is usable)."""
    out: list[str] = []
    off = spec.offspring
    if off.kind == "tabular":
        total = float(np.sum(off.pmf))
        if abs(total - 1.0) > _PMF_SUM_TOL:
            out.append(f"offspring pmf sums to {total!r}, not 1")
        if off.prob1 != 0.0:
            out.append("p_1 != 0 after normalization")
    if off.prob0 <= 0.0:
        out.append("p_0 > 0 violated")
    if not (math.isfinite(spec.lam) and spec.lam > 0.0):
        out.append("finite lam > 0 violated")
    if not (math.isfinite(spec.mu) and spec.mu >= 0.0):
        out.append("finite mu >= 0 violated")
    imm = spec.immigration
    if imm.kind == "tabular":
        total = float(imm.r_minus1 + np.sum(imm.pmf_up))
        if abs(total - 1.0) > _PMF_SUM_TOL:
            out.append(f"immigration pmf sums to {total!r}, not 1")
    # ruled out: a.s. nonincreasing paths (mu*r_k > 0 for some k>=1, or p_0 < 1)
    grows_by_immigration = spec.mu > 0.0 and (
        (imm.kind == "tabular" and any(p > 0.0 for p in imm.pmf_up))
        or imm.kind == "sibuya")
    grows_by_branching = off.prob0 < 1.0 or off.kind == "sibuya_mix"
    if not (grows_by_immigration or grows_by_branching):
        out.append("a.s. nonincreasing paths (need mu*r_k > 0 for some k>=1 or p_0 < 1)")
    return out


def require_valid(spec: ModelSpec) -> None:
    problems = validate(spec)
    if problems:
        raise ModelError("invalid model: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------

def _root(f, fprime, lo: float, hi: float, convex: bool) -> float:
    """Root of f on [lo, hi], f(lo) >= 0 > f(hi), with f convex or concave there.

    Eight bisections, then Newton from the end where f f'' > 0 (lo if f is
    convex, hi if concave), where f decreases.  By Fourier's condition the
    iterates then move monotonically towards the root and never pass it, so a
    step that does not move that way, or leaves the bracket, is rounding at
    the root, as is a slope f' >= 0; a monotone sequence of floats stops.
    """
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
    x, way = (lo, 1.0) if convex else (hi, -1.0)
    while True:
        d = fprime(x)
        xn = x - f(x) / d if d < 0.0 else x
        if not ((xn - x) * way > 0.0 and lo <= xn <= hi):
            return x
        x = xn


@lru_cache(maxsize=_ROOT_CACHE_MAX)
def root_varphi(spec: ModelSpec) -> float:
    """Smallest root of p~(z) = z in (0,1]; exactly 1 unless supercritical."""
    require_valid(spec)
    off = spec.offspring
    if off.kind == "sibuya_mix":
        # p~(z)-z = (1-z) - (1-p0)(1-z)^alpha: root at 1-z = (1-p0)^{1/(1-alpha)}.
        return 1.0 - (1.0 - off.p0) ** (1.0 / (1.0 - off.alpha))
    if off.mean() <= 1.0:
        return 1.0
    # p~(z) - z = (1 - z) g(z), g = 1 - sum_k p_k (1 + z + ... + z^(k-1)) concave and
    # decreasing from g(0) = p0 > 0 to g(1) = 1 - mean < 0, even where p~(z) - z near
    # 1 is below the rounding of the pgf
    g = np.polynomial.Polynomial(off._deflated_gap())
    return float(_root(g, g.deriv(), 0.0, 1.0, convex=False))


@lru_cache(maxsize=_ROOT_CACHE_MAX)
def root_phi_q(spec: ModelSpec, q: float) -> float:
    """Root phi_q of q = mu*(r~(z)-1); 0 when mu*r_-1 = 0; for q = 0 the smaller
    root phi of r~(z) = 1 in (0,1] (1 if no interior root exists)."""
    require_valid(spec)
    check_rate(q, "q")
    if not spec.has_culling:
        return 0.0
    imm, mu = spec.immigration, spec.mu
    # r~(z) - 1 = (1 - z) T(z)/z, T concave and decreasing from r_-1 to -mean
    T = np.polynomial.Polynomial(imm._deflated_gap())
    if q == 0.0:
        if imm.mean() <= 0.0:
            return 1.0
        return float(_root(T, T.deriv(), 0.0, 1.0, convex=False))
    # z (mu (r~(z) - 1) - q) = mu (1 - z) T(z) - q z: a convex polynomial, with no
    # r_-1/z^2 slope to overflow near 0
    dT = T.deriv()
    f = lambda z: mu * (1.0 - z) * T(z) - q * z
    fp = lambda z: mu * ((1.0 - z) * dT(z) - T(z)) - q
    lo = mu * imm.r_minus1 / (mu + q)  # z r~(z) >= r_-1, so f(lo) >= 0
    return float(_root(f, fp, lo, 1.0, convex=True))


@lru_cache(maxsize=_ROOT_CACHE_MAX)
def root_varphi_qbar(spec: ModelSpec, qbar: float) -> float:
    """Unique root of (lam+qbar)/lam = p~(z)/z in (0,1) for qbar > 0; varphi at qbar = 0."""
    require_valid(spec)
    check_rate(qbar, "qbar")
    if qbar == 0.0:
        return root_varphi(spec)
    lam = spec.lam
    off = spec.offspring
    f = lambda z: lam * (off.pgf(z) - z) - qbar * z
    if not off.alpha:  # p~(z) - z = (1 - z) g(z), as in root_varphi: no cancellation near 1
        g = np.polynomial.Polynomial(off._deflated_gap())
        f = lambda z: lam * (1.0 - z) * g(z) - qbar * z
    fp = lambda z: lam * (off.pgf_prime(z) - 1.0) - qbar
    lo = lam * off.prob0 / (lam + qbar)  # p~ >= p0, so f(lo) >= 0
    return _root(f, fp, lo, 1.0, convex=True)


def is_explosive(spec: ModelSpec) -> bool:
    """Whether the chain can reach infinity in finite time.

    Finite-support offspring laws are never explosive (the gap z - p~(z)
    vanishes linearly at 1, so the defining integral diverges).  For
    sibuya_mix the gap behaves like (1-p0)*(1-z)**alpha with alpha < 1, so the
    integral converges; the decision is by this closed-form endpoint exponent.
    """
    require_valid(spec)
    if spec.offspring.kind == "tabular":
        return False
    return root_varphi(spec) < 1.0


@dataclass(frozen=True)
class RegimeReport:
    varphi: float
    phi: float
    criticality: str  # "subcritical" | "critical" | "supercritical"
    explosive: bool
    critical_tangency: bool = False  # |p~'(varphi) - 1| below tolerance away from 1


def classify(spec: ModelSpec) -> RegimeReport:
    require_valid(spec)
    mean = spec.offspring.mean()
    if mean < 1.0:
        crit = "subcritical"
    elif mean == 1.0:
        crit = "critical"
    else:
        crit = "supercritical"
    varphi = root_varphi(spec)
    phi = root_phi_q(spec, 0.0)
    tangent = False
    if varphi < 1.0:
        tangent = abs(spec.offspring.pgf_prime(varphi) - 1.0) < CRITICAL_TANGENCY_TOL
    return RegimeReport(varphi=varphi, phi=phi, criticality=crit,
                        explosive=is_explosive(spec), critical_tangency=tangent)


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

def spec_to_dict(spec: ModelSpec) -> dict:
    if spec.offspring.kind == "tabular":
        off = {"type": "tabular",
               "pmf": {str(k): p for k, p in enumerate(spec.offspring.pmf) if p != 0.0}}
    else:
        off = {"type": "sibuya_mix", "p0": spec.offspring.p0, "alpha": spec.offspring.alpha}
    imm_law = spec.immigration
    if imm_law.kind == "none":
        imm = {"type": "none"}
    elif imm_law.kind == "tabular":
        pmf = {str(k + 1): p for k, p in enumerate(imm_law.pmf_up) if p != 0.0}
        if imm_law.r_minus1 != 0.0:
            pmf["-1"] = imm_law.r_minus1
        imm = {"type": "tabular", "pmf": pmf}
    else:
        imm = {"type": "sibuya", "alpha": imm_law.alpha}
    return {"offspring": off, "lambda": spec.lam, "immigration": imm, "mu": spec.mu}


def spec_from_dict(doc: dict) -> ModelSpec:
    try:
        off_doc = doc["offspring"]
        if off_doc["type"] == "tabular":
            off = OffspringLaw.tabular({int(k): float(p) for k, p in off_doc["pmf"].items()})
        elif off_doc["type"] == "sibuya_mix":
            off = OffspringLaw.sibuya_mix(float(off_doc["p0"]), float(off_doc["alpha"]))
        else:
            raise ModelError(f"unknown offspring type {off_doc['type']!r}")
        imm_doc = doc.get("immigration", {"type": "none"})
        if imm_doc["type"] == "none":
            imm = ImmigrationLaw.none()
        elif imm_doc["type"] == "tabular":
            imm = ImmigrationLaw.tabular({int(k): float(p) for k, p in imm_doc["pmf"].items()})
        elif imm_doc["type"] == "sibuya":
            imm = ImmigrationLaw.sibuya(float(imm_doc["alpha"]))
        else:
            raise ModelError(f"unknown immigration type {imm_doc['type']!r}")
        return make_spec(off, float(doc["lambda"]), imm, float(doc.get("mu", 0.0)))
    except KeyError as exc:
        raise ModelError(f"model document missing field {exc}") from exc


def load_model(path) -> ModelSpec:
    with open(path, "r") as fh:
        return spec_from_dict(json.load(fh))


def dump_model(spec: ModelSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# The branching gap, factored at its root (used by the quadrature layer)
# ---------------------------------------------------------------------------

class GapEvaluator:
    """D(v) = lam*(p~(v)-v) - qbar*v factored once at its root U = varphi_qbar
    as D(v) = (v - U)^m Q(v), with m = 2 at the double root of critical
    tabular offspring at qbar = 0 (U = 1), else m = 1.

    The plain expression loses all precision once v is within ~1e-16 of U;
    tanh-sinh nodes get exponentially closer than that, so callers pass the
    exact distances d_root = U - v and d_one = 1 - v, and D is read through
    Q, which keeps its digits at U.  Q(U) is D'(U), or D''(1)/2 at m = 2.
    """

    def __init__(self, spec: ModelSpec, qbar: float = 0.0):
        off, lam = spec.offspring, spec.lam
        self.root = U = root_varphi_qbar(spec, qbar)
        self.m = 2 if qbar == 0.0 and U == 1.0 and off.mean() == 1.0 else 1
        if off.alpha:  # root us = 1 - U in u = 1 - v; c = inf at us = 0, as p~'(1) is
            us = 1.0 - U
            with np.errstate(divide="ignore"):
                c = lam * (1.0 - off.p0) * np.float64(us) ** (off.alpha - 1.0)
            self._coef, self._sibuya = None, (lam, qbar, off.p0, off.alpha, us, c)
            return
        coef = lam * np.asarray(off.pmf + (0.0,) * (2 - len(off.pmf)), dtype=float)
        coef[1] -= lam + qbar
        for _ in range(self.m):
            coef = np.polynomial.polynomial.polydiv(coef, [-U, 1.0])[0]
        self._coef = coef

    def quotient(self, v, d_root, d_one):
        """Q(v) = D(v)/(v - U)^m, with d_root = U - v and d_one = 1 - v exact."""
        if self._coef is not None:
            return np.polynomial.polynomial.polyval(v, self._coef)
        # Sibuya: D = lam(u - (1-p0) u^alpha) - qbar(1-u) cancels only near the root,
        # |d_root| <= us/2, where D(u) - D(us), with D(us) = 0, is expanded in x = d_root/us:
        # Q = c expm1(alpha log1p(x))/x - lam - qbar, c = lam (1-p0) us^(alpha-1), alpha at x = 0
        lam, qbar, p0, a, us, c = self._sibuya
        d_root, u = np.asarray(d_root, dtype=float), np.asarray(d_one, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = d_root / us
            near = c * np.where(d_root == 0.0, a, np.expm1(a * np.log1p(x)) / x) - lam - qbar
            direct = -(lam * (u - (1.0 - p0) * u**a) - qbar * (1.0 - u)) / d_root
        return np.where(np.abs(d_root) <= 0.5 * us, near, direct)

    def ratio(self, num, v, d_root, d_one):
        """num / D(v).  At m = 2, D = d_root**2 Q is never formed: it turns
        subnormal near the root while num/d_root and d_root*Q stay normal."""
        Q = self.quotient(v, d_root, d_one)
        return num / d_root / (d_root * Q) if self.m == 2 else num / (-d_root * Q)

    def log_abs_den(self, v, d_root, log_abs_droot, d_one):
        """log|D(v)| = m log|d_root| + log|Q(v)|, with log|d_root| also supplied
        exactly, so it stays finite where d_root**m underflows."""
        return self.m * log_abs_droot + np.log(np.abs(self.quotient(v, d_root, d_one)))
