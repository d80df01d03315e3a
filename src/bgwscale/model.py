"""Branching/immigration mechanisms, model validation, roots and regime classification.

A model is a continuous-time branching chain: each of the ``x`` individuals dies
at rate ``lam`` leaving ``k`` offspring with probability ``p_k`` (``p_1 = 0``
after normalization), and independently, at rate ``mu``, either one individual
is culled (probability ``r_-1``) or ``k >= 1`` individuals immigrate
(probability ``r_k``), until the population dies out or explodes.

Two mechanism representations are supported: finite-support tabular pmfs and
the analytic heavy-tailed families

* offspring ``sibuya_mix(p0, alpha)``:   pgf(z) = p0 + (1-p0)*(1-(1-z)**alpha)
* immigration ``sibuya(alpha)``:         pgf(z) = 1-(1-z)**alpha, no culling

which cover every fixture used in the tests without a symbolic engine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, ModelError, NoImmigrationError

_PMF_SUM_TOL = 1e-12
#: |pgf'(varphi) - 1| below this is reported as critical tangency (diagnostic only).
CRITICAL_TANGENCY_TOL = 1e-9
#: Entries kept by each root cache (least recently used evicted).
_ROOT_CACHE_MAX = 1024


def _as_float_array(pmf: dict[int, float], lo: int) -> tuple[int, np.ndarray]:
    """Dense coefficient array for a sparse pmf with minimum support point ``lo``."""
    if not pmf:
        raise ModelError("empty pmf")
    kmin = min(pmf)
    kmax = max(pmf)
    if kmin < lo:
        raise ModelError(f"support point {kmin} below allowed minimum {lo}")
    dense = np.zeros(kmax + 1 - lo)
    for k, p in pmf.items():
        if not (0.0 <= p <= 1.0):
            raise ModelError(f"probability {p!r} for k={k} outside [0,1]")
        dense[k - lo] = p
    return lo, dense


@dataclass(frozen=True)
class OffspringLaw:
    """Number-of-offspring distribution, tabular or sibuya_mix."""

    kind: str  # "tabular" | "sibuya_mix"
    pmf: tuple[float, ...] = ()  # dense over k = 0..K (tabular only)
    p0: float = 0.0              # sibuya_mix parameters
    alpha: float = 0.0

    @staticmethod
    def tabular(pmf: dict[int, float]) -> "OffspringLaw":
        lo, dense = _as_float_array(pmf, 0)
        return OffspringLaw(kind="tabular", pmf=tuple(dense))

    @staticmethod
    def sibuya_mix(p0: float, alpha: float) -> "OffspringLaw":
        if not (0.0 < p0 < 1.0):
            raise ModelError("sibuya_mix requires p0 in (0,1)")
        if not (0.0 < alpha < 1.0):
            raise ModelError("sibuya_mix requires alpha in (0,1)")
        return OffspringLaw(kind="sibuya_mix", p0=p0, alpha=alpha)

    # -- generating function ------------------------------------------------

    def pgf(self, v):
        """p~(v) = sum_k p_k v^k for v in (0,1]."""
        v = np.asarray(v, dtype=float)
        if np.any(v <= 0.0) or np.any(v > 1.0):
            raise DomainError("pgf argument must lie in (0,1]")
        if self.kind == "tabular":
            out = np.polynomial.polynomial.polyval(v, np.asarray(self.pmf))
        else:
            out = self.p0 + (1.0 - self.p0) * (1.0 - (1.0 - v) ** self.alpha)
        return float(out) if out.ndim == 0 else out

    def pgf_prime(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "tabular":
            c = np.asarray(self.pmf)
            dc = c[1:] * np.arange(1, len(c))
            out = np.polynomial.polynomial.polyval(v, dc) if len(dc) else np.zeros_like(v)
        else:
            out = (1.0 - self.p0) * self.alpha * (1.0 - v) ** (self.alpha - 1.0)
        return float(out) if out.ndim == 0 else out

    def mean(self) -> float:
        """p~'(1-); inf for the heavy-tailed analytic family."""
        if self.kind == "tabular":
            return float(sum(k * p for k, p in enumerate(self.pmf)))
        return math.inf

    @property
    def prob0(self) -> float:
        return self.pmf[0] if self.kind == "tabular" else self.p0

    @property
    def prob1(self) -> float:
        if self.kind == "tabular":
            return self.pmf[1] if len(self.pmf) > 1 else 0.0
        return (1.0 - self.p0) * self.alpha

    def pmf_terms(self, kmax: int) -> np.ndarray:
        """p_k for k = 0..kmax (exact for tabular, recursion for sibuya_mix)."""
        out = np.zeros(kmax + 1)
        if self.kind == "tabular":
            n = min(kmax + 1, len(self.pmf))
            out[:n] = self.pmf[:n]
            return out
        out[0] = self.p0
        if kmax >= 1:
            out[1] = (1.0 - self.p0) * self.alpha
            for k in range(1, kmax):
                out[k + 1] = out[k] * (k - self.alpha) / (k + 1.0)
        return out


@dataclass(frozen=True)
class ImmigrationLaw:
    """Immigration/culling distribution over {-1} u {1,2,...}; r_0 = 0 by convention."""

    kind: str  # "none" | "tabular" | "sibuya"
    r_minus1: float = 0.0
    pmf_up: tuple[float, ...] = ()  # dense over k = 1..K (tabular only)
    alpha: float = 0.0

    @staticmethod
    def none() -> "ImmigrationLaw":
        return ImmigrationLaw(kind="none")

    @staticmethod
    def tabular(pmf: dict[int, float]) -> "ImmigrationLaw":
        if 0 in pmf and pmf[0] != 0.0:
            raise ModelError("r_0 must be 0")
        r_minus1 = float(pmf.get(-1, 0.0))
        up = {k: p for k, p in pmf.items() if k >= 1}
        if up:
            _, dense = _as_float_array(up, 1)
        else:
            dense = np.zeros(0)
        if not (0.0 <= r_minus1 <= 1.0):
            raise ModelError("r_-1 outside [0,1]")
        return ImmigrationLaw(kind="tabular", r_minus1=r_minus1, pmf_up=tuple(dense))

    @staticmethod
    def sibuya(alpha: float) -> "ImmigrationLaw":
        if not (0.0 < alpha < 1.0):
            raise ModelError("sibuya requires alpha in (0,1)")
        return ImmigrationLaw(kind="sibuya", alpha=alpha)

    # -- generating function ------------------------------------------------

    def pgf(self, v):
        """r~(v) = sum_{k>=-1} r_k v^k, including the culling term r_-1 / v."""
        if self.kind == "none":
            raise NoImmigrationError("model has no immigration/culling mechanism")
        v = np.asarray(v, dtype=float)
        if np.any(v <= 0.0) or np.any(v > 1.0):
            raise DomainError("pgf argument must lie in (0,1]")
        if self.kind == "tabular":
            up = np.polynomial.polynomial.polyval(v, np.concatenate(([0.0], self.pmf_up)))
            out = self.r_minus1 / v + up
        else:
            out = 1.0 - (1.0 - v) ** self.alpha
        return float(out) if out.ndim == 0 else out

    def pgf_prime(self, v):
        if self.kind == "none":
            raise NoImmigrationError("model has no immigration/culling mechanism")
        v = np.asarray(v, dtype=float)
        if self.kind == "tabular":
            c = np.concatenate(([0.0], self.pmf_up))
            dc = c[1:] * np.arange(1, len(c))
            up = np.polynomial.polynomial.polyval(v, dc) if len(dc) else np.zeros_like(v)
            out = -self.r_minus1 / v**2 + up
        else:
            out = self.alpha * (1.0 - v) ** (self.alpha - 1.0)
        return float(out) if out.ndim == 0 else out

    def drift_at_one(self) -> float:
        """r~'(1-) = sum k r_k - r_-1; inf for sibuya."""
        if self.kind == "none":
            return 0.0
        if self.kind == "tabular":
            return float(sum((k + 1) * p for k, p in enumerate(self.pmf_up)) - self.r_minus1)
        return math.inf

    def one_minus_pgf(self, v, d_one=None):
        """1 - r~(v), evaluated without cancellation near v = 1.

        ``d_one`` is 1 - v; the tabular branch factors the root at 1 out of
        v*(1-r~(v)) so the value stays accurate when d_one underflows the
        working precision of 1 - v.
        """
        if self.kind == "none":
            raise NoImmigrationError("model has no immigration/culling mechanism")
        v = np.asarray(v, dtype=float)
        d_one = 1.0 - v if d_one is None else np.asarray(d_one, dtype=float)
        if self.kind == "sibuya":
            out = d_one**self.alpha
        else:
            # v*(1-r~(v)) = v - r_-1 - sum_k r_k v^{k+1} has a root at v=1.
            out = -d_one * np.polynomial.polynomial.polyval(v, self._deflated_sv()) / v
        return float(out) if out.ndim == 0 else out

    def _deflated_sv(self) -> np.ndarray:
        # s(v) = v - r_-1 - sum_{k>=1} r_k v^{k+1} = (v-1) T(v); return T's coefficients.
        coeffs = np.zeros(len(self.pmf_up) + 2)
        coeffs[0] = -self.r_minus1
        coeffs[1] = 1.0
        for k, p in enumerate(self.pmf_up, start=1):
            coeffs[k + 1] -= p
        return _deflate(coeffs, 1.0)

    def pmf_terms(self, kmax: int) -> tuple[float, np.ndarray]:
        """(r_-1, array of r_k for k = 1..kmax)."""
        if self.kind == "none":
            return 0.0, np.zeros(kmax)
        if self.kind == "tabular":
            out = np.zeros(kmax)
            n = min(kmax, len(self.pmf_up))
            out[:n] = self.pmf_up[:n]
            return self.r_minus1, out
        out = np.zeros(kmax)
        if kmax >= 1:
            out[0] = self.alpha
            for k in range(1, kmax):
                out[k] = out[k - 1] * (k - self.alpha) / (k + 1.0)
        return 0.0, out


def _deflate(coeffs: np.ndarray, root: float) -> np.ndarray:
    """Synthetic division of an ascending-coefficient polynomial by (z - root)."""
    n = len(coeffs)
    q = np.zeros(n - 1)
    acc = 0.0
    for j in range(n - 1, 0, -1):
        acc = coeffs[j] + root * acc
        q[j - 1] = acc
    return q


@dataclass(frozen=True)
class ModelSpec:
    """Full chain specification.  Use :func:`make_spec` (or ``from_dict``) to build."""

    offspring: OffspringLaw
    lam: float
    immigration: ImmigrationLaw = field(default_factory=ImmigrationLaw.none)
    mu: float = 0.0
    original_lam: float = 0.0  # rate before the p_1 normalization

    @property
    def has_immigration(self) -> bool:
        return self.mu > 0.0 and self.immigration.kind != "none"

    @property
    def has_culling(self) -> bool:
        return self.has_immigration and self.immigration.kind == "tabular" \
            and self.immigration.r_minus1 > 0.0


def make_spec(offspring: OffspringLaw, lam: float,
              immigration: ImmigrationLaw | None = None, mu: float = 0.0) -> ModelSpec:
    """Construct a ModelSpec, removing p_1 (tabular) by conditioning and rescaling lam."""
    if lam <= 0.0:
        raise ModelError("lam must be > 0")
    if mu < 0.0:
        raise ModelError("mu must be >= 0")
    immigration = immigration if immigration is not None else ImmigrationLaw.none()
    original = lam
    if offspring.kind == "tabular" and offspring.prob1 > 0.0:
        offspring, lam = _remove_p1(offspring, lam)
    return ModelSpec(offspring=offspring, lam=lam, immigration=immigration,
                     mu=mu, original_lam=original)


def _remove_p1(law: OffspringLaw, lam: float) -> tuple[OffspringLaw, float]:
    p1 = law.prob1
    if p1 >= 1.0:
        raise ModelError("degenerate offspring law: p_1 = 1")
    keep = np.asarray(law.pmf, dtype=float).copy()
    keep[1] = 0.0
    keep /= 1.0 - p1
    return OffspringLaw(kind="tabular", pmf=tuple(keep)), lam * (1.0 - p1)


def normalize_remove_p1(spec: ModelSpec) -> ModelSpec:
    """Condition the offspring law on k != 1 and rescale lam to lam*(1-p_1).

    Idempotent when p_1 = 0 already.  Only tabular laws carry an explicit p_1.
    """
    if spec.offspring.kind != "tabular":
        return spec
    if spec.offspring.prob1 == 0.0:
        return spec
    law, lam = _remove_p1(spec.offspring, spec.lam)
    return ModelSpec(offspring=law, lam=lam, immigration=spec.immigration,
                     mu=spec.mu, original_lam=spec.original_lam or spec.lam)


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
    if spec.lam <= 0.0:
        out.append("lam > 0 violated")
    if spec.mu < 0.0:
        out.append("mu >= 0 violated")
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
# pgf operations (free-function entry points)
# ---------------------------------------------------------------------------

def pgf_offspring(law: OffspringLaw, v: float) -> float:
    return law.pgf(v)


def pgf_immigration(law: ImmigrationLaw, v: float) -> float:
    return law.pgf(v)


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------

_BRACKET_EPS = 1e-14


def _bisect_newton(f, fprime, lo: float, hi: float, tol: float) -> float:
    """Root of f on [lo, hi] with f(lo) > 0 > f(hi): bisection then Newton polish."""
    flo, fhi = f(lo), f(hi)
    if flo <= 0.0:
        return lo
    if fhi >= 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or hi - lo < 0.25 * tol:
            break
        fm = f(mid)
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(4):
        d = fprime(x)
        if d == 0.0:
            break
        step = f(x) / d
        xn = x - step
        if not (lo <= xn <= hi):
            break
        x = xn
        if abs(step) < 1e-17 + 1e-16 * abs(x):
            break
    return x


@lru_cache(maxsize=_ROOT_CACHE_MAX)
def root_varphi(spec: ModelSpec, tol: float = 1e-13) -> float:
    """Smallest root of p~(z) = z in (0,1]; exactly 1 unless supercritical."""
    require_valid(spec)
    off = spec.offspring
    if off.kind == "sibuya_mix":
        # p~(z)-z = (1-z) - (1-p0)(1-z)^alpha: root at 1-z = (1-p0)^{1/(1-alpha)}.
        return 1.0 - (1.0 - off.p0) ** (1.0 / (1.0 - off.alpha))
    if off.mean() <= 1.0:
        return 1.0
    f = lambda z: off.pgf(z) - z
    fp = lambda z: off.pgf_prime(z) - 1.0
    return _bisect_newton(f, fp, _BRACKET_EPS, 1.0 - _BRACKET_EPS, tol)


@lru_cache(maxsize=_ROOT_CACHE_MAX)
def root_phi_q(spec: ModelSpec, q: float, tol: float = 1e-13) -> float:
    """Root phi_q of q = mu*(r~(z)-1); 0 when mu*r_-1 = 0; for q = 0 the smaller
    root phi of r~(z) = 1 in (0,1] (1 if no interior root exists)."""
    require_valid(spec)
    if q < 0.0:
        raise DomainError("q must be >= 0")
    if not spec.has_culling:
        return 0.0
    imm, mu = spec.immigration, spec.mu
    if q == 0.0:
        if imm.drift_at_one() <= 0.0:
            return 1.0
        f = lambda z: imm.pgf(z) - 1.0
    else:
        f = lambda z: mu * (imm.pgf(z) - 1.0) - q
    fp = lambda z: mu * imm.pgf_prime(z) if q > 0.0 else imm.pgf_prime(z)
    return _bisect_newton(f, fp, _BRACKET_EPS, 1.0 - _BRACKET_EPS, tol)


@lru_cache(maxsize=_ROOT_CACHE_MAX)
def root_varphi_qbar(spec: ModelSpec, qbar: float, tol: float = 1e-13) -> float:
    """Unique root of (lam+qbar)/lam = p~(z)/z in (0,1) for qbar > 0; varphi at qbar = 0."""
    require_valid(spec)
    if qbar < 0.0:
        raise DomainError("qbar must be >= 0")
    if qbar == 0.0:
        return root_varphi(spec, tol)
    lam = spec.lam
    off = spec.offspring
    f = lambda z: lam * (off.pgf(z) - z) - qbar * z
    fp = lambda z: lam * (off.pgf_prime(z) - 1.0) - qbar
    return _bisect_newton(f, fp, _BRACKET_EPS, 1.0 - _BRACKET_EPS, tol)


def is_explosive(spec: ModelSpec, tol: float = 1e-13) -> bool:
    """Whether the chain can reach infinity in finite time.

    Finite-support offspring laws are never explosive (the gap z - p~(z)
    vanishes linearly at 1, so the defining integral diverges).  For
    sibuya_mix the gap behaves like (1-p0)*(1-z)**alpha with alpha < 1, so the
    integral converges; the decision is by this closed-form endpoint exponent.
    """
    require_valid(spec)
    if spec.offspring.kind == "tabular":
        return False
    return root_varphi(spec, tol) < 1.0


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
# Stable gap evaluation near the deflating roots (used by the quadrature layer)
# ---------------------------------------------------------------------------

class GapEvaluator:
    """Evaluates D(v) = lam*(p~(v)-v) - qbar*v with full relative accuracy near
    its root in (0,1] and near 1.

    The plain expression loses all precision once v is within ~1e-16 of the
    root; tanh-sinh nodes get exponentially closer than that, so evaluation is
    routed through a deflated factorization fed with the exact node-to-root
    distance.
    """

    def __init__(self, spec: ModelSpec, qbar: float = 0.0):
        self.qbar = float(qbar)
        self.lam = spec.lam
        off = spec.offspring
        self.root = root_varphi_qbar(spec, qbar)
        self.kind = off.kind
        if off.kind == "tabular":
            coeffs = self.lam * np.asarray(off.pmf, dtype=float)
            if len(coeffs) < 2:
                coeffs = np.concatenate([coeffs, [0.0]])
            coeffs = coeffs.copy()
            coeffs[1] -= self.lam + self.qbar
            self.double_root = (qbar == 0.0 and self.root == 1.0 and off.mean() == 1.0)
            self.q1 = _deflate(coeffs, self.root)
            self.q2 = _deflate(self.q1, self.root) if self.double_root else None
        else:
            self.double_root = False
            self.ustar = 1.0 - self.root  # root in u = 1-v coordinates
            self.p0 = off.p0
            self.alpha = off.alpha

    def ratio(self, num, v, d_root, d_one):
        """num / D(v), with d_root and d_one as for :meth:`den`.

        At a double root D = d_root**2 * q2(v) is never formed: it turns
        subnormal near the root while num/d_root and d_root*q2(v) stay normal.
        """
        if self.double_root:
            return num / d_root / (d_root * np.polynomial.polynomial.polyval(v, self.q2))
        return num / self.den(v, d_root, d_one)

    def den(self, v, d_root, d_one):
        """D(v) near a simple root, with d_root = root - v (signed) and
        d_one = 1 - v supplied exactly (use :meth:`ratio` at a double root)."""
        v = np.asarray(v, dtype=float)
        d_root = np.asarray(d_root, dtype=float)
        if self.kind == "tabular":
            return -d_root * np.polynomial.polynomial.polyval(v, self.q1)
        # sibuya_mix: lam*(u - (1-p0) u^alpha) - qbar*(1-u), u = 1-v, root at ustar.
        # The direct expression cancels only near the root (u ~ ustar); there,
        # expand D(u) - D(ustar) with d_root = u - ustar carried exactly.
        u = np.asarray(d_one, dtype=float)
        lam, qbar, a, us = self.lam, self.qbar, self.alpha, self.ustar
        delta = d_root
        near = np.abs(delta) < 0.5 * us
        safe = np.where(near, delta, 0.0)
        pow_diff = us**a * np.expm1(a * np.log1p(safe / us))
        expanded = (lam + qbar) * delta - lam * (1.0 - self.p0) * pow_diff
        direct = lam * (u - (1.0 - self.p0) * u**a) - qbar * (1.0 - u)
        return np.where(near, expanded, direct)

    def log_abs_den(self, v, d_root, log_abs_droot, d_one):
        """log|D(v)|, with log|d_root| also supplied exactly.  Below |d_root| <
        1e-250 the factored Sibuya den underflows; log|d_root| + log|D'(root)|
        is exact there."""
        if self.kind == "tabular":
            coeffs, mult = (self.q2, 2.0) if self.double_root else (self.q1, 1.0)
            vals = np.polynomial.polynomial.polyval(v, coeffs)
            return mult * log_abs_droot + np.log(np.abs(vals))
        with np.errstate(divide="ignore", invalid="ignore"):
            plain = np.log(np.abs(self.den(v, d_root, d_one)))
        a, us = self.alpha, self.ustar
        dprime = self.lam + self.qbar - self.lam * (1.0 - self.p0) * a * us ** (a - 1.0)
        return np.where(np.abs(d_root) < 1e-250, log_abs_droot + math.log(abs(dprime)), plain)
