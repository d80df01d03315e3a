"""The four in-process workloads and their answer checks.

Each workload makes its inputs from the seed, times one operation at a time
in a closed loop (one caller, the next request only after the last returns),
and checks every answer after the timed phase against ``oracles``.  Calls go
through the package's module attributes (``passage.lt_first_passage``, not
``bgwscale.lt_first_passage``) so that the tracer sees them.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bgwscale import control as ctl  # noqa: E402
from bgwscale import model as md  # noqa: E402
from bgwscale import passage as ps  # noqa: E402
from bgwscale import scale as sc  # noqa: E402
from bgwscale import sim  # noqa: E402

import oracles as orc  # noqa: E402
from stats import summarize  # noqa: E402

FINGERPRINT = Path(__file__).resolve().parent / "fingerprint.json"
SPECS = {name: md.spec_from_dict(doc) for name, doc in orc.FIXTURES.items()}
MODULES = {"model": md, "scale": sc, "passage": ps, "control": ctl, "sim": sim}
REL = 1e-8  # tables certify 1e-10 at their probe levels; ratios over many levels get this


# ---------------------------------------------------------------------------
# timing and bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Run:
    """Latencies, counts and answers of one timed phase."""

    tracer: object = None
    lat_s: list = field(default_factory=list)
    answers: list = field(default_factory=list)  # (request, value or exception)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    wall_s: float = 0.0
    rss_mb: float | None = None

    def call(self, kind: str, request, fn):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                value = fn()
            else:
                with self.tracer.op(kind):
                    value = fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted, not raised
            value = exc
        self.lat_s.append(time.perf_counter() - t0)
        self.answers.append((request, value))
        if isinstance(value, Exception):
            self.failed += 1
        return value

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def metrics(self, extra: dict) -> dict:
        rss = self.rss_mb if self.rss_mb is not None else peak_rss_mb()
        return summarize(self.lat_s, self.attempted, self.wall_s, rss, extra)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def loop(run: Run, seconds: float | None, rounds: int | None, body, check,
         rss_round: int | None = None) -> None:
    """Run ``body(round_index)`` in whole rounds, for ``seconds`` or for ``rounds``.

    After each round ``check(request, answer)`` sees that round's answers and
    they are dropped, so the harness holds no more memory in a long run than
    in a short one.  Checking is not part of the timed phase.  With
    ``rss_round``, peak memory is read after that many rounds.
    """
    r = 0
    while (rounds is not None and r < rounds) or (rounds is None and run.wall_s < seconds):
        t0 = time.perf_counter()
        body(r)
        run.wall_s += time.perf_counter() - t0
        for request, answer in run.answers:
            check(request, answer)
        run.answers.clear()
        r += 1
        if r == rss_round:
            run.rss_mb = peak_rss_mb()


_WEYL = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                                      47, 53, 59, 61, 67, 71)]


class Weyl:
    """The draws of the k-th request of one schedule slot.

    Dimension d takes frac(offset_d + k * sqrt(p_d)), a Weyl sequence, and the
    seed sets only the offsets.  Every run covers each parameter range evenly,
    so runs with different seeds build tables of the same mix of costs, yet no
    two requests share a parameter value.
    """

    def __init__(self, offsets: list[float], k: int):
        self.offsets, self.k, self.d = offsets, k, 0

    def random(self) -> float:
        u = (self.offsets[self.d] + self.k * _WEYL[self.d]) % 1.0
        self.d += 1
        return u

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def randint(self, a: int, b: int) -> int:
        return a + min(int(self.random() * (b - a + 1)), b - a)

    def choice(self, seq):
        return seq[min(int(self.random() * len(seq)), len(seq) - 1)]


def log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1))))


@functools.lru_cache(maxsize=None)
def bd_log_phi(bd: orc.BirthDeath, q: float, qbar: float) -> list[float]:
    """log Phi(y) of the birth-death oracle for y = 0..2000, with Phi(0) = 1."""
    r = bd.ratios(q, qbar, 2000)
    return [0.0] + list(itertools.accumulate(math.log(v) for v in r[1:]))


def bd_lt(bd: orc.BirthDeath, q: float, qbar: float, x: int, a: int) -> float:
    logs = bd_log_phi(bd, q, qbar)
    return math.exp(logs[x] - logs[a])


# ---------------------------------------------------------------------------
# tables_cold: every request builds its tables
# ---------------------------------------------------------------------------

#: One round: (family, request kind).  The seed draws every parameter; the
#: schedule keeps the mix of kinds the same in every run.
COLD_SCHEDULE = [
    ("bd_sub", "phi"), ("bd_super", "phi"), ("sibuya_mix", "psi"), ("bd_crit", "phi"),
    ("bd_sub", "avalanche"), ("crit_sibuya_imm", "phi"), ("sibuya_mix", "phi"),
    ("bd_super", "avalanche"), ("bd_sub", "phiqq"), ("bd_crit", "avalanche"),
    ("bd_sub", "phi"), ("sibuya_mix", "psi"), ("bd_super", "phiqq"),
    ("crit_sibuya_imm", "phi"), ("bd_crit", "phiqq"), ("bd_sub", "avalanche"),
    ("sibuya_mix", "phi"), ("bd_super", "phi"), ("bd_crit", "phi"), ("bd_sub_mfp", "mfp"),
]


@dataclass(frozen=True)
class ColdRequest:
    family: str
    kind: str
    params: tuple  # (p0, p2, lam, step, mu) for birth-death, else law parameters
    q: float
    qbar: float
    xs: tuple
    a: int = 0

    def bd(self) -> orc.BirthDeath | None:
        return orc.BirthDeath(*self.params) if self.family.startswith("bd") else None

    def spec(self):
        if self.family == "sibuya_mix":
            p0, alpha, lam = self.params
            return md.make_spec(md.OffspringLaw.sibuya_mix(p0, alpha), lam)
        if self.family == "crit_sibuya_imm":
            alpha, lam, mu = self.params
            return md.make_spec(md.OffspringLaw.tabular({0: 0.5, 2: 0.5}), lam,
                                md.ImmigrationLaw.sibuya(alpha), mu)
        p0, p2, lam, step, mu = self.params
        imm = md.ImmigrationLaw.tabular({step: 1.0}) if step else None
        return md.make_spec(md.OffspringLaw.tabular({0: p0, 2: p2}), lam, imm, mu)


def _binary_varphi_qbar(p0: float, p2: float, lam: float, qbar: float) -> float:
    """Smallest root of (lam + qbar) z = lam (p0 + p2 z^2)."""
    c = 1.0 + qbar / lam
    return (c - math.sqrt(c * c - 4.0 * p0 * p2)) / (2.0 * p2)


def cold_request(rng: Weyl, family: str, kind: str) -> ColdRequest:
    lam = rng.uniform(0.5, 2.0)
    q = math.exp(rng.uniform(math.log(0.2), math.log(4.0)))
    qbar = math.exp(rng.uniform(math.log(0.2), math.log(2.0))) if kind in ("phiqq", "avalanche") else 0.0
    if family == "sibuya_mix":
        params = (rng.uniform(0.1, 0.5), rng.uniform(0.3, 0.8), lam)
    elif family == "crit_sibuya_imm":
        params = (rng.uniform(0.3, 0.8), lam, rng.uniform(0.3, 2.0))
    else:
        p2 = {"bd_sub": rng.uniform(0.1, 0.4), "bd_sub_mfp": rng.uniform(0.1, 0.35),
              "bd_crit": 0.5, "bd_super": rng.uniform(0.55, 0.8)}[family]
        step = {"bd_sub": rng.choice((0, 1, -1)), "bd_sub_mfp": rng.choice((0, 1)),
                "bd_crit": rng.choice((1, -1)), "bd_super": -1}[family]
        mu = rng.uniform(0.3, 2.0) if step else 0.0
        params = (1.0 - p2, p2, lam, step, mu)
        if step == -1:
            # culling needs q above mu*(r~(v)-1) = mu*(1/v - 1); stay well clear of that
            # boundary, where the power-function tie sits
            v = _binary_varphi_qbar(1.0 - p2, p2, lam, qbar)
            floor_q = mu * (1.0 / v - 1.0)
            if floor_q > 0.0:
                q = floor_q * rng.uniform(1.25, 3.0) + rng.uniform(0.05, 0.5)
    if kind == "avalanche":
        a = rng.randint(0, 3)
        xs = tuple(range(a + 1, a + 1 + rng.randint(8, 40)))
    elif kind == "mfp":
        a = rng.randint(0, 2)
        xs = tuple(range(a + 1, a + 1 + rng.randint(5, 20)))
    else:
        a = 0
        xs = tuple(range(1 if kind == "psi" else 0, rng.randint(8, 40) + 1))
    return ColdRequest(family, kind, params, q, qbar, xs, a)


def cold_call(req: ColdRequest, spec) -> list[float]:
    if req.kind == "phi":
        return [sc.phi_q_fn(spec, req.q, x) for x in req.xs]
    if req.kind == "psi":
        return [sc.psi_q_fn(spec, req.q, x) for x in req.xs]
    if req.kind == "phiqq":
        return [sc.phi_q_qbar_fn(spec, req.q, req.qbar, x) for x in req.xs]
    if req.kind == "avalanche":
        return [ps.lt_joint_avalanche(spec, req.q, req.qbar, x, req.a) for x in req.xs]
    return [ps.mean_first_passage(spec, x, req.a) for x in req.xs]


def tables_cold(seed: int, seconds: float | None, rounds: int | None = None,
                tracer=None) -> Run:
    rng = random.Random(f"tables_cold:{seed}")
    offsets = [[rng.random() for _ in _WEYL] for _ in COLD_SCHEDULE]
    run = Run(tracer=tracer)

    def body(r):
        for slot, (family, kind) in enumerate(COLD_SCHEDULE):
            req = cold_request(Weyl(offsets[slot], r), family, kind)
            spec = req.spec()
            run.call(kind, (req, spec), lambda: cold_call(req, spec))

    # the table cache keeps every table built, so memory grows with the number of
    # requests; reading it after a fixed number of rounds keeps a faster build from
    # showing as more memory
    loop(run, seconds, rounds, body, lambda rs, vals: check_cold(run, *rs, vals), rss_round=3)
    return run


def check_cold(run: Run, req: ColdRequest, spec, vals) -> None:
    what = f"tables_cold {req}"
    if isinstance(vals, Exception):
        run.check(False, f"{what}: {vals!r}")
        return
    run.check(all(math.isfinite(v) and v > 0.0 for v in vals), f"{what}: nonpositive value")
    bd = req.bd()
    if req.kind in ("phi", "phiqq"):
        run.check(all(b < a for a, b in zip(vals, vals[1:])), f"{what}: not decreasing")
        if spec.mu == 0.0 and req.kind == "phi":
            run.check(orc.close(vals[0], 1.0, 1e-9), f"{what}: Phi_q(0) != 1 with mu = 0")
        if bd is not None:
            ratios = bd.ratios(req.q, req.qbar, req.xs[-1])
            run.check(all(orc.close(vals[i] / vals[i - 1], ratios[x], REL)
                          for i, x in enumerate(req.xs) if i), f"{what}: ratio != birth-death")
    elif req.kind == "psi":
        run.check(all(b > a for a, b in zip(vals, vals[1:])) and vals[-1] < 1.0,
                  f"{what}: Psi_q not increasing inside (0, 1)")
    elif req.kind == "avalanche":
        want = [bd_lt(bd, req.q, req.qbar, x, req.a) for x in req.xs]
        run.check(all(orc.close(v, w, REL) for v, w in zip(vals, want)), f"{what}: != birth-death")
    else:
        want = [bd.mean_passage(x, req.a) for x in req.xs]
        run.check(all(orc.close(v, w, REL) for v, w in zip(vals, want)), f"{what}: != series")
    if req.family in ("sibuya_mix", "crit_sibuya_imm"):
        fn = "psi_q" if req.kind == "psi" else "phi_q"
        worst = max(sc.harmonic_residual(spec, req.q, 0.0, fn, x) for x in (1, req.xs[-1]))
        run.check(worst < 1e-6, f"{what}: harmonic residual {worst:.2e}")


# ---------------------------------------------------------------------------
# passage_warm: many small requests against prebuilt tables
# ---------------------------------------------------------------------------

CONTROL = {"c1": ctl.ControlProblem(SPECS["m1"], 0, 0.5),
           "c1f2": ctl.ControlProblem(SPECS["m1"], 2, 0.5),
           "c4": ctl.ControlProblem(SPECS["m4"], 0, 1.0)}
CONTROL_BD = {"c1": "m1", "c1f2": "m1"}

#: Table keys passage_warm reads; setup builds every one of them.
WARM_Q = {"m1": (0.5, 1.0, 2.0), "m2": (1.0, 2.0, 4.0), "m3": (0.5, 1.0, 2.0),
          "m4": (1.0, 2.0), "m5": (1.0, 2.0)}
WARM_QQ = {"m1": ((0.5, 0.5), (1.0, 1.0)), "m2": ((4.0, 1.0),), "m3": ((1.5, 0.5), (1.0, 1.0))}
ATMIN_PAIRS = ((0.5, 0.5), (1.0, 1.0))  # (q, alpha): q + alpha is also a warm key

#: The requests of one round that do not depend on the seed: closed forms,
#: then the two deep-level requests that fail today (Phi_q underflows to 0.0
#: and lt_first_passage divides by it).
WARM_FIXED = [
    ("lt", ("m2", 1.0, 1, 0)), ("lt", ("m2", 2.0, 1, 0)),
    ("avalanche", ("m1", 0.0, 1.0, 2, 0)), ("avalanche", ("m3", 1.5, 0.5, 3, 1)),
    ("atmin", ("m3", 1.0, 5)), ("value", ("c1", 1)), ("prob", ("m4", 1, 0)),
    ("lt", ("m2", 1.0, 1100, 1099)), ("lt", ("m2", 4.0, 2000, 1999)),
]
WARM_MIX = {"lt": 20, "prob": 8, "explosion": 7, "avalanche": 9, "atmin": 8, "atmin_G": 8,
            "atmin_res": 8, "condition": 6, "value": 8, "barrier": 7, "bellman": 2}


def warm_setup() -> None:
    for m, qs in WARM_Q.items():
        for q in qs:
            sc.phi_q_fn(SPECS[m], q, 1)
    for m, pairs in WARM_QQ.items():
        for q, qbar in pairs:
            sc.phi_q_qbar_fn(SPECS[m], q, qbar, 1)
    for q in WARM_Q["m4"]:
        sc.psi_q_fn(SPECS["m4"], q, 1)
    sc.phi_0_fn(SPECS["m5"], 1)


def warm_request(rng: random.Random, kind: str) -> tuple:
    x = log_uniform_int(rng, 1, 600)
    if kind == "lt":
        m = rng.choice(tuple(WARM_Q))
        return (m, rng.choice(WARM_Q[m]), x, rng.randint(0, x - 1))
    if kind == "prob":
        return (rng.choice(("m1", "m3", "m4", "m5")), x, rng.randint(0, x - 1))
    if kind == "explosion":
        return ("m4", rng.choice(WARM_Q["m4"]), x, rng.randint(0, x - 1))
    if kind == "avalanche":
        # Phi_{4,1} of m2 turns subnormal near x = 580 and loses its digits there
        m = rng.choice(tuple(WARM_QQ))
        x = min(x, 500) if m == "m2" else x
        return (m, *rng.choice(WARM_QQ[m]), x, rng.randint(0, x - 1))
    if kind == "atmin":
        m = rng.choice(tuple(WARM_Q))
        return (m, rng.choice(WARM_Q[m][1:] if m == "m2" else WARM_Q[m]), x)
    if kind in ("atmin_G", "atmin_res"):
        return (rng.choice(("m1", "m3")), *rng.choice(ATMIN_PAIRS), x, rng.randint(0, x))
    if kind == "condition":
        m = rng.choice(("m1", "m2", "m3", "m5"))
        return (m, rng.choice(WARM_Q[m][1:] if m == "m2" else WARM_Q[m]), rng.randint(2, 8))
    if kind == "value":
        return (rng.choice(tuple(CONTROL)), rng.randint(0, 40) if rng.random() < 0.5 else x)
    if kind == "barrier":
        c = rng.choice(tuple(CONTROL))
        return (c, CONTROL[c].floor + rng.randint(0, 5), x)
    return (rng.choice(tuple(CONTROL)),)


def warm_call(kind: str, r: tuple):
    if kind == "lt":
        return ps.lt_first_passage(SPECS[r[0]], *r[1:])
    if kind == "prob":
        return ps.prob_passage(SPECS[r[0]], *r[1:])
    if kind == "explosion":
        return ps.lt_explosion_before(SPECS[r[0]], *r[1:])
    if kind == "avalanche":
        return ps.lt_joint_avalanche(SPECS[r[0]], *r[1:])
    if kind == "atmin":
        return ps.atmin_law(SPECS[r[0]], *r[1:]).pmf
    if kind == "atmin_G":
        return ps.atmin_lt_G(SPECS[r[0]], *r[1:])
    if kind == "atmin_res":
        return ps.atmin_lt_residual(SPECS[r[0]], *r[1:])
    if kind == "condition":
        return ps.conditioned_generator(SPECS[r[0]], *r[1:])
    if kind == "value":
        return ctl.optimal_value(CONTROL[r[0]], r[1])
    if kind == "barrier":
        return ctl.barrier_value(CONTROL[r[0]], r[1], r[2])
    return ctl.verify_bellman(CONTROL[r[0]], 12, 12)


def warm_round(rng: random.Random) -> list[tuple]:
    seeded = [(kind, warm_request(rng, kind)) for kind, n in WARM_MIX.items() for _ in range(n)]
    rng.shuffle(seeded)
    return seeded + WARM_FIXED


def passage_warm(seed: int, seconds: float | None, rounds: int | None = None,
                 tracer=None) -> Run:
    rng = random.Random(f"passage_warm:{seed}")
    run = Run(tracer=tracer)

    def body(_r):
        for kind, req in warm_round(rng):
            run.call(kind, (kind, req), lambda: warm_call(kind, req))

    loop(run, seconds, rounds, body, lambda kr, value: check_warm(run, *kr, value))
    return run


def _bd_phi(m: str, q: float):
    logs = bd_log_phi(orc.BD[m], q, 0.0)
    return lambda y: math.exp(logs[y])


def check_warm(run: Run, kind: str, r: tuple, v) -> None:
    what = f"passage_warm {kind}{r}"
    if isinstance(v, Exception):
        deep = kind == "lt" and r[0] == "m2" and r[2] >= 1100
        run.check(deep and isinstance(v, ZeroDivisionError), f"{what}: {v!r}")
        return
    ok = True
    if kind in ("lt", "avalanche"):
        m, x, a = r[0], r[-2], r[-1]
        ok = 0.0 < v <= 1.0
        if m in orc.BD:
            q, qbar = (r[1], 0.0) if kind == "lt" else (r[1], r[2])
            ok = ok and orc.close(v, bd_lt(orc.BD[m], q, qbar, x, a), REL)
        if kind == "avalanche" and r == ("m1", 0.0, 1.0, 2, 0):
            ok = ok and orc.close(v, orc.CLOSED["avalanche(m1, 0, 1, 2, 0)"], 1e-12)
        if kind == "avalanche" and r == ("m3", 1.5, 0.5, 3, 1):
            ok = ok and orc.close(v, orc.CLOSED["avalanche(m3, 3/2, 1/2, 3, 1)"], 1e-10)
        if kind == "lt" and r in (("m2", 1.0, 1, 0), ("m2", 2.0, 1, 0)):
            ok = ok and orc.close(v, orc.CLOSED[f"lt(m2, {int(r[1])}, 1, 0)"], 1e-10)
        higher = [q for q in WARM_Q[m] if q > r[1]] if kind == "lt" else []
        if higher:  # transforms decrease in q
            ok = ok and ps.lt_first_passage(SPECS[m], higher[0], x, a) < v
    elif kind == "prob":
        m, x, a = r
        if m in orc.BD:  # the exact sum at q = 0
            ok = orc.close(v, bd_lt(orc.BD[m], 0.0, 0.0, x, a), 1e-9)
        elif m == "m4":
            ok = orc.close(v, orc.M4_VARPHI ** (x - a), 1e-9)
        else:
            ok = 0.0 < v < 1.0
    elif kind == "explosion":
        lt = ps.lt_first_passage(SPECS[r[0]], *r[1:])
        ok = 0.0 < v and v + lt < 1.0
    elif kind == "atmin":
        m, q, x = r
        ok = abs(sum(v) - 1.0) <= 1e-9 and min(v) >= -1e-12 and len(v) == x + 1
        if m in orc.BD:
            phi = _bd_phi(m, q)
            want = [phi(x) / phi(k) - (phi(x) / phi(k - 1) if k else 0.0) for k in range(x + 1)]
            ok = ok and all(abs(a - b) <= 1e-9 for a, b in zip(v, want))
        if m == "m3" and q == 1.0:
            ok = ok and all(abs(a - b) <= 1e-9 for a, b in zip(v, orc.atmin_uniform_m3(x)))
    elif kind in ("atmin_G", "atmin_res"):
        m, q, alpha, x, k = r
        f, g = _bd_phi(m, q), _bd_phi(m, q + alpha)
        if kind == "atmin_G":
            want = 1.0 if k == x else g(x) / f(x) * f(k) / g(k)
        else:
            want = q / (q + alpha) * (1.0 if k == 0 else
                                      (1.0 - g(k) / g(k - 1)) / (1.0 - f(k) / f(k - 1)))
        ok = orc.close(v, want, REL)
    elif kind == "condition":
        ok = _check_generator(r, v)
    elif kind in ("value", "barrier"):
        c = CONTROL[r[0]]
        a, x = (c.floor, r[1]) if kind == "value" else r[1:]
        ok = math.isfinite(v) and v > 0.0 and (x > a or v >= a + 1 - x)
        if r[0] in CONTROL_BD:
            phi = _bd_phi(CONTROL_BD[r[0]], c.q)
            gap = phi(a) - phi(a + 1)
            want = phi(x) / gap if x > a else a + 1 - x + phi(a + 1) / gap
            ok = ok and orc.close(v, want, REL)
        if r == ("c1", 1):
            ok = ok and orc.close(v, orc.CLOSED["V(m1, 1/2, floor 0, 1)"], 1e-10)
    else:
        ok = v.ok
    run.check(ok, f"{what}: {v!r:.200}")


def _check_generator(r: tuple, gen) -> bool:
    m, q, x_max = r
    spec = SPECS[m]
    ok = gen.x_max == x_max
    for x in range(1, x_max + 1):
        rate = q + spec.mu + spec.lam * x
        row = gen.jumps[x - 1]
        total = sum(row.values()) + (gen.kill_rate / rate if x == 1 else 0.0)
        ok = ok and orc.close(gen.leave_rates[x - 1], rate, 1e-14) and abs(total - 1.0) <= 1e-9
        if m in orc.BD:
            bd, phi = orc.BD[m], _bd_phi(m, q)
            down = bd.down(x) * phi(x - 1) / (rate * phi(x))
            up = bd.up(x) * phi(x + 1) / (rate * phi(x))
            got_down = gen.kill_rate / rate if x == 1 else row.get(x - 1, 0.0)
            ok = ok and orc.close(got_down, down, REL) and orc.close(row.get(x + 1, 0.0), up, REL)
    return ok


# ---------------------------------------------------------------------------
# mc_oracle: fixed-seed estimator calls, one per sampler path
# ---------------------------------------------------------------------------

#: Simulation seeds whose event counts and estimate bits the fingerprint holds;
#: round r of a run with workload seed s uses SIM_SEEDS[(s + r) % 8].
SIM_SEEDS = (7, 11, 13, 17, 19, 23, 29, 31)


def _cfg(seed, n, **kw):
    return sim.SimConfig(seed=seed, n_paths=n, **kw)


_THR = {"explosion_threshold": 100, "max_jumps": 200_000}
_EXPL = {"explosion_threshold": 3_000, "max_jumps": 1_000_000}
_IMM = {"explosion_threshold": 200, "max_jumps": 100_000, "horizon": 5.0}

#: (job, label, call(seed)).  Path counts make every call take roughly the same time.
MC_CALLS = [
    ("tabular_threshold", "lt(m2,1,1,0)",
     lambda s: sim.estimate_lt_passage(SPECS["m2"], 1.0, 1, 0, _cfg(s, 2500, **_THR))),
    ("sibuya_offspring", "explosion(m4,0,1,0)",
     lambda s: sim.estimate_explosion(SPECS["m4"], 0.0, 1, 0, _cfg(s, 1000, **_EXPL))),
    ("sibuya_offspring", "explosion_time(m4,1)",
     lambda s: sim.estimate_explosion_time(SPECS["m4"], 1, _cfg(s, 1000, **_EXPL))),
    ("sibuya_immigration", "lt(m5,0,1,0)",
     lambda s: sim.estimate_lt_passage(SPECS["m5"], 0.0, 1, 0, _cfg(s, 300, **_IMM))),
    ("tabular_short", "avalanche(m1,0,1,2,0)",
     lambda s: sim.estimate_joint_avalanche(SPECS["m1"], 0.0, 1.0, 2, 0, _cfg(s, 120_000))),
    ("tabular_short", "avalanche(m3,1.5,0.5,3,1)",
     lambda s: sim.estimate_joint_avalanche(SPECS["m3"], 1.5, 0.5, 3, 1, _cfg(s, 80_000))),
    ("tabular_short", "mean(m3,1,0)",
     lambda s: sim.estimate_mean_passage(SPECS["m3"], 1, 0, _cfg(s, 80_000))),
    ("clock", "atmin_clock(m3,1,3)",
     lambda s: sim.atmin_clock_sample(SPECS["m3"], 1.0, 3, _cfg(s, 80_000))),
    ("controlled", "barrier0(m1,0.5,1)",
     lambda s: sim.simulate_controlled(CONTROL["c1"], ("barrier", 0), 1, _cfg(s, 16_000))),
]


def mc_bits(label: str, result) -> list:
    """The exact output of one estimator call: float bits, or counts for the clock."""
    if label.startswith("atmin_clock"):
        done = (result.status == sim.CLOCK_RING) | (result.status == sim.HIT)
        counts = [0] * 4
        for k in result.min_level[done].tolist():
            counts[k] += 1
        return [int(done.sum())] + counts
    return [result.mean.hex(), result.se.hex()]


def load_fingerprint() -> dict:
    with open(FINGERPRINT) as fh:
        return json.load(fh)


def mc_oracle(seed: int, seconds: float | None, rounds: int | None = None,
              tracer=None) -> tuple[Run, dict, float]:
    """Returns the run; per job, [events simulated, seconds spent]; and the
    median over rounds of events per second."""
    fp = load_fingerprint()["mc_oracle"]
    run = Run(tracer=tracer)
    refs = {}
    per_job = {}
    per_round = []

    def body(r):
        s = SIM_SEEDS[(seed + r) % len(SIM_SEEDS)]
        per_round.append([0, 0.0])
        for job, label, fn in MC_CALLS:
            run.call(job, (job, label, s, len(run.lat_s)), lambda: fn(s))

    def check(request, value):
        job, label, s, i = request
        if not refs:
            refs.update(mc_references())
        stored = fp[f"{label}@{s}"]
        tally = per_job.setdefault(job, [0, 0.0])
        tally[1] += run.lat_s[i]
        per_round[-1][1] += run.lat_s[i]
        if not isinstance(value, Exception) and mc_bits(label, value) != stored["bits"]:
            value = RuntimeError(f"estimate bits differ from the fingerprint: {mc_bits(label, value)}")
            run.failed += 1
        if isinstance(value, Exception):
            run.check(False, f"mc_oracle {label}@{s}: {value!r}")
            return
        tally[0] += stored["events"]
        per_round[-1][0] += stored["events"]
        run.check(check_mc(label, value, refs), f"mc_oracle {label}@{s}: off its reference")

    loop(run, seconds, rounds, body, check)
    return run, per_job, statistics.median(e / t for e, t in per_round)


def mc_references() -> dict:
    """Analytic values behind each MC job, checked against the closed forms first."""
    m1, m2, m3, m4, m5 = (SPECS[k] for k in ("m1", "m2", "m3", "m4", "m5"))
    refs = {
        "lt(m2,1,1,0)": ps.lt_first_passage(m2, 1.0, 1, 0),
        "explosion(m4,0,1,0)": ps.prob_explosion_before(m4, 1, 0),
        "explosion_time(m4,1)": ps.mean_explosion(m4, 1),
        "lt(m5,0,1,0)": ps.prob_passage(m5, 1, 0),
        "avalanche(m1,0,1,2,0)": ps.lt_joint_avalanche(m1, 0.0, 1.0, 2, 0),
        "avalanche(m3,1.5,0.5,3,1)": ps.lt_joint_avalanche(m3, 1.5, 0.5, 3, 1),
        "mean(m3,1,0)": orc.BD["m3"].mean_passage(1, 0),
        "barrier0(m1,0.5,1)": ctl.optimal_value(CONTROL["c1"], 1),
    }
    closed = {"lt(m2,1,1,0)": "lt(m2, 1, 1, 0)",
              "explosion(m4,0,1,0)": "prob_explosion_before(m4, 1, 0)",
              "explosion_time(m4,1)": "mean_explosion(m4, 1)",
              "avalanche(m1,0,1,2,0)": "avalanche(m1, 0, 1, 2, 0)",
              "avalanche(m3,1.5,0.5,3,1)": "avalanche(m3, 3/2, 1/2, 3, 1)",
              "barrier0(m1,0.5,1)": "V(m1, 1/2, floor 0, 1)"}
    for label, name in closed.items():
        if not orc.close(refs[label], orc.CLOSED[name], 1e-9):
            raise AssertionError(f"analytic {label} = {refs[label]!r} != closed form {name}")
    return refs


def check_mc(label: str, value, refs: dict) -> bool:
    if label.startswith("atmin_clock"):
        n, *counts = mc_bits(label, value)
        p = 0.25  # m3 at q = 1 from x = 3: uniform on 0..3
        sigma = math.sqrt(p * (1.0 - p) / n)
        return n == len(value.status) and all(abs(c / n - p) <= 4.0 * sigma for c in counts)
    bias = abs(value.diagnostics.get("bias_bound", 0.0)) + abs(value.diagnostics.get("proxy_delta", 0.0))
    dev = value.mean - refs[label]
    return -4.0 * value.se - bias <= dev <= 4.0 * value.se


def crosscheck(seconds: float = 3.0) -> tuple[float, list[str]]:
    """Fixed-seed MC cross-check of closed forms the analytic workloads also serve.

    Workloads that do not simulate report its rate as events_per_s; it runs
    in a process of its own, so their memory and timing stay apart from it.
    After one untimed warm-up call per estimator, the ``tabular_short`` calls
    cycle over the simulation seeds for about ``seconds``.  Returns the sum
    over estimators of median events over median time, and any failed checks.
    """
    fp = load_fingerprint()["mc_oracle"]
    refs = {"avalanche(m1,0,1,2,0)": orc.CLOSED["avalanche(m1, 0, 1, 2, 0)"],
            "avalanche(m3,1.5,0.5,3,1)": orc.CLOSED["avalanche(m3, 3/2, 1/2, 3, 1)"],
            "mean(m3,1,0)": orc.BD["m3"].mean_passage(1, 0)}
    calls = [(label, fn) for job, label, fn in MC_CALLS if job == "tabular_short"]
    for _, fn in calls:
        fn(SIM_SEEDS[0])
    times = {label: [] for label, _ in calls}
    events = {label: [] for label, _ in calls}
    errors = []
    t_end = time.perf_counter() + seconds
    for s in itertools.cycle(SIM_SEEDS):
        for label, fn in calls:
            t0 = time.perf_counter()
            est = fn(s)
            times[label].append(time.perf_counter() - t0)
            stored = fp[f"{label}@{s}"]
            events[label].append(stored["events"])
            if mc_bits(label, est) != stored["bits"] or not check_mc(label, est, refs):
                errors.append(f"crosscheck {label}@{s}: {est}")
        if time.perf_counter() > t_end:
            break
    rate = sum(statistics.median(e) for e in events.values()) / \
        sum(statistics.median(t) for t in times.values())
    return rate, errors
