"""cli_cold: one fresh ``python -m bgwscale.cli`` process at a time.

The command list is fixed; the seed draws levels and rates inside each
command.  Every run walks the whole list, once or more, so every run covers
the same commands.  Answers are checked against ``oracles`` only; this
module does not import bgwscale, so set-up is the interpreter and the model
files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import oracles as orc
from stats import summarize

ROOT = Path(__file__).resolve().parent.parent
MODEL_DIR = Path(__file__).resolve().parent / "out" / "models"
REL = 1e-8

#: CLI runs whose random stream the fingerprint records (label -> argv tail).
SIM_COMMANDS = {
    "simulate lt m2": ["simulate", "--model", "m2", "--kind", "lt", "--q", "1", "--x", "1",
                       "--a", "0", "--paths", "2000", "--seed", "7", "--threshold", "500"],
    "control simulate m1": ["control", "simulate", "--model", "m1", "--q", "0.5", "--x", "1",
                            "--paths", "3000", "--seed", "7"],
    "simulate avalanche m1": ["simulate", "--model", "m1", "--kind", "avalanche", "--qbar", "1",
                              "--x", "2", "--paths", "5000", "--seed", "7"],
}

#: Commands whose dispatch cost the traced run isolates: process wall time
#: minus import time minus the same library calls made in-process.
DISPATCH = [
    ("scale phi m1", ["scale", "--model", "m1", "--q", "0.5", "--x", "1"]),
    ("lt m2", ["passage", "lt", "--model", "m2", "--q", "2", "--x", "1", "--a", "0"]),
    ("classify m3", ["model", "classify", "--model", "m3"]),
    ("atmin m3", ["passage", "atmin", "--model", "m3", "--q", "1", "--x", "5"]),
]


def cli_fingerprint() -> dict:
    """Events and estimate bits of the SIM_COMMANDS, from fingerprint.json."""
    return json.loads((Path(__file__).resolve().parent / "fingerprint.json").read_text())["cli"]


def write_models() -> None:
    MODEL_DIR.mkdir(parents=True, exist_ok=True)
    for name, doc in orc.FIXTURES.items():
        (MODEL_DIR / f"{name}.json").write_text(json.dumps(doc))


def _argv(tail: list[str]) -> list[str]:
    out = list(tail)
    i = out.index("--model") + 1
    out[i] = str(MODEL_DIR / f"{out[i]}.json")
    return [sys.executable, "-m", "bgwscale.cli", *out]


def _json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _csv(out: str) -> list[tuple[int, float]]:
    rows = list(csv.reader(io.StringIO(out)))[1:]
    return [(int(x), float(v)) for x, v in rows]


def _levels(d: dict) -> list[tuple[int, float]]:
    return sorted((int(k), v) for k, v in d.items())


def _bd_ratios_ok(bd, q, qbar, rows) -> bool:
    r = bd.ratios(q, qbar, rows[-1][0])
    return all(orc.close(v / pv, r[x], REL) for (_, pv), (x, v) in zip(rows, rows[1:]))


def _bd_lt_ok(bd, q, qbar, a, rows) -> bool:
    return all(orc.close(v, bd.lt(q, qbar, x, a), REL) for x, v in rows)


def commands(seed: int) -> list[tuple[str, list[str], object]]:
    """(label, argv tail, check(rc, stdout, stderr) -> bool) in run order."""
    rng = random.Random(f"cli_cold:{seed}")
    m1, m3 = orc.BD["m1"], orc.BD["m3"]
    fp = cli_fingerprint()

    def value(want, rel=1e-10):
        return lambda rc, out, err: rc == 0 and orc.close(_json(out)["value"], want, rel)

    def sim_check(label, want):
        def check(rc, out, err):
            got = _json(out)
            return (rc == 0 and abs(got["mean"] - want) <= 4.0 * got["se"]
                    and fp[label]["mean"] == got["mean"].hex())
        return check

    m_cls = rng.choice(("m1", "m2", "m3", "m4", "m5"))
    varphi = {"m1": 1.0, "m2": 0.5, "m3": 1.0, "m4": orc.M4_VARPHI, "m5": 1.0}[m_cls]
    q3 = rng.choice((0.5, 1.0, 2.0, 3.0))
    n3 = rng.randint(8, 30)
    q_lt = rng.choice((0.5, 1.0, 2.0))
    n_lt = rng.randint(5, 25)
    x_prob = rng.randint(1, 40)
    q_qq, qb_qq, n_qq = rng.choice((0.5, 1.0, 2.0)), rng.choice((0.5, 1.0)), rng.randint(8, 30)
    x_atmin = rng.randint(2, 12)
    q_gap, n_gap = rng.choice((0.5, 1.0, 2.0)), rng.randint(4, 20)
    k_cond = rng.randint(2, 6)
    q_psi = rng.choice((1.0, 2.0))
    q_ex, x_ex = rng.choice((1.0, 2.0)), rng.randint(2, 30)
    a_ex = rng.randint(0, x_ex - 1)
    vq = 4.0 - math.sqrt(13.0)  # varphi_1 of m1
    pt = 0.75 + 0.25 * vq * vq

    def classify(rc, out, err):
        got = _json(out)
        return rc == 0 and orc.close(got["varphi"], varphi, 1e-12) and \
            got["explosive"] == (m_cls == "m4")

    def refusal(rc, out, err):
        return rc == 2 and out == "" and "phi_q <= varphi" in err

    def atmin(rc, out, err):
        got = _json(out)
        pmf = [v for _, v in _levels(got["pmf"])]
        f = lambda q, y: m3.lt(q, 0.0, y, 0)  # noqa: E731 - Phi_q(y)/Phi_q(0)
        ok = rc == 0 and all(abs(p - 1.0 / (x_atmin + 1)) <= 1e-9 for p in pmf)
        for k, v in _levels(got["lt_G"]):
            want = 1.0 if k == x_atmin else \
                f(1.5, x_atmin) / f(1.0, x_atmin) * f(1.0, k) / f(1.5, k)
            ok = ok and orc.close(v, want, REL)
        for k, v in _levels(got["lt_residual"]):
            head = 1.0 / 1.5
            want = head if k == 0 else head * (1.0 - m3.lt(1.5, 0.0, k, k - 1)) / \
                (1.0 - m3.lt(1.0, 0.0, k, k - 1))
            ok = ok and orc.close(v, want, REL)
        return ok

    def condition(rc, out, err):
        got = _json(out)
        ok = rc == 0
        for x in range(1, k_cond + 1):
            rate = 1.0 + 1.0 + 2.0 * x
            row = {int(t): p for t, p in got["jumps"][str(x)].items()}
            down = got["kill_rate"] / rate if x == 1 else row.get(x - 1, 0.0)
            ok = ok and orc.close(down, m3.down(x) / rate / m3.lt(1.0, 0.0, x, x - 1), REL)
            ok = ok and orc.close(row[x + 1], m3.up(x) * m3.lt(1.0, 0.0, x + 1, x) / rate, REL)
        return ok

    def tilt(rc, out, err):
        got = _json(out)
        pmf = got["offspring"]["pmf"]
        return rc == 0 and got["lambda"] == 2.0 and orc.close(pmf["0"], 0.75 / pt, 1e-12) \
            and orc.close(pmf["2"], 0.25 * vq * vq / pt, 1e-9)

    def gap(rc, out, err):
        rows = _levels(_json(out)["value"])
        phi = lambda y: m1.lt(q_gap, 0.0, y, 0)  # noqa: E731 - Phi_q(0) = 1 with mu = 0
        return rc == 0 and all(orc.close(v, phi(a) - phi(a + 1), REL) for a, v in rows)

    def suite_ok(rc, out, err):
        return rc == 0 and _json(out)["failed"] == 0

    def phi0_m5(rc, out, err):
        vals = [v for _, v in _csv(out)]
        return rc == 0 and all(0.0 < b < a for a, b in zip(vals, vals[1:]))

    def explosion_q(rc, out, err):
        v = _json(out)["value"]
        return rc == 0 and 0.0 < v < 1.0

    cmds = [
        ("classify", ["model", "classify", "--model", m_cls], classify),
        ("phi m1 closed", ["scale", "--model", "m1", "--q", "0.5", "--x", "1"],
         lambda rc, out, err: rc == 0 and orc.close(_json(out)["phi_q"],
                                                     orc.CLOSED["phi_q(m1, 1/2, 1)"], 1e-10)),
        ("lt m2 closed", ["passage", "lt", "--model", "m2", "--q", "2", "--x", "1", "--a", "0"],
         value(orc.CLOSED["lt(m2, 2, 1, 0)"])),
        ("phi m3 csv", ["scale", "--model", "m3", "--q", str(q3), "--x", f"0..{n3}", "--out", "csv"],
         lambda rc, out, err: rc == 0 and _bd_ratios_ok(m3, q3, 0.0, _csv(out))),
        ("explosion m4", ["passage", "explosion", "--model", "m4", "--x", "1", "--a", "0"],
         value(orc.CLOSED["prob_explosion_before(m4, 1, 0)"])),
        ("psi m4", ["scale", "--model", "m4", "--fn", "psi", "--q", str(q_psi), "--x", "1"],
         lambda rc, out, err: rc == 0 and orc.close(
             _json(out)["psi_q"], orc.CLOSED[f"psi_q(m4, {int(q_psi)}, 1)"], 1e-9)),
        ("lt m3 range", ["passage", "lt", "--model", "m3", "--q", str(q_lt), "--x", f"1..{n_lt}",
                         "--a", "0"],
         lambda rc, out, err: rc == 0 and _bd_lt_ok(m3, q_lt, 0.0, 0, _levels(_json(out)["value"]))),
        ("refusal", ["passage", "lt", "--model", "m2", "--q", "0.5", "--x", "1", "--a", "0"], refusal),
        ("prob m4", ["passage", "prob", "--model", "m4", "--x", str(x_prob), "--a", "0"],
         value(orc.M4_VARPHI ** x_prob, 1e-9)),
        ("simulate lt m2", SIM_COMMANDS["simulate lt m2"],
         sim_check("simulate lt m2", orc.CLOSED["lt(m2, 1, 1, 0)"])),
        ("phiqq m1 csv", ["scale", "--model", "m1", "--fn", "phiqq", "--q", str(q_qq), "--qbar",
                          str(qb_qq), "--x", f"0..{n_qq}", "--out", "csv"],
         lambda rc, out, err: rc == 0 and _bd_ratios_ok(m1, q_qq, qb_qq, _csv(out))),
        ("avalanche m1", ["passage", "avalanche", "--model", "m1", "--q", "0", "--qbar", "1",
                          "--x", "2", "--a", "0"], value(orc.CLOSED["avalanche(m1, 0, 1, 2, 0)"])),
        ("atmin m3", ["passage", "atmin", "--model", "m3", "--q", "1", "--x", str(x_atmin),
                      "--alpha", "0.5"], atmin),
        ("mean explosion m4", ["passage", "explosion", "--model", "m4", "--mean", "--x", "1",
                               "--a", "0"], value(orc.CLOSED["mean_explosion(m4, 1)"], 1e-9)),
        ("value m1", ["control", "value", "--model", "m1", "--q", "0.5", "--x", "1"],
         value(orc.CLOSED["V(m1, 1/2, floor 0, 1)"])),
        ("gap m1", ["control", "gap", "--model", "m1", "--q", str(q_gap), "--a", f"0..{n_gap}"], gap),
        ("condition m3", ["passage", "condition", "--model", "m3", "--q", "1", "--x-max",
                          str(k_cond)], condition),
        ("tilt m1", ["passage", "tilt", "--model", "m1", "--qbar", "1"], tilt),
        ("bellman m1", ["control", "bellman", "--model", "m1", "--q", "0.5"],
         lambda rc, out, err: rc == 0 and _json(out)["ok"] is True),
        ("avalanche m3", ["passage", "avalanche", "--model", "m3", "--q", "1.5", "--qbar", "0.5",
                          "--x", "3", "--a", "1"], value(orc.CLOSED["avalanche(m3, 3/2, 1/2, 3, 1)"])),
        ("verify analytic m1", ["verify", "--model", "m1", "--suite", "analytic"], suite_ok),
        ("phi0 m5 csv", ["scale", "--model", "m5", "--fn", "phi0", "--x", "0..10", "--out", "csv"],
         phi0_m5),
        ("control simulate m1", SIM_COMMANDS["control simulate m1"],
         sim_check("control simulate m1", orc.CLOSED["V(m1, 1/2, floor 0, 1)"])),
        ("verify analytic m4", ["verify", "--model", "m4", "--suite", "analytic"], suite_ok),
        ("explosion lt m4", ["passage", "explosion", "--model", "m4", "--q", str(q_ex), "--x",
                             str(x_ex), "--a", str(a_ex)], explosion_q),
        ("mean m1", ["passage", "mean", "--model", "m1", "--x", "1", "--a", "0"],
         value(orc.CLOSED["mean_first_passage(m1, 1, 0)"], 1e-9)),
        ("verify control m1", ["verify", "--model", "m1", "--suite", "control"], suite_ok),
        ("simulate avalanche m1", SIM_COMMANDS["simulate avalanche m1"],
         sim_check("simulate avalanche m1", orc.CLOSED["avalanche(m1, 0, 1, 2, 0)"])),
    ]
    by_label = {c[0]: c for c in cmds}
    # spread the slow commands (simulation, verify) over the list
    for i, label in ((2, "simulate lt m2"), (6, "control simulate m1"), (10, "simulate avalanche m1"),
                     (12, "verify analytic m4"), (17, "verify control m1")):
        cmds.remove(by_label[label])
        cmds.insert(i, by_label[label])
    # repeats of earlier commands: their stdout must match byte for byte
    cmds.insert(9, by_label["phi m1 closed"])
    cmds.insert(16, by_label["lt m3 range"])
    return cmds


def run_cli(tail: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    proc = subprocess.run(_argv(tail), capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def cli_cold(seed: int, seconds: float) -> dict:
    import resource

    cmds = commands(seed)
    fp_events = {label: rec["events"] for label, rec in cli_fingerprint().items()}
    lat, results = [], []
    t0 = time.perf_counter()
    while True:  # whole rounds of the list, as many as fit in ``seconds`` (at least one)
        r0 = time.perf_counter()
        for label, tail, check in cmds:
            s = time.perf_counter()
            rc, out, err = run_cli(tail)
            lat.append(time.perf_counter() - s)
            results.append((label, tail, check, rc, out, err))
        now = time.perf_counter()
        if now - t0 + (now - r0) > seconds:
            break
    wall = time.perf_counter() - t0

    errors, first_out = [], {}
    sim_events, sim_s = 0, 0.0
    for (label, tail, check, rc, out, err), dt in zip(results, lat):
        try:
            ok = bool(check(rc, out, err))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            ok = False
            err += repr(exc)
        if not ok:
            errors.append(f"cli_cold {label} {tail}: rc={rc} out={out[:200]!r} err={err[-300:]!r}")
        if first_out.setdefault(label, out) != out:
            errors.append(f"cli_cold {label}: stdout differs between repeats")
        if label in fp_events:
            sim_events += fp_events[label]
            sim_s += dt
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = summarize(lat, len(lat), wall, rss,
                        {"events_per_s": (sim_events / sim_s, "1/s")})
    return {"correct": not errors, "attempted": len(lat), "failed": 0, "metrics": metrics,
            "errors": errors}
