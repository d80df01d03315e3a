"""Regenerate fingerprint.json: events simulated and exact estimate bits.

    python3 perfbench/fingerprint.py

For every mc_oracle call at every seed in ``SIM_SEEDS``, and for the CLI
simulation commands of cli_cold, this records how many Gillespie events the
call simulated and the exact output bits.  It is the only code that counts
events, by wrapping the private counter-based uniform ``sim._u01``: one slot-2
draw is made per executed jump.  Timed runs call the public estimators only
and read the counts from here; a call whose bits differ counts as failed.
"""

from __future__ import annotations

import json
import math

import cli_cold
import workloads as wl
from bgwscale import sim


def main() -> None:
    events = [0]
    u01 = sim._u01

    def counting(seed, path, step, slot):
        if slot == 2:
            events[0] += path.size
        return u01(seed, path, step, slot)

    def record(fn) -> tuple[int, object]:
        events[0] = 0
        out = fn()
        return events[0], out

    sim._u01 = counting
    try:
        mc = {}
        for s in wl.SIM_SEEDS:
            for _, label, fn in wl.MC_CALLS:
                n, out = record(lambda: fn(s))
                mc[f"{label}@{s}"] = {"events": n, "bits": wl.mc_bits(label, out)}
        m1, m2 = wl.SPECS["m1"], wl.SPECS["m2"]
        cli_calls = {
            "simulate lt m2": lambda: sim.estimate_lt_passage(m2, 1.0, 1, 0, sim.SimConfig(
                seed=7, n_paths=2000, max_jumps=1_000_000, explosion_threshold=500,
                horizon=math.inf)),
            "control simulate m1": lambda: sim.simulate_controlled(
                wl.CONTROL["c1"], ("barrier", 0), 1, sim.SimConfig(
                    seed=7, n_paths=3000, max_jumps=1_000_000, explosion_threshold=1_000_000)),
            "simulate avalanche m1": lambda: sim.estimate_joint_avalanche(
                m1, 0.0, 1.0, 2, 0, sim.SimConfig(seed=7, n_paths=5000, max_jumps=1_000_000,
                                                  explosion_threshold=1_000_000, horizon=math.inf)),
        }
        cli = {}
        for label, fn in cli_calls.items():
            n, out = record(fn)
            cli[label] = {"events": n, "mean": out.mean.hex()}
    finally:
        sim._u01 = u01

    # the CLI must print the same estimate as the library call recorded above
    cli_cold.write_models()
    for label, tail in cli_cold.SIM_COMMANDS.items():
        rc, out, err = cli_cold.run_cli(tail)
        got = json.loads(out.strip().splitlines()[-1])["mean"].hex()
        if rc != 0 or got != cli[label]["mean"]:
            raise SystemExit(f"{label}: CLI printed {got}, library gave {cli[label]['mean']}")

    wl.FINGERPRINT.write_text(json.dumps({"mc_oracle": mc, "cli": cli}, indent=1) + "\n")
    print(f"wrote {wl.FINGERPRINT.name}: {len(mc)} mc_oracle calls, {len(cli)} CLI commands")


if __name__ == "__main__":
    main()
