"""The simulator's random stream is the one the benchmark fingerprint holds.

``perfbench/fingerprint.json`` records the exact estimate bits of every
``mc_oracle`` call, and the benchmark counts a call whose bits differ as
failed.  Running the nine calls at seed 7 here makes a sampler or Gillespie
change that moves one random bit fail the test suite too.  ``workloads.py``
is loaded from its file and not modified.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_SEED = 7

sys.path.insert(0, str(_PERFBENCH))  # workloads imports its siblings oracles and stats
try:
    _SPEC = importlib.util.spec_from_file_location("perfbench_workloads",
                                                   _PERFBENCH / "workloads.py")
    workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
    _SPEC.loader.exec_module(workloads)
finally:
    sys.path.remove(str(_PERFBENCH))


@pytest.mark.parametrize("label, call", [(label, call) for _, label, call in workloads.MC_CALLS],
                         ids=[label for _, label, _ in workloads.MC_CALLS])
def test_mc_oracle_bits(label, call):
    stored = workloads.load_fingerprint()["mc_oracle"][f"{label}@{_SEED}"]
    assert workloads.mc_bits(label, call(_SEED)) == stored["bits"]
