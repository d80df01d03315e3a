"""Every attribute the benchmark tracer wraps exists in the package, and a
traced run reports every per-layer metric.

``perfbench/tracing.py`` replaces the ``TARGETS`` attributes with timing
wrappers; a target that is renamed away is skipped there, and the per-layer
metrics built on it turn into nulls.  This resolves each one without
installing the tracer.  A metric also turns into a null when a slice stops
calling the target it is divided by, so one traced slice run checks them all;
it writes only its trace, under the git-ignored ``perfbench/out/``.
"""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", _ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module, path, layer", tracing.TARGETS,
                         ids=[f"{m}.{p}" for m, p, _ in tracing.TARGETS])
def test_target_resolves(module, path, layer):
    owner = importlib.import_module(f"bgwscale.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
    assert layer in tracing.LAYERS


def test_traced_slices_report_every_metric():
    run = subprocess.run([sys.executable, "perfbench/worker.py", "slices", "--workload",
                          "tables_cold", "--seed", "1", "--traced", "1"],
                         cwd=_ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout.strip().splitlines()[-1])
    assert doc["missing"] == []
    bad = {name: value for name, (value, _unit) in doc["metrics"].items()
           if not (isinstance(value, (int, float)) and math.isfinite(value))}
    assert not bad
