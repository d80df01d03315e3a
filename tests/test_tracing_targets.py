"""Every attribute the benchmark tracer wraps exists in the package.

``perfbench/tracing.py`` replaces the ``TARGETS`` attributes with timing
wrappers; a target that is renamed away is skipped there, and the per-layer
metrics built on it turn into nulls.  This resolves each one without
installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
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
