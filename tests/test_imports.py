"""Import cost and the Sibuya tail sampler that defers scipy, and the
modules' public names.

scipy is only needed to invert Sibuya jump sizes beyond K = 64, so neither
``import bgwscale`` nor ``import bgwscale.cli`` may load it.  The check runs
in a fresh interpreter: other test modules import scipy themselves.
"""

import hashlib
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import bgwscale
from bgwscale import sim

_SRC = str(Path(bgwscale.__file__).resolve().parent.parent)
_MODULES = ["bgwscale"] + [f"bgwscale.{m.name}" for m in pkgutil.iter_modules(bgwscale.__path__)]


@pytest.mark.parametrize("module", _MODULES)
def test_all_names_resolve(module):
    """Every name a module lists in ``__all__`` exists, so ``import *`` works."""
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


#: The package's public names; an addition or removal here is an API change.
PUBLIC_API = [
    "AtMinLaw", "BellmanReport", "ConditionedGenerator", "ControlProblem", "Estimate",
    "ImmigrationLaw", "ModelSpec", "OffspringLaw", "QuadConfig", "RegimeReport", "SimConfig",
    "atmin_clock_sample", "atmin_law", "atmin_lt_G", "atmin_lt_residual", "barrier_gap",
    "barrier_value", "certain_extinction", "classify", "conditioned_generator", "dump_model",
    "estimate_explosion", "estimate_explosion_time", "estimate_joint_avalanche",
    "estimate_lt_passage", "estimate_mean_passage", "harmonic_residual", "is_explosive",
    "load_model", "log_phi_fn", "log_phi_q_qbar_fn", "lt_explosion_before", "lt_first_passage",
    "lt_joint_avalanche", "make_spec", "mean_explosion", "mean_first_passage", "optimal_value",
    "phi_0_fn", "phi_fn", "phi_q_fn", "phi_q_qbar_fn", "prob_explosion_before", "prob_passage",
    "psi_q_fn", "root_phi_q", "root_varphi", "root_varphi_qbar", "simulate_controlled",
    "spec_from_dict", "spec_to_dict", "tilted_model", "validate", "verify_bellman",
]


def test_public_api_snapshot():
    """Submodules are left out: which of them are attributes depends on what was imported."""
    names = sorted(n for n in dir(bgwscale)
                   if not n.startswith("_") and not isinstance(getattr(bgwscale, n), ModuleType))
    assert names == PUBLIC_API


@pytest.mark.parametrize("module", ["bgwscale", "bgwscale.cli"])
def test_import_loads_no_scipy(module):
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


# Tail uniforms u = 1 - m 2^-j (exact in binary), all beyond the K = 64 table,
# and the K the inversion gave for them before scipy's import was deferred.
_TAIL_J = {0.3: range(6, 14), 0.5: range(7, 20, 2), 0.8: range(10, 35, 3)}
_TAIL_K = {
    0.3: [439497, 11286, 2056, 670, 4429852, 113759, 20725, 6752, 44650102, 1146617,
          208892, 68050, 450044967, 11557175, 2105503, 685903, 4535988719, 116489056,
          21222143, 6913464, 45713578619, 1174137959, 213905844, 69683346, 459039577683,
          11836243036, 2156080309, 702365240, 1099511627776, 118976330998, 21736660118,
          7079229088],
    0.5: [5215, 580, 209, 107, 83443, 9272, 3338, 1703, 1335089, 148343, 53404, 27247,
          21361414, 2373491, 854457, 435947, 341782628, 37975844, 13671305, 6975156,
          5468563624, 607614194, 218740913, 111602480, 87463811706, 9721771295,
          3499794495, 1785656652],
    0.8: [862, 219, 116, 76, 11598, 2938, 1552, 1019, 156040, 39522, 20870, 13705,
          2099408, 531735, 280792, 184385, 28246149, 7154144, 3777868, 2480772,
          380032963, 96254296, 50828736, 33377143, 5113072268, 1295032464, 683868471,
          449067834, 68782323615, 17425087517, 9201543473, 6041800744, 930001078744,
          234420037231, 123675261298, 81297516567],
}
# The same for every tail uniform among the first 200 000 slot-2 draws of seed 7:
# (number of tail draws, sha256 of the K as little-endian int64).
_STREAM_K = {
    0.3: (44285, "289815c614e3dac062e5bd88daf3042d0dc53e803e40f715367d687e2988138d"),
    0.5: (14140, "4d668abebf9bed0abc58300572364fbcc79fca3959246b3f95b689f34f3a6d55"),
    0.8: (1579, "7eddeb111fe02664d037f14c3a1de81703271ff5ca1b6c612afc35ac59a45e7a"),
}


@pytest.mark.parametrize("alpha", sorted(_TAIL_K))
def test_sibuya_tail_inversion_unchanged(alpha):
    table = sim._sibuya_tables(alpha)
    u = np.array([1.0 - m * 2.0 ** -j for j in _TAIL_J[alpha] for m in (1, 3, 5, 7)])
    assert np.all(u > table[-1])
    assert sim._invert_sibuya(u, alpha, table).tolist() == _TAIL_K[alpha]

    n = 200_000
    us = sim._u01(7, np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int64), 2)
    us = us[us > table[-1]]
    k = sim._invert_sibuya(us, alpha, table)
    assert (us.size, hashlib.sha256(k.astype("<i8").tobytes()).hexdigest()) == _STREAM_K[alpha]
