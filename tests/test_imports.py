"""Import cost, the Sibuya tail sampler, and the modules' public names.

Neither ``import bgwscale``, ``import bgwscale.cli`` nor a Sibuya jump drawn
beyond the K = 64 table may load scipy: the runtime needs numpy and click
only.  The check runs in a fresh interpreter, because other test modules
import scipy themselves as an oracle.
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


_TAIL_DRAW = ("import numpy as np\n"
              "k = bgwscale.sim._JumpSampler(bgwscale.model.ImmigrationLaw.sibuya(0.5))"
              ".draw(np.array([1.0 - 2.0 ** -20]))\n"
              "assert k[0] > 64, k\n")


@pytest.mark.parametrize("module, then", [("bgwscale", ""), ("bgwscale.cli", ""),
                                          ("bgwscale.sim", _TAIL_DRAW)],
                         ids=["bgwscale", "bgwscale.cli", "sibuya_tail_draw"])
def test_import_loads_no_scipy(module, then):
    code = (f"import sys, {module}\n{then}"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


# Tail uniforms u = 1 - m 2^-j (exact in binary), all beyond the K = 64 table,
# and their K: each equals the exact min{k >= 65 : S_k <= 1 - u} (capped at
# 2^40), found by bisection on 40-digit log-gamma values.
_TAIL_J = {0.3: range(6, 14), 0.5: range(7, 20, 2), 0.8: range(10, 35, 3)}
_TAIL_K = {
    0.3: [439497, 11286, 2056, 670, 4429852, 113759, 20725, 6752, 44650110, 1146617,
          208892, 68050, 450044907, 11557175, 2105503, 685903, 4536168411, 116489019,
          21222139, 6913464, 45721712531, 1174135736, 213905758, 69683350, 460845984435,
          11834546632, 2156034933, 702364158, 1099511627776, 119284755335, 21731470370,
          7079387094],
    0.5: [5215, 580, 209, 107, 83443, 9272, 3338, 1703, 1335089, 148343, 53404, 27247,
          21361415, 2373491, 854457, 435947, 341782638, 37975849, 13671306, 6975156,
          5468522205, 607613579, 218740888, 111602494, 87496355274, 9721817253,
          3499854211, 1785639904],
    0.8: [862, 219, 116, 76, 11598, 2938, 1552, 1019, 156040, 39522, 20870, 13705,
          2099408, 531735, 280792, 184385, 28246149, 7154144, 3777868, 2480772,
          380033367, 96254305, 50828726, 33377145, 5113099135, 1295038396, 683867095,
          449067539, 68793387728, 17423890311, 9200982218, 6041908540, 925569810136,
          234426990435, 123793167422, 81289907715],
}
# The same for every tail uniform among the first 200 000 slot-2 draws of seed 7:
# (number of tail draws, sha256 of the K as little-endian int64).  Each K was
# checked once against the same exact bracket S_k <= 1 - u < S_{k-1}.
_STREAM_K = {
    0.3: (44285, "92fb3fcb81d2a704ea84822c4315471c4dec6deb6159fbcb5f7d5c83bf6e5baa"),
    0.5: (14140, "76e6706fc7d97c23a2ca87c0608c2dab7eecc574e1d176e4ecb43d0ac23700ab"),
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
