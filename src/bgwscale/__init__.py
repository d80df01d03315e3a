"""Scale functions, passage/explosion transforms, optimal immigration control
and exact Monte Carlo for continuous-time branching chains with immigration
and culling."""

from .control import BellmanReport, ControlProblem, barrier_gap, barrier_value, optimal_value, verify_bellman  # noqa: F401
from .model import (  # noqa: F401
    ImmigrationLaw, ModelSpec, OffspringLaw, RegimeReport,
    classify, dump_model, is_explosive, load_model, make_spec,
    normalize_remove_p1, pgf_immigration, pgf_offspring,
    root_phi_q, root_varphi, root_varphi_qbar, spec_from_dict, spec_to_dict, validate,
)
from .passage import (  # noqa: F401
    AtMinLaw, ConditionedGenerator, atmin_law, atmin_lt_G, atmin_lt_residual,
    certain_extinction, conditioned_generator, lt_explosion_before,
    lt_first_passage, lt_joint_avalanche, mean_explosion, mean_first_passage,
    prob_explosion_before, prob_passage, tilted_model,
)
from .quad import QuadConfig, WeightEval, gamma_q, integrate, log_omega_lower, log_omega_upper, rho, weight_eval  # noqa: F401
from .scale import harmonic_residual, log_phi_fn, log_phi_q_qbar_fn, phi_0_fn, phi_fn, phi_q_fn, phi_q_qbar_fn, psi_q_fn  # noqa: F401
from .sim import (  # noqa: F401
    Estimate, PathOutcome, SimConfig, atmin_clock_sample,
    estimate_explosion, estimate_explosion_time, estimate_joint_avalanche,
    estimate_lt_passage, estimate_mean_passage, sample_immigration,
    sample_offspring, simulate_controlled, simulate_path,
)

__version__ = "0.1.0"
