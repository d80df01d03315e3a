"""The argument contract: a rate is finite and >= 0 (> 0 where the function
needs it), a population level is a finite integer >= its floor, and a model's
lam and mu are finite.  Anything else is refused with a typed error (CLI exit
64) instead of a silent answer, an untyped error or a hang."""

import json
import math

import pytest
from click.testing import CliRunner

from bgwscale import control as ctl
from bgwscale import model as md
from bgwscale import passage as ps
from bgwscale import scale as sc
from bgwscale import sim
from bgwscale.cli import main
from bgwscale.errors import DomainError, ModelError, UnsupportedRegimeError, check_level, check_rate
from bgwscale.quad import QuadConfig

NAN, INF = math.nan, math.inf
BINARY = md.OffspringLaw.tabular({0: 0.75, 2: 0.25})
#: binary p0 = 1/4 at lam = 2 with culling at mu = 1.5: varphi = 1/3 < phi_1 = 0.6
CULLED = md.make_spec(md.OffspringLaw.tabular({0: 0.25, 2: 0.75}), 2.0,
                      md.ImmigrationLaw.tabular({-1: 1.0}), 1.5)
SIM = sim.SimConfig(seed=1, n_paths=50)


def _policy(policy):
    """simulate_controlled on m1 at floor 0, q = 1 and x0 = 1 under ``policy``."""
    return lambda m1, m4: sim.simulate_controlled(ctl.ControlProblem(m1, 0, 1.0), policy, 1, SIM)


#: (id, call(m1, m4), error); m1 is subcritical binary, m4 explosive Sibuya.
REFUSED = [
    ("phi_q_fn q=nan", lambda m1, m4: sc.phi_q_fn(m1, NAN, 1), DomainError),
    ("phi_q_fn q=inf", lambda m1, m4: sc.phi_q_fn(m1, INF, 1), DomainError),
    ("psi_q_fn q=nan", lambda m1, m4: sc.psi_q_fn(m4, NAN, 1), DomainError),
    ("psi_q_fn q=inf", lambda m1, m4: sc.psi_q_fn(m4, INF, 1), DomainError),
    ("phi_fn q=nan", lambda m1, m4: sc.phi_fn(m1, NAN, 1), DomainError),
    ("phi_fn q=inf", lambda m1, m4: sc.phi_fn(m1, INF, 1), DomainError),
    # the delimiter form checks q and the regime before building a table
    ("phi_q_with_delimiter phi_q>varphi",
     lambda m1, m4: sc.phi_q_with_delimiter(CULLED, 1.0, 1, 1 / 6), UnsupportedRegimeError),
    ("phi_q_with_delimiter q=nan",
     lambda m1, m4: sc.phi_q_with_delimiter(CULLED, NAN, 1, 1 / 6), DomainError),
    ("phi_q_with_delimiter q=-1",
     lambda m1, m4: sc.phi_q_with_delimiter(CULLED, -1.0, 1, 1 / 6), DomainError),
    ("lt_first_passage q=nan", lambda m1, m4: ps.lt_first_passage(m1, NAN, 2, 0), DomainError),
    ("lt_first_passage q=inf", lambda m1, m4: ps.lt_first_passage(m1, INF, 2, 0), DomainError),
    ("ControlProblem q=nan", lambda m1, m4: ctl.ControlProblem(m1, 0, NAN), DomainError),
    ("ControlProblem q=inf", lambda m1, m4: ctl.ControlProblem(m1, 0, INF), DomainError),
    ("phi_q_qbar_fn qbar=nan", lambda m1, m4: sc.phi_q_qbar_fn(m1, 1.0, NAN, 1), DomainError),
    ("lt_joint_avalanche qbar=nan",
     lambda m1, m4: ps.lt_joint_avalanche(m1, 1.0, NAN, 2, 0), DomainError),
    ("atmin_lt_G alpha=nan", lambda m1, m4: ps.atmin_lt_G(m1, 1.0, NAN, 3, 1), DomainError),
    # the early returns at alpha = 0, k = x and x = a check their rates too
    ("atmin_lt_G q=nan alpha=0", lambda m1, m4: ps.atmin_lt_G(m1, NAN, 0.0, 3, 1), DomainError),
    ("lt_joint_avalanche q=nan x=a",
     lambda m1, m4: ps.lt_joint_avalanche(m1, NAN, 1.0, 2, 2), DomainError),
    ("estimate_lt_passage q=-1",
     lambda m1, m4: sim.estimate_lt_passage(m1, -1.0, 2, 0, SIM), DomainError),
    ("QuadConfig rel_tol=nan", lambda m1, m4: QuadConfig(rel_tol=NAN), DomainError),
    ("lt_first_passage x=nan", lambda m1, m4: ps.lt_first_passage(m1, 1.0, NAN, 0), DomainError),
    ("phi_q_fn x=inf", lambda m1, m4: sc.phi_q_fn(m1, 1.0, INF), DomainError),
    ("barrier_gap a=1.5",
     lambda m1, m4: ctl.barrier_gap(ctl.ControlProblem(m1, 0, 1.0), 1.5), DomainError),
    ("conditioned_generator x_max=2.5",
     lambda m1, m4: ps.conditioned_generator(m1, 1.0, 2.5), DomainError),
    ("estimate_lt_passage x=2.5",
     lambda m1, m4: sim.estimate_lt_passage(m1, 1.0, 2.5, 0, SIM), DomainError),
    ("estimate_lt_passage a=0.5",
     lambda m1, m4: sim.estimate_lt_passage(m1, 1.0, 2, 0.5, SIM), DomainError),
    ("estimate_mean_passage x=a=2.5",
     lambda m1, m4: sim.estimate_mean_passage(m1, 2.5, 2.5, SIM), DomainError),
    ("simulate_controlled x0=1.5", lambda m1, m4: sim.simulate_controlled(
        ctl.ControlProblem(m1, 0, 1.0), ("barrier", 0), 1.5, SIM), DomainError),
    # a policy is a ("barrier" | "topup", level) pair, its level checked like any other
    ("simulate_controlled barrier=0.5", _policy(("barrier", 0.5)), DomainError),
    ("simulate_controlled topup=1.5", _policy(("topup", 1.5)), DomainError),
    ("simulate_controlled barrier=nan", _policy(("barrier", NAN)), DomainError),
    ("simulate_controlled barrier=-1", _policy(("barrier", -1)), DomainError),
    ("simulate_controlled unknown kind", _policy(("spiral", 0)), DomainError),
    ("simulate_controlled no level", _policy(("barrier",)), DomainError),
    ("simulate_controlled callable", _policy(lambda levels: levels), DomainError),
    ("SimConfig max_jumps=-5", lambda m1, m4: sim.SimConfig(max_jumps=-5), DomainError),
    ("SimConfig max_jumps=0", lambda m1, m4: sim.SimConfig(max_jumps=0), DomainError),
    ("SimConfig max_jumps=2.5", lambda m1, m4: sim.SimConfig(max_jumps=2.5), DomainError),
    ("SimConfig seed=1.5", lambda m1, m4: sim.SimConfig(seed=1.5), DomainError),
    ("SimConfig seed=nan", lambda m1, m4: sim.SimConfig(seed=NAN), DomainError),
    # the argument is checked before it is compared with a floor
    ("conditioned_generator q=-1", lambda m1, m4: ps.conditioned_generator(m1, -1.0, 2),
     DomainError),
    ("conditioned_generator q=nan", lambda m1, m4: ps.conditioned_generator(m1, NAN, 2),
     DomainError),
    ("barrier_gap a=-1",
     lambda m1, m4: ctl.barrier_gap(ctl.ControlProblem(m1, 0, 1.0), -1), DomainError),
    ("verify_bellman f_max=-3",
     lambda m1, m4: ctl.verify_bellman(ctl.ControlProblem(m1, 0, 1.0), 4, -3), DomainError),
    ("make_spec lam=nan", lambda m1, m4: md.make_spec(BINARY, NAN), ModelError),
    ("make_spec mu=nan", lambda m1, m4: md.make_spec(
        BINARY, 1.0, md.ImmigrationLaw.tabular({1: 1.0}), NAN), ModelError),
]


@pytest.mark.parametrize("call, error", [pytest.param(c, e, id=i) for i, c, e in REFUSED])
def test_refused_with_typed_error(call, error, m1, m4, time_limit):
    with time_limit(5), pytest.raises(error):
        call(m1, m4)


@pytest.mark.parametrize("lam, mu", [(NAN, 1.0), (1.0, NAN)])
def test_validate_lists_non_finite_rates(lam, mu):
    spec = md.ModelSpec(BINARY, lam, md.ImmigrationLaw.tabular({1: 1.0}), mu)
    assert md.validate(spec)


class TestChecks:
    @pytest.mark.parametrize("value", [0, 0.0, 2, 3.5])
    def test_rate_accepted_as_float(self, value):
        got = check_rate(value, "q")
        assert type(got) is float and got == value

    @pytest.mark.parametrize("value, positive", [(NAN, False), (INF, False), (-INF, False),
                                                 (-1e-300, False), (0.0, True)])
    def test_rate_refused(self, value, positive):
        with pytest.raises(DomainError, match="q"):
            check_rate(value, "q", positive)

    @pytest.mark.parametrize("value", [0, 3, 3.0])
    def test_level_accepted_as_int(self, value):
        got = check_level(value)
        assert type(got) is int and got == value

    @pytest.mark.parametrize("value, low", [(NAN, 0), (INF, 0), (2.5, 0), (-1, 0), (0, 1)])
    def test_level_refused(self, value, low):
        with pytest.raises(DomainError, match="x"):
            check_level(value, low=low)


@pytest.fixture()
def nan_mu_model(tmp_path):
    path = tmp_path / "nan_mu.json"
    doc = md.spec_to_dict(md.make_spec(BINARY, 1.0, md.ImmigrationLaw.tabular({1: 1.0}), 1.0))
    path.write_text(json.dumps({**doc, "mu": NAN}))  # json writes the token NaN
    return path


@pytest.mark.parametrize("model, args", [
    ("m1", ["scale", "--q", "nan", "--x", "1"]),
    ("m1", ["scale", "--q", "inf", "--x", "1"]),
    ("m1", ["passage", "avalanche", "--q", "1", "--qbar", "nan", "--x", "2", "--a", "0"]),
    ("m3", ["passage", "atmin", "--q", "1", "--x", "3", "--alpha", "nan"]),
    ("m1", ["simulate", "--kind", "lt", "--q", "-1", "--x", "2", "--paths", "200"]),
    ("m1", ["control", "simulate", "--q", "nan", "--x", "1", "--paths", "200"]),
])
def test_cli_exit64(model_dir, model, args, time_limit):
    with time_limit(5):
        r = CliRunner().invoke(main, [*args, "--model", str(model_dir / f"{model}.json")],
                               catch_exceptions=False)
    assert (r.exit_code, r.stdout) == (64, "")


def test_model_check_refuses_non_finite_mu(nan_mu_model):
    r = CliRunner().invoke(main, ["model", "check", "--model", str(nan_mu_model)],
                           catch_exceptions=False)
    assert (r.exit_code, r.stdout) == (64, "")
