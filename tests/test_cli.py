import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from bgwscale import model as md
from bgwscale.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestScaleCommand:
    def test_phi_payload(self, runner, model_dir):
        r = _invoke(runner, ["scale", "--model", str(model_dir / "m1.json"),
                             "--q", "0.5", "--x", "1"])
        assert r.exit_code == 0
        doc = json.loads(r.stdout)
        assert doc["phi_q"] == pytest.approx(3 - 6 * math.log(1.5), rel=1e-10)

    def test_psi(self, runner, model_dir):
        r = _invoke(runner, ["scale", "--model", str(model_dir / "m4.json"),
                             "--fn", "psi", "--q", "1", "--x", "1"])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["psi_q"] == pytest.approx(1.28 / 12, rel=1e-9)

    def test_csv_range(self, runner, model_dir):
        r = _invoke(runner, ["scale", "--model", str(model_dir / "m1.json"),
                             "--q", "1", "--x", "0..3", "--out", "csv"])
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "x,phi_q"
        assert len(lines) == 5
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_floats(self, runner, model_dir):
        r = _invoke(runner, ["scale", "--model", str(model_dir / "m1.json"),
                             "--q", "0.5", "--x", "2"])
        text_value = json.loads(r.stdout)["phi_q"]
        # shortest-repr floats round-trip exactly
        assert json.loads(json.dumps({"v": text_value}))["v"] == text_value


class TestTolerance:
    def _phi(self, runner, model_dir, *tol):
        return _invoke(runner, ["scale", "--model", str(model_dir / "m1.json"),
                                "--q", "0.5", "--x", "1", *tol])

    def test_default_is_the_library_rel_tol(self, runner, model_dir):
        assert self._phi(runner, model_dir).stdout == \
            self._phi(runner, model_dir, "--tol", "1e-10").stdout

    @pytest.mark.parametrize("tol", ["1e-6", "1e-12", "1e-14"])
    def test_tol_is_relative_tolerance(self, runner, model_dir, tol):
        r = self._phi(runner, model_dir, "--tol", tol)
        assert r.exit_code == 0
        want = 3 - 6 * math.log(1.5)
        assert json.loads(r.stdout)["phi_q"] == pytest.approx(want, rel=max(float(tol), 1e-13))

    @pytest.mark.parametrize("tol", ["1e-15", "0", "-1e-10"])
    def test_below_floor_is_usage_error(self, runner, model_dir, tol):
        r = self._phi(runner, model_dir, "--tol", tol)
        assert r.exit_code == 64
        assert r.stdout == ""


class TestPassageCommands:
    def test_lt_known_value(self, runner, model_dir):
        r = _invoke(runner, ["passage", "lt", "--model", str(model_dir / "m2.json"),
                             "--q", "1", "--x", "1", "--a", "0"])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["value"] == pytest.approx(0.5, abs=1e-9)

    def test_regime_refusal_exit2(self, runner, model_dir):
        r = _invoke(runner, ["passage", "lt", "--model", str(model_dir / "m2.json"),
                             "--q", "0.5", "--x", "1", "--a", "0"])
        assert r.exit_code == 2
        assert "phi_q" in r.stderr

    def test_prob_refuses_slow_endpoint_decay(self, runner, tmp_path):
        # critical binary offspring with r_1 = 1 and c = 2 mu/lam = 1.02: the
        # q = 0 integrand decays like u^(c-2) at 1, too slowly for the chart
        path = tmp_path / "crit.json"
        md.dump_model(md.make_spec(md.OffspringLaw.tabular({0: 0.5, 2: 0.5}), 1.0,
                                   md.ImmigrationLaw.tabular({1: 1.0}), 0.51), path)
        r = _invoke(runner, ["passage", "prob", "--model", str(path), "--x", "1", "--a", "0"])
        assert r.exit_code == 2
        assert r.stdout == ""

    def test_mean_refuses_critical_offspring(self, runner, tmp_path):
        # certain extinction of critical offspring: E_x[T_a] = +inf
        path = tmp_path / "crit.json"
        md.dump_model(md.make_spec(md.OffspringLaw.tabular({0: 0.5, 2: 0.5}), 1.0), path)
        r = _invoke(runner, ["passage", "mean", "--model", str(path), "--x", "1..5", "--a", "0"])
        assert r.exit_code == 2
        assert r.stdout == ""

    def test_mean_refuses_beyond_float_range(self, runner, tmp_path):
        # E_1[T_0] = e^818: finite, but not as a float
        path = tmp_path / "heavy.json"
        md.dump_model(md.make_spec(md.OffspringLaw.tabular({0: 0.6, 2: 0.4}), 1.0,
                                   md.ImmigrationLaw.tabular({1: 1.0}), 300.0), path)
        r = _invoke(runner, ["passage", "mean", "--model", str(path), "--x", "1", "--a", "0"])
        assert r.exit_code == 2
        assert r.stdout == ""

    @pytest.mark.parametrize("model", ["m1", "m3"])
    def test_lt_refuses_unconverged_table(self, runner, model_dir, model):
        r = _invoke(runner, ["passage", "lt", "--model", str(model_dir / f"{model}.json"),
                             "--q", "0.01", "--x", "1", "--a", "0"])
        assert (r.exit_code, r.stdout) == (2, "")
        assert json.loads(r.stderr)["refused"] == "quadrature non-convergence"

    def test_usage_exit64(self, runner, model_dir):
        r = _invoke(runner, ["passage", "lt", "--model", str(model_dir / "m2.json"),
                             "--q", "1"])
        assert r.exit_code == 64

    def test_prob_and_explosion(self, runner, model_dir):
        r = _invoke(runner, ["passage", "prob", "--model", str(model_dir / "m4.json"),
                             "--x", "1", "--a", "0"])
        assert json.loads(r.stdout)["value"] == pytest.approx(0.36, rel=1e-9)
        r = _invoke(runner, ["passage", "explosion", "--model", str(model_dir / "m4.json"),
                             "--x", "1", "--a", "0"])
        assert json.loads(r.stdout)["value"] == pytest.approx(0.64, rel=1e-9)
        r = _invoke(runner, ["passage", "explosion", "--model", str(model_dir / "m4.json"),
                             "--x", "1", "--a", "0", "--mean"])
        assert json.loads(r.stdout)["value"] == pytest.approx(1.92, rel=1e-9)

    def test_atmin(self, runner, model_dir):
        r = _invoke(runner, ["passage", "atmin", "--model", str(model_dir / "m3.json"),
                             "--q", "1", "--x", "3", "--alpha", "0.5"])
        doc = json.loads(r.stdout)
        assert doc["pmf"]["2"] == pytest.approx(0.25, abs=1e-9)
        assert set(doc) == {"pmf", "lt_G", "lt_residual"}

    def test_tilt(self, runner, model_dir):
        r = _invoke(runner, ["passage", "tilt", "--model", str(model_dir / "m2.json"),
                             "--qbar", "0"])
        doc = json.loads(r.stdout)
        assert doc["offspring"]["pmf"]["0"] == pytest.approx(2 / 3, abs=1e-10)
        assert doc["mu"] == pytest.approx(2.0, abs=1e-10)

    def test_tilt_refuses_long_sibuya_truncation(self, runner, model_dir):
        r = _invoke(runner, ["passage", "tilt", "--model", str(model_dir / "m5.json"),
                             "--qbar", "1e-14"])
        assert r.exit_code == 2
        assert r.stdout == ""

    def test_condition(self, runner, model_dir):
        r = _invoke(runner, ["passage", "condition", "--model", str(model_dir / "m1.json"),
                             "--q", "0.5", "--x-max", "3"])
        doc = json.loads(r.stdout)
        assert doc["leave_rates"]["1"] == pytest.approx(1.5)
        assert doc["kill_rate"] == pytest.approx(1.322263, abs=1e-5)

    def test_mean(self, runner, model_dir):
        r = _invoke(runner, ["passage", "mean", "--model", str(model_dir / "m1.json"),
                             "--x", "1", "--a", "0"])
        assert json.loads(r.stdout)["value"] == pytest.approx(4 * math.log(1.5), rel=1e-9)

    def test_mean_range_from_a(self, runner, model_dir):
        # x == a is the trivial mean 0, as in `simulate --kind mean`
        r = _invoke(runner, ["passage", "mean", "--model", str(model_dir / "m1.json"),
                             "--x", "0..3", "--a", "0"])
        assert r.exit_code == 0
        vals = json.loads(r.stdout)["value"]
        assert vals["0"] == 0.0
        assert vals["1"] == pytest.approx(4 * math.log(1.5), rel=1e-9)
        assert vals["1"] < vals["2"] < vals["3"]

    def test_avalanche(self, runner, model_dir):
        r = _invoke(runner, ["passage", "avalanche", "--model", str(model_dir / "m1.json"),
                             "--q", "0", "--qbar", "1", "--x", "2", "--a", "0"])
        assert json.loads(r.stdout)["value"] == pytest.approx(
            (4 - math.sqrt(13)) ** 2, rel=1e-10)


class TestModelCommands:
    def test_check_good(self, runner, model_dir):
        r = _invoke(runner, ["model", "check", "--model", str(model_dir / "m1.json")])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["valid"] is True

    def test_check_bad(self, runner, model_dir):
        r = _invoke(runner, ["model", "check", "--model", str(model_dir / "bad.json")])
        assert r.exit_code == 2
        doc = json.loads(r.stdout)
        assert doc["valid"] is False
        assert any("nonincreasing" in v for v in doc["violations"])

    def test_classify(self, runner, model_dir):
        r = _invoke(runner, ["model", "classify", "--model", str(model_dir / "m4.json")])
        doc = json.loads(r.stdout)
        assert doc["criticality"] == "supercritical"
        assert doc["explosive"] is True
        assert doc["varphi"] == pytest.approx(0.36, abs=1e-12)

    def test_classify_near_critical_culling(self, runner, tmp_path):
        # r~(z) - 1 is below the pgf's rounding near phi = r_-1/r_1 ~ 0.996
        path = tmp_path / "cull.json"
        md.dump_model(md.make_spec(md.OffspringLaw.tabular({0: 0.75, 2: 0.25}), 1.0,
                                   md.ImmigrationLaw.tabular({-1: 0.499, 1: 0.501}), 1.0), path)
        r = _invoke(runner, ["model", "classify", "--model", str(path)])
        phi = json.loads(r.stdout)["phi"]
        assert abs(phi - 0.499 / 0.501) <= 4 * math.ulp(phi)

    def test_missing_file(self, runner):
        r = _invoke(runner, ["model", "classify", "--model", "/nonexistent.json"])
        assert r.exit_code == 64


class TestControlCommands:
    def test_value(self, runner, model_dir):
        r = _invoke(runner, ["control", "value", "--model", str(model_dir / "m1.json"),
                             "--q", "0.5", "--x", "1"])
        assert json.loads(r.stdout)["value"] == pytest.approx(1.310586, abs=1e-6)

    def test_bellman(self, runner, model_dir):
        r = _invoke(runner, ["control", "bellman", "--model", str(model_dir / "m1.json"),
                             "--q", "0.5", "--x-max", "8", "--f-max", "8"])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["ok"] is True

    def test_value_at_deep_floor(self, runner, tmp_path):
        # Phi_q(701) and B(700) underflow; the value is taken from log differences
        path = tmp_path / "binary.json"
        md.dump_model(md.make_spec(md.OffspringLaw.tabular({0: 0.25, 2: 0.75}), 2.0), path)
        r = _invoke(runner, ["control", "value", "--model", str(path), "--q", "1",
                             "--floor", "700", "--x", "0"])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["value"] == pytest.approx(701.4989338954748, rel=1e-10)

    def test_rejects_immigration_model(self, runner, model_dir):
        r = _invoke(runner, ["control", "value", "--model", str(model_dir / "m3.json"),
                             "--q", "0.5", "--x", "1"])
        assert r.exit_code == 2

    def test_simulate(self, runner, model_dir):
        r = _invoke(runner, ["control", "simulate", "--model", str(model_dir / "m1.json"),
                             "--q", "0.5", "--x", "1", "--paths", "4000", "--seed", "3"])
        doc = json.loads(r.stdout)
        assert abs(doc["mean"] - 1.310586) <= 4 * doc["se"]


class TestSimulateCommand:
    def test_lt(self, runner, model_dir):
        r = _invoke(runner, ["simulate", "--model", str(model_dir / "m2.json"),
                             "--kind", "lt", "--q", "1", "--x", "1", "--a", "0",
                             "--paths", "5000", "--seed", "5", "--threshold", "400",
                             "--max-jumps", "100000"])
        doc = json.loads(r.stdout)
        assert abs(doc["mean"] - 0.5) <= 4 * doc["se"]


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


class TestStrictJson:
    """Stdout parses under RFC 8259: a non-finite float prints as null."""

    @pytest.mark.parametrize("args, key", [
        (["simulate", "--model", "M1", "--x", "1", "--paths", "1"], "se"),
        (["simulate", "--model", "M1", "--kind", "mean", "--x", "3", "--paths", "5",
          "--max-jumps", "1"], "mean"),
        (["control", "simulate", "--model", "M1", "--q", "0.5", "--x", "1", "--paths", "1"], "se"),
    ], ids=["se-inf", "mean-nan", "control-se-inf"])
    def test_non_finite_prints_null(self, runner, model_dir, args, key):
        r = _invoke(runner, [str(model_dir / "m1.json") if a == "M1" else a for a in args])
        assert r.exit_code == 0
        doc = json.loads(r.stdout, parse_constant=_reject_constant)
        assert doc[key] is None


class TestVerifyCommand:
    def test_analytic_m1(self, runner, model_dir):
        r = _invoke(runner, ["verify", "--model", str(model_dir / "m1.json"),
                             "--suite", "analytic"])
        assert r.exit_code == 0
        assert "FAIL" not in r.stdout
        summary = json.loads(r.stdout.strip().splitlines()[-1])
        assert summary["failed"] == 0

    def test_analytic_m4_includes_dichotomy(self, runner, model_dir):
        r = _invoke(runner, ["verify", "--model", str(model_dir / "m4.json"),
                             "--suite", "analytic"])
        assert r.exit_code == 0
        assert "dichotomy" in r.stdout

    def test_analytic_skips_band_rates(self, runner, tmp_path):
        # s = q/8: q = 0.25 sits in the band where Phi_q refuses
        path = tmp_path / "slow.json"
        md.dump_model(md.make_spec(md.OffspringLaw.tabular({0: 0.9, 2: 0.1}), 10.0), path)
        r = _invoke(runner, ["verify", "--model", str(path), "--suite", "analytic"])
        assert r.exit_code == 0
        assert json.loads(r.stdout.strip().splitlines()[-1])["failed"] == 0

    def test_control_suite(self, runner, model_dir):
        r = _invoke(runner, ["verify", "--model", str(model_dir / "m1.json"),
                             "--suite", "control", "--paths", "5000", "--seed", "7"])
        assert r.exit_code == 0, r.stdout

    @pytest.mark.parametrize("model, q", [("m3", "0.5"), ("m1", "0")],
                             ids=["immigration", "q0-subcritical"])
    def test_control_suite_reports_refused_problem(self, runner, model_dir, model, q):
        r = _invoke(runner, ["verify", "--model", str(model_dir / f"{model}.json"),
                             "--suite", "control", "--q", q])
        assert r.exit_code == 1
        assert r.stdout.startswith("FAIL control problem admissible ")
        assert json.loads(r.stdout.splitlines()[-1]) == {"suite": "control", "checks": 1,
                                                         "failed": 1}


class TestDeterminism:
    def test_byte_identical_stdout(self, model_dir):
        cmd = [sys.executable, "-m", "bgwscale.cli", "simulate",
               "--model", str(model_dir / "m3.json"), "--kind", "lt", "--q", "1",
               "--x", "2", "--a", "0", "--paths", "3000", "--seed", "11",
               "--max-jumps", "100000"]
        outs = [subprocess.run(cmd, capture_output=True, check=True).stdout
                for _ in range(2)]
        assert outs[0] == outs[1]


def _spec(model_dir, name):
    return md.load_model(str(model_dir / f"{name}.json"))


class TestLevelOption:
    @pytest.mark.parametrize("args", [
        ["scale", "--x", "abc"],
        ["scale", "--x", "1.5"],
        ["scale", "--x", "5..3"],
        ["scale", "--x", "1.."],
        ["control", "gap", "--q", "0.5", "--a", "x"],
        ["passage", "lt", "--q", "1", "--x", "0..", "--a", "0"],
    ])
    def test_malformed_levels_are_usage_errors(self, runner, model_dir, args):
        r = _invoke(runner, [*args, "--model", str(model_dir / "m1.json")])
        assert r.exit_code == 64
        assert r.stdout == ""
        assert "lo..hi" in r.stderr or "empty range" in r.stderr

    def test_control_gap_range_matches_library(self, runner, model_dir):
        from bgwscale import control as ctl
        r = _invoke(runner, ["control", "gap", "--model", str(model_dir / "m1.json"),
                             "--q", "0.5", "--a", "0..4"])
        assert r.exit_code == 0
        prob = ctl.ControlProblem(_spec(model_dir, "m1"), 0, 0.5)
        want = {"value": {str(a): ctl.barrier_gap(prob, a) for a in range(5)}}
        assert r.stdout == json.dumps(want) + "\n"

    def test_explosion_transform_matches_library(self, runner, model_dir):
        from bgwscale import passage as ps
        r = _invoke(runner, ["passage", "explosion", "--model", str(model_dir / "m4.json"),
                             "--q", "1", "--x", "3", "--a", "1"])
        assert r.exit_code == 0
        want = ps.lt_explosion_before(_spec(model_dir, "m4"), 1.0, 3, 1)
        assert r.stdout == json.dumps({"value": want}) + "\n"
        assert 0.0 < want < 1.0

    def test_csv_matches_library(self, runner, model_dir):
        from bgwscale import control as ctl
        from bgwscale import passage as ps
        m1 = _spec(model_dir, "m1")
        r = _invoke(runner, ["passage", "lt", "--model", str(model_dir / "m1.json"),
                             "--q", "0.5", "--x", "1..4", "--a", "1", "--out", "csv"])
        want = ["x,value"] + [f"{x},{ps.lt_first_passage(m1, 0.5, x, 1)!r}" for x in range(1, 5)]
        assert (r.exit_code, r.stdout) == (0, "\n".join(want) + "\n")
        r = _invoke(runner, ["control", "gap", "--model", str(model_dir / "m1.json"),
                             "--q", "0.5", "--a", "0..3", "--out", "csv"])
        prob = ctl.ControlProblem(m1, 0, 0.5)
        want = ["a,value"] + [f"{a},{ctl.barrier_gap(prob, a)!r}" for a in range(4)]
        assert (r.exit_code, r.stdout) == (0, "\n".join(want) + "\n")


class TestNegativeRates:
    """A negative rate is outside every function's domain: exit 64, never a q = 0 answer."""

    @pytest.mark.parametrize("model,args", [
        ("m1", ["scale", "--q", "-1", "--x", "1"]),
        ("m4", ["passage", "explosion", "--q", "-1", "--x", "1", "--a", "0"]),
        ("m3", ["passage", "atmin", "--q", "1", "--x", "3", "--alpha", "-1"]),
        ("m1", ["passage", "condition", "--q", "-1"]),
        ("m1", ["control", "gap", "--q", "0.5", "--a", "-1"]),
        ("m1", ["verify", "--suite", "control", "--q", "nan"]),
        ("m1", ["verify", "--suite", "control", "--q", "-1"]),
        ("m1", ["verify", "--suite", "control", "--floor", "-1"]),
    ])
    def test_exit64(self, runner, model_dir, model, args):
        r = _invoke(runner, [*args, "--model", str(model_dir / f"{model}.json")])
        assert r.exit_code == 64
        assert r.stdout == ""


class TestSimulationLimits:
    """A jump limit below 1 is a usage error, never an all-censored estimate."""

    @pytest.mark.parametrize("args", [
        ["control", "simulate", "--q", "0.5", "--x", "1", "--paths", "200", "--max-jumps", "-5"],
        ["simulate", "--kind", "lt", "--q", "1", "--x", "2", "--paths", "200", "--max-jumps", "0"],
    ])
    def test_exit64(self, runner, model_dir, args):
        r = _invoke(runner, [*args, "--model", str(model_dir / "m1.json")])
        assert (r.exit_code, r.stdout) == (64, "")


#: (option, default, required) per command, in display order.
COMMAND_TREE = {
    'control bellman': [('--model', None, True), ('--q', None, True), ('--floor', 0, False),
                        ('--x-max', 12, False), ('--f-max', 12, False), ('--tol', 1e-10, False)],
    'control gap': [('--model', None, True), ('--q', None, True), ('--floor', 0, False),
                    ('--a', None, True), ('--tol', 1e-10, False), ('--out', 'json', False)],
    'control simulate': [('--model', None, True), ('--q', None, True), ('--floor', 0, False),
                         ('--policy', 'barrier', False), ('--level', 0, False),
                         ('--x', None, True), ('--paths', 10000, False), ('--seed', 0, False),
                         ('--max-jumps', 1000000, False), ('--threshold', 1000000, False)],
    'control value': [('--model', None, True), ('--q', None, True), ('--floor', 0, False),
                      ('--x', None, True), ('--tol', 1e-10, False), ('--out', 'json', False)],
    'model check': [('--model', None, True)],
    'model classify': [('--model', None, True)],
    'passage atmin': [('--model', None, True), ('--q', None, True), ('--x', None, True),
                      ('--alpha', 0.0, False), ('--tol', 1e-10, False), ('--out', 'json', False)],
    'passage avalanche': [('--model', None, True), ('--q', None, True), ('--qbar', None, True),
                          ('--x', None, True), ('--a', None, True), ('--tol', 1e-10, False),
                          ('--out', 'json', False)],
    'passage condition': [('--model', None, True), ('--q', None, True), ('--x-max', 5, False),
                          ('--tol', 1e-10, False)],
    'passage explosion': [('--model', None, True), ('--q', 0.0, False), ('--x', None, True),
                          ('--a', None, True), ('--mean', False, False), ('--tol', 1e-10, False),
                          ('--out', 'json', False)],
    'passage lt': [('--model', None, True), ('--q', None, True), ('--x', None, True),
                   ('--a', None, True), ('--tol', 1e-10, False), ('--out', 'json', False)],
    'passage mean': [('--model', None, True), ('--x', None, True), ('--a', None, True),
                     ('--tol', 1e-10, False), ('--out', 'json', False)],
    'passage prob': [('--model', None, True), ('--x', None, True), ('--a', None, True),
                     ('--tol', 1e-10, False), ('--out', 'json', False)],
    'passage tilt': [('--model', None, True), ('--qbar', None, True)],
    'scale': [('--model', None, True), ('--fn', 'phi', False), ('--q', 0.0, False),
              ('--qbar', 0.0, False), ('--x', '1', False), ('--tol', 1e-10, False),
              ('--out', 'json', False)],
    'simulate': [('--model', None, True), ('--kind', 'lt', False), ('--q', 0.0, False),
                 ('--qbar', 0.0, False), ('--x', None, True), ('--a', 0, False),
                 ('--paths', 10000, False), ('--seed', 0, False), ('--max-jumps', 1000000, False),
                 ('--threshold', 1000000, False), ('--horizon', math.inf, False)],
    'verify': [('--model', None, True), ('--suite', None, True), ('--paths', 20000, False),
               ('--seed', 7, False), ('--q', 0.5, False), ('--floor', 0, False)],
}


def test_command_tree_snapshot():
    import click

    def walk(cmd, path):
        if isinstance(cmd, click.Group):
            for name in sorted(cmd.commands):
                yield from walk(cmd.commands[name], path + (name,))
        else:
            yield " ".join(path), [
                (p.opts[0], p.default if isinstance(p.default, (int, float, str)) else None,
                 p.required) for p in cmd.params]

    assert dict(walk(main, ())) == COMMAND_TREE


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("bgwscale ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_example_parses(line):
    """Every README example names a leaf command and options it accepts (nothing runs)."""
    import click

    _, *args = shlex.split(line, comments=True)
    cmd, path = main, []
    while isinstance(cmd, click.Group):
        path.append(args.pop(0))
        assert path[-1] in cmd.commands, f"no command {' '.join(path)!r}"
        cmd = cmd.commands[path[-1]]
    with cmd.make_context(" ".join(path), args) as ctx:
        assert ctx.params["model_path"].endswith(".json")
