from bgwscale import model as md
from bgwscale import verify


def test_mc_suite_atmin_counts_paths_stopped_at_threshold(m4):
    # paths of the explosive chain that reach the threshold have already seen
    # their minimum; dropping them biased the at-minimum cell by about 5 sigma
    checks = {name: (ok, detail) for name, ok, detail in verify.mc_suite(m4, 20000, 7)}
    ok, detail = checks["MC at-minimum law q=1.0 x=3"]
    assert ok, detail
    assert all(ok for ok, _ in checks.values())


def test_analytic_suite_skips_rates_in_the_band():
    # s = q/8 on this chain: q = 0.25 (s = 0.031) refuses, and the suite skips it
    spec = md.make_spec(md.OffspringLaw.tabular({0: 0.9, 2: 0.1}), 10.0)
    assert verify._supported_qs(spec) == [1.0, 4.0]
    checks = verify.analytic_suite(spec)
    assert any(name.startswith("harmonic residual") for name, _, _ in checks)
    assert all(ok for _, ok, _ in checks), checks
