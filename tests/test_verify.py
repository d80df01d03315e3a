from bgwscale import verify


def test_mc_suite_atmin_counts_paths_stopped_at_threshold(m4):
    # paths of the explosive chain that reach the threshold have already seen
    # their minimum; dropping them biased the at-minimum cell by about 5 sigma
    checks = {name: (ok, detail) for name, ok, detail in verify.mc_suite(m4, 20000, 7)}
    ok, detail = checks["MC at-minimum law q=1.0 x=3"]
    assert ok, detail
    assert all(ok for ok, _ in checks.values())
