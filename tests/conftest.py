import contextlib
import json
import signal

import pytest

from bgwscale import model as md


@pytest.fixture(scope="session")
def m1():
    """Subcritical binary: p0=3/4, p2=1/4, lam=1, no immigration (varphi=1)."""
    return md.make_spec(md.OffspringLaw.tabular({0: 0.75, 2: 0.25}), 1.0)


@pytest.fixture(scope="session")
def m2():
    """Supercritical binary with culling: p0=1/3, p2=2/3, lam=3, r_-1=1, mu=1."""
    return md.make_spec(md.OffspringLaw.tabular({0: 1 / 3, 2: 2 / 3}), 3.0,
                        md.ImmigrationLaw.tabular({-1: 1.0}), 1.0)


@pytest.fixture(scope="session")
def m2prime():
    """M2's branching part alone (supercritical, no culling)."""
    return md.make_spec(md.OffspringLaw.tabular({0: 1 / 3, 2: 2 / 3}), 3.0)


@pytest.fixture(scope="session")
def m3():
    """Subcritical binary with unit immigration: lam=2, r_1=1, mu=1."""
    return md.make_spec(md.OffspringLaw.tabular({0: 0.75, 2: 0.25}), 2.0,
                        md.ImmigrationLaw.tabular({1: 1.0}), 1.0)


@pytest.fixture(scope="session")
def m3crit():
    """Critical analogue of m3 (uniform infimum at q=0): p0=p2=1/2, lam=mu=1, r_1=1."""
    return md.make_spec(md.OffspringLaw.tabular({0: 0.5, 2: 0.5}), 1.0,
                        md.ImmigrationLaw.tabular({1: 1.0}), 1.0)


@pytest.fixture(scope="session")
def m4():
    """Explosive Sibuya mixture offspring: p~(z) = 0.2 + 0.8(1-(1-z)^{1/2})."""
    return md.make_spec(md.OffspringLaw.sibuya_mix(0.2, 0.5), 1.0)


@pytest.fixture(scope="session")
def m5():
    """Critical binary with heavy immigration r~(z) = 1-(1-z)^{1/2} (extinction not certain)."""
    return md.make_spec(md.OffspringLaw.tabular({0: 0.5, 2: 0.5}), 1.0,
                        md.ImmigrationLaw.sibuya(0.5), 1.0)


@pytest.fixture(scope="session")
def model_dir(tmp_path_factory, m1, m2, m3, m4, m5, m2prime):
    """Model JSON files for CLI tests."""
    d = tmp_path_factory.mktemp("models")
    for name, spec in [("m1", m1), ("m2", m2), ("m3", m3), ("m4", m4),
                       ("m5", m5), ("m2prime", m2prime)]:
        md.dump_model(spec, d / f"{name}.json")
    bad = {"offspring": {"type": "tabular", "pmf": {"0": 1.0}}, "lambda": 1.0,
           "immigration": {"type": "tabular", "pmf": {"-1": 1.0}}, "mu": 1.0}
    (d / "bad.json").write_text(json.dumps(bad))
    return d


@pytest.fixture
def time_limit():
    """``with time_limit(s):`` fails the test once the block has run s whole
    seconds (SIGALRM, main thread only), so a hang fails fast instead of
    stalling the suite."""
    @contextlib.contextmanager
    def limit(seconds: int):
        def expire(signum, frame):
            pytest.fail(f"block still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return limit
