"""Test-wide isolation from the environment and the persistent stores.

Every test starts from the built-in defaults: ``REPRO_*`` variables
inherited from the shell are removed, because ``Config.from_env()``
would otherwise pick them up.  The CLI records every successful
``flow``/``vpr``/``exp`` invocation into the run DB (``$REPRO_RUN_DB``
or ``~/.cache/repro/runs.db``).  Tests must never append to the
developer's real QoR history, so every test gets a throwaway DB path
by default; tests that exercise the DB explicitly pass their own
``--run-db``.

Hypothesis profiles: the property suites (chipdb round-trip) register
a bounded ``ci`` profile -- few examples, no deadline -- so the fast
``-m 'not slow'`` CI leg stays time-bounded, and a ``thorough``
profile for local soak runs.  Select with ``HYPOTHESIS_PROFILE=ci``
(the CI workflow does); the default profile stays untouched.
"""

import os

import pytest

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "ci", max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow])
    settings.register_profile(
        "thorough", max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.too_slow])
    if os.environ.get("HYPOTHESIS_PROFILE"):
        settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
except ImportError:                       # pragma: no cover
    pass                                  # property suites self-skip


@pytest.fixture(autouse=True)
def _hermetic_env(tmp_path, monkeypatch):
    # Live telemetry, for one, stays off (and its snapshot dir away
    # from the developer's ~/.cache) unless a test opts in explicitly.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_RUN_DB", str(tmp_path / "test-runs.db"))
