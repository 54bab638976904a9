"""Shared fixtures.

The expensive piece is the full verification battery (every valid
(kind, n <= 24, s, q) instance checked against the brute-force oracle).
It takes about 8 s on two cores (7.4 to 8.2 s over three runs), so it
runs once per session and every test that wants battery-wide evidence
reads the same result object.
"""

import pytest

from wedderburn.battery import battery_instances, run_battery


@pytest.fixture(scope="session")
def battery_result():
    return run_battery()


@pytest.fixture(scope="session")
def battery_keys():
    return battery_instances()
