"""Shared fixtures.

The expensive piece is the full verification battery (every valid
(kind, n <= 24, s, q) instance checked against the brute-force oracle).
It takes about 35 s on two cores, so it runs once per session and every
test that wants battery-wide evidence reads the same result object.
"""

import pytest

from wedderburn.battery import battery_instances, run_battery


@pytest.fixture(scope="session")
def battery_result():
    return run_battery()


@pytest.fixture(scope="session")
def battery_keys():
    return battery_instances()
