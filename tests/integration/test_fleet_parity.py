"""Fleet parity on the committed config, one surface per test.

The columnar hot path (``engine.batched = True``) must be an
*optimization*, not a semantic change.  These tests run the committed
fleet (24 apps, 50 ticks, seed 2023, balanced mix) down both engine
paths once and require identical :class:`EnergyState` snapshots at every
tick, settlement ledgers, telemetry series and signal histories against
the per-app object reference path (``engine.batched = False``), so a
failure names the surface that drifted.  Randomized fleets and churn
schedules live in the differential harness,
:mod:`tests.integration.test_columnar_parity`, whose runner and surface
collector this module reuses.
"""

import pytest

from tests.integration.test_columnar_parity import (
    _digest,
    _first_difference,
    _run,
    collect_surfaces,
)

PARAMS = {"apps": 24, "ticks": 50, "seed": 2023, "mix": "balanced"}


@pytest.fixture(scope="module")
def captures():
    """(ecovisor, surfaces) for the columnar run, then the object run."""
    runs = [_run(PARAMS, batched) for batched in (True, False)]
    return [(eco, collect_surfaces(eco, states)) for eco, states in runs]


def _assert_identical(captures, surface):
    (_, columnar), (_, objects) = captures
    a, b = columnar[surface], objects[surface]
    # Digest comparison pins float bit patterns; the first-difference
    # report keeps a (hypothetical) failure readable.
    assert _digest(a) == _digest(b) and a == b, _first_difference(a, b, surface)


class TestBatchedUnbatchedParity:
    def test_snapshots_identical_every_tick(self, captures):
        (_, columnar), _ = captures
        assert len(columnar["states"]) == PARAMS["ticks"]
        _assert_identical(captures, "states")

    def test_settlement_ledgers_identical(self, captures):
        _assert_identical(captures, "accounts")

    def test_telemetry_series_identical(self, captures):
        (eco_a, _), (eco_b, _) = captures
        assert eco_a.database.series_names() == eco_b.database.series_names()
        _assert_identical(captures, "telemetry")

    def test_signal_histories_identical(self, captures):
        _assert_identical(captures, "signal_histories")

    def test_modes_actually_differed(self, captures):
        (eco_a, _), (eco_b, _) = captures
        assert eco_a.columnar is True
        assert eco_b.columnar is False
