"""The typed SignalBus subscription API (v1)."""

import pytest

from repro.core.api import connect
from repro.core.config import ShareConfig
from repro.core.events import TickEvent
from repro.core.signals import (
    BatteryEmpty,
    CarbonChange,
    PriceChange,
    SolarChange,
    Tick,
)
from repro.core.state import EnergyState
from tests.conftest import make_ecovisor, run_ticks


def _bus_ecovisor(**kwargs):
    eco = make_ecovisor(**kwargs)
    eco.admit_app("a", ShareConfig(solar_fraction=0.5, battery_fraction=0.5))
    eco.admit_app("b", ShareConfig(solar_fraction=0.5, battery_fraction=0.5))
    return eco, connect(eco, "a"), connect(eco, "b")


class TestSubscription:
    def test_on_tick_signal(self):
        eco, api, _ = _bus_ecovisor()
        seen = []
        api.signals.on(Tick, seen.append)
        run_ticks(eco, 3)
        assert len(seen) == 3
        assert all(isinstance(e, TickEvent) for e in seen)

    def test_cancel_stops_delivery(self):
        from repro.core.clock import SimulationClock

        eco, api, _ = _bus_ecovisor()
        seen = []
        sub = api.signals.on(Tick, seen.append)
        clock = SimulationClock(60.0)
        for index in range(4):
            if index == 2:
                sub.cancel()
            tick = clock.current_tick()
            eco.begin_tick(tick)
            eco.invoke_app_ticks(tick)
            eco.settle(tick)
            clock.advance()
        assert len(seen) == 2
        assert not sub.active

    def test_cancel_is_idempotent(self):
        eco, api, _ = _bus_ecovisor()
        sub = api.signals.on(Tick, lambda e: None)
        sub.cancel()
        sub.cancel()
        assert api.signals.subscriptions == []

    def test_off_and_cancel_all(self):
        eco, api, _ = _bus_ecovisor()
        s1 = api.signals.on(Tick, lambda e: None)
        api.signals.on(CarbonChange, lambda e: None)
        api.signals.off(s1)
        assert len(api.signals.subscriptions) == 1
        api.signals.cancel_all()
        assert api.signals.subscriptions == []

    def test_cancel_releases_bus_and_owner_entries(self):
        eco, api, _ = _bus_ecovisor()
        for _ in range(50):  # churn-heavy subscribe/cancel must not leak
            api.signals.on(Tick, lambda e: None).cancel()
        assert api.signals.subscriptions == []
        assert eco.events.subscriber_count(TickEvent) == 0

    def test_invalid_signal_type_rejected(self):
        _, api, _ = _bus_ecovisor()
        with pytest.raises(TypeError):
            api.signals.on(int, lambda e: None)


class TestAppScoping:
    def test_solar_change_scoped_to_app(self):
        eco, api_a, api_b = _bus_ecovisor(solar_w=10.0)
        seen_a, seen_b = [], []
        api_a.signals.on(SolarChange, seen_a.append)
        api_b.signals.on(SolarChange, seen_b.append)
        run_ticks(eco, 1)  # 0 -> 5 W is a change for both apps
        assert [e.app_name for e in seen_a] == ["a"]
        assert [e.app_name for e in seen_b] == ["b"]

    def test_battery_empty_scoped_to_app(self):
        from repro.core.config import BatteryConfig

        eco, api_a, api_b = _bus_ecovisor(
            solar_w=0.0,
            battery_config=BatteryConfig(
                capacity_wh=1.0,
                empty_soc_fraction=0.30,
                initial_soc_fraction=0.50,
                charge_efficiency=1.0,
                discharge_efficiency=1.0,
            ),
        )
        seen_a, seen_b = [], []
        api_a.signals.on(BatteryEmpty, seen_a.append)
        api_b.signals.on(BatteryEmpty, seen_b.append)
        container = api_a.launch_container(4)
        api_a.set_battery_max_discharge(1e9)
        # Drain only app a's tiny virtual battery; b's never empties.
        run_ticks(eco, 30, lambda tick: container.set_demand_utilization(1.0))
        assert len(seen_a) == 1
        assert seen_a[0].app_name == "a"
        assert seen_b == []

    def test_carbon_change_unscoped(self):
        eco, api, _ = _bus_ecovisor()
        seen = []
        api.signals.on(CarbonChange, seen.append)
        run_ticks(eco, 3)  # constant trace: no change events
        assert seen == []


class TestThresholdAndDebounce:
    def test_threshold_filters_small_changes(self):
        eco, api, _ = _bus_ecovisor(solar_w=10.0)
        all_changes, big_changes = [], []
        api.signals.on(SolarChange, all_changes.append)
        api.signals.on(SolarChange, big_changes.append, threshold=100.0)
        run_ticks(eco, 2)  # one 0 -> 5 W change
        assert len(all_changes) == 1
        assert big_changes == []

    def test_threshold_requires_delta_signal(self):
        _, api, _ = _bus_ecovisor()
        with pytest.raises(ValueError):
            api.signals.on(Tick, lambda e: None, threshold=1.0)
        with pytest.raises(ValueError):
            api.signals.on(BatteryEmpty, lambda e: None, threshold=1.0)

    def test_negative_threshold_rejected(self):
        _, api, _ = _bus_ecovisor()
        with pytest.raises(ValueError):
            api.signals.on(CarbonChange, lambda e: None, threshold=-1.0)

    def test_debounce_enforces_min_gap(self):
        eco, api, _ = _bus_ecovisor()
        dense, sparse = [], []
        api.signals.on(Tick, dense.append)
        api.signals.on(Tick, sparse.append, debounce_s=150.0)  # 60 s ticks
        run_ticks(eco, 6)
        assert len(dense) == 6
        # Delivered at t=0, then every third tick (>= 150 s apart).
        assert [e.time_s for e in sparse] == [0.0, 180.0]

    def test_negative_debounce_rejected(self):
        _, api, _ = _bus_ecovisor()
        with pytest.raises(ValueError):
            api.signals.on(Tick, lambda e: None, debounce_s=-5.0)


class TestEventOrdering:
    def test_signal_callbacks_observe_fresh_snapshot(self):
        """Events publish after the tick's snapshots are built."""
        eco, api, _ = _bus_ecovisor(solar_w=10.0)
        observed = []

        def callback(event):
            observed.append((event.current_w, api.state().solar_power_w))

        api.signals.on(SolarChange, callback)
        run_ticks(eco, 1)
        assert observed == [(5.0, 5.0)]


class TestLibraryDelegation:
    def test_library_enforce_rates_uses_snapshot(self):
        from repro.core.library import AppEnergyLibrary

        eco, api, _ = _bus_ecovisor(solar_w=0.0, carbon_g_per_kwh=500.0)
        library = AppEnergyLibrary(api)
        container = api.launch_container(1)
        library.set_carbon_rate(container.id, 0.1)  # mg/s at 500 g/kWh
        run_ticks(eco, 1)
        # 0.1 mg/s = 360 mg/h over 500 g/kWh -> 0.72 W cap.
        assert container.power_cap_w == pytest.approx(0.72)


class TestStateTypeExports:
    def test_core_package_reexports(self):
        import repro.core as core

        assert core.EnergyState is EnergyState
        assert core.CarbonChange is CarbonChange
        assert core.PriceChange is PriceChange
