"""Property-based tests of end-to-end ecovisor accounting.

The strongest invariant in the system: after any sequence of demands and
scaling actions, per-container attribution sums to per-app totals, and
per-app grid energy matches the physical grid meter.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.clock import SimulationClock
from repro.core.config import ShareConfig
from tests.conftest import make_ecovisor

demands = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=30,
)


class TestAttributionAdditivity:
    @given(sequence=demands)
    @settings(max_examples=40, deadline=None)
    def test_container_sums_equal_app_totals(self, sequence):
        eco = make_ecovisor(solar_w=3.0, carbon_g_per_kwh=250.0)
        eco.admit_app("a", ShareConfig(solar_fraction=0.5, battery_fraction=0.5))
        c1 = eco.launch_container("a", 1)
        c2 = eco.launch_container("a", 2)
        clock = SimulationClock(60.0)
        for u1, u2 in sequence:
            tick = clock.current_tick()
            eco.begin_tick(tick)
            c1.set_demand_utilization(u1)
            c2.set_demand_utilization(u2)
            eco.settle(tick)
            clock.advance()
        account = eco.ledger.account("a")
        assert c1.carbon_g + c2.carbon_g == pytest.approx(
            account.carbon_g, abs=1e-9
        )
        assert c1.energy_wh + c2.energy_wh == pytest.approx(
            account.energy_wh, abs=1e-9
        )

    @given(sequence=demands)
    @settings(max_examples=40, deadline=None)
    def test_grid_meter_matches_ledger(self, sequence):
        eco = make_ecovisor(solar_w=0.0, carbon_g_per_kwh=250.0)
        eco.admit_app("a", ShareConfig())
        eco.admit_app("b", ShareConfig())
        ca = eco.launch_container("a", 1)
        cb = eco.launch_container("b", 1)
        clock = SimulationClock(60.0)
        for ua, ub in sequence:
            tick = clock.current_tick()
            eco.begin_tick(tick)
            ca.set_demand_utilization(ua)
            cb.set_demand_utilization(ub)
            eco.settle(tick)
            clock.advance()
        ledger_grid = (
            eco.ledger.account("a").grid_wh + eco.ledger.account("b").grid_wh
        )
        assert eco.plant.grid.total_energy_wh == pytest.approx(
            ledger_grid, abs=1e-6
        )

    @given(sequence=demands)
    @settings(max_examples=40, deadline=None)
    def test_carbon_never_negative(self, sequence):
        eco = make_ecovisor(solar_w=5.0, carbon_g_per_kwh=250.0)
        eco.admit_app("a", ShareConfig(solar_fraction=1.0))
        c = eco.launch_container("a", 2)
        clock = SimulationClock(60.0)
        for u, _ in sequence:
            tick = clock.current_tick()
            eco.begin_tick(tick)
            c.set_demand_utilization(u)
            eco.settle(tick)
            clock.advance()
            assert eco.ledger.app_carbon_g("a") >= 0.0
