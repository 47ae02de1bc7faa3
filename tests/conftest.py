"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.carbon.service import CarbonIntensityService
from repro.carbon.traces import constant_trace
from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.core.clock import SimulationClock
from repro.core.config import (
    BatteryConfig,
    CarbonServiceConfig,
    ClusterConfig,
    EcovisorConfig,
    ServerConfig,
    ShareConfig,
    SolarConfig,
)
from repro.core.ecovisor import Ecovisor
from repro.energy.battery import Battery
from repro.energy.grid import GridConnection
from repro.energy.solar import ConstantSolarTrace, SolarArrayEmulator
from repro.energy.system import PhysicalEnergySystem
from repro.market.prices import PriceTrace
from repro.market.service import PriceSignal
from repro.sim.engine import SimulationEngine

TICK_S = 60.0


@pytest.fixture
def small_battery_config() -> BatteryConfig:
    """A 100 Wh battery with simple round numbers for hand computation."""
    return BatteryConfig(
        capacity_wh=100.0,
        empty_soc_fraction=0.30,
        max_charge_c_rate=0.25,
        max_discharge_c_rate=1.0,
        charge_efficiency=1.0,
        discharge_efficiency=1.0,
        initial_soc_fraction=0.50,
    )


@pytest.fixture
def lossy_battery_config() -> BatteryConfig:
    """Same battery but with 90% one-way efficiencies."""
    return BatteryConfig(
        capacity_wh=100.0,
        empty_soc_fraction=0.30,
        charge_efficiency=0.90,
        discharge_efficiency=0.90,
        initial_soc_fraction=0.50,
    )


def make_ecovisor(
    solar_w: float = 10.0,
    carbon_g_per_kwh: float = 200.0,
    battery_config: BatteryConfig | None = None,
    num_servers: int = 4,
    with_battery: bool = True,
    with_solar: bool = True,
    price_trace: PriceTrace | None = None,
) -> Ecovisor:
    """An ecovisor over constant solar/carbon, convenient for unit tests.

    Passing ``price_trace`` attaches the market layer (a
    :class:`PriceSignal` over the trace); otherwise the ecovisor runs
    cost-free, as before the market subsystem existed.
    """
    solar = (
        SolarArrayEmulator(
            SolarConfig(
                peak_power_w=max(solar_w, 1.0),
                scale=1.0 if solar_w > 0 else 0.0,
                panel_efficiency_derating=1.0,
            ),
            ConstantSolarTrace(1.0),
        )
        if with_solar
        else None
    )
    battery = Battery(battery_config or BatteryConfig()) if with_battery else None
    plant = PhysicalEnergySystem(
        grid=GridConnection(), battery=battery, solar=solar
    )
    carbon = CarbonIntensityService(
        CarbonServiceConfig(region="constant"),
        trace=constant_trace(carbon_g_per_kwh, days=7),
    )
    platform = ContainerOrchestrationPlatform(
        ClusterConfig(num_servers=num_servers, server=ServerConfig())
    )
    price_signal = PriceSignal(trace=price_trace) if price_trace is not None else None
    return Ecovisor(
        plant, platform, carbon, EcovisorConfig(), price_signal=price_signal
    )


@pytest.fixture
def ecovisor() -> Ecovisor:
    return make_ecovisor()


@pytest.fixture
def engine(ecovisor: Ecovisor) -> SimulationEngine:
    return SimulationEngine(ecovisor, SimulationClock(TICK_S))


def run_ticks(
    ecovisor: Ecovisor, ticks: int, demand_setter=None, clock=None
) -> SimulationClock:
    """Drive the bare ecovisor tick loop (no engine, no applications).

    Pass the returned clock back in to continue the same timeline
    across multiple calls (mid-run lifecycle tests).
    """
    clock = clock or SimulationClock(TICK_S)
    for _ in range(ticks):
        tick = clock.current_tick()
        ecovisor.begin_tick(tick)
        ecovisor.invoke_app_ticks(tick)
        if demand_setter is not None:
            demand_setter(tick)
        ecovisor.settle(tick)
        clock.advance()
    return clock


@pytest.fixture
def default_share() -> ShareConfig:
    return ShareConfig(solar_fraction=0.5, battery_fraction=0.5)


@pytest.fixture
def small_fleet_params() -> dict:
    """A seconds-scale fleet spec for the fleet scenario tests.

    Every random choice in a fleet flows from ``config_digest`` of these
    parameters (see :mod:`repro.sim.fleet`), so tests built on this
    fixture are deterministic across processes — the property the
    serial-vs-parallel sweep parity of ``fleet_*`` rests on.
    """
    return {"apps": 10, "ticks": 20, "seed": 2023, "mix": "balanced"}


@pytest.fixture(scope="session")
def claims_report():
    """The claims table evaluated once per session at the scenarios'
    committed defaults, on ``default_jobs()`` worker processes."""
    from repro.analysis.claims import evaluate
    from repro.sim.runner import default_jobs

    return evaluate(jobs=default_jobs())


def claim_holds(report, figure: str, quantity: str) -> None:
    """Assert that the claims row ``figure | quantity`` holds."""
    matches = [
        o for o in report.outcomes
        if o.claim.figure == figure and o.claim.quantity == quantity
    ]
    assert len(matches) == 1, f"no single claims row {figure} | {quantity}"
    assert matches[0].ok, f"{figure} | {quantity}: " + "; ".join(matches[0].problems())
