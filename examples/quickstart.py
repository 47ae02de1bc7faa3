#!/usr/bin/env python3
"""Quickstart: assemble an ecovisor and exercise the Table 1 API.

Builds a small physical energy system (grid + battery + solar), wraps it
in an ecovisor over an LXD-like container platform, registers one
application with a 50% solar / 50% battery share, and runs a few hours of
simulated time while printing what the application observes through the
narrow API.

Run:  python examples/quickstart.py
"""

from repro.carbon import CarbonIntensityService
from repro.cluster import ContainerOrchestrationPlatform
from repro.core import (  # noqa: F401 (re-exported names used below)
    EcovisorConfig,
    ShareConfig,
    SimulationClock,
)
from repro.core.api import connect
from repro.core.ecovisor import Ecovisor
from repro.energy import (
    Battery,
    GridConnection,
    PhysicalEnergySystem,
    SolarArrayEmulator,
)


def main() -> None:
    # 1. The physical energy system: grid + 1440 Wh battery + solar array.
    plant = PhysicalEnergySystem(
        grid=GridConnection(),
        battery=Battery(),
        solar=SolarArrayEmulator(),
    )

    # 2. Substrates: container platform and a carbon information service
    #    (synthetic CAISO-like trace sampled every 5 minutes).
    platform = ContainerOrchestrationPlatform()
    carbon = CarbonIntensityService()

    # 3. The ecovisor multiplexes the plant across applications.
    ecovisor = Ecovisor(plant, platform, carbon)
    ecovisor.admit_app(
        "demo", ShareConfig(solar_fraction=0.5, battery_fraction=0.5)
    )
    api = connect(ecovisor, "demo")

    # 4. The application: two containers, one power-capped.
    worker_a = api.launch_container(cores=2)
    worker_b = api.launch_container(cores=2)
    api.set_container_powercap(worker_b.id, 1.0)  # watts
    api.set_battery_max_discharge(5.0)
    api.set_battery_charge_rate(0.0)  # never charge from the grid

    # 5. Register a tick() upcall that reacts to carbon-intensity.
    #    The callback receives the tick's immutable EnergyState snapshot.
    def on_tick(tick, state):
        if state.grid_carbon_g_per_kwh > 250.0:
            api.set_container_powercap(worker_a.id, 1.5)
        else:
            api.set_container_powercap(worker_a.id, None)

    api.register_tick(on_tick)

    # 6. Drive the tick loop for six simulated hours starting at 6 am.
    clock = SimulationClock()
    for _ in range(6 * 60):
        tick = clock.current_tick()
        ecovisor.begin_tick(tick)
        ecovisor.invoke_app_ticks(tick)
        for container in (worker_a, worker_b):
            container.set_demand_utilization(1.0)
        ecovisor.settle(tick)
        clock.advance()
        if tick.index % 60 == 0:
            state = api.state()  # one frozen observation per tick
            print(
                f"t={tick.start_hours:5.1f}h  "
                f"solar={state.solar_power_w:6.2f} W  "
                f"grid={state.grid_power_w:6.2f} W  "
                f"carbon={state.grid_carbon_g_per_kwh:6.1f} g/kWh  "
                f"battery={state.battery_charge_level_wh:6.1f} Wh"
            )

    account = ecovisor.ledger.account("demo")
    print(
        f"\ntotals: energy={account.energy_wh:.1f} Wh "
        f"(solar {account.solar_wh:.1f}, battery {account.battery_wh:.1f}, "
        f"grid {account.grid_wh:.1f}), carbon={account.carbon_g:.2f} g"
    )


if __name__ == "__main__":
    main()
