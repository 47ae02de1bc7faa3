#!/usr/bin/env python3
"""Tour of the REST-shaped API surface (paper §4).

The prototype exposes its Table 1 API over REST; this example drives the
in-process equivalent: JSON requests routed by (method, path), with the
same per-application authorization as the native API.

Run:  python examples/rest_api_tour.py
"""

from repro.carbon import CarbonIntensityService
from repro.cluster import ContainerOrchestrationPlatform
from repro.core import ShareConfig, SimulationClock
from repro.core.ecovisor import Ecovisor
from repro.energy import (
    Battery,
    GridConnection,
    PhysicalEnergySystem,
    SolarArrayEmulator,
)
from repro.rest import EcovisorRestServer


def show(label: str, response) -> None:
    print(f"{label:46s} -> {response.status} {response.body}")


def main() -> None:
    plant = PhysicalEnergySystem(
        grid=GridConnection(), battery=Battery(), solar=SolarArrayEmulator()
    )
    ecovisor = Ecovisor(
        plant, ContainerOrchestrationPlatform(), CarbonIntensityService()
    )
    ecovisor.admit_app(
        "shop", ShareConfig(solar_fraction=0.4, battery_fraction=0.4)
    )
    ecovisor.admit_app(
        "batch", ShareConfig(solar_fraction=0.4, battery_fraction=0.4)
    )
    server = EcovisorRestServer(ecovisor)

    # Advance one tick so there are readings to query.
    clock = SimulationClock()
    tick = clock.current_tick()
    ecovisor.begin_tick(tick)
    ecovisor.settle(tick)

    # The snapshot route: the whole Table 1 observation in one call.
    show("GET /v1/apps/shop/state", server.request("GET", "/v1/apps/shop/state"))
    show("GET /v1/apps/shop/carbon", server.request("GET", "/v1/apps/shop/carbon"))
    show("GET /v1/apps/shop/solar", server.request("GET", "/v1/apps/shop/solar"))
    show("GET /v1/apps/shop/battery", server.request("GET", "/v1/apps/shop/battery"))

    launched = server.request(
        "POST", "/v1/apps/shop/containers", {"cores": 2}
    )
    show("POST /v1/apps/shop/containers", launched)
    cid = launched.body["id"]

    show(
        f"POST /v1/apps/shop/containers/{cid}/powercap",
        server.request(
            "POST", f"/v1/apps/shop/containers/{cid}/powercap", {"watts": 1.2}
        ),
    )
    show(
        f"GET /v1/apps/shop/containers/{cid}/powercap",
        server.request("GET", f"/v1/apps/shop/containers/{cid}/powercap"),
    )

    # Authorization: 'batch' cannot touch 'shop' containers.
    show(
        f"POST /v1/apps/batch/containers/{cid}/powercap (403)",
        server.request(
            "POST", f"/v1/apps/batch/containers/{cid}/powercap", {"watts": 1.0}
        ),
    )
    # Unknown application and unknown route map to 404.
    show("GET /v1/apps/ghost/solar (404)", server.request("GET", "/v1/apps/ghost/solar"))
    show("GET /nope (404)", server.request("GET", "/nope"))


if __name__ == "__main__":
    main()
