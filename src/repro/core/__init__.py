"""Core ecovisor: virtual energy systems, accounting, and the narrow API.

Attribute access is lazy (PEP 562): importing a leaf module such as
``repro.core.errors`` must not pull in the whole ecovisor stack, because
substrate packages (energy, carbon, cluster, telemetry) depend on the
leaf modules while the ecovisor depends on the substrates.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "AppAccount": "repro.core.accounting",
    "CarbonLedger": "repro.core.accounting",
    "TickSettlement": "repro.core.accounting",
    "EcovisorAPI": "repro.core.api",
    "connect": "repro.core.api",
    "DEFAULT_TICK_INTERVAL_S": "repro.core.clock",
    "SimulationClock": "repro.core.clock",
    "TickInfo": "repro.core.clock",
    "BatteryConfig": "repro.core.config",
    "CarbonServiceConfig": "repro.core.config",
    "ClusterConfig": "repro.core.config",
    "EcovisorConfig": "repro.core.config",
    "GridConfig": "repro.core.config",
    "ServerConfig": "repro.core.config",
    "ShareConfig": "repro.core.config",
    "SolarConfig": "repro.core.config",
    "Ecovisor": "repro.core.ecovisor",
    "AppAdmittedEvent": "repro.core.events",
    "AppEvictedEvent": "repro.core.events",
    "ShareChangedEvent": "repro.core.events",
    "event_from_dict": "repro.core.events",
    "event_to_dict": "repro.core.events",
    "EventJournal": "repro.core.journal",
    "JournalPage": "repro.core.journal",
    "BatteryEmptyEvent": "repro.core.events",
    "BatteryFullEvent": "repro.core.events",
    "CarbonChangeEvent": "repro.core.events",
    "Event": "repro.core.events",
    "EventBus": "repro.core.events",
    "SolarChangeEvent": "repro.core.events",
    "TickEvent": "repro.core.events",
    "AppEnergyLibrary": "repro.core.library",
    "BatteryState": "repro.core.state",
    "EnergyState": "repro.core.state",
    "AppAdmitted": "repro.core.signals",
    "AppEvicted": "repro.core.signals",
    "ShareChanged": "repro.core.signals",
    "BatteryEmpty": "repro.core.signals",
    "BatteryFull": "repro.core.signals",
    "CarbonChange": "repro.core.signals",
    "PriceChange": "repro.core.signals",
    "SignalBus": "repro.core.signals",
    "SolarChange": "repro.core.signals",
    "Subscription": "repro.core.signals",
    "VirtualBattery": "repro.core.virtual_battery",
    "scaled_battery_config": "repro.core.virtual_battery",
    "VirtualEnergySystem": "repro.core.virtual_energy_system",
    "EcovisorError": "repro.core.errors",
    "ConfigurationError": "repro.core.errors",
    "AuthorizationError": "repro.core.errors",
    "EnergyConservationError": "repro.core.errors",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_path = _EXPORTS.get(name)
    if module_path is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(module_path)
    return getattr(module, name)


def __dir__() -> list:
    return __all__
