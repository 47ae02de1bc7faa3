"""Grid connection model.

From the ecovisor's perspective the grid has exactly two observable
properties: it supplies (approximately) unlimited power on demand, and
that power carries a time-varying carbon intensity reported by a carbon
information service.  This class models the first; the carbon signal
lives in :mod:`repro.carbon`.

The paper's prototype validates software power caps against a metered
programmable supply; the ``draw`` method plays that role here by metering
every watt-hour taken from the grid.
"""

from __future__ import annotations

from repro.core.config import GridConfig
from repro.core.units import energy_wh
from repro.energy.source import PowerSource


class GridConnection(PowerSource):
    """A metered grid feed with an optional capacity limit."""

    def __init__(self, config: GridConfig | None = None):
        super().__init__("grid")
        self._config = config or GridConfig()
        self._config.validate()

    @property
    def config(self) -> GridConfig:
        return self._config

    @property
    def max_power_w(self) -> float:
        return self._config.max_power_w

    def available_power_w(self, time_s: float) -> float:
        """The grid supplies up to its interconnect limit at any time."""
        return self._config.max_power_w

    def draw(self, requested_power_w: float, duration_s: float) -> float:
        """Draw ``requested_power_w`` for ``duration_s``; returns power granted.

        The grid only refuses power beyond the interconnect limit.
        """
        if requested_power_w < 0:
            raise ValueError(f"grid draw must be >= 0, got {requested_power_w}")
        granted_w = min(requested_power_w, self._config.max_power_w)
        self._meter(energy_wh(granted_w, duration_s))
        return granted_w
