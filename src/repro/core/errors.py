"""Exception hierarchy for the ecovisor reproduction.

Every error raised by the library derives from :class:`EcovisorError` so
applications can catch library failures with a single handler, mirroring
how the paper's REST prototype maps failures onto HTTP error classes.
"""

from __future__ import annotations


class EcovisorError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(EcovisorError):
    """A subsystem was configured with invalid or inconsistent parameters."""


class UnknownContainerError(EcovisorError, KeyError):
    """An operation referenced a container id that does not exist."""

    def __init__(self, container_id: str):
        super().__init__(f"unknown container: {container_id!r}")
        self.container_id = container_id

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the message; show it plainly instead.
        return self.args[0]


class UnknownApplicationError(EcovisorError, KeyError):
    """An operation referenced an application that is not registered."""

    def __init__(self, app_name: str):
        super().__init__(f"unknown application: {app_name!r}")
        self.app_name = app_name

    def __str__(self) -> str:
        return self.args[0]


class AuthorizationError(EcovisorError):
    """An application attempted to operate on a resource it does not own.

    The ecovisor multiplexes one physical energy system across many virtual
    ones (paper Section 3.3); each application may only touch its own
    containers and virtual battery.
    """


class SchedulingError(EcovisorError):
    """The orchestration platform could not place or scale a container."""


class InsufficientResourcesError(SchedulingError):
    """No server has enough free cores to satisfy an allocation request."""


class EnergyConservationError(EcovisorError):
    """An energy settlement violated conservation; indicates a library bug.

    Physics dictates the virtualized energy system is energy-conserving
    (paper Section 3.1).  This error is the runtime assertion of that
    invariant and should never surface during normal operation.
    """


class TraceError(EcovisorError):
    """A trace (carbon, solar, or workload) was malformed or out of range."""


class UnknownTraceNameError(TraceError, ValueError):
    """A trace name failed to resolve against its known set.

    Raised for unknown carbon regions, price regimes, bundled dataset
    names, and generation specs.  Also a :class:`ValueError` so callers
    validating plain string arguments (CLI adapters, scenario builders)
    can catch it without importing the library hierarchy.  The message
    always lists the valid names.
    """

    def __init__(self, kind: str, name: str, known):
        super().__init__(
            f"unknown {kind} {name!r}; known {kind}s: "
            + ", ".join(sorted(known))
        )
        self.kind = kind
        self.name = name
        self.known = tuple(sorted(known))


class DatasetIntegrityError(TraceError):
    """A bundled dataset's bytes did not match its registered checksum.

    Dataset-backed runs are only reproducible if the data they read is
    exactly the data the registry promises; a mismatch means a corrupted
    or locally edited file, and the run must not proceed on it.
    """


class ScenarioError(EcovisorError):
    """A scenario definition or parameter override was invalid."""


class UnknownScenarioError(ScenarioError, KeyError):
    """An operation referenced a scenario that is not registered."""

    def __init__(self, name: str):
        super().__init__(f"unknown scenario: {name!r}")
        self.scenario_name = name

    def __str__(self) -> str:
        return self.args[0]


class SimulationError(EcovisorError):
    """The simulation engine reached an inconsistent state."""
