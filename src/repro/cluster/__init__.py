"""Container orchestration substrate: servers, containers, scheduling, power."""

from repro.cluster.container import Container, ContainerState
from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.cluster.power_model import PowerBreakdown, ServerPowerModel
from repro.cluster.scheduler import FewestInstancesScheduler
from repro.cluster.server import Server

__all__ = [
    "Container",
    "ContainerOrchestrationPlatform",
    "ContainerState",
    "FewestInstancesScheduler",
    "PowerBreakdown",
    "Server",
    "ServerPowerModel",
]
