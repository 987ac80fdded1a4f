"""Discrete-event simulation kernel: simulator and event scheduler, components, stats."""

from .component import Component, SharedResource
from .simulator import SimulationError, Simulator
from .stats import CounterHandle, Histogram, StatsRegistry, geometric_mean

__all__ = [
    "Component",
    "SharedResource",
    "CounterHandle",
    "SimulationError",
    "Simulator",
    "Histogram",
    "StatsRegistry",
    "geometric_mean",
]
