"""Discrete-event simulation kernel: simulator and event scheduler, components, stats."""

from .component import Component, SharedResource
from .simulator import SimulationError, Simulator
from .stats import Histogram, Publisher, StatsRegistry, geometric_mean

__all__ = [
    "Component",
    "SharedResource",
    "SimulationError",
    "Simulator",
    "Histogram",
    "Publisher",
    "StatsRegistry",
    "geometric_mean",
]
