"""Discrete-event simulation kernel: event scheduler, simulator, components, stats."""

from .component import Component, SharedResource
from .event_queue import EventHandle, EventQueue
from .simulator import SimulationError, Simulator
from .stats import CounterHandle, Histogram, StatsRegistry, geometric_mean

__all__ = [
    "Component",
    "SharedResource",
    "CounterHandle",
    "EventHandle",
    "EventQueue",
    "SimulationError",
    "Simulator",
    "Histogram",
    "StatsRegistry",
    "geometric_mean",
]
