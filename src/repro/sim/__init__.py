"""Discrete-event simulation kernel: event scheduler, simulator, components, stats."""

from .component import Component, SharedResource
from .event_queue import EventHandle, EventQueue
from .simulator import SimulationError, Simulator
from .stats import (DEFAULT_SUMMARY, SUMMARY_BACKENDS, CounterHandle,
                    Histogram, QuantileSketch, StatsRegistry, geometric_mean,
                    make_summary, resolve_summary, summary_env)

__all__ = [
    "Component",
    "SharedResource",
    "CounterHandle",
    "DEFAULT_SUMMARY",
    "EventHandle",
    "EventQueue",
    "SUMMARY_BACKENDS",
    "SimulationError",
    "Simulator",
    "Histogram",
    "QuantileSketch",
    "StatsRegistry",
    "geometric_mean",
    "make_summary",
    "resolve_summary",
    "summary_env",
]
