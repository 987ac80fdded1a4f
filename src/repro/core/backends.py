"""Generic registry for the library's small pluggable backends.

Three subsystems follow the same pattern — a name -> class table, a default,
an environment-variable override, and ``resolve_*``/``make_*``/``*_env``
helpers with identical resolution order and error wording:

* traffic drivers (:mod:`repro.workloads.drivers`, ``$REPRO_DRIVER``),
* routing policies (:mod:`repro.network.routing`, ``$REPRO_ROUTING``),
* quantile summaries (:mod:`repro.sim.stats`, ``$REPRO_SUMMARY``).

Each keeps its public module-level API (``DRIVER_BACKENDS``,
``resolve_summary`` and friends are stable interfaces) but delegates the
shared machinery to one :class:`BackendRegistry` instance.

This module must import nothing from ``repro``: the simulation kernel pulls
it in while ``repro.core`` is still initialising (``repro/__init__`` imports
``repro.core`` which imports ``repro.sim`` which imports this leaf module),
so any sibling import here would close that cycle.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterator, Optional


class BackendRegistry:
    """A named family of interchangeable backend classes.

    ``kind`` is the human-readable family name used in error messages
    ("traffic driver", "summary backend", ...); ``backends`` maps canonical
    lower-case names to classes; ``env_var`` is consulted when no explicit
    name is given.
    """

    def __init__(self, kind: str, backends: Dict[str, type], default: str,
                 env_var: str) -> None:
        if default not in backends:
            raise ValueError(f"default {kind} {default!r} is not registered")
        self.kind = kind
        self.backends = backends
        self.default = default
        self.env_var = env_var

    def resolve(self, name: Optional[str] = None) -> str:
        """Canonical backend name for a request.

        Resolution order: explicit ``name``, then the environment variable,
        then the default.  Unknown names raise ``ValueError`` listing the
        registered choices.
        """
        if name is None:
            name = os.environ.get(self.env_var) or self.default
        canonical = str(name).strip().lower()
        if canonical not in self.backends:
            raise ValueError(
                f"unknown {self.kind} {name!r}; choose from "
                f"{', '.join(sorted(self.backends))}")
        return canonical

    def make(self, name: Optional[str] = None, *args, **kwargs):
        """Instantiate the backend selected by :meth:`resolve`."""
        return self.backends[self.resolve(name)](*args, **kwargs)

    @contextlib.contextmanager
    def env(self, name: Optional[str]) -> Iterator[None]:
        """Temporarily export a backend choice through the env variable.

        Worker processes inherit the environment, so one export covers
        serial and parallel paths alike; the previous value is restored on
        exit (callers may run in-process, e.g. under tests).  ``None``
        leaves the environment untouched.
        """
        if name is None:
            yield
            return
        previous = os.environ.get(self.env_var)
        os.environ[self.env_var] = self.resolve(name)
        try:
            yield
        finally:
            if previous is None:
                os.environ.pop(self.env_var, None)
            else:
                os.environ[self.env_var] = previous
