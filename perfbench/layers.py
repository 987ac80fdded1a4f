"""Charge a cProfile run's self time and calls to the simulator's layers.

Each profiled function belongs to the package of its source file under
``src/repro``.  Functions outside the repository (builtins such as
``heapq.heappush``, the standard library) are charged to whichever layer
called them: their self time is split over their callers edge by edge, and a
caller that is itself outside the repository passes its share on to its own
callers in proportion to their cumulative time.  Layer self times therefore
sum to the profile's total.

Profiling the whole operation, rather than wrapping public methods, is what
makes the split honest: ``HMCCube.receive_packet`` inlines the engine's packet
handler and deliveries run as bound closures, so wrappers would miss them.
"""

from __future__ import annotations

from pathlib import Path, PurePath
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src" / "repro"

#: Package under ``src/repro`` -> layer.  Anything else under the repository
#: (``mem``, ``power``, ``analysis``, the CLI, the benchmark) is ``other``.
PACKAGE_LAYERS = {
    "workloads": "workloads", "isa": "workloads",
    "system": "system", "sim": "sim", "cpu": "cpu", "core": "core",
    "network": "network", "hmc": "hmc", "dram": "dram",
    "experiments": "experiments",
}
LAYERS = sorted(set(PACKAGE_LAYERS.values())) + ["other"]

Func = Tuple[str, int, str]


def layer_of(func: Func):
    """The layer that owns ``func``, or None for code outside the repository."""
    path = PurePath(func[0])
    if path.is_relative_to(SOURCES):
        parts = path.relative_to(SOURCES).parts
        return PACKAGE_LAYERS.get(parts[0], "other") if len(parts) > 1 else "other"
    return "other" if path.is_relative_to(HERE) else None


def attribute(profiler) -> Dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.calls`` for every layer, plus the
    profile total ``trace.profiled_s`` and the cumulative seconds of the
    phase entry points the suite calls internally."""
    profiler.create_stats()
    stats = profiler.stats
    shares: Dict[Func, Dict[str, float]] = {}

    def share(func: Func, visiting: frozenset) -> Dict[str, float]:
        """Fractions of ``func``'s time that each layer is charged with."""
        layer = layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        callers = stats[func][4] if func in stats else {}
        weights = {caller: edge[3] or edge[1] for caller, edge in callers.items()
                   if caller not in visiting}
        total = sum(weights.values())
        if not total:
            return {"other": 1.0}
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            for name, part in share(caller, visiting | {func}).items():
                out[name] = out.get(name, 0.0) + part * weight / total
        shares[func] = out
        return out

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (primitive, _, own, _, callers) in stats.items():
        layer = layer_of(func)
        if layer is not None:
            self_s[layer] += own
            calls[layer] += primitive
            continue
        # Split a foreign function's self time over the edges it was called
        # through; time with no recorded caller stays with ``other``.
        charged = 0.0
        for caller, edge in callers.items():
            charged += edge[2]
            for name, part in share(caller, frozenset({func})).items():
                self_s[name] += edge[2] * part
        self_s["other"] += max(0.0, own - charged)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = float(calls[layer])
    out["trace.profiled_s"] = sum(entry[2] for entry in stats.values())
    out.update(entry_points(stats))
    return out


#: Phase entry points timed by cumulative profile time on ``figures-tiny``,
#: where the suite, not the benchmark, makes the calls: (package, function).
#: ``generate`` has an override that calls the base method; the nested call
#: is counted once.
ENTRY_POINTS = {
    "workloads.gen_s": ("workloads", "generate"),
    "system.build_s": ("system", "build_system"),
    "system.collect_s": ("system", "collect_results"),
    "sim.run_s": ("sim", "run_until_idle"),
}


def entry_points(stats) -> Dict[str, float]:
    out = {}
    for name, (package, target) in ENTRY_POINTS.items():
        members = {func for func in stats if func[2] == target and
                   PurePath(func[0]).is_relative_to(SOURCES / package)}
        total = 0.0
        for func in members:
            total += stats[func][3]
            total -= sum(edge[3] for caller, edge in stats[func][4].items()
                         if caller in members)
        out[f"profile.{name}"] = total
    return out
