"""Persistent on-disk cache of :class:`~repro.system.RunResult` artifacts.

A simulation is a pure function of the simulator's code, the system
configuration and the workload parameters, so — gem5-style — its result is a
cacheable artifact.  Every cache key embeds a digest of the ``repro`` package
sources; editing anything under ``src/repro`` therefore invalidates every
cached run automatically, and a hit is guaranteed to be bit-identical to what
a fresh simulation would produce.

Entries are stored one pickle file per key under ``~/.cache/repro`` (or
``$REPRO_CACHE_DIR`` / an explicit ``--cache-dir``).  Writes are atomic
(``os.replace``) so concurrent benchmark sessions never observe a partial
entry; unreadable or stale files are simply treated as misses.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Dict, Iterator, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..system import RunResult

Key = Dict[str, object]

_CODE_DIGEST: Optional[str] = None


def code_digest() -> str:
    """SHA-256 over every ``repro`` source file (memoized per process)."""
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        package_root = Path(__file__).resolve().parent.parent
        hasher = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(str(path.relative_to(package_root)).encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
        _CODE_DIGEST = hasher.hexdigest()
    return _CODE_DIGEST


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


#: Name of the per-cache-dir measured-cost sidecar (see :meth:`RunCache.record_cost`).
COSTS_FILE = "costs.json"

_MACHINE_FINGERPRINT: Optional[str] = None


def machine_fingerprint() -> str:
    """Short stable identifier of the machine the process is running on.

    Wall-time cost estimates only transfer between runs on comparable
    hardware, so the sidecar keys every EWMA by this fingerprint: a cache
    directory shared between machines (NFS home, a synced container volume)
    keeps one independent cost table per machine instead of blending
    incompatible timings into one estimate.  Hostname, architecture, processor
    string and CPU count pin "same machine" closely enough without reading
    anything outside the stdlib.
    """
    global _MACHINE_FINGERPRINT
    if _MACHINE_FINGERPRINT is None:
        import platform
        raw = "|".join((platform.node(), platform.machine(),
                        platform.processor(), str(os.cpu_count() or 0)))
        _MACHINE_FINGERPRINT = hashlib.sha256(raw.encode()).hexdigest()[:16]
    return _MACHINE_FINGERPRINT

#: Smoothing factor for the sidecar's exponentially-weighted moving average:
#: a fresh sample moves the stored estimate 30% of the way toward itself, so
#: one slow outlier run (a loaded machine, a cold page cache) cannot corrupt
#: prefetch scheduling, while a genuine cost shift still converges in a few
#: runs.
COST_EWMA_ALPHA = 0.3


class RunCache:
    """One pickle file per ``(scale, workload, params, config, code digest)`` key.

    Besides the result entries, the cache directory carries a ``costs.json``
    sidecar, keyed first by :func:`machine_fingerprint` and then by a
    digest-independent job description, holding an exponentially-weighted
    moving average of measured wall times (updates serialize on an ``fcntl``
    lock, so concurrent sessions merge instead of clobbering).  Costs
    deliberately survive code-digest changes: editing the simulator
    invalidates cached *results*, but "pagerank on ARF-tid at this scale takes
    ~2s" remains the best available scheduling estimate — on the machine that
    measured it, which is why estimates never cross fingerprints.
    """

    def __init__(self, root: "str | os.PathLike") -> None:
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0
        self._costs: Optional[Dict[str, float]] = None

    @staticmethod
    def make_key(*, scale: str, workload: str, params: Dict[str, object],
                 config_label: str, profile: str, num_threads: int) -> Key:
        return {
            "digest": code_digest(),
            "scale": scale,
            "workload": workload,
            "params": {name: params[name] for name in sorted(params)},
            "config": config_label,
            "profile": profile,
            "num_threads": num_threads,
        }

    def path_for(self, key: Key) -> Path:
        canonical = json.dumps(key, sort_keys=True, separators=(",", ":"), default=str)
        return self.root / f"{hashlib.sha256(canonical.encode()).hexdigest()[:32]}.pkl"

    def get(self, key: Key) -> Optional[RunResult]:
        """The cached result for ``key``, or ``None``.  Corrupt, unreadable or
        colliding entries count as misses rather than errors."""
        try:
            with open(self.path_for(key), "rb") as handle:
                payload = pickle.load(handle)
        except Exception:
            # Unpickling arbitrary on-disk bytes can fail in many ways
            # (OSError, PickleError, EOFError, ValueError on a future pickle
            # protocol, OverflowError on a corrupt frame, import/attribute
            # errors from stale class paths, ...); any of them is just a miss.
            self.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            self.misses += 1
            return None
        self.hits += 1
        return payload["result"]

    def put(self, key: Key, result: RunResult) -> Path:
        """Store ``result`` under ``key`` atomically; returns the entry path.

        The entry records the run's measured wall time alongside the result
        (when the result carries one), keeping cache files self-describing
        for inspection even though cost lookups go through the sidecar.  The
        temporary file is removed if pickling or the rename fails, so aborted
        writes never leave ``.tmp<pid>`` litter behind (a process killed
        mid-write still can; ``prune()`` collects those).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        metadata = getattr(result, "metadata", None)
        wall_s = metadata.get("wall_s") if isinstance(metadata, dict) else None
        payload = {"key": key, "result": result, "wall_s": wall_s}
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # -- measured-cost sidecar -------------------------------------------------
    @staticmethod
    def cost_key_for(key: Key) -> str:
        """Digest-independent description of a job, used as the sidecar key."""
        stripped = {name: value for name, value in key.items() if name != "digest"}
        return json.dumps(stripped, sort_keys=True, separators=(",", ":"), default=str)

    def _costs_path(self) -> Path:
        return self.root / COSTS_FILE

    def _read_costs_file(self) -> Dict[str, Dict[str, float]]:
        """The whole sidecar, nested ``{machine fingerprint: {job: ewma}}``.

        Pre-fingerprint sidecars were a flat ``{job: ewma}`` dict; those are
        recognised by their scalar values and attributed to the current
        machine (the best available guess: a legacy sidecar was written by
        whoever owned this cache directory).  The first ``record_cost`` after
        an upgrade persists the migrated shape.
        """
        try:
            data = json.loads(self._costs_path().read_text())
        except Exception:
            return {}
        if not isinstance(data, dict):
            return {}
        if data and all(isinstance(v, (int, float)) for v in data.values()):
            return {machine_fingerprint(): {
                k: float(v) for k, v in data.items() if v > 0}}
        return {
            fingerprint: {k: float(v) for k, v in section.items()
                          if isinstance(v, (int, float)) and v > 0}
            for fingerprint, section in data.items()
            if isinstance(section, dict)
        }

    def _read_costs(self) -> Dict[str, float]:
        """This machine's section of the sidecar (see :func:`machine_fingerprint`)."""
        return self._read_costs_file().get(machine_fingerprint(), {})

    @contextlib.contextmanager
    def _costs_lock(self) -> Iterator[None]:
        """Hold an exclusive advisory lock over sidecar read-modify-write.

        The lock lives on a dedicated ``costs.json.lock`` file (never renamed,
        so every process locks the same inode — locking ``costs.json`` itself
        would race with the atomic-replace that swaps it out from under the
        lock).  On platforms without ``fcntl`` the lock degrades to a no-op
        and the re-read-under-update merge is the only protection.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(self.root / f"{COSTS_FILE}.lock", "a") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def record_cost(self, key: Key, wall_s: float) -> None:
        """Fold the measured wall time for ``key``'s job into the sidecar.

        Samples merge as an exponentially-weighted moving average
        (:data:`COST_EWMA_ALPHA`) rather than last-write-wins, so one slow
        outlier run cannot corrupt prefetch scheduling.  The whole
        read-modify-write cycle holds an ``fcntl`` lock and re-reads the file
        under it, so two concurrent sessions can never clobber each other's
        entries wholesale.  The temporary file is removed in a ``finally`` so
        a failed write never leaves ``costs.json.tmp<pid>`` litter behind
        (``prune()`` sweeps the litter of writers that died mid-write).
        Failures are swallowed — the sidecar is advisory.
        """
        if not wall_s or wall_s <= 0:
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with self._costs_lock():
                # Re-read under the lock; a legacy flat sidecar comes back
                # already re-nested under this machine's fingerprint, so this
                # write is also the one-shot migration to the keyed shape.
                data = self._read_costs_file()
                costs = data.setdefault(machine_fingerprint(), {})
                name = self.cost_key_for(key)
                previous = costs.get(name)
                if previous is None:
                    merged = float(wall_s)
                else:
                    merged = previous + COST_EWMA_ALPHA * (float(wall_s) - previous)
                costs[name] = round(merged, 6)
                tmp = self._costs_path().with_name(f"{COSTS_FILE}.tmp{os.getpid()}")
                try:
                    tmp.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
                    os.replace(tmp, self._costs_path())
                finally:
                    with contextlib.suppress(OSError):
                        os.unlink(tmp)  # no-op after a successful replace
            self._costs = costs
        except Exception:
            self._costs = None

    def measured_cost(self, key: Key) -> Optional[float]:
        """The EWMA of measured wall times for ``key``'s job, or ``None``."""
        if self._costs is None:
            self._costs = self._read_costs()
        return self._costs.get(self.cost_key_for(key))

    # -- garbage collection ----------------------------------------------------
    def prune(self) -> Dict[str, int]:
        """Drop cache litter: orphaned temp files and out-of-date entries.

        Removes ``*.tmp<pid>`` files whose writing process is gone (a live
        writer's temp file is left alone) — both result-entry temporaries and
        the cost sidecar's ``costs.json.tmp<pid>`` — plus every ``.pkl`` entry
        that is unreadable or whose stored key carries a code digest other
        than the current one (those can never hit again).  The sidecar's
        ``.lock`` file is deliberately left in place: processes must always
        lock the same inode.  Returns removal counts.

        Cost-sidecar sections recorded by *other* machine fingerprints are
        counted (``cost_other_machines``) but kept: a cache directory shared
        across machines is legitimate, and since estimates never cross
        fingerprints (see :meth:`measured_cost`) foreign sections no longer
        blend into this machine's cost model — they are just invisible here.
        Reporting them makes that visible instead of silently skipping them.
        """
        summary = {"tmp_removed": 0, "stale_removed": 0, "kept": 0,
                   "cost_other_machines": 0}
        if not self.root.is_dir():
            return summary
        digest = code_digest()
        for path in sorted(self.root.glob("*.tmp*")):
            if _tmp_writer_alive(path.name):
                continue
            try:
                path.unlink()
                summary["tmp_removed"] += 1
            except OSError:
                pass
        for path in sorted(self.root.glob("*.pkl")):
            stale = True
            try:
                with open(path, "rb") as handle:
                    payload = pickle.load(handle)
                key = payload.get("key") if isinstance(payload, dict) else None
                stale = not isinstance(key, dict) or key.get("digest") != digest
            except Exception:
                stale = True  # unreadable entries are permanent misses
            if stale:
                try:
                    path.unlink()
                    summary["stale_removed"] += 1
                except OSError:
                    pass
            else:
                summary["kept"] += 1
        mine = machine_fingerprint()
        summary["cost_other_machines"] = sum(
            len(section) for fingerprint, section in self._read_costs_file().items()
            if fingerprint != mine)
        return summary

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))


def _tmp_writer_alive(filename: str) -> bool:
    """True when a ``...tmp<pid>`` file's writing process still exists."""
    _, _, suffix = filename.rpartition(".tmp")
    try:
        pid = int(suffix)
    except ValueError:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass  # e.g. PermissionError: the pid exists but belongs to someone else
    return True
