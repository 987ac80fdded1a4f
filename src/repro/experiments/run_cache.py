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

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Dict, Optional

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


class RunCache:
    """One pickle file per ``(scale, workload, params, config, code digest)`` key."""

    def __init__(self, root: "str | os.PathLike") -> None:
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0

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

        The temporary file is removed if pickling or the rename fails, so
        aborted writes never leave ``.tmp<pid>`` litter behind (a process
        killed mid-write still can; ``prune()`` collects those).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        payload = {"key": key, "result": result}
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

    # -- garbage collection ----------------------------------------------------
    def prune(self) -> Dict[str, int]:
        """Drop cache litter: orphaned temp files and out-of-date entries.

        Removes ``*.tmp<pid>`` files whose writing process is gone (a live
        writer's temp file is left alone), plus every ``.pkl`` entry that is
        unreadable or whose stored key carries a code digest other than the
        current one (those can never hit again).  Returns removal counts.
        """
        summary = {"tmp_removed": 0, "stale_removed": 0, "kept": 0}
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
