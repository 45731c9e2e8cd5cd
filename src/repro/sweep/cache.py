"""Content-addressed on-disk cache for sweep results.

A cached entry is addressed by two coordinates:

1. the *point key* — a stable hash of ``(runner, point)`` from
   :func:`repro.sweep.spec.point_key`, and
2. the *code fingerprint* — a stable hash over every ``repro/*.py``
   source file, so any change to the simulation code invalidates all
   prior results without ever serving a stale metric.

Entries live at ``<root>/<fingerprint>/<key[:2]>/<key>.json``
(:func:`repro.store.entry_path`, shared with the fleet compute cache);
a new fingerprint simply opens a fresh namespace (old entries stay behind
for rollbacks until the directory is removed).
Writes go through :func:`repro.store.write_json` (atomic), so a sweep
killed mid-write never leaves a corrupt entry, and concurrent workers
racing on the same point both land a complete file.

The default cache root honours ``REPRO_SWEEP_CACHE`` and falls back
to ``~/.cache/repro-sweep``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from .. import obs
from ..store import code_fingerprint, entry_path, read_json, write_json
from .spec import Value, point_key

#: Environment variable overriding the default cache root.
CACHE_ENV = "REPRO_SWEEP_CACHE"

#: Schema tag of on-disk entries (bump on incompatible changes).
ENTRY_SCHEMA = "repro-sweep-entry/1"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_SWEEP_CACHE`` or ``~/.cache/repro-sweep``."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-sweep"


class ResultCache:
    """Content-addressed store of per-point sweep results.

    Args:
        root: cache directory (created lazily on first write).
        fingerprint: code fingerprint namespace; computed from the
            installed ``repro`` sources when omitted.  Tests inject
            explicit fingerprints to exercise invalidation.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        fingerprint: str | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.fingerprint = (
            fingerprint if fingerprint is not None else code_fingerprint()
        )

    def _path(self, key: str) -> Path:
        return entry_path(self.root, self.fingerprint, key)

    def get(self, runner: str, point: dict[str, Value]) -> dict | None:
        """The stored entry for a point, or ``None`` on a miss.

        Unreadable or schema-mismatched files count as misses (the
        next :meth:`put` overwrites them).
        """
        path = self._path(point_key(runner, point))
        entry = self._read(path)
        if entry is not None:
            obs.add("sweep.cache.hit")
        else:
            obs.add("sweep.cache.miss")
        return entry

    @staticmethod
    def _read(path: Path) -> dict | None:
        entry = read_json(path)
        if not isinstance(entry, dict):
            return None
        if entry.get("schema") != ENTRY_SCHEMA:
            return None
        if not isinstance(entry.get("metrics"), dict):
            return None  # truncated/hand-edited entry: treat as miss
        return entry

    def put(
        self,
        runner: str,
        point: dict[str, Value],
        metrics: dict[str, Value],
        wall_s: float,
    ) -> dict:
        """Store one result atomically and return the entry written."""
        obs.add("sweep.cache.store")
        key = point_key(runner, point)
        entry = {
            "schema": ENTRY_SCHEMA,
            "key": key,
            "fingerprint": self.fingerprint,
            "runner": runner,
            "point": point,
            "metrics": metrics,
            "wall_s": wall_s,
            "created_unix": time.time(),
        }
        write_json(self._path(key), entry)
        return entry

    def __len__(self) -> int:
        """Entries stored under the current fingerprint."""
        namespace = self.root / self.fingerprint
        if not namespace.is_dir():
            return 0
        return sum(1 for _ in namespace.rglob("*.json"))
