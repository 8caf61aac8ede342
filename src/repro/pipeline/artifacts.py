"""On-disk content-addressed artifact cache with LRU eviction.

Stage outputs are pickled to ``<cache_dir>/<key>.pkl`` where ``key`` is the
stage's content-derived cache key (see :mod:`repro.pipeline.hashing`).  The
store is safe for concurrent writers — every ``put`` writes to a private
temp file and ``os.replace``s it into place, so sweep workers sharing one
cache directory never observe a torn artifact — and self-heals on corrupt
entries by treating them as misses and deleting the file.

The cache is bounded: once the directory exceeds
``DCMBQC_ARTIFACT_CACHE_LIMIT_MB`` (default 256 MiB) the least-recently-used
entries (by mtime, refreshed on every ``get``) are evicted, mirroring the
in-process stage memo's :class:`repro.pipeline.pipeline.LRUCache` policy on
disk.

Environment variables:

* ``DCMBQC_ARTIFACT_CACHE_DIR`` — cache directory; unset/empty disables the
  on-disk layer (the in-process memo cache still applies).
* ``DCMBQC_ARTIFACT_CACHE_LIMIT_MB`` — size bound in MiB (default 256).
"""

from __future__ import annotations

import os
import pathlib
import pickle
import tempfile
from typing import List, Optional, Tuple, Union

__all__ = [
    "ArtifactStore",
    "resolve_store",
    "caching_disabled",
    "CACHE_DIR_ENV",
    "CACHE_LIMIT_ENV",
    "CACHE_DISABLE_ENV",
    "DEFAULT_CACHE_LIMIT_MB",
]

CACHE_DIR_ENV = "DCMBQC_ARTIFACT_CACHE_DIR"
CACHE_LIMIT_ENV = "DCMBQC_ARTIFACT_CACHE_LIMIT_MB"
CACHE_DISABLE_ENV = "DCMBQC_PIPELINE_DISABLE_CACHE"
DEFAULT_CACHE_LIMIT_MB = 256

_SUFFIX = ".pkl"


class ArtifactStore:
    """Content-addressed pickle store bounded by total size with LRU eviction."""

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_bytes is None:
            max_bytes = _limit_from_environment()
        if max_bytes < 1:
            raise ValueError("artifact cache size bound must be positive")
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        # Scanning the directory on every put would make writes O(entries);
        # instead eviction runs once per _scan_interval bytes written by
        # this instance (short-lived instances may overshoot the bound by
        # at most one interval — it is enforced on the next scan).
        self._scan_interval = max(1, max_bytes // 16)
        self._written_since_scan = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}{_SUFFIX}"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return len(self.keys())

    def keys(self) -> List[str]:
        """Keys of every stored artifact."""
        return sorted(path.stem for path in self.root.glob(f"*{_SUFFIX}"))

    def get(self, key: str) -> Optional[object]:
        """Load the artifact for ``key``; ``None`` on miss or corrupt entry."""
        path = self._path(key)
        try:
            payload = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            # Corrupt entry (interrupted writer on a non-atomic filesystem,
            # version skew): drop it and treat as a miss.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        try:
            os.utime(path)  # refresh recency for LRU eviction
        except OSError:  # pragma: no cover - entry raced away
            pass
        self.hits += 1
        return value

    def put(self, key: str, value: object, payload: Optional[bytes] = None) -> None:
        """Store ``value`` under ``key`` atomically, then enforce the bound.

        Callers that already hold the pickled bytes (the pipeline's memo
        layer) pass them as ``payload`` to avoid serialising twice.
        """
        path = self._path(key)
        if payload is None:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            descriptor, temp_name = tempfile.mkstemp(
                dir=self.root, prefix=f".{key}-", suffix=".tmp"
            )
        except FileNotFoundError:
            # The cache directory was removed behind a long-lived instance.
            self.root.mkdir(parents=True, exist_ok=True)
            descriptor, temp_name = tempfile.mkstemp(
                dir=self.root, prefix=f".{key}-", suffix=".tmp"
            )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(payload)
            os.replace(temp_name, path)
        except OSError:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self._written_since_scan += len(payload)
        if self._written_since_scan >= self._scan_interval:
            self._written_since_scan = 0
            self._evict()

    def _entries(self) -> List[Tuple[float, int, pathlib.Path]]:
        entries: List[Tuple[float, int, pathlib.Path]] = []
        for path in self.root.glob(f"*{_SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def _evict(self) -> None:
        entries = sorted(self._entries())
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            path.unlink(missing_ok=True)
            total -= size

    def clear(self) -> None:
        """Remove every stored artifact (keeps the directory)."""
        for path in self.root.glob(f"*{_SUFFIX}"):
            path.unlink(missing_ok=True)
        self.hits = 0
        self.misses = 0


def _limit_from_environment() -> int:
    raw = os.environ.get(CACHE_LIMIT_ENV, "")
    try:
        return max(1, int(float(raw) * 1024 * 1024))
    except ValueError:
        return DEFAULT_CACHE_LIMIT_MB * 1024 * 1024


def caching_disabled() -> bool:
    """True when ``DCMBQC_PIPELINE_DISABLE_CACHE`` forces uncached compiles.

    Set by the CLI's ``--no-cache`` flag (and inherited by sweep worker
    processes) so that *every* cache layer — disk, in-process memo, and the
    task-level computation caches — is bypassed, making timing measurements
    honest.
    """
    return os.environ.get(CACHE_DISABLE_ENV, "") == "1"


#: Stores resolved from configuration, one per (directory, bound): reusing
#: the instance lets the eviction byte counter accumulate across compiles
#: (a fresh instance per compile would re-scan or never scan) and skips the
#: per-call mkdir.
_RESOLVED_STORES: dict = {}


def resolve_store(
    cache_dir: Optional[Union[str, pathlib.Path]] = None,
    enabled: bool = True,
) -> Optional[ArtifactStore]:
    """Return the artifact store implied by ``cache_dir`` or the environment.

    Returns ``None`` (no on-disk caching) when disabled or when neither
    ``cache_dir`` nor ``DCMBQC_ARTIFACT_CACHE_DIR`` names a directory.  The
    environment lookup happens per call so sweep workers and tests pick up
    changes without re-importing; resolved stores are cached per process.
    """
    if not enabled or caching_disabled():
        return None
    directory = cache_dir if cache_dir else os.environ.get(CACHE_DIR_ENV, "")
    if not directory:
        return None
    key = (str(pathlib.Path(directory)), _limit_from_environment())
    store = _RESOLVED_STORES.get(key)
    if store is None:
        store = _RESOLVED_STORES[key] = ArtifactStore(directory, max_bytes=key[1])
    return store
