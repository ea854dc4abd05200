"""On-disk content-addressed result cache with an in-process LRU layer.

Values are pickled under ``<root>/<key[:2]>/<key>.pkl`` where the key
is the SHA-256 digest from :meth:`repro.exp.jobspec.JobSpec.key`.
Writes are atomic (temp file + ``os.replace``) so concurrent worker
processes can share one cache directory safely; a corrupt or
half-written entry reads back as a miss.

Warm-key lookups inside one session additionally hit a bytes-bounded
LRU of pickled blobs (``REPRO_CACHE_LRU_MB``, default 64 MiB, ``0``
disables): a repeat ``get`` skips the disk read entirely and only pays
one ``pickle.loads``.  A blob enters the LRU on its first ``get``, not
on ``put``, so a process that only writes results (the job server
answers resubmits from its artifact store) holds none of them in
memory.  The LRU stores *bytes*, not live objects, so a hit always
returns a fresh value -- callers can never mutate each other's results
through the cache.

The default location is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-exp``.
"""

from __future__ import annotations

import os
import pickle
import shutil
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterator

__all__ = ["ResultCache", "NullCache", "default_cache_dir"]

_ENV_VAR = "REPRO_CACHE_DIR"
ENV_LRU_MB = "REPRO_CACHE_LRU_MB"
DEFAULT_LRU_MB = 64.0


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-exp"


def _default_lru_bytes() -> int:
    try:
        mb = float(os.environ.get(ENV_LRU_MB, DEFAULT_LRU_MB))
    except ValueError:
        mb = DEFAULT_LRU_MB
    return max(0, int(mb * 1024 * 1024))


class ResultCache:
    """Content-addressed pickle store with hit/miss accounting.

    ``lru_mb`` bounds the in-process blob LRU in MiB (``None`` reads
    ``REPRO_CACHE_LRU_MB``; ``0`` disables the layer).  ``hits`` counts
    every successful ``get`` regardless of which layer served it;
    ``lru_hits`` counts the subset that never touched the disk.
    """

    def __init__(self, root: str | os.PathLike | None = None, *,
                 lru_mb: float | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.lru_hits = 0
        if lru_mb is None:
            self._lru_limit = _default_lru_bytes()
        else:
            self._lru_limit = max(0, int(lru_mb * 1024 * 1024))
        self._lru: OrderedDict[str, bytes] = OrderedDict()
        self._lru_bytes = 0

    # -- paths ---------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- LRU layer -----------------------------------------------------
    def _lru_store(self, key: str, blob: bytes) -> None:
        if self._lru_limit <= 0 or len(blob) > self._lru_limit:
            return
        old = self._lru.pop(key, None)
        if old is not None:
            self._lru_bytes -= len(old)
        self._lru[key] = blob
        self._lru_bytes += len(blob)
        while self._lru_bytes > self._lru_limit:
            _, evicted = self._lru.popitem(last=False)
            self._lru_bytes -= len(evicted)

    def _lru_drop(self, key: str) -> None:
        blob = self._lru.pop(key, None)
        if blob is not None:
            self._lru_bytes -= len(blob)

    def lru_bytes(self) -> int:
        """Bytes currently held by the in-process LRU layer."""
        return self._lru_bytes

    # -- access --------------------------------------------------------
    def get(self, key: str) -> tuple[bool, Any]:
        """Return ``(hit, value)``; unreadable entries count as misses."""
        blob = self._lru.get(key)
        if blob is not None:
            try:
                value = pickle.loads(blob)
            except Exception:
                self._lru_drop(key)
            else:
                self._lru.move_to_end(key)
                self.hits += 1
                self.lru_hits += 1
                return True, value
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
            value = pickle.loads(blob)
        except Exception:
            # Unpickling arbitrary corrupt bytes can raise nearly any
            # exception type (ValueError, KeyError, struct.error, ...);
            # a cache read must never propagate, so treat them all as
            # a miss and recompute.
            self.misses += 1
            return False, None
        self._lru_store(key, blob)
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink(missing_ok=True)
        self._lru_drop(key)
        self.puts += 1

    def __contains__(self, key: str) -> bool:
        return key in self._lru or self.path_for(key).exists()

    # -- maintenance ---------------------------------------------------
    def keys(self) -> Iterator[str]:
        if not self.root.exists():
            return
        for path in sorted(self.root.glob("*/*.pkl")):
            yield path.stem

    def entries(self) -> list[tuple[str, int, float]]:
        """``(key, size_bytes, mtime)`` for every on-disk entry."""
        out = []
        if not self.root.exists():
            return out
        for path in sorted(self.root.glob("*/*.pkl")):
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((path.stem, st.st_size, st.st_mtime))
        return out

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self.entries())

    def prune(self, max_age_s: float | None = None) -> tuple[int, int]:
        """Delete entries older than ``max_age_s`` (all when ``None``).

        Returns ``(entries_removed, bytes_freed)``.  Age is measured
        from the entry's mtime, so a freshly re-written key survives.
        """
        now = time.time()
        removed = freed = 0
        if not self.root.exists():
            return removed, freed
        for path in sorted(self.root.glob("*/*.pkl")):
            try:
                st = path.stat()
            except OSError:
                continue
            if max_age_s is not None and now - st.st_mtime <= max_age_s:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            self._lru_drop(path.stem)
            removed += 1
            freed += st.st_size
        return removed, freed

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = len(self)
        if self.root.exists():
            shutil.rmtree(self.root)
        self._lru.clear()
        self._lru_bytes = 0
        return n

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "lru_hits": self.lru_hits}


class NullCache(ResultCache):
    """A cache that never stores anything (``--no-cache``)."""

    def __init__(self):
        super().__init__(root=Path(os.devnull), lru_mb=0)

    def path_for(self, key: str) -> Path:  # never touched
        return self.root

    def get(self, key: str) -> tuple[bool, Any]:
        self.misses += 1
        return False, None

    def put(self, key: str, value: Any) -> None:
        pass

    def __contains__(self, key: str) -> bool:
        return False

    def keys(self) -> Iterator[str]:
        return iter(())

    def entries(self) -> list[tuple[str, int, float]]:
        return []

    def clear(self) -> int:
        return 0
