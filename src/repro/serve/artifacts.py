"""Content-addressed artifact store for completed job results.

Artifacts are keyed by :meth:`repro.api.JobRequest.content_hash` --
SHA-256 over the work description, the package code version and the
chipdb schema hash -- so a key names exactly one result for the
lifetime of the code that produced it.  Two identical submissions,
from any tenant over any transport, resolve to the same artifact and
the second never re-executes.

Layout mirrors the engine's :class:`~repro.exp.cache.ResultCache`
(two-level fan-out, atomic ``rename`` publication) but values are
stored as canonical JSON, not pickles: artifacts are served verbatim
over HTTP to arbitrary clients, and a JSON store can never execute
anything on load.

The default root is ``~/.cache/repro/artifacts``; the job server
passes ``Config.artifact_dir`` (``--artifact-dir`` or
``$REPRO_ARTIFACT_DIR``) instead.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["ArtifactStore", "default_artifact_dir", "is_artifact_hash"]

_HEX = set("0123456789abcdef")


def is_artifact_hash(value: str) -> bool:
    """True for a well-formed artifact key (64 lowercase hex chars).

    Anything else is rejected before it can touch the filesystem, so a
    request path can never traverse outside the store.
    """
    return (isinstance(value, str) and len(value) == 64
            and set(value) <= _HEX)


def default_artifact_dir() -> Path:
    return Path.home() / ".cache" / "repro" / "artifacts"


class ArtifactStore:
    """Disk store of ``{hash: JSON document}`` with atomic publication."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = (Path(root) if root is not None
                     else default_artifact_dir())
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def path_for(self, key: str) -> Path:
        if not is_artifact_hash(key):
            raise ValueError(f"malformed artifact hash {key!r}")
        return self.root / key[:2] / f"{key}.json"

    def has(self, key: str) -> bool:
        return is_artifact_hash(key) and self.path_for(key).exists()

    def get(self, key: str) -> Any | None:
        """The stored JSON value, or ``None`` on miss/corruption."""
        if not is_artifact_hash(key):
            self.misses += 1
            return None
        try:
            raw = self.path_for(key).read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            # A torn or corrupted entry behaves as a miss; the next
            # put() atomically replaces it.
            self.misses += 1
            return None
        self.hits += 1
        return value

    def get_bytes(self, key: str) -> bytes | None:
        """The raw stored JSON document (what HTTP serves verbatim)."""
        if not is_artifact_hash(key):
            return None
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def put(self, key: str, value: Any) -> Path:
        """Store ``value`` under ``key`` (atomic, last writer wins)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = json.dumps(value, sort_keys=True).encode()
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.puts += 1
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json"))
