"""Content-addressed job specifications.

A :class:`JobSpec` is a declarative, picklable description of one unit
of experimental work: a *kind* (the name of a registered task, see
:mod:`repro.exp.tasks`) plus keyword parameters.  Its cache key is the
SHA-256 digest of

* the canonical JSON form of the spec (kind + parameters, with
  dataclasses such as :class:`repro.circuit.technology.Technology`
  expanded field by field, so perturbing any technology parameter
  changes the key), and
* a *code version* -- by default a digest over every ``.py`` source
  file of the :mod:`repro` package, so any code change invalidates all
  cached results rather than silently serving stale ones.

Keys are therefore stable across processes and sessions for identical
work, and distinct for any observable difference in what would be
computed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping

__all__ = ["JobSpec", "canonical", "canonical_json", "content_key",
           "repro_code_version"]

#: Bumping this invalidates every cache entry made by older engines.
ENGINE_VERSION = "repro-exp-1"


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serialisable canonical form.

    Dataclasses (Technology, ArchParams, ...) are expanded to tagged
    field dicts; mappings get string keys; tuples become lists.  Raises
    ``TypeError`` for values with no stable representation (arbitrary
    objects would make keys meaningless).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: dict[str, Any] = {"__dataclass__": type(value).__name__}
        for f in dataclasses.fields(value):
            out[f.name] = canonical(getattr(value, f.name))
        return out
    if isinstance(value, Mapping):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for "
                    f"content addressing: {value!r}")


def canonical_json(value: Any) -> str:
    """Deterministic JSON text of :func:`canonical` (sorted keys)."""
    return json.dumps(canonical(value), sort_keys=True, allow_nan=True)


@lru_cache(maxsize=1)
def repro_code_version() -> str:
    """Digest over every ``.py`` file of the installed repro package."""
    root = Path(__file__).resolve().parent.parent
    h = hashlib.sha256(ENGINE_VERSION.encode())
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def content_key(*parts: str, code_version: str | None = None) -> str:
    """The one key recipe: SHA-256 of ``parts``, the code version and
    the chipdb schema hash, joined by ``\0``.

    Job specs, service requests and flow stages all key their results
    this way, so a code change or any revision of the fabric's
    configuration layout (fuse maps, frame order, stream framing)
    invalidates every cached result: results computed under one chip
    database can never alias another's.
    """
    from ..bitgen.chipdb import chipdb_schema_hash
    if code_version is None:
        code_version = repro_code_version()
    return hashlib.sha256("\0".join(
        (*parts, code_version, chipdb_schema_hash())).encode()).hexdigest()


@dataclass
class JobSpec:
    """One unit of work: a registered task kind plus its parameters.

    How the engine runs it (workers, deadline, cache) is the runner's
    business, not the spec's: the key covers the work alone.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def make(cls, kind: str, **params: Any) -> "JobSpec":
        return cls(kind=kind, params=params)

    def canonical_json(self) -> str:
        return canonical_json({"kind": self.kind, "params": self.params})

    def key(self, code_version: str | None = None) -> str:
        """SHA-256 cache key of spec + technology params + code version
        (see :func:`content_key`)."""
        return content_key(self.canonical_json(), code_version=code_version)

    def __str__(self) -> str:  # compact display for logs / errors
        args = ", ".join(f"{k}={v!r}" for k, v in self.params.items()
                         if not dataclasses.is_dataclass(v))
        return f"{self.kind}({args})"
