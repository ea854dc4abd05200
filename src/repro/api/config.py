"""One place for every ``REPRO_*`` runtime knob.

:class:`Config` is the only code in the package that reads a
``REPRO_*`` environment variable.  Every other module takes the
resolved value as an argument -- a cache root, a run-DB path, an
artifact store -- and falls back to a fixed default, never to the
environment.  A config has one construction rule:

    **explicit argument > environment variable > built-in default**

``Config.from_env(**overrides)`` applies that rule field by field: a
keyword passed explicitly always wins, an unset keyword falls back to
the corresponding environment variable, and an unset/invalid
environment value falls back to the built-in default (a stray
environment variable must never break a run).

=====================  ======================  ==========================
field                  environment variable    meaning
=====================  ======================  ==========================
``jobs``               ``REPRO_JOBS``          worker processes (0 = all
                                               cores)
``cache``              ``REPRO_NO_CACHE``      result cache on/off
                                               (env is the *negation*)
``cache_dir``          ``REPRO_CACHE_DIR``     result-cache root
                                               (``~/.cache/repro-exp``)
``cache_lru_mb``       ``REPRO_CACHE_LRU_MB``  in-process blob LRU bound
``job_timeout_s``      ``REPRO_JOB_TIMEOUT``   per-job deadline (None =
                                               unlimited)
``telemetry``          ``REPRO_TELEMETRY``     live telemetry bus on/off
``telemetry_dir``      ``REPRO_TELEMETRY``     snapshot dir (a path value
                                               both enables and locates)
``hb_interval_s``      ``REPRO_HB_INTERVAL``   heartbeat period
``trace``              ``REPRO_TRACE``         span-trace JSONL path
``run_db``             ``REPRO_RUN_DB``        run-history SQLite path
                                               (``~/.cache/repro/
                                               runs.db``)
``artifact_dir``       ``REPRO_ARTIFACT_DIR``  job-server artifact store
                                               (``~/.cache/repro/
                                               artifacts``)
=====================  ======================  ==========================

The CLI and the job server both build their runtime from here (see
:meth:`Config.runner` and :meth:`Config.flow_options`), so the
precedence rule is enforced in exactly one module and locked by
``tests/test_api.py``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any

__all__ = ["Config", "UNSET"]


class _Unset:
    """Sentinel distinguishing "not passed" from an explicit ``None``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSET"


UNSET = _Unset()

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("", "0", "false", "no", "off")


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ[name])
    except (KeyError, ValueError):
        return default


def _env_bool(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() in _TRUTHY


def _env_str(name: str) -> str | None:
    raw = os.environ.get(name)
    return raw if raw else None


def job_timeout_from_env(default: float | None = None) -> float | None:
    """``REPRO_JOB_TIMEOUT`` in seconds: ``default`` when it is unset or
    unparseable, ``None`` (no limit) when it is not positive."""
    try:
        value = float(os.environ["REPRO_JOB_TIMEOUT"])
    except (KeyError, ValueError):
        return default
    return value if value > 0 else None


def _env_lru_mb() -> float:
    try:
        value = float(os.environ["REPRO_CACHE_LRU_MB"])
    except (KeyError, ValueError):
        return 64.0
    return max(0.0, value)


def _env_telemetry() -> tuple[bool, str | None]:
    raw = os.environ.get("REPRO_TELEMETRY", "").strip()
    enabled = raw.lower() not in _FALSY
    if enabled and raw.lower() not in _TRUTHY:
        return True, raw
    return enabled, None


def _env_hb_interval() -> float:
    try:
        value = float(os.environ["REPRO_HB_INTERVAL"])
    except (KeyError, ValueError):
        return 0.5
    return value if value > 0 else 0.5


@dataclass(frozen=True)
class Config:
    """Resolved runtime configuration (see module docstring).

    Instances are immutable; derive variants with
    :func:`dataclasses.replace`.  Build one honouring the environment
    with :meth:`from_env`.
    """

    jobs: int = 1
    cache: bool = True
    cache_dir: str | None = None
    cache_lru_mb: float = 64.0
    job_timeout_s: float | None = None
    telemetry: bool = False
    telemetry_dir: str | None = None
    hb_interval_s: float = 0.5
    trace: str | None = None
    run_db: str | None = None
    artifact_dir: str | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, **overrides: Any) -> "Config":
        """Environment-resolved config; keywords override field-wise.

        Every keyword accepts :data:`UNSET` (the default) meaning
        "fall back to the environment, then the built-in default"; any
        other value -- including an explicit ``None`` -- wins outright.
        Unknown keywords raise ``TypeError`` so a typo can never
        silently fall back to a default.
        """
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(overrides) - names
        if unknown:
            raise TypeError(f"unknown Config field(s): {sorted(unknown)}")
        telemetry, telemetry_dir = _env_telemetry()
        env_values: dict[str, Any] = {
            "jobs": _env_int("REPRO_JOBS", 1),
            "cache": not _env_bool("REPRO_NO_CACHE", False),
            "cache_dir": _env_str("REPRO_CACHE_DIR"),
            "cache_lru_mb": _env_lru_mb(),
            "job_timeout_s": job_timeout_from_env(),
            "telemetry": telemetry,
            "telemetry_dir": telemetry_dir,
            "hb_interval_s": _env_hb_interval(),
            "trace": _env_str("REPRO_TRACE"),
            "run_db": _env_str("REPRO_RUN_DB"),
            "artifact_dir": _env_str("REPRO_ARTIFACT_DIR"),
        }
        for name, value in overrides.items():
            if value is not UNSET:
                env_values[name] = value
        return cls(**env_values)

    # ------------------------------------------------------------------
    def runner(self):
        """A :class:`~repro.exp.runner.ParallelRunner` built from this
        config (workers, cache and timeout all resolved here, not
        re-read from the environment)."""
        from ..exp import NullCache, ParallelRunner, ResultCache
        cache = (ResultCache(self.cache_dir, lru_mb=self.cache_lru_mb)
                 if self.cache else NullCache())
        return ParallelRunner(jobs=self.jobs, cache=cache,
                              timeout_s=self.job_timeout_s)

    def flow_options(self, **fields: Any):
        """:class:`~repro.flow.flow.FlowOptions` whose stage cache is
        this config's (on/off, root, LRU bound); ``fields`` set the
        rest (arch, seed, ...)."""
        from ..flow.flow import FlowOptions
        return FlowOptions(use_cache=self.cache, cache_dir=self.cache_dir,
                           cache_lru_mb=self.cache_lru_mb, **fields)
