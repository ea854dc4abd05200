"""Spans: the flow's measurement substrate.

A :class:`Span` is one timed region of work -- a flow stage, a batch of
experiment jobs, an annealing run -- with free-form scalar attributes
(cache hit/miss, LUT count, channel width, ...).
Spans nest through a :mod:`contextvars` stack, so a trace of one run
reconstructs as a tree; finished spans are appended to the ambient
:class:`Tracer` as plain JSONL-ready dicts.

Design constraints, in order:

1. **Near-zero overhead.**  Opening a span is a dict + two clock reads;
   hot inner loops (placer moves, router expansions) never touch the
   tracer -- they accumulate plain local ints and attach totals as span
   attributes on exit.  Tracing can also be disabled entirely
   (:func:`set_enabled`), which turns :func:`span` into a shared no-op.
2. **Process friendly.**  Worker processes trace into their own
   :class:`Tracer`; the parent grafts the exported records under the
   job's span with :func:`adopt`.  Span ids carry a per-tracer random
   prefix, so merged traces never collide.
3. **Plain data.**  A record is ``{span_id, parent_id, name, t_wall,
   seconds, attrs}`` -- one JSON object per line on export, no schema
   beyond that.  Numbers a stage or loop reports are span attributes,
   or :class:`~repro.obs.metrics.MetricSet` rows.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import os
import time
from typing import Any, Iterable, Iterator

__all__ = [
    "NOOP_SPAN", "Span", "Tracer", "adopt", "capture",
    "current_span", "default_tracer", "emit", "enabled",
    "set_enabled", "set_span_listener", "span",
    "span_listener", "tracer",
]

#: Hard cap on records held by one tracer (runaway-loop backstop).
MAX_RECORDS = 100_000

_current_span: contextvars.ContextVar["Span | None"] = \
    contextvars.ContextVar("repro_obs_span", default=None)
_current_tracer: contextvars.ContextVar["Tracer | None"] = \
    contextvars.ContextVar("repro_obs_tracer", default=None)

#: Optional process-wide ``fn(phase, span)`` hook, called with
#: ``"open"`` on span entry and ``"close"`` on exit.  A pool worker
#: (:mod:`repro.exp.pool`) installs it while its parent listens, to
#: send span events over its job pipe as they happen; ``None`` (the
#: default) keeps the span path hook-free -- one global read per
#: open/close.
_span_listener = None


def span_listener():
    return _span_listener


def set_span_listener(fn) -> None:
    """Install (or with ``None`` remove) the span open/close hook."""
    global _span_listener
    _span_listener = fn


class Span:
    """One timed, attributed region of work (context manager)."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "attrs",
                 "t_wall", "seconds", "_t0", "_token")

    def __init__(self, tracer: "Tracer", span_id: str,
                 parent_id: str | None, name: str,
                 attrs: dict[str, Any]):
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.t_wall = 0.0
        self.seconds = 0.0
        self._t0 = 0.0
        self._token = None

    def set_attr(self, **attrs: Any) -> "Span":
        """Attach scalar attributes (QoR numbers, outcomes, sizes)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.t_wall = time.time()
        self._token = _current_span.set(self)
        if _span_listener is not None:
            try:
                _span_listener("open", self)
            except Exception:
                pass
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._t0
        _current_span.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        if _span_listener is not None:
            try:
                _span_listener("close", self)
            except Exception:
                pass
        return False


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    span_id = None
    parent_id = None
    name = ""

    def set_attr(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects finished span records as JSONL-ready dicts."""

    def __init__(self, max_records: int = MAX_RECORDS):
        self._records: list[dict[str, Any]] = []
        self.max_records = max_records
        self.dropped = 0
        self._prefix = os.urandom(4).hex()
        self._seq = itertools.count(1)

    # -- span creation -------------------------------------------------
    def _new_id(self) -> str:
        return f"{self._prefix}:{next(self._seq):x}"

    def span(self, name: str, **attrs: Any) -> Span:
        cur = _current_span.get()
        parent = cur.span_id if cur is not None else None
        return Span(self, self._new_id(), parent, name, dict(attrs))

    def emit(self, name: str, *, seconds: float = 0.0,
             parent_id: str | None = None, t_wall: float | None = None,
             **attrs: Any) -> str:
        """Record an already-finished span (no context management)."""
        if parent_id is None:
            cur = _current_span.get()
            parent_id = cur.span_id if cur is not None else None
        sid = self._new_id()
        self._append({
            "span_id": sid,
            "parent_id": parent_id,
            "name": name,
            "t_wall": time.time() if t_wall is None else t_wall,
            "seconds": seconds,
            "attrs": dict(attrs),
        })
        return sid

    def _finish(self, span: Span) -> None:
        self._append({
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "t_wall": span.t_wall,
            "seconds": span.seconds,
            "attrs": span.attrs,
        })

    def _append(self, record: dict[str, Any]) -> None:
        if len(self._records) >= self.max_records:
            self.dropped += 1
            return
        self._records.append(record)

    # -- merging / export ----------------------------------------------
    def adopt(self, records: Iterable[dict[str, Any]],
              parent_id: str | None = None) -> None:
        """Graft records from another tracer (e.g. a worker process).

        Root records (``parent_id is None``) are re-parented under
        ``parent_id`` so the merged trace stays a single tree.
        """
        for rec in records:
            rec = dict(rec)
            if rec.get("parent_id") is None:
                rec["parent_id"] = parent_id
            self._append(rec)

    def export(self) -> list[dict[str, Any]]:
        """Copies of all records, finish-ordered."""
        return [dict(r) for r in self._records]

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    def write_jsonl(self, path: str | os.PathLike) -> int:
        """One JSON object per line; returns the number written.

        The export is atomic: records stream into a sibling temp file
        that replaces ``path`` only after a successful flush+fsync, so
        a crash (or full disk) mid-export can never leave a truncated
        trace behind -- either the previous file survives intact or
        the complete new one does.
        """
        path = os.fspath(path)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as fh:
                for rec in self._records:
                    fh.write(json.dumps(rec, sort_keys=True,
                                        default=str))
                    fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return len(self._records)


#: Process-global fallback tracer (used when none is installed).
_default_tracer = Tracer()
_enabled = True


def default_tracer() -> Tracer:
    return _default_tracer


def tracer() -> Tracer:
    """The ambient tracer: the installed one, else the process global."""
    # Explicit None check: an empty Tracer is falsy (len() == 0).
    t = _current_tracer.get()
    return t if t is not None else _default_tracer


def enabled() -> bool:
    return _enabled


def set_enabled(flag: bool) -> None:
    """Globally enable/disable tracing (disabled spans are no-ops)."""
    global _enabled
    _enabled = bool(flag)


def current_span() -> Span | None:
    return _current_span.get()


def span(name: str, **attrs: Any):
    """Open a span on the ambient tracer (no-op while disabled)."""
    if not _enabled:
        return NOOP_SPAN
    return tracer().span(name, **attrs)


def emit(name: str, *, seconds: float = 0.0,
         parent_id: str | None = None, **attrs: Any) -> str | None:
    """Record a finished span on the ambient tracer."""
    if not _enabled:
        return None
    return tracer().emit(name, seconds=seconds, parent_id=parent_id,
                         **attrs)


def adopt(records: Iterable[dict[str, Any]],
          parent_id: str | None = None) -> None:
    """Graft worker-exported records into the ambient tracer."""
    if not _enabled or not records:
        return
    tracer().adopt(records, parent_id)


@contextlib.contextmanager
def capture(tr: Tracer | None = None) -> Iterator[Tracer]:
    """Install ``tr`` (or a fresh tracer) as ambient for the block.

    The span stack restarts at the root: spans opened inside the block
    become roots of the captured trace rather than children of whatever
    span happened to be open outside (crucial for forked workers, which
    inherit the parent's context).
    """
    tr = tr if tr is not None else Tracer()
    token = _current_tracer.set(tr)
    span_token = _current_span.set(None)
    try:
        yield tr
    finally:
        _current_span.reset(span_token)
        _current_tracer.reset(token)
