"""JSONL trace -> Chrome trace-event JSON (Perfetto-loadable).

The repo's native trace format is one flat JSON object per finished
span (:meth:`repro.obs.trace.Tracer.write_jsonl`).  This module maps
those records onto the Chrome trace-event format understood by
``chrome://tracing`` and https://ui.perfetto.dev, so a captured flow
or sweep opens directly in a real timeline viewer:

* a timed record becomes a complete ``"X"`` event (``ts`` = wall-clock
  start in microseconds, ``dur`` = span seconds in microseconds);
* a zero-duration ``emit`` record becomes an instant ``"i"`` event;
* span attributes land in ``args``;
* each tracer (distinguished by the random span-id prefix before the
  ``:``) maps to its own thread id in first-seen order, so spans
  grafted from different worker processes render as separate tracks.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable

__all__ = ["chrome_trace_events", "write_chrome_trace"]

#: Synthetic process id: the viewer needs one; the real pids (if any)
#: stay readable in each track's thread-name metadata.
PID = 1


def _tracer_prefix(span_id: Any) -> str:
    sid = str(span_id or "")
    return sid.split(":", 1)[0] if ":" in sid else sid or "?"


def chrome_trace_events(records: Iterable[dict[str, Any]]
                        ) -> list[dict[str, Any]]:
    """Map JSONL span records to a Chrome trace-event list.

    Deterministic for a given record sequence: thread ids are assigned
    in first-seen tracer order and the result is sorted by
    ``(ts, tid)``.
    """
    tids: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for rec in records:
        prefix = _tracer_prefix(rec.get("span_id"))
        tid = tids.setdefault(prefix, len(tids) + 1)
        seconds = float(rec.get("seconds", 0.0) or 0.0)
        event = {
            "name": str(rec.get("name", "?")),
            "cat": "repro",
            "pid": PID,
            "tid": tid,
            "ts": float(rec.get("t_wall", 0.0) or 0.0) * 1e6,
            "args": dict(rec.get("attrs") or {}),
        }
        if seconds > 0.0:
            event["ph"] = "X"
            event["dur"] = seconds * 1e6
        else:
            event["ph"] = "i"
            event["s"] = "t"     # thread-scoped instant marker
        events.append(event)
    events.sort(key=lambda e: (e["ts"], e["tid"]))
    meta: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": PID, "tid": 0,
        "args": {"name": "repro-flow"},
    }]
    for prefix, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        meta.append({
            "name": "thread_name", "ph": "M", "pid": PID, "tid": tid,
            "args": {"name": f"tracer {prefix}"},
        })
    return meta + events


def write_chrome_trace(records: Iterable[dict[str, Any]],
                       path: str | os.PathLike) -> int:
    """Write records as a Chrome trace JSON file; returns event count.

    Atomic like :meth:`Tracer.write_jsonl`: the file appears complete
    or not at all.
    """
    events = chrome_trace_events(records)
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, sort_keys=True, default=str)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(events)
