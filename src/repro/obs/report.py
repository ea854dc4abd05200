"""Render exported traces: span tree and per-stage aggregates.

Consumes the JSONL records written by :meth:`Tracer.write_jsonl` (or a
live ``Tracer.export()`` list) and produces the two views the CLI
exposes:

* ``repro-flow trace run.jsonl``  -- the per-run summary tree: every
  span with wall time, cache hit/miss and its QoR attributes, indented
  under its parent;
* ``repro-flow stats run.jsonl``  -- per-span-name aggregates: count,
  total/mean/max seconds, cache hits vs misses, errors.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable

__all__ = ["TraceReadError", "load_jsonl", "build_tree", "render_tree",
           "aggregate", "render_stats", "format_seconds"]

#: Attributes rendered specially rather than as ``k=v``.
_SPECIAL_ATTRS = ("cache_hit",)


class TraceReadError(RuntimeError):
    """A trace file could not be read: missing, unreadable or truncated.

    Raised with a human-oriented message so the CLI can print it
    verbatim and exit cleanly instead of surfacing a traceback.
    """


def load_jsonl(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Read one span record per line; blank lines are skipped.

    Raises :class:`TraceReadError` (with the offending line number for
    truncated/corrupt files) rather than leaking ``FileNotFoundError``
    or ``json.JSONDecodeError`` to the caller.
    """
    records = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceReadError(
                        f"{path}: line {lineno} is not valid JSON "
                        f"({exc.msg}); the trace file is truncated or "
                        f"corrupt") from exc
                if not isinstance(rec, dict):
                    raise TraceReadError(
                        f"{path}: line {lineno} is not a span record "
                        f"(expected a JSON object, got "
                        f"{type(rec).__name__})")
                records.append(rec)
    except OSError as exc:
        raise TraceReadError(
            f"cannot read trace file {path}: {exc.strerror or exc}"
        ) from exc
    return records


def format_seconds(s: float) -> str:
    if s >= 1.0:
        return f"{s:.2f}s"
    if s >= 1e-3:
        return f"{s * 1e3:.1f}ms"
    if s > 0:
        return f"{s * 1e6:.0f}us"
    return "0s"


def _fmt_value(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def _describe(rec: dict[str, Any]) -> str:
    parts = [rec.get("name", "?"), format_seconds(rec.get("seconds", 0.0))]
    attrs = rec.get("attrs") or {}
    if "cache_hit" in attrs:
        parts.append("[hit]" if attrs["cache_hit"] else "[miss]")
    for k, v in attrs.items():
        if k in _SPECIAL_ATTRS:
            continue
        parts.append(f"{k}={_fmt_value(v)}")
    return "  ".join(parts)


def build_tree(records: Iterable[dict[str, Any]]
               ) -> tuple[list[dict], dict[str, list[dict]]]:
    """Return ``(roots, children)`` keyed by span id.

    Records whose parent never appears in the trace (e.g. a truncated
    file) are treated as roots, so rendering never drops spans.
    """
    records = list(records)
    by_id = {r.get("span_id"): r for r in records}
    roots: list[dict] = []
    children: dict[str, list[dict]] = {}
    for rec in records:
        parent = rec.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(rec)
        else:
            roots.append(rec)

    def start(rec: dict) -> float:
        return rec.get("t_wall") or 0.0

    roots.sort(key=start)
    for kids in children.values():
        kids.sort(key=start)
    return roots, children


def render_tree(records: Iterable[dict[str, Any]]) -> str:
    """The per-run summary tree, one line per span."""
    roots, children = build_tree(records)
    if not roots:
        return "(empty trace)"
    lines: list[str] = []

    def walk(rec: dict, prefix: str, tail: bool, top: bool) -> None:
        if top:
            lines.append(_describe(rec))
            child_prefix = ""
        else:
            branch = "`- " if tail else "|- "
            lines.append(prefix + branch + _describe(rec))
            child_prefix = prefix + ("   " if tail else "|  ")
        kids = children.get(rec.get("span_id"), [])
        for i, kid in enumerate(kids):
            walk(kid, child_prefix, i == len(kids) - 1, False)

    for root in roots:
        walk(root, "", True, True)
    return "\n".join(lines)


def aggregate(records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per span name: count, timing stats, cache hits, errors."""
    stats: dict[str, dict[str, Any]] = {}
    for rec in records:
        name = rec.get("name", "?")
        row = stats.setdefault(name, {
            "span": name, "count": 0, "total_s": 0.0, "max_s": 0.0,
            "hits": 0, "misses": 0, "errors": 0,
        })
        s = rec.get("seconds", 0.0) or 0.0
        row["count"] += 1
        row["total_s"] += s
        row["max_s"] = max(row["max_s"], s)
        attrs = rec.get("attrs") or {}
        if attrs.get("cache_hit") is True:
            row["hits"] += 1
        elif attrs.get("cache_hit") is False:
            row["misses"] += 1
        if "error" in attrs or attrs.get("outcome") not in (None, "ok",
                                                            "cached"):
            row["errors"] += 1
    rows = []
    for row in stats.values():
        row["mean_s"] = row["total_s"] / max(row["count"], 1)
        rows.append(row)
    rows.sort(key=lambda r: -r["total_s"])
    return rows


def render_stats(records: Iterable[dict[str, Any]]) -> str:
    """Fixed-width per-name table of :func:`aggregate`."""
    rows = aggregate(records)
    if not rows:
        return "(empty trace)"
    header = (f"{'span':<24} {'count':>5} {'total':>9} {'mean':>9} "
              f"{'max':>9} {'hit/miss':>9} {'err':>4}")
    lines = [header, "-" * len(header)]
    for r in rows:
        hm = (f"{r['hits']}/{r['misses']}"
              if r["hits"] or r["misses"] else "-")
        lines.append(
            f"{r['span']:<24} {r['count']:>5} "
            f"{format_seconds(r['total_s']):>9} "
            f"{format_seconds(r['mean_s']):>9} "
            f"{format_seconds(r['max_s']):>9} {hm:>9} "
            f"{r['errors']:>4}")
    return "\n".join(lines)
