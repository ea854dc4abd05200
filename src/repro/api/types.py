"""The one job schema shared by every transport.

A :class:`JobRequest` describes one unit of user-submitted work -- a
VHDL or BLIF design through the full flow, or one of the paper's
experiment sweeps -- independent of how it arrives: the in-process
facade (:func:`repro.api.submit`), the HTTP job server
(:mod:`repro.serve`) and the ``repro-flow submit`` client CLI all parse
and produce exactly these types.  :class:`JobStatus` is the matching
lifecycle record the server returns, and :class:`Result` the completed
value.

Requests are *content addressed*: :meth:`JobRequest.content_hash`
digests the canonical JSON of the work description together with the
package code version and the chipdb schema hash (the same ingredients
as :meth:`repro.exp.jobspec.JobSpec.key`), so two identical submissions
-- from any tenant, over any transport -- share one artifact.  Policy
fields (``tenant``, ``priority``) are deliberately excluded from the
hash: who asked and how urgently does not change what is computed.

All types round-trip through JSON strictly: unknown fields, wrong
types and missing requirements raise :class:`RequestError` rather than
being silently dropped, so a malformed HTTP body becomes a structured
400 instead of a surprise at execution time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

__all__ = [
    "EXPERIMENTS", "JOB_STATES", "JobErrorInfo", "JobRequest",
    "JobStatus", "RequestError", "Result",
]

#: Recognised experiment sweeps (mirrors ``repro-flow exp``).
EXPERIMENTS = ("table1", "table2", "table3", "fig8", "fig9", "fig10",
               "tristate")

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")

_REQUEST_KINDS = ("flow", "experiment")

#: Request body ceiling enforced by the server (bytes).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Architecture overrides a flow request may carry in ``params``, each
#: a positive integer (fields of :class:`~repro.arch.params.ArchParams`).
FLOW_PARAMS = ("n", "k", "channel_width")

#: Accepted experiment timesteps (s), inclusive.  The studies run at
#: 1e-12 to 8e-12 s; a finer step grows a job's time and waveform memory
#: without bound (at 1e-15 s one Fig. 8 circuit is 24.2 M steps).
DT_RANGE = (5e-13, 2e-11)


class RequestError(ValueError):
    """A request that can never execute: malformed, mistyped, unknown
    fields.  Carries a short machine-readable ``code``."""

    def __init__(self, message: str, *, code: str = "bad_request"):
        super().__init__(message)
        self.code = code


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise RequestError(message)


@dataclass(frozen=True)
class JobRequest:
    """One typed unit of submittable work.

    ``kind="flow"``        run the complete VHDL-to-bitstream flow over
                           ``vhdl`` (source text) or ``blif`` (netlist
                           text); ``seed`` / ``min_channel_width`` map
                           onto :class:`~repro.flow.flow.FlowOptions`,
                           and ``params`` may override the
                           architecture's :data:`FLOW_PARAMS`.
    ``kind="experiment"``  run one paper sweep named by ``experiment``
                           (:data:`EXPERIMENTS`); ``dt`` overrides the
                           simulation timestep, a number of seconds
                           from 5e-13 to 2e-11 (:data:`DT_RANGE`);
                           ``params`` stays empty.

    ``tenant`` and ``priority`` are scheduling policy for the job
    server (higher priority runs first; quotas are per tenant) and do
    not affect the content hash.
    """

    kind: str
    vhdl: str | None = None
    blif: str | None = None
    experiment: str | None = None
    seed: int = 1
    min_channel_width: bool = False
    dt: float | None = None
    tenant: str = "default"
    priority: int = 0
    params: dict[str, Any] = field(default_factory=dict)

    # -- validation ----------------------------------------------------
    def validate(self) -> "JobRequest":
        _require(self.kind in _REQUEST_KINDS,
                 f"kind must be one of {_REQUEST_KINDS}, "
                 f"got {self.kind!r}")
        if self.kind == "flow":
            _require((self.vhdl is None) != (self.blif is None),
                     "a flow request needs exactly one of "
                     "'vhdl' or 'blif'")
            src = self.vhdl if self.vhdl is not None else self.blif
            _require(isinstance(src, str) and bool(src.strip()),
                     "design source must be non-empty text")
            _require(self.experiment is None,
                     "'experiment' is not a flow-request field")
        else:
            _require(self.experiment in EXPERIMENTS,
                     f"experiment must be one of {EXPERIMENTS}, "
                     f"got {self.experiment!r}")
            _require(self.vhdl is None and self.blif is None,
                     "design text is not an experiment-request field")
        _require(isinstance(self.seed, int) and not
                 isinstance(self.seed, bool), "seed must be an integer")
        _require(isinstance(self.priority, int) and not
                 isinstance(self.priority, bool),
                 "priority must be an integer")
        _require(isinstance(self.tenant, str) and bool(self.tenant)
                 and len(self.tenant) <= 64,
                 "tenant must be a non-empty string (<= 64 chars)")
        lo, hi = DT_RANGE
        _require(self.dt is None or (isinstance(self.dt, (int, float))
                                     and not isinstance(self.dt, bool)
                                     and lo <= self.dt <= hi),
                 f"dt must be a number of seconds in [{lo:g}, {hi:g}]")
        _require(isinstance(self.min_channel_width, bool),
                 "min_channel_width must be a boolean")
        _require(isinstance(self.params, dict), "params must be a dict")
        if self.kind == "flow":
            for fld in FLOW_PARAMS:
                v = self.params.get(fld)
                _require(v is None or (isinstance(v, int)
                                       and not isinstance(v, bool)
                                       and v > 0),
                         f"params.{fld} must be a positive integer")
            unknown = set(self.params) - set(FLOW_PARAMS)
            _require(not unknown,
                     f"unknown flow params: {sorted(unknown)} "
                     f"(supported: {', '.join(FLOW_PARAMS)})")
        else:
            _require(not self.params,
                     "an experiment request takes no params")
        return self

    # -- JSON ----------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        out = asdict(self)
        return {k: v for k, v in out.items()
                if v is not None and v != {} or k == "kind"}

    @classmethod
    def from_json(cls, data: Any) -> "JobRequest":
        if not isinstance(data, dict):
            raise RequestError("request body must be a JSON object")
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise RequestError(
                f"unknown request field(s): {sorted(unknown)}")
        if "kind" not in data:
            raise RequestError("request needs a 'kind' field")
        try:
            req = cls(**data)
        except TypeError as exc:
            raise RequestError(str(exc)) from None
        return req.validate()

    # -- identity ------------------------------------------------------
    def work_json(self) -> str:
        """Canonical JSON of the *work description* only (no policy)."""
        body = {k: v for k, v in self.to_json().items()
                if k not in ("tenant", "priority")}
        return json.dumps(body, sort_keys=True)

    def content_hash(self) -> str:
        """SHA-256 over work + code version + chipdb schema.

        Matches the keying discipline of the engine's result cache:
        identical submissions share one artifact, and a code or fabric
        layout revision can never serve a stale result.
        """
        from ..exp.jobspec import content_key
        return content_key(self.work_json())


@dataclass(frozen=True)
class JobErrorInfo:
    """Structured failure surfaced over the wire (mirrors
    :class:`repro.exp.runner.JobError`, minus the traceback by
    default -- servers should not leak stack frames to clients)."""

    exc_type: str
    message: str
    kind: str = "error"

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "JobErrorInfo":
        return cls(exc_type=str(data.get("exc_type", "Error")),
                   message=str(data.get("message", "")),
                   kind=str(data.get("kind", "error")))


@dataclass
class JobStatus:
    """Lifecycle record of one submitted job."""

    id: str
    state: str
    tenant: str = "default"
    priority: int = 0
    kind: str = "flow"
    cached: bool = False
    artifact: str | None = None     # content hash once done
    error: JobErrorInfo | None = None
    created: float = 0.0            # wall-clock unix times
    started: float | None = None
    finished: float | None = None

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed")

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id, "state": self.state, "tenant": self.tenant,
            "priority": self.priority, "kind": self.kind,
            "cached": self.cached, "created": self.created,
        }
        if self.artifact is not None:
            out["artifact"] = self.artifact
        if self.error is not None:
            out["error"] = self.error.to_json()
        if self.started is not None:
            out["started"] = self.started
        if self.finished is not None:
            out["finished"] = self.finished
        return out

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "JobStatus":
        if not isinstance(data, dict) or "id" not in data \
                or data.get("state") not in JOB_STATES:
            raise RequestError("malformed job status")
        err = data.get("error")
        return cls(
            id=str(data["id"]), state=str(data["state"]),
            tenant=str(data.get("tenant", "default")),
            priority=int(data.get("priority", 0)),
            kind=str(data.get("kind", "flow")),
            cached=bool(data.get("cached", False)),
            artifact=data.get("artifact"),
            error=JobErrorInfo.from_json(err) if err else None,
            created=float(data.get("created", 0.0)),
            started=data.get("started"),
            finished=data.get("finished"))


@dataclass(frozen=True)
class Result:
    """A completed request: the JSON-ready value plus accounting.

    ``value`` is always plain JSON-serialisable data (row dicts for
    experiments, the condensed QoR record for flows) so it can be
    stored verbatim in the artifact store and served over HTTP.
    """

    kind: str
    value: Any
    seconds: float = 0.0
    cached: bool = False
    artifact: str | None = None

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value,
                "seconds": self.seconds, "cached": self.cached,
                **({"artifact": self.artifact} if self.artifact else {})}
