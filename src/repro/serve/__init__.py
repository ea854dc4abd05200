"""Flow-as-a-service: HTTP job server over the typed submission API.

    repro-flow serve                      # start the daemon
    repro-flow submit design.vhd --wait   # run a flow through it
    repro-flow status <job-id>
    repro-flow fetch <artifact-hash>

See :mod:`repro.serve.server` for the endpoint contract.

Each name loads its submodule on first access, so a client command
does not load the daemon (asyncio, multiprocessing, the engine).
"""

import importlib

#: Public name -> the submodule that defines it.
_SOURCES = {
    **dict.fromkeys(("ArtifactStore", "is_artifact_hash"), "artifacts"),
    **dict.fromkeys(("ServiceClient", "ServiceError"), "client"),
    **dict.fromkeys(("Job", "QueueStore", "QuotaExceeded",
                     "TenantQueue"), "jobs"),
    **dict.fromkeys(("DEFAULT_PORT", "JobServer"), "server"),
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{source}", __name__), name)
