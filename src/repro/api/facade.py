"""``repro.api.submit`` -- one typed request in, one JSON result out.

Each job has one entry point underneath: the paper studies are the
drivers of :mod:`repro.circuit.experiments` (``run_table1/2/3`` and
``run_fig_sweep``), and a design goes through
``DesignFlow(options).run(design)`` (:mod:`repro.flow.flow`), with
VHDL text or a parsed BLIF network.  This module puts one request
type in front of both::

    from repro import api

    result = api.submit(api.JobRequest(kind="experiment",
                                       experiment="fig8"))
    result = api.submit(api.JobRequest(kind="flow", vhdl=vhdl_text))

The same :class:`~repro.api.types.JobRequest` travels unchanged over
the other two transports -- the HTTP job server (:mod:`repro.serve`)
and the ``repro-flow submit`` CLI -- and always produces the same
JSON-shaped :class:`~repro.api.types.Result` value, which is what makes
the server's content-addressed artifact store coherent across all
three.  Execution policy (workers, caching) comes from one
:class:`~repro.api.config.Config`.
"""

from __future__ import annotations

import time
from typing import Any

from .config import Config
from .types import JobRequest, RequestError, Result

__all__ = ["submit"]


def _experiment_value(request: JobRequest, runner) -> dict[str, Any]:
    """Run one paper sweep; return the CLI-identical JSON rows."""
    from ..circuit import experiments as exp_mod
    what = request.experiment
    dt = request.dt
    if what == "table1":
        rows: Any = exp_mod.run_table1(dt=dt or 1e-12, runner=runner)
    elif what == "table2":
        rows = exp_mod.run_table2(dt=dt or 1e-12, runner=runner)
    elif what == "table3":
        rows = exp_mod.run_table3(dt=dt or 1e-12, runner=runner)
    else:
        fig = "fig9" if what == "tristate" else what
        switch = "tbuf" if what == "tristate" else "pass"
        sweep = exp_mod.run_fig_sweep(fig, switch_type=switch,
                                      dt=dt or 2e-12, runner=runner)
        rows = [{"wire_len": length, "width_x": m.width_mult,
                 "energy_fJ": m.energy / 1e-15,
                 "delay_ps": m.delay / 1e-12,
                 "area_mwta": m.area, "EDA": m.eda}
                for length, ms in sweep.items() for m in ms]
    return {"experiment": what, "rows": rows}


def _flow_value(request: JobRequest, cfg: Config) -> dict[str, Any]:
    """Run the complete flow; return the condensed JSON QoR record.

    The bitstream itself stays out of the value (it is binary and can
    be regenerated from the cached stages); its size and SHA-256 ride
    along so clients can verify reproducibility.
    """
    import hashlib
    from dataclasses import replace

    from ..arch import DEFAULT_ARCH
    from ..flow.flow import DesignFlow
    from ..netlist.blif import parse_blif
    arch = replace(DEFAULT_ARCH, **{k: v for k, v in request.params.items()
                                    if v is not None})
    options = cfg.flow_options(
        arch=arch, seed=request.seed,
        min_channel_width=request.min_channel_width)
    if request.vhdl is not None:
        design: Any = request.vhdl
    else:
        try:
            design = parse_blif(request.blif)
        except ValueError as exc:
            raise RequestError(f"unparseable BLIF: {exc}") from None
    res = DesignFlow(options).run(design)
    return {
        "summary": res.summary(),
        "stage_seconds": {k: round(v, 6)
                          for k, v in res.stage_seconds.items()},
        "cache_hits": dict(res.cache_hits),
        "bitstream_sha256":
            hashlib.sha256(res.bitstream).hexdigest(),
    }


def submit(request: JobRequest, *, config: Config | None = None,
           runner=None) -> Result:
    """Execute one typed request in-process and return its result.

    ``config`` resolves execution policy (worker count, caching,
    scheduler); ``None`` reads the environment via
    :meth:`Config.from_env`.  ``runner`` overrides the experiment
    engine runner outright (tests, servers sharing a warm pool).

    Raises :class:`RequestError` for requests that can never execute;
    execution failures propagate as ordinary exceptions (the job
    server converts them into structured ``JobStatus.error`` records).
    """
    if not isinstance(request, JobRequest):
        raise RequestError("submit() takes a JobRequest")
    request.validate()
    cfg = config if config is not None else Config.from_env()
    if runner is None and request.kind == "experiment":
        runner = cfg.runner()
    t0 = time.perf_counter()
    if request.kind == "experiment":
        value: Any = _experiment_value(request, runner)
    else:
        value = _flow_value(request, cfg)
    return Result(kind=request.kind, value=value,
                  seconds=time.perf_counter() - t0)
