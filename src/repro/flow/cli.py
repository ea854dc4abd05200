"""Command-line front end: every tool standalone, plus the full flow.

Mirrors the paper's property that "each tool can operate as a
standalone program as well as part of a complete design framework":

    repro-flow vhdlparse design.vhd
    repro-flow diviner   design.vhd -o design.edif
    repro-flow druid     design.edif -o clean.edif
    repro-flow e2fmt     clean.edif -o design.blif
    repro-flow sis       design.blif -o mapped.blif [-k 4]
    repro-flow tvpack    mapped.blif -o design.net
    repro-flow dutys     -o fpga.arch [--n 5 --k 4 ...]
    repro-flow vpr       mapped.blif --arch fpga.arch --workdir out/
    repro-flow flow      design.vhd --workdir out/ [--html gui.html]
    repro-flow exp       table1|table2|table3|fig8|fig9|fig10|tristate
                         [--jobs 4] [--no-cache] [-o rows.json]
    repro-flow chipdb    dump|hash --size 6 [--arch fpga.arch] [-o db.json]
    repro-flow disasm    design.bit [-o recovered.blif] [--json]
    repro-flow trace     run.jsonl [--format chrome -o run.json]
    repro-flow stats     run.jsonl     (per-stage aggregate table)
    repro-flow top       [--once] [--json]   (live view of a sweep)
    repro-flow history   [--metric flow.fmax_MHz]  (recorded runs)
    repro-flow compare   [RUN_A RUN_B | --against-golden]
    repro-flow report    [--html qor.html]  (sparkline dashboard)
    repro-flow serve     [--port 8732] [--jobs N]  (flow-as-a-service daemon)
    repro-flow submit    design.vhd --wait [--events]  (via the server)
    repro-flow status    JOB_ID
    repro-flow fetch     ARTIFACT_HASH [-o result.json]

Every subcommand follows one exit-code convention: 0 success,
1 gated failure (failed syntax check, QoR regression, failed job),
2 usage or data error (bad arguments, unreadable input, unknown id).

``vpr``/``flow`` cache every stage output content-addressed (input
hash + options + code version); ``exp`` fans the independent
measurements of one table/figure over a worker pool with the same
cache.  ``--no-cache`` forces recomputation, ``--cache-dir`` (or
``REPRO_CACHE_DIR``) relocates the store.

``vpr``/``flow``/``exp`` also accept ``--trace run.jsonl`` (default
from ``REPRO_TRACE``): the run records a span per stage/job -- wall
time, cache hit/miss, QoR numbers -- which ``trace`` and ``stats``
render afterwards (``trace --format chrome`` converts to Chrome
trace-event JSON for https://ui.perfetto.dev).

With ``--live`` (or ``REPRO_TELEMETRY=1``) the same three commands
publish the live telemetry bus (:mod:`repro.obs.live`) while they run:
``repro-flow top`` in another terminal shows queue depth, per-worker
jobs/ages and throughput of the in-flight sweep.  For a Prometheus
scrape, submit the work to ``repro-flow serve`` and scrape its ``GET
/metrics``.

The same three commands append every successful run's full metric set
to the run DB (``--run-db``, ``$REPRO_RUN_DB`` or
``~/.cache/repro/runs.db``; ``--no-run-db`` skips it).  ``history``
lists recorded runs, ``compare`` classifies per-metric deltas between
two runs -- or against the frozen golden QoR with
``--against-golden`` -- exiting 1 on gated regressions, and ``report``
renders the self-contained HTML dashboard.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from .. import api, obs
from ..api import UNSET
from ..exp import ResultCache
from ..exp.runner import JobFailedError

if TYPE_CHECKING:
    from ..arch import ArchParams

__all__ = ["main"]

#: Exit-code convention shared by every subcommand:
#: 0 = success, 1 = gated failure (syntax check failed, QoR gate
#: regressed, submitted job failed), 2 = usage or data error (bad
#: arguments, unreadable/unparseable input, unknown id, server
#: unreachable).
EXIT_OK, EXIT_FAILED, EXIT_USAGE = 0, 1, 2


def _add_cache_args(p) -> None:
    p.add_argument("--no-cache", action="store_true",
                   help="recompute everything; do not read or write "
                        "the result cache")
    p.add_argument("--cache-dir", default=None,
                   help="cache location (default REPRO_CACHE_DIR or "
                        "~/.cache/repro-exp)")


def _add_trace_arg(p) -> None:
    p.add_argument("--trace", default=None, metavar="JSONL",
                   help="record a span trace of the run here (default "
                        "$REPRO_TRACE; inspect with 'repro-flow trace' "
                        "/ 'stats')")


def _add_live_arg(p) -> None:
    p.add_argument("--live", action="store_true",
                   help="publish live telemetry while running (same as "
                        "REPRO_TELEMETRY=1); observe with 'repro-flow "
                        "top' from another terminal")


def _add_rundb_path_arg(p) -> None:
    p.add_argument("--run-db", dest="run_db", default=None,
                   metavar="DB",
                   help="run-history SQLite file (default $REPRO_RUN_DB "
                        "or ~/.cache/repro/runs.db)")


def _add_rundb_args(p) -> None:
    _add_rundb_path_arg(p)
    p.add_argument("--no-run-db", dest="no_run_db", action="store_true",
                   help="do not record this run in the run DB")
    p.add_argument("--run-label", dest="run_label", default=None,
                   help="label stored with the recorded run (default: "
                        "the subcommand name)")


def _config_from_args(args) -> api.Config:
    """Resolve the runtime config: explicit flags > env > defaults.

    Only flags the user actually passed override the environment;
    everything else falls through :meth:`repro.api.Config.from_env`.
    """
    jobs = getattr(args, "jobs", None)
    timeout = getattr(args, "job_timeout", None)
    return api.Config.from_env(
        jobs=UNSET if jobs is None else jobs,
        cache=False if getattr(args, "no_cache", False) else UNSET,
        cache_dir=getattr(args, "cache_dir", None) or UNSET,
        job_timeout_s=UNSET if timeout is None else timeout,
        trace=getattr(args, "trace", None) or UNSET,
        run_db=getattr(args, "run_db", None) or UNSET,
    )


def _arch_from_args(args) -> ArchParams:
    from ..arch import DEFAULT_ARCH, load_arch_file
    arch = (load_arch_file(args.arch) if getattr(args, "arch", None)
            else DEFAULT_ARCH)
    for field in ("n", "k", "channel_width"):
        v = getattr(args, field, None)
        if v is not None:
            arch = replace(arch, **{field: v})
    return arch


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-flow",
        description="Integrated FPGA design framework (IPPS 2004 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("vhdlparse", help="syntax-check a VHDL file")
    p.add_argument("input")

    p = sub.add_parser("diviner", help="synthesise VHDL to EDIF")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("druid", help="normalise an EDIF netlist")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("e2fmt", help="convert EDIF to BLIF")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("sis", help="optimise + map BLIF to K-LUTs")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-k", type=int, default=4)

    p = sub.add_parser("tvpack", help="pack LUT BLIF into clusters")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--arch", default=None)

    p = sub.add_parser("dutys", help="generate an architecture file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--channel-width", dest="channel_width", type=int,
                   default=None)

    p = sub.add_parser("vpr", help="place, route, analyse a BLIF design")
    p.add_argument("input")
    p.add_argument("--arch", default=None)
    p.add_argument("--workdir", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--min-channel-width", action="store_true")
    _add_cache_args(p)
    _add_trace_arg(p)
    _add_live_arg(p)
    _add_rundb_args(p)

    p = sub.add_parser("flow", help="run the complete VHDL-to-bitstream "
                                    "flow")
    p.add_argument("input")
    p.add_argument("--arch", default=None)
    p.add_argument("--workdir", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--html", default=None,
                   help="write the GUI page here")
    _add_cache_args(p)
    _add_trace_arg(p)
    _add_live_arg(p)
    _add_rundb_args(p)

    p = sub.add_parser("exp", help="run a batch experiment (table or "
                                   "figure) through the engine")
    p.add_argument("what", choices=["table1", "table2", "table3",
                                    "fig8", "fig9", "fig10", "tristate"])
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (0 = all cores; default "
                        "$REPRO_JOBS, else 1)")
    p.add_argument("--dt", type=float, default=None,
                   help="simulation timestep in seconds")
    p.add_argument("--job-timeout", dest="job_timeout", type=float,
                   default=None, metavar="S",
                   help="kill any single job after S seconds")
    p.add_argument("-o", "--output", default=None,
                   help="write the result rows as JSON here")
    _add_cache_args(p)
    _add_trace_arg(p)
    _add_live_arg(p)
    _add_rundb_args(p)

    p = sub.add_parser("chipdb", help="dump or hash the chip database "
                                      "for an architecture + grid size")
    p.add_argument("action", choices=["dump", "hash"],
                   help="dump: canonical JSON document; hash: content "
                        "hash plus schema hash")
    p.add_argument("--size", type=int, required=True,
                   help="logic grid side length (CLB columns/rows)")
    p.add_argument("--arch", default=None,
                   help="architecture file (default: built-in arch)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--channel-width", dest="channel_width", type=int,
                   default=None)
    p.add_argument("-o", "--output", default=None,
                   help="dump: write the JSON here instead of stdout")

    p = sub.add_parser("disasm", help="disassemble a bitstream back "
                                      "into a netlist")
    p.add_argument("input", help="bitstream file (DAGR format)")
    p.add_argument("--arch", default=None,
                   help="architecture file for non-header parameters "
                        "(default: built-in arch)")
    p.add_argument("-o", "--output", default=None, metavar="BLIF",
                   help="write the recovered netlist as BLIF here")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="print recovery stats as JSON instead of text")

    p = sub.add_parser("cache", help="inspect or prune the experiment "
                                     "result cache")
    p.add_argument("action", choices=["stats", "prune"],
                   help="stats: entry count / bytes / age summary; "
                        "prune: delete entries (optionally by age)")
    p.add_argument("--cache-dir", dest="cache_dir", default=None,
                   help="cache root (default $REPRO_CACHE_DIR or "
                        "~/.cache/repro-exp)")
    p.add_argument("--max-age-days", dest="max_age_days", type=float,
                   default=None, metavar="D",
                   help="prune: only delete entries older than D days "
                        "(default: all)")

    p = sub.add_parser("trace", help="render a recorded trace as a "
                                     "span tree, or convert it")
    p.add_argument("input", help="JSONL trace written by --trace")
    p.add_argument("--format", dest="format",
                   choices=["tree", "chrome"], default="tree",
                   help="tree: terminal span tree (default); chrome: "
                        "Chrome trace-event JSON, loadable in "
                        "ui.perfetto.dev / chrome://tracing")
    p.add_argument("-o", "--output", default=None,
                   help="chrome format: output file (default "
                        "INPUT with a .chrome.json suffix)")

    p = sub.add_parser("stats", help="per-stage aggregate table of a "
                                     "recorded trace")
    p.add_argument("input", help="JSONL trace written by --trace")

    p = sub.add_parser("top", help="live view of an in-flight sweep "
                                   "(run it with --live)")
    p.add_argument("--dir", default=None,
                   help="live snapshot directory (default: the "
                        "REPRO_TELEMETRY path, else ~/.cache/repro/"
                        "live)")
    p.add_argument("--pid", type=int, default=None,
                   help="observe this session pid (default: the most "
                        "recently updated session)")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="machine-readable snapshot JSON instead of "
                        "the terminal view")
    p.add_argument("--interval", type=float, default=1.0, metavar="S",
                   help="refresh period in seconds (default 1.0)")

    p = sub.add_parser("history", help="list recorded runs with key "
                                       "QoR, or one metric's trend")
    _add_rundb_path_arg(p)
    p.add_argument("--label", default=None,
                   help="only runs recorded under this label")
    p.add_argument("--circuit", default=None,
                   help="only runs of this circuit")
    p.add_argument("--metric", default=None, metavar="NAME",
                   help="print the value series of one metric instead "
                        "of the run table")
    p.add_argument("--limit", type=int, default=20,
                   help="most recent N runs (default 20)")

    p = sub.add_parser("compare", help="per-metric deltas between two "
                                       "runs, or against the golden QoR")
    p.add_argument("runs", nargs="*", metavar="RUN",
                   help="run references: a run id, 'latest' or "
                        "'latest~N' (default: latest~1 latest)")
    _add_rundb_path_arg(p)
    p.add_argument("--against-golden", dest="against_golden",
                   action="store_true",
                   help="compare RUN (default latest) against the "
                        "frozen benchmarks/results/flow_qor.json")
    p.add_argument("--golden", default=None, metavar="JSON",
                   help="alternative golden QoR file")
    p.add_argument("--circuit", default=None,
                   help="circuit to select (golden row / run filter)")
    p.add_argument("--label", default=None,
                   help="resolve 'latest' within this label only")
    p.add_argument("--tolerance", type=float, default=None,
                   metavar="REL",
                   help="override every metric's relative tolerance "
                        "band (e.g. 0.05)")
    p.add_argument("--all", dest="show_all", action="store_true",
                   help="with --against-golden: include non-gating "
                        "metrics in the table")

    p = sub.add_parser("report", help="render the QoR trend dashboard "
                                      "from the run DB")
    _add_rundb_path_arg(p)
    p.add_argument("--html", default="qor.html", metavar="OUT",
                   help="output file (default qor.html)")
    p.add_argument("--label", default=None,
                   help="only runs recorded under this label")
    p.add_argument("--circuit", default=None,
                   help="only runs of this circuit")
    p.add_argument("--limit", type=int, default=60,
                   help="trend window: most recent N runs (default 60)")

    p = sub.add_parser("serve", help="start the flow-as-a-service job "
                                     "server (POST /jobs, ...)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="bind port (default 8732; 0 = ephemeral)")
    p.add_argument("--artifact-dir", dest="artifact_dir", default=None,
                   help="content-addressed artifact store root "
                        "(default $REPRO_ARTIFACT_DIR or "
                        "~/.cache/repro/artifacts)")
    p.add_argument("--quota", type=int, default=None,
                   help="max queued jobs per tenant (default 16)")
    p.add_argument("--jobs", type=int, default=0,
                   help="jobs run at once, each in its own worker "
                        "process (default 0 = one per core; "
                        "$REPRO_JOBS does not apply)")
    _add_cache_args(p)
    _add_rundb_path_arg(p)

    p = sub.add_parser("submit", help="submit a design or experiment "
                                      "to a running job server")
    p.add_argument("input", nargs="?", default=None,
                   help="VHDL or BLIF design file (omit with "
                        "--experiment)")
    p.add_argument("--experiment", default=None,
                   choices=list(api.EXPERIMENTS),
                   help="submit a paper sweep instead of a design")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--min-channel-width", action="store_true")
    p.add_argument("--dt", type=float, default=None,
                   help="experiment simulation timestep in seconds")
    p.add_argument("--tenant", default="default",
                   help="tenant name for queue quotas (default "
                        "'default')")
    p.add_argument("--priority", type=int, default=0,
                   help="queue priority; higher runs first (default 0)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="server port (default 8732)")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes; exit 1 if it "
                        "failed")
    p.add_argument("--events", action="store_true",
                   help="stream per-stage progress events (NDJSON) "
                        "while waiting; implies --wait")

    p = sub.add_parser("status", help="query a submitted job's status")
    p.add_argument("job_id")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)

    p = sub.add_parser("fetch", help="fetch a completed result from "
                                     "the artifact store by hash")
    p.add_argument("artifact", help="content hash (64 hex chars; see "
                                    "the job status 'artifact' field)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("-o", "--output", default=None,
                   help="write the result JSON here instead of stdout")

    args = parser.parse_args(argv)
    try:
        return _run_command(args, parser)
    except JobFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (OSError, ValueError) as exc:
        # Unreadable/unparseable inputs (BlifError, EdifError,
        # RequestError, arch files, missing paths) are all data/usage
        # errors under the shared exit-code convention.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _run_command(args, parser) -> int:
    if getattr(args, "live", False) and not obs.live.enabled():
        # Same switch the environment flips; a REPRO_TELEMETRY dir
        # already in force keeps its custom location.
        os.environ[obs.live.ENV_TELEMETRY] = "1"

    trace_path = (getattr(args, "trace", None)
                  or os.environ.get(obs.ENV_TRACE))
    record = (args.cmd in ("vpr", "flow", "exp")
              and not getattr(args, "no_run_db", False))
    if not trace_path and not record:
        return _dispatch(args, parser)

    ms = obs.MetricSet()
    with obs.metrics.collect(ms):
        if trace_path:
            with obs.capture() as tr:
                rc = _dispatch(args, parser)
            n = tr.write_jsonl(trace_path)
            print(f"# wrote {n} spans to {trace_path}", file=sys.stderr)
        else:
            rc = _dispatch(args, parser)
    if record and rc == 0 and len(ms):
        db = obs.RunDB(getattr(args, "run_db", None))
        try:
            run_id = db.record_run(
                getattr(args, "run_label", None) or args.cmd, ms,
                trace_path=str(trace_path or ""))
        finally:
            db.close()
        print(f"# recorded run {run_id} in {db.path}", file=sys.stderr)
    return rc


def _dispatch(args, parser) -> int:
    if args.cmd in ("trace", "stats"):
        try:
            records = obs.load_jsonl(args.input)
        except obs.TraceReadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not records:
            print(f"error: {args.input}: trace file contains no spans "
                  f"(was the run traced with --trace/$REPRO_TRACE?)",
                  file=sys.stderr)
            return 2
        if args.cmd == "trace" and args.format == "chrome":
            out = args.output or str(
                Path(args.input).with_suffix(".chrome.json"))
            n = obs.write_chrome_trace(records, out)
            print(f"wrote {n} trace events to {out} (open in "
                  f"ui.perfetto.dev or chrome://tracing)")
            return 0
        render = obs.render_tree if args.cmd == "trace" \
            else obs.render_stats
        print(render(records))
        return 0

    if args.cmd == "top":
        return _run_top(args)

    if args.cmd == "history":
        return _run_history(args)

    if args.cmd == "compare":
        return _run_compare(args)

    if args.cmd == "report":
        return _run_report(args)

    # Each tool loads in the branch that runs it, so no other command
    # pays for its import.
    if args.cmd == "vhdlparse":
        from ..hdl.parser import check_syntax
        ok, msg = check_syntax(Path(args.input).read_text())
        print(msg)
        return 0 if ok else 1

    if args.cmd == "diviner":
        from ..hdl.synth import synthesize
        from ..netlist.edif import save_edif
        net = synthesize(Path(args.input).read_text())
        save_edif(net, args.output)
        print(f"wrote {args.output}: {net.stats()}")
        return 0

    if args.cmd == "druid":
        from ..netlist.edif import load_edif, save_edif
        from ..tools import druid
        net = druid(load_edif(args.input))
        save_edif(net, args.output, program="DRUID")
        print(f"wrote {args.output}: {net.stats()}")
        return 0

    if args.cmd == "e2fmt":
        from ..netlist.blif import save_blif
        from ..netlist.edif import load_edif
        from ..tools import structural_to_logic
        logic = structural_to_logic(load_edif(args.input))
        save_blif(logic, args.output)
        print(f"wrote {args.output}: {logic.stats()}")
        return 0

    if args.cmd == "sis":
        from ..netlist.blif import load_blif, save_blif
        from ..synth import optimize_and_map
        logic = load_blif(args.input)
        result = optimize_and_map(logic, args.k)
        save_blif(result.network, args.output)
        print(f"wrote {args.output}: {result.stats()}")
        return 0

    if args.cmd == "tvpack":
        from ..netlist.blif import load_blif
        from ..pack import pack_netlist, save_net
        arch = _arch_from_args(args)
        mapped = load_blif(args.input)
        cn = pack_netlist(mapped, n=arch.n, i=arch.inputs_per_clb,
                          k=arch.k)
        save_net(cn, args.output)
        print(f"wrote {args.output}: {cn.stats()}")
        return 0

    if args.cmd == "dutys":
        from ..arch import generate_arch_file
        arch = _arch_from_args(args)
        Path(args.output).write_text(generate_arch_file(arch))
        print(f"wrote {args.output}")
        return 0

    if args.cmd == "vpr":
        from ..netlist.blif import load_blif
        from .flow import FlowOptions, _run_flow_from_logic
        arch = _arch_from_args(args)
        logic = load_blif(args.input)
        options = FlowOptions(arch=arch, seed=args.seed,
                              min_channel_width=args.min_channel_width,
                              work_dir=args.workdir,
                              use_cache=not args.no_cache,
                              cache_dir=args.cache_dir)
        result = _run_flow_from_logic(logic, options)
        print(json.dumps(result.summary(), indent=2))
        return 0

    if args.cmd == "flow":
        from .flow import DesignFlow, FlowOptions
        from .gui import FlowGui, render_html
        arch = _arch_from_args(args)
        options = FlowOptions(arch=arch, seed=args.seed,
                              work_dir=args.workdir,
                              use_cache=not args.no_cache,
                              cache_dir=args.cache_dir)
        flow = DesignFlow(options)
        gui = FlowGui()
        result = gui.run(flow, Path(args.input).read_text())
        print(json.dumps(result.summary(), indent=2))
        if args.html:
            Path(args.html).write_text(render_html(result, gui))
            print(f"wrote {args.html}")
        return 0

    if args.cmd == "exp":
        return _run_exp(args)

    if args.cmd == "chipdb":
        return _run_chipdb(args)

    if args.cmd == "disasm":
        return _run_disasm(args)

    if args.cmd == "cache":
        return _run_cache(args)

    if args.cmd == "serve":
        return _run_serve(args)

    if args.cmd in ("submit", "status", "fetch"):
        return _run_client(args)

    parser.error(f"unknown command {args.cmd!r}")
    return 2


def _pick_session(directory, pid):
    """Freshest live snapshot (optionally a specific session pid)."""
    from ..obs import live
    sessions = live.load_sessions(directory)
    if pid is not None:
        sessions = [s for s in sessions if s.get("pid") == pid]
    return sessions[0] if sessions else None


def _run_top(args) -> int:
    """``repro-flow top``: live terminal view of an in-flight sweep."""
    from ..obs import live
    directory = args.dir or None
    snap = _pick_session(directory, args.pid)
    if snap is None and args.once:
        where = Path(args.dir) if args.dir else live.live_dir()
        print(f"error: no live sessions under {where} (start a sweep "
              f"with --live or REPRO_TELEMETRY=1)", file=sys.stderr)
        return 2
    if args.once:
        if args.as_json:
            print(json.dumps(snap, indent=2, sort_keys=True))
        else:
            print(live.render_top(snap))
        return 0
    import time as _time
    try:
        while True:
            snap = _pick_session(directory, args.pid)
            if snap is None:
                body = "repro-flow top -- waiting for a live session..."
            elif args.as_json:
                body = json.dumps(snap, sort_keys=True)
            else:
                body = live.render_top(snap)
            if args.as_json:
                print(body, flush=True)
            else:
                # Home + clear-to-end keeps the refresh flicker-free.
                sys.stdout.write(f"\x1b[H\x1b[J{body}\n")
                sys.stdout.flush()
            _time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


#: Metric columns of the ``history`` run table.
_HISTORY_COLS = (("flow.critical_path_ns", "cp(ns)"),
                 ("flow.fmax_MHz", "fmax(MHz)"),
                 ("flow.total_mW", "P(mW)"),
                 ("flow.channel_width", "W"))


def _run_history(args) -> int:
    """``repro-flow history``: the recorded-run table or one trend."""
    db = obs.RunDB(args.run_db)
    try:
        if args.metric:
            series = db.history(args.metric, label=args.label,
                                circuit=args.circuit, limit=args.limit)
            if not series:
                print(f"error: no recorded values for metric "
                      f"{args.metric!r} in {db.path}", file=sys.stderr)
                return 2
            for row, value in series:
                circ = row.circuit or "-"
                print(f"{row.run_id:>5}  {row.when}  {row.label:<8} "
                      f"{circ:<14} {value:g}")
            return 0

        rows = db.runs(label=args.label, circuit=args.circuit,
                       limit=args.limit)
        if not rows:
            print(f"error: no runs recorded in {db.path}",
                  file=sys.stderr)
            return 2
        header = (f"{'run':>5}  {'when':<19} {'label':<8} "
                  f"{'circuit':<14} {'rev':<9}"
                  + "".join(f" {title:>10}"
                            for _, title in _HISTORY_COLS))
        print(header)
        print("-" * len(header))
        for row in rows:
            metrics = db.metric_rows(row.run_id)

            def cell(name: str) -> str:
                m = metrics.get(name)
                return f"{m['value']:g}" if m else "-"

            print(f"{row.run_id:>5}  {row.when:<19} {row.label:<8} "
                  f"{(row.circuit or '-'):<14} {(row.git_rev or '-'):<9}"
                  + "".join(f" {cell(name):>10}"
                            for name, _ in _HISTORY_COLS))
        return 0
    finally:
        db.close()


def _run_compare(args) -> int:
    """``repro-flow compare``: run-vs-run or run-vs-golden deltas.

    Exit codes: 0 no gated regression, 1 gated regression(s),
    2 usage/data error (unknown run, missing golden row, ...).
    """
    db = obs.RunDB(args.run_db)
    try:
        if args.against_golden:
            if len(args.runs) > 1:
                print("error: --against-golden takes at most one RUN",
                      file=sys.stderr)
                return 2
            token = args.runs[0] if args.runs else "latest"
            cand = db.resolve(token, label=args.label,
                              circuit=args.circuit)
            circuit = args.circuit or cand.circuit or None
            baseline = obs.golden_flow_rows(args.golden, circuit)
            candidate = db.metric_rows(cand.run_id)
            title_a = f"golden:{circuit or '-'}"
            title_b = f"run {cand.run_id}"
            gate_only = not args.show_all
        else:
            tokens = list(args.runs) or ["latest~1", "latest"]
            if len(tokens) != 2:
                print("error: compare takes exactly two runs "
                      "(baseline candidate), or --against-golden",
                      file=sys.stderr)
                return 2
            base = db.resolve(tokens[0], label=args.label,
                              circuit=args.circuit)
            cand = db.resolve(tokens[1], label=args.label,
                              circuit=args.circuit)
            baseline = db.metric_rows(base.run_id)
            candidate = db.metric_rows(cand.run_id)
            title_a = f"run {base.run_id}"
            title_b = f"run {cand.run_id}"
            gate_only = False
        deltas = obs.compare_rows(baseline, candidate,
                                  tolerance=args.tolerance,
                                  gate_only=gate_only)
        print(obs.render_compare(deltas, title_a=title_a,
                                 title_b=title_b))
        return 1 if obs.gated_regressions(deltas) else 0
    except (LookupError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        db.close()


def _run_report(args) -> int:
    """``repro-flow report``: write the self-contained HTML dashboard."""
    db = obs.RunDB(args.run_db)
    try:
        if len(db) == 0:
            print(f"error: no runs recorded in {db.path} (run "
                  f"'repro-flow flow ...' first)", file=sys.stderr)
            return 2
        html = obs.render_report(db, label=args.label,
                                 circuit=args.circuit,
                                 limit=args.limit)
    finally:
        db.close()
    Path(args.html).write_text(html)
    print(f"wrote {args.html}")
    return 0


def _human_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GiB"


def _run_cache(args) -> int:
    """``repro-flow cache``: stats for / prune the on-disk result cache."""
    import time as _time
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        entries = cache.entries()
        total = sum(size for _, size, _ in entries)
        print(f"cache root:   {cache.root}")
        print(f"entries:      {len(entries)}")
        print(f"total size:   {_human_bytes(total)}")
        if entries:
            now = _time.time()
            ages = [now - mtime for _, _, mtime in entries]
            print(f"age:          newest {min(ages) / 3600:.1f} h, "
                  f"oldest {max(ages) / 3600:.1f} h")
        s = cache.stats()
        lookups = s["hits"] + s["misses"]
        if lookups:
            print(f"this process: {s['hits']}/{lookups} hits "
                  f"({s['lru_hits']} from the in-memory LRU)")
        else:
            print("this process: no lookups yet (hit-rate and LRU "
                  "stats are per-process; see exp.cache.lru_hits in "
                  "recorded runs)")
        return 0
    max_age_s = (args.max_age_days * 86400.0
                 if args.max_age_days is not None else None)
    removed, freed = cache.prune(max_age_s)
    print(f"pruned {removed} entries ({_human_bytes(freed)}) "
          f"from {cache.root}")
    return 0


def _run_chipdb(args) -> int:
    """``repro-flow chipdb``: dump / hash the fabric's chip database."""
    from ..bitgen.chipdb import (ChipDbError, build_chipdb,
                                 chipdb_schema_hash)
    arch = _arch_from_args(args)
    try:
        db = build_chipdb(arch, args.size)
    except ChipDbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "hash":
        print(f"content: {db.content_hash()}")
        print(f"schema:  {chipdb_schema_hash()}")
        print(f"# size={db.size} W={db.channel_width} N={db.n} "
              f"K={db.k} body_bits={db.body_bits} "
              f"stream_bytes={db.stream_bytes()}", file=sys.stderr)
        return 0
    text = db.to_json()
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(db.tiles)} tiles, "
              f"{db.body_bits} body bits)")
    else:
        print(text)
    return 0


def _run_disasm(args) -> int:
    """``repro-flow disasm``: bitstream -> recovered netlist."""
    from ..arch import load_arch_file
    from ..bitgen import BitstreamError, disassemble
    from ..netlist.blif import write_blif
    arch = (load_arch_file(args.arch) if args.arch else None)
    try:
        data = Path(args.input).read_bytes()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        d = disassemble(data, arch=arch)
    except BitstreamError as exc:
        obs.metrics.metric_set().counter("disasm.errors")
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    ms = obs.metrics.metric_set()
    stats = d.stats()
    ms.gauge("disasm.bles", stats["bles"])
    ms.gauge("disasm.nets", stats["nets"])
    if args.output:
        Path(args.output).write_text(write_blif(d.network))
        print(f"wrote {args.output}")
    if args.as_json:
        print(json.dumps(stats, indent=2))
    else:
        print(f"{args.input}: {stats['bles']} BLEs "
              f"({stats['ffs']} registered), {stats['nets']} nets over "
              f"{stats['track_segments']} track segments, "
              f"{stats['inputs']} inputs, {stats['outputs']} outputs")
    return 0


def _run_serve(args) -> int:
    """``repro-flow serve``: start the flow-as-a-service daemon."""
    from ..api.config import job_timeout_from_env
    from ..serve import DEFAULT_PORT, JobServer
    from ..serve.jobs import DEFAULT_TENANT_QUOTA
    from ..serve.server import DEFAULT_JOB_TIMEOUT_S
    config = replace(_config_from_args(args),
                     job_timeout_s=job_timeout_from_env(
                         DEFAULT_JOB_TIMEOUT_S))
    server = JobServer(
        config, host=args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
        artifact_dir=args.artifact_dir,
        quota=(args.quota if args.quota is not None
               else DEFAULT_TENANT_QUOTA))

    async def announce_and_serve():
        await server.start()
        print(f"# serving on http://{server.host}:{server.port} "
              f"(POST /jobs; SIGTERM drains gracefully)",
              file=sys.stderr, flush=True)
        import asyncio
        import contextlib
        import signal as signal_mod
        loop = asyncio.get_running_loop()
        for sig in (signal_mod.SIGTERM, signal_mod.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(sig, server.begin_drain)
        while not server.draining:
            await asyncio.sleep(0.1)
        print("# draining: finishing in-flight work, persisting "
              "queue...", file=sys.stderr, flush=True)
        await server.stop()
        health = server.health()
        if not health["ok"]:
            print("# stopped: the job scheduler failed (traceback "
                  "above); queued jobs persisted", file=sys.stderr,
                  flush=True)
            return EXIT_FAILED
        print(f"# drained cleanly ({health['served']} job(s) served)",
              file=sys.stderr, flush=True)
        return EXIT_OK

    import asyncio
    try:
        return asyncio.run(announce_and_serve())
    except KeyboardInterrupt:
        return EXIT_OK


def _submit_request(args) -> api.JobRequest:
    """Build the typed request for ``repro-flow submit``."""
    if (args.input is None) == (args.experiment is None):
        raise ValueError("submit takes exactly one of: a design file, "
                         "or --experiment NAME")
    if args.experiment is not None:
        return api.JobRequest(kind="experiment",
                              experiment=args.experiment, dt=args.dt,
                              seed=args.seed, tenant=args.tenant,
                              priority=args.priority)
    text = Path(args.input).read_text()
    kind_field = ("blif" if Path(args.input).suffix.lower() == ".blif"
                  else "vhdl")
    return api.JobRequest(
        kind="flow", seed=args.seed,
        min_channel_width=args.min_channel_width, tenant=args.tenant,
        priority=args.priority, **{kind_field: text})


def _run_client(args) -> int:
    """``repro-flow submit|status|fetch``: talk to a running server."""
    from ..serve import DEFAULT_PORT, ServiceClient, ServiceError
    client = ServiceClient(
        args.host, DEFAULT_PORT if args.port is None else args.port)
    try:
        if args.cmd == "status":
            print(json.dumps(client.status(args.job_id).to_json(),
                             indent=2, sort_keys=True))
            return EXIT_OK

        if args.cmd == "fetch":
            value = client.artifact(args.artifact)
            text = json.dumps(value, indent=2, sort_keys=True)
            if args.output:
                Path(args.output).write_text(text)
                print(f"wrote {args.output}")
            else:
                print(text)
            return EXIT_OK

        status = client.submit(_submit_request(args))
        if args.events and not status.done:
            for event in client.events(status.id):
                print(json.dumps(event, sort_keys=True), flush=True)
        if args.wait or args.events:
            status = client.wait(status.id)
        print(json.dumps(status.to_json(), indent=2, sort_keys=True))
        return (EXIT_FAILED if (args.wait or args.events)
                and status.state == "failed" else EXIT_OK)
    except (ServiceError, ConnectionError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _run_exp(args) -> int:
    """``repro-flow exp``: one table/figure through the typed facade."""
    config = _config_from_args(args)
    runner = config.runner()
    result = api.submit(
        api.JobRequest(kind="experiment", experiment=args.what,
                       dt=args.dt),
        config=config, runner=runner)
    rows = result.value["rows"]

    text = json.dumps(rows, indent=2)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    stats = runner.cache.stats()
    print(f"# jobs={runner.jobs} cache hits={stats['hits']} "
          f"misses={stats['misses']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
