"""One repeatable perf harness: VHDL/BLIF -> bitstream, the paper sweeps
and the job service.

Run one workload at one seed (from the repository root)::

    python3 benchmarks/perf/run.py --workload flow-suite --seed 7

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones.  Every run also writes
``benchmarks/perf/results/BENCH_<rev>_<utc>_<pid>.json`` (and, when
traced, the span JSONL beside it).  Compare two sets of such records
with::

    python3 benchmarks/perf/run.py --compare PARENT.json... --change CHANGE.json...

See README.md in this directory for the workloads and metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 -- the set-up clock starts above
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

from meter import SpeedMeter  # noqa: E402

#: Started under ``__main__``: the set-up time is rescaled too.
METER = SpeedMeter()
ROOT = PERF_DIR.parents[1]
SRC = ROOT / "src"
WORK_ROOT = PERF_DIR / ".work"

#: Workload name -> module in this directory.
WORKLOADS = {"flow-suite": "flow_suite", "paper-sweeps": "paper_sweeps",
             "service-mixed": "service_mixed"}
#: Set-ups per run (this one plus fresh-interpreter probes) whose
#: median is ``setup_s``.
SETUP_SAMPLES = 7
SUBPROCESS_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=None,
                   help="length of the timed phase (default: "
                        "run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="tiny fixed-size run for the self-test")
    p.add_argument("--compare", nargs="+", metavar="PARENT",
                   help="the parent's BENCH_*.json records")
    p.add_argument("--change", nargs="+", metavar="CHANGE",
                   help="the change's BENCH_*.json records")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if bool(args.compare) != bool(args.change):
        p.error("--compare and --change go together")
    if not args.compare and not args.workload:
        p.error("--workload is required unless --compare is given")
    return args


def import_repro() -> None:
    """Use the checkout's own ``src/``; refuse to run without it."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"error: cannot import repro from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parents[1] != SRC:
        sys.exit(f"error: repro imported from {repro.__file__}, "
                 f"not from {SRC}")


def isolate_env(workdir: Path) -> None:
    """Drop inherited ``REPRO_*`` knobs; keep every store in ``workdir``."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(REPRO_CACHE_DIR=str(workdir / "cache"),
                      REPRO_ARTIFACT_DIR=str(workdir / "artifacts"),
                      REPRO_RUN_DB=str(workdir / "runs.db"))


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every reaped child, in MiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


def setup_probe(run, args) -> float | None:
    """``setup_s`` of this workload's set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    try:
        out = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                             text=True, timeout=SUBPROCESS_TIMEOUT_S)
        return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]
    except (subprocess.TimeoutExpired, IndexError, ValueError,
            KeyError) as exc:
        run.fail(f"set-up probe: {type(exc).__name__}: {exc}")
        return None


def select(run, names_units: dict[str, str],
           values: dict[str, float]) -> dict:
    """The printed metrics; a missing or non-finite one is a failure."""
    out = {}
    for name, unit in names_units.items():
        v = values.get(name)
        if v is None or not math.isfinite(v):
            run.fail(f"metric {name} not measured ({v})")
            continue
        out[name] = {"value": v, "unit": unit}
    return out


def run_workload(args, workdir: Path) -> int:
    import harness
    spec = harness.load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    module = importlib.import_module(WORKLOADS[args.workload])
    run = harness.Run(args.workload, args.seed, args.seconds,
                      smoke=args.smoke, trace=bool(args.trace),
                      workdir=workdir, meter=METER)
    state = module.setup(run)
    setup_s = METER.nominal_s(T0, time.perf_counter())
    if args.setup_probe:
        module.teardown(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        module.measure(run, state)
        if run.trace:
            module.trace_layers(run, state)
    finally:
        module.teardown(state)
    run.metrics["peak_rss_mb"] = peak_rss_mb()

    if run.trace:
        # A layer this workload's traffic never reaches reads 0.
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: 0.0 for name in wanted} | run.layers
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        setups = [setup_s]
        if not args.smoke:
            setups += [setup_probe(run, args)
                       for _ in range(SETUP_SAMPLES - 1)]
        run.samples["setup_s"] = [s for s in setups if s is not None]
        run.metrics["setup_s"] = statistics.median(run.samples["setup_s"])
        values = run.metrics
    metrics = select(run, wanted, values)

    correct = run.failed == 0
    path = harness.write_record(harness.record_of(run, metrics, correct),
                                run.tracer)
    for failure in run.failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"# record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repro()
    if args.compare:
        import harness
        return harness.compare(args.compare, args.change)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=WORK_ROOT))
    isolate_env(workdir)
    try:
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    METER.start()
    try:
        sys.exit(main())
    finally:
        METER.stop()
