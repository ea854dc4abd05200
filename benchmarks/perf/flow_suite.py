"""flow-suite: the ten-tool VHDL/BLIF -> bitstream flow.

Cold pass: ``api.submit`` of every design with an empty stage cache,
so every stage computes and writes.  Warm passes: the same requests
again until the run's ``--seconds`` are up (at least ``WARM_MIN``
passes), so every stage is a cache read.

The designs are the ten MCNC-class circuits of
``benchmarks/results/flow_qor.json`` (``mcnc_class_suite(seed=7)``,
placer seed 1) plus the two example VHDL designs.  The suite is fixed
rather than drawn from the run seed: its largest random circuit maps
to 77-223 LUTs across suite seeds, which would swamp any speed change.
The run seed orders the submissions.

The traced run calls each tool's public function on the same inputs in
flow order, checks its bitstream against the one ``api.submit``
reported, boots it in the device simulator and disassembles it.
"""

from __future__ import annotations

import ast
import hashlib
import json
import random

from harness import ROOT, Run

from repro import api, obs
from repro.arch import DEFAULT_ARCH, build_rr_graph
from repro.bench import mcnc_class_suite
from repro.bitgen import (build_chipdb, disassemble, generate_bitstream,
                          unpack_bitstream)
from repro.bitgen.devicesim import DeviceSimulator, pad_map_from_placement
from repro.exp import ResultCache
from repro.hdl import check_syntax, synthesize
from repro.netlist.blif import parse_blif, write_blif
from repro.pack import pack_netlist
from repro.place import place
from repro.power import estimate_power
from repro.route import route, route_min_channel_width
from repro.synth import optimize_and_map
from repro.timing import analyze_timing
from repro.tools import druid, structural_to_logic

#: Example designs and the placer seed each example uses.
VHDL_EXAMPLES = (("quickstart", 1), ("sequence_detector", 3))
SMOKE_DESIGNS = ("count8", "quickstart")
SMOKE_WARM_PASSES = 3
WARM_MIN = 20
#: Repetitions of each warm-path layer probe in a traced run.
WARM_LAYER_REPS = 20

#: Tool layers whose times sum to the flow's tool time.
TOOL_LAYERS = ("hdl.check_syntax", "hdl.synthesize", "tools.druid",
               "tools.e2fmt", "synth.optimize_and_map",
               "pack.pack_netlist", "place.place", "arch.build_rr_graph",
               "route.route", "timing.analyze_timing",
               "power.estimate_power", "bitgen.build_chipdb",
               "bitgen.generate_bitstream")

def _example_vhdl(example: str) -> str:
    """The ``VHDL`` string literal of ``examples/<example>.py``."""
    tree = ast.parse((ROOT / "examples" / f"{example}.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "VHDL"):
            return ast.literal_eval(node.value)
    raise LookupError(f"examples/{example}.py defines no VHDL")


def setup(run: Run) -> dict:
    jobs = [(net.name, api.JobRequest(kind="flow", blif=write_blif(net),
                                      seed=1))
            for net in mcnc_class_suite(seed=7)]
    jobs += [(name, api.JobRequest(kind="flow", vhdl=_example_vhdl(name),
                                   seed=seed))
             for name, seed in VHDL_EXAMPLES]
    if run.smoke:
        jobs = [job for job in jobs if job[0] in SMOKE_DESIGNS]
    random.Random(run.seed).shuffle(jobs)
    golden = json.loads(
        (ROOT / "benchmarks" / "results" / "flow_qor.json").read_text())
    return {"jobs": jobs,
            "config": api.Config.from_env(
                cache_dir=str(run.workdir / "cache")),
            "golden": {row["circuit"]: row for row in golden}}


def _same_warm(warm: dict, cold: dict) -> bool:
    return (warm["summary"] == cold["summary"]
            and warm["bitstream_sha256"] == cold["bitstream_sha256"]
            and all(warm["cache_hits"].values()))


def measure(run: Run, state: dict) -> None:
    jobs, cfg = state["jobs"], state["config"]
    run.begin()
    cold, ms = run.cold_pass(jobs, cfg)
    state.update(cold=cold, cold_metrics=ms)
    for name, value in cold.items():
        gold = state["golden"].get(name)
        if gold is not None:
            diff = {k: (value["summary"].get(k), v) for k, v in gold.items()
                    if value["summary"].get(k) != v}
            run.check(not diff, f"{name}: QoR differs from flow_qor.json "
                                f"(got, golden): {diff}")
    run.warm_passes(jobs, cfg, cold, _same_warm, SMOKE_WARM_PASSES,
                    WARM_MIN)
    run.latency_layers()


def teardown(state: dict) -> None:
    pass


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def tool_chain(run: Run, req: api.JobRequest, sums: dict[str, float]):
    """Every tool of the flow, called directly, in flow order; adds
    each layer's seconds, and the LUT and CLB counts, to ``sums``."""
    def call(layer, fn, *args, **kwargs):
        out, secs = run.call(layer, fn, *args, **kwargs)
        sums[layer] = sums.get(layer, 0.0) + secs
        return out

    arch = DEFAULT_ARCH
    if req.vhdl is not None:
        ok, msg = call("hdl.check_syntax", check_syntax, req.vhdl)
        if not ok:
            raise ValueError(msg)
        raw = call("hdl.synthesize", synthesize, req.vhdl)
        clean = call("tools.druid", druid, raw)
        logic = call("tools.e2fmt", structural_to_logic, clean)
    else:
        logic = call("netlist.parse_blif", parse_blif, req.blif)
    mapped = call("synth.optimize_and_map", optimize_and_map, logic,
                  arch.k).network
    cn = call("pack.pack_netlist", pack_netlist, mapped, n=arch.n,
              i=arch.inputs_per_clb, k=arch.k)
    pl = call("place.place", place, cn, arch, seed=req.seed)
    g = call("arch.build_rr_graph", build_rr_graph, arch, pl.grid_size)
    rr = call("route.route", route, pl, g)
    if not rr.success:
        sums["route.min_w_fallbacks"] = \
            sums.get("route.min_w_fallbacks", 0) + 1
        _, rr, g = call("route.route", route_min_channel_width, pl, arch)
    timing = call("timing.analyze_timing", analyze_timing, cn, pl, rr, g,
                  arch)
    call("power.estimate_power", estimate_power, mapped, cn, pl, rr, g,
         arch, f_clk_hz=timing.fmax_hz, gated_clock=True)
    db = call("bitgen.build_chipdb", build_chipdb, arch, pl.grid_size)
    bits = call("bitgen.generate_bitstream", generate_bitstream, mapped,
                cn, pl, rr, g, arch, db=db)
    sums["synth.luts"] = sums.get("synth.luts", 0) + len(mapped.nodes)
    sums["pack.clbs"] = sums.get("pack.clbs", 0) + len(cn.clusters)
    return logic, pl, bits


def _oracles(run: Run, name: str, index: int, logic, pl, bits) -> None:
    """Device simulation and disassembly must both match the source."""
    arch = DEFAULT_ARCH
    pad_map = pad_map_from_placement(pl)
    rng = random.Random(run.seed * 1000 + index)
    vecs = [{pi: rng.randint(0, 1) for pi in logic.inputs}
            for _ in range(12)]
    want = logic.simulate(vecs)
    dev = DeviceSimulator(unpack_bitstream(bits, arch), pad_map)
    run.check(dev.run(vecs) == want,
              f"{name}: device simulation differs from the source")
    dis = disassemble(bits, arch, pad_map=pad_map)
    run.check(dis.network.simulate(vecs) == want,
              f"{name}: disassembled netlist differs from the source")


def _median_ms(run: Run, reps: int, layer: str, fn, items) -> float:
    """Median over ``reps`` of one pass of ``fn`` over ``items`` (ms)."""
    passes = sorted(sum(run.call(layer, fn, *item)[1] for item in items)
                    * 1e3 for _ in range(reps))
    return passes[len(passes) // 2]


def direct_tools(run: Run, jobs: list) -> list:
    """Each ``(name, request)``'s tool chain, called directly; sets the
    tool layers of ``run.layers``.  Returns ``(name, request, logic,
    placement, bitstream)`` of each chain that ran."""
    sums: dict[str, float] = {}
    ms = obs.MetricSet()
    built = []
    for name, req in jobs:
        with obs.metrics.collect(ms):
            out = run.attempt(f"{name} (direct tools)", tool_chain, run,
                              req, sums)
        if out is not None:
            built.append((name, req, *out))
    layers = run.layers
    for layer in TOOL_LAYERS:
        layers[f"{layer}_s"] = sums.get(layer, 0.0)
    for name in ("place.moves", "route.iterations", "route.heap_reuse"):
        layers[name] = ms.get(name, default=0.0)
    layers["place.moves_per_s"] = (layers["place.moves"]
                                   / layers["place.place_s"])
    for name in ("route.min_w_fallbacks", "synth.luts", "pack.clbs"):
        layers[name] = sums.get(name, 0)
    return built


def trace_layers(run: Run, state: dict) -> None:
    cold = state["cold"]
    # Placement and routing time of the api.submit pass itself, from the
    # spans it left in the tracer, so that the drift between that pass
    # and the direct calls does not land in api.flow_overhead_s.
    api_pr_s = sum(r["seconds"] for r in run.tracer.export()
                   if r["name"] in ("place.anneal", "route.pathfinder"))
    built = direct_tools(run, state["jobs"])
    for i, (name, _, logic, pl, bits) in enumerate(built):
        if name in cold:
            run.check(hashlib.sha256(bits).hexdigest()
                      == cold[name]["bitstream_sha256"],
                      f"{name}: direct-call bitstream differs from the "
                      f"api.submit one")
        _oracles(run, name, i, logic, pl, bits)

    layers = run.layers
    for name in ("place.moves", "route.iterations", "route.heap_reuse"):
        via_api = state["cold_metrics"].get(name, default=0.0)
        if layers[name] != via_api:
            run.flags.append(f"{name}: {layers[name]} direct vs {via_api} "
                             f"through api.submit")
            run.fail(f"{name} does not repeat between the direct calls "
                     f"and api.submit ({layers[name]} vs {via_api})")
    layers["api.flow_overhead_s"] = (
        sum(run.samples["cold_s"]) - api_pr_s
        - sum(layers[f"{layer}_s"] for layer in TOOL_LAYERS
              if layer not in ("place.place", "route.route")))
    _warm_layers(run, state, [(req, logic, pl)
                              for _, req, logic, pl, _ in built])


def _warm_layers(run: Run, state: dict, built: list) -> None:
    """What one warm pass spends outside the cached stages."""
    reps = SMOKE_WARM_PASSES if run.smoke else WARM_LAYER_REPS
    blif = [(req.blif,) for req, _, _ in built if req.blif]
    nets = [(logic,) for req, logic, _ in built if req.blif]
    grids = [(DEFAULT_ARCH, pl.grid_size) for _, _, pl in built]
    layers = run.layers
    layers["netlist.parse_blif_ms"] = _median_ms(
        run, reps, "netlist.parse_blif", parse_blif, blif)
    layers["netlist.write_blif_ms"] = _median_ms(
        run, reps, "netlist.write_blif", write_blif, nets)
    layers["bitgen.build_chipdb_ms"] = _median_ms(
        run, reps, "bitgen.build_chipdb", build_chipdb, grids)

    # Every stage entry once per pass: through one shared cache whose
    # in-process LRU holds them all, and through one with no LRU.
    root = state["config"].cache_dir
    shared = ResultCache(root)
    entries = shared.entries()
    keys = [(key,) for key, _, _ in entries]
    for (key,) in keys:
        shared.get(key)
    layers["exp.cache_get_lru_ms"] = _median_ms(
        run, reps, "exp.cache_get", shared.get, keys)
    layers["exp.cache_get_disk_ms"] = _median_ms(
        run, reps, "exp.cache_get", ResultCache(root, lru_mb=0).get, keys)
    layers["exp.cache_bytes"] = sum(size for _, size, _ in entries)
    layers["exp.cache_entries"] = len(entries)
    uncached_ms = 1e3 * (layers["timing.analyze_timing_s"]
                         + layers["hdl.check_syntax_s"])
    layers["api.warm_overhead_ms"] = layers["warm_p50_ms"] - (
        layers["netlist.parse_blif_ms"] + layers["netlist.write_blif_ms"]
        + layers["bitgen.build_chipdb_ms"]
        + layers["exp.cache_get_lru_ms"] + uncached_ms)
