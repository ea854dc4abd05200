"""The integrated design flow (Fig. 11): VHDL to configuration bitstream.

Chains all ten tools.  Each stage is also callable on its own -- the
"modularity" property the paper emphasises -- and the orchestrator can
optionally write every intermediate artifact (EDIF, BLIF, .net,
architecture file, placement, routing, bitstream) into a work
directory, mirroring the file hand-offs of the original tools.

Stage map (paper tool -> this code):

==========  ====================================================
VHDL Parser :func:`repro.hdl.parser.check_syntax`
DIVINER     :func:`repro.hdl.synth.synthesize`
DRUID       :func:`repro.tools.druid.druid`
E2FMT       :func:`repro.tools.e2fmt.structural_to_logic`
SIS         :func:`repro.synth.optimize_and_map`
T-VPack     :func:`repro.pack.cluster.pack_netlist`
DUTYS       :func:`repro.arch.dutys.generate_arch_file`
VPR         :func:`repro.place.placer.place` + :func:`repro.route.router.route`
PowerModel  :func:`repro.power.model.estimate_power`
DAGGER      :func:`repro.bitgen.bitstream.generate_bitstream`
==========  ====================================================
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .. import obs
from ..arch import (ArchParams, DEFAULT_ARCH, build_rr_graph,
                    generate_arch_file)
from ..bitgen import generate_bitstream
from ..bitgen.chipdb import build_chipdb
from ..exp import (NullCache, ResultCache, canonical_json, content_key,
                   default_cache_dir)
from ..exp.cache import DEFAULT_LRU_MB
from ..hdl.parser import check_syntax
from ..hdl.synth import synthesize
from ..netlist.blif import write_blif
from ..netlist.edif import write_edif
from ..netlist.logic import LogicNetwork
from ..pack import pack_netlist, write_net
from ..place import Placement, place
from ..power import PowerReport, estimate_power
from ..route import RoutingResult, route, route_min_channel_width
from ..synth import optimize_and_map
from ..timing import TimingReport, analyze_timing
from ..tools import druid, structural_to_logic

__all__ = ["FlowOptions", "FlowResult", "DesignFlow"]


@dataclass(frozen=True)
class FlowOptions:
    """Knobs of the integrated flow."""

    arch: ArchParams = DEFAULT_ARCH
    seed: int = 1
    place_effort: float = 1.0
    min_channel_width: bool = False   # binary-search W instead of fixed
    gated_clock: bool = True
    f_clk_hz: float | None = None     # None -> run at fmax
    work_dir: str | None = None       # write artifacts here if set
    use_cache: bool = True            # content-addressed stage cache
    cache_dir: str | None = None      # None -> ~/.cache/repro-exp
    cache_lru_mb: float = DEFAULT_LRU_MB  # in-process LRU bound (MiB)


@dataclass
class FlowResult:
    """Everything the flow produces."""

    name: str = ""
    syntax_message: str = ""
    structural = None
    logic: LogicNetwork | None = None
    mapped: LogicNetwork | None = None
    clustered = None
    placement: Placement | None = None
    routing: RoutingResult | None = None
    rr_graph = None
    timing: TimingReport | None = None
    power: PowerReport | None = None
    bitstream: bytes = b""
    stage_seconds: dict[str, float] = field(default_factory=dict)
    cache_hits: dict[str, bool] = field(default_factory=dict)

    def summary(self) -> dict[str, object]:
        """The QoR row the flow reports per circuit."""
        out: dict[str, object] = {"circuit": self.name}
        if self.mapped is not None:
            out["luts"] = len(self.mapped.nodes)
            out["ffs"] = len(self.mapped.latches)
        if self.clustered is not None:
            out["clbs"] = len(self.clustered.clusters)
        if self.placement is not None:
            out["grid"] = self.placement.grid_size
            out["bbox_cost"] = round(self.placement.cost, 2)
        if self.routing is not None:
            out["channel_width"] = self.routing.channel_width
            if self.rr_graph is not None:
                out["wirelength"] = self.routing.total_wirelength(
                    self.rr_graph)
        if self.timing is not None:
            out.update(self.timing.stats())
        if self.power is not None:
            out["total_mW"] = self.power.stats()["total_mW"]
        if self.bitstream:
            out["bitstream_bytes"] = len(self.bitstream)
        return out


#: Process-shared stage caches keyed by resolved cache root and LRU
#: budget.  Sharing one :class:`ResultCache` across every flow with the
#: same root lets its in-process LRU layer serve repeated stage keys
#: (parameter sweeps, re-runs inside one session) straight from memory
#: -- the disk store already made concurrent sharing safe, so this only
#: changes where warm reads are served from.
_STAGE_CACHES: dict[tuple[str, float], ResultCache] = {}


def _stage_cache(cache_dir, lru_mb: float) -> ResultCache:
    root = Path(cache_dir) if cache_dir else default_cache_dir()
    key = (str(root.resolve()), lru_mb)
    cache = _STAGE_CACHES.get(key)
    if cache is None:
        cache = _STAGE_CACHES[key] = ResultCache(root, lru_mb=lru_mb)
    return cache


class DesignFlow:
    """Stage-by-stage driver with timing and artifact output.

    ``DesignFlow(options).run(design)`` is the flow's one entry point:
    ``design`` is VHDL text or a BLIF-level
    :class:`~repro.netlist.logic.LogicNetwork`.
    """

    #: GUI stage names (Fig. 12).
    STAGES = ["File Upload", "Synthesis", "Format Translation",
              "Power Estimation", "Placement and Routing",
              "FPGA Program"]

    def __init__(self, options: FlowOptions | None = None):
        self.options = options or FlowOptions()
        self.result = FlowResult()
        self._work = (Path(self.options.work_dir)
                      if self.options.work_dir else None)
        if self._work:
            self._work.mkdir(parents=True, exist_ok=True)
        self._cache = (_stage_cache(self.options.cache_dir,
                                    self.options.cache_lru_mb)
                       if self.options.use_cache else NullCache())
        self._fp: str = ""   # running content fingerprint of the flow

    # -- helpers -------------------------------------------------------
    def _seed_fingerprint(self, tag: str, text: str) -> None:
        """Anchor the stage-key chain on the input artifact's content."""
        self._fp = hashlib.sha256(
            f"{tag}\0{text}".encode()).hexdigest()

    def _stage_key(self, stage: str, extra: tuple) -> str:
        """Content-addressed key: input lineage + options + code.

        The chipdb schema hash joins every key so a fabric-layout
        revision (new chipdb format, reordered fuse maps, ...) can
        never alias a cached result produced under the old layout.
        """
        return content_key(self._fp, stage, canonical_json(list(extra)))

    def _cached_stage(self, stage: str, extra: tuple, compute,
                      qor=None):
        """Run ``compute`` unless its output is already cached.

        The key chains on the previous stage's key, so editing the
        source, an option or any upstream artifact invalidates this
        stage and everything after it, while a re-run with identical
        inputs is a pure cache read.

        Each stage traces a ``flow.<stage>`` span carrying the cache
        outcome plus whatever QoR attributes ``qor(value)`` reports
        (LUT count, channel width, power, ...).
        """
        key = self._stage_key(stage, extra)
        self._fp = key
        with obs.span(f"flow.{stage}",
                      circuit=self.result.name or "") as sp, \
                obs.profiled(sp, "flow", stage=stage):
            t0 = time.perf_counter()
            lru_before = getattr(self._cache, "lru_hits", 0)
            hit, value = self._cache.get(key)
            if not hit:
                value = compute()
                self._cache.put(key, value)
            self.result.stage_seconds[stage] = time.perf_counter() - t0
            self.result.cache_hits[stage] = hit
            sp.set_attr(cache_hit=hit)
            if qor is not None:
                sp.set_attr(**qor(value))
        ms = obs.metrics.metric_set()
        ms.dist("flow.seconds", self.result.stage_seconds[stage],
                stage=stage)
        if hit:
            ms.counter("flow.cache_hits")
            if getattr(self._cache, "lru_hits", 0) > lru_before:
                ms.counter("exp.cache.lru_hits")
        return value

    def _save(self, name: str, data: str | bytes) -> None:
        if self._work is None:
            return
        path = self._work / name
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data)

    # -- stages -----------------------------------------------------------
    def upload(self, vhdl_text: str) -> str:
        """Stage 1: syntax check (VHDL Parser)."""
        with obs.span("flow.upload", bytes=len(vhdl_text)) as sp:
            ok, msg = check_syntax(vhdl_text)
            self.result.syntax_message = msg
            sp.set_attr(ok=ok)
            if not ok:
                raise ValueError(msg)
            self._vhdl = vhdl_text
            self._seed_fingerprint("vhdl", vhdl_text)
            self._save("design.vhd", vhdl_text)
        return msg

    def synthesis(self) -> None:
        """Stage 2: DIVINER + DRUID -> EDIF."""
        def run():
            raw = synthesize(self._vhdl)
            clean = druid(raw)
            return write_edif(raw), clean
        raw_edif, clean = self._cached_stage(
            "synthesis", (), run, qor=lambda v: v[1].stats())
        self._save("diviner.edif", raw_edif)
        self._save("druid.edif", write_edif(clean, program="DRUID"))
        self.result.structural = clean
        self.result.name = clean.name

    def translation(self) -> None:
        """Stage 3: E2FMT + SIS + T-VPack -> packed netlist.

        A flow entered at the BLIF level already has
        ``self.result.logic``; E2FMT is skipped and SIS starts from it.
        """
        opts = self.options

        def run():
            logic = self.result.logic
            if logic is None:
                logic = structural_to_logic(self.result.structural)
            mapped = optimize_and_map(logic, opts.arch.k)
            cn = pack_netlist(mapped.network, n=opts.arch.n,
                              i=opts.arch.inputs_per_clb,
                              k=opts.arch.k)
            return logic, mapped.network, cn
        logic, mapped_net, cn = self._cached_stage(
            "translation", (opts.arch,), run,
            qor=lambda v: {"luts": len(v[1].nodes),
                           "ffs": len(v[1].latches),
                           "clbs": len(v[2].clusters)})
        if self._work is not None:
            self._save("e2fmt.blif", write_blif(logic))
            self._save("sis_mapped.blif", write_blif(mapped_net))
            self._save("tvpack.net", write_net(cn))
            self._save("dutys.arch", generate_arch_file(opts.arch))
        (self.result.logic, self.result.mapped,
         self.result.clustered) = logic, mapped_net, cn

    def place_and_route(self) -> None:
        """Stage 5: VPR placement + PathFinder routing."""
        opts = self.options

        def run():
            pl = place(self.result.clustered, opts.arch,
                       seed=opts.seed, effort=opts.place_effort)
            if opts.min_channel_width:
                w, rr, g = route_min_channel_width(pl, opts.arch)
            else:
                g = build_rr_graph(opts.arch, pl.grid_size)
                rr = route(pl, g)
                if not rr.success:
                    w, rr, g = route_min_channel_width(pl, opts.arch)
            return pl, rr, g
        pl, rr, g = self._cached_stage(
            "place_route",
            (opts.seed, opts.place_effort, opts.min_channel_width), run,
            qor=lambda v: {"grid": v[0].grid_size,
                           "bbox_cost": round(v[0].cost, 2),
                           "channel_width": v[1].channel_width,
                           "route_iterations": v[1].iterations})
        self._save("vpr.place", _format_place(pl))
        self._save("vpr.route", _format_route(rr))
        (self.result.placement, self.result.routing,
         self.result.rr_graph) = pl, rr, g
        with obs.span("flow.timing",
                      circuit=self.result.name or "") as sp, \
                obs.profiled(sp, "flow", stage="timing"):
            self.result.timing = analyze_timing(
                self.result.clustered, self.result.placement,
                self.result.routing, self.result.rr_graph, opts.arch)
            sp.set_attr(**self.result.timing.stats())

    def power_estimation(self) -> None:
        """Stage 4 (runs after P&R here: it needs the routed design)."""
        opts = self.options
        f = opts.f_clk_hz or self.result.timing.fmax_hz

        def run():
            return estimate_power(
                self.result.mapped, self.result.clustered,
                self.result.placement, self.result.routing,
                self.result.rr_graph, opts.arch, f_clk_hz=f,
                gated_clock=opts.gated_clock)
        self.result.power = self._cached_stage(
            "power", (opts.gated_clock, opts.f_clk_hz), run,
            qor=lambda v: {"total_mW": v.stats()["total_mW"]})
        self._save("powermodel.json",
                   json.dumps(self.result.power.stats(), indent=2))

    def program(self) -> bytes:
        """Stage 6: DAGGER bitstream generation (with readback check).

        The fabric is the one the design was routed on: when routing
        fell back to a wider channel than the architecture's, the chip
        database (and the bitstream header) carry the routed width.
        """
        arch = self.options.arch
        width = self.result.routing.channel_width
        if width > arch.channel_width:
            arch = replace(arch, channel_width=width)
        db = build_chipdb(arch, self.result.placement.grid_size)

        def run():
            return generate_bitstream(
                self.result.mapped, self.result.clustered,
                self.result.placement, self.result.routing,
                self.result.rr_graph, arch, db=db)
        # The concrete chipdb content hash keys the stage: two archs
        # (or two chipdb builds) that lay out a single fuse differently
        # can never share a cached bitstream.
        self.result.bitstream = self._cached_stage(
            "bitstream", (db.content_hash(),), run,
            qor=lambda v: {"bytes": len(v),
                           "chipdb_bits": db.body_bits})
        obs.metrics.metric_set().gauge("flow.chipdb_bits", db.body_bits)
        self._save("design.bit", self.result.bitstream)
        self._save("chipdb.json", db.to_json())
        return self.result.bitstream

    def publish_metrics(self) -> None:
        """Publish the run's QoR into the ambient metric set.

        Uses the registered ``flow.*`` vocabulary (see
        :data:`repro.obs.metrics.FLOW_SUMMARY_METRICS`) plus the power
        breakdown, and annotates the set with circuit/seed so the run
        DB can label the row.
        """
        ms = obs.metrics.metric_set()
        if self.result.name:
            ms.context.setdefault("circuit", self.result.name)
        ms.context.setdefault("seed", self.options.seed)
        summary = self.result.summary()
        for field_name, metric in \
                obs.metrics.FLOW_SUMMARY_METRICS.items():
            v = summary.get(field_name)
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                ms.publish(metric, v)
        if self.result.power is not None:
            for metric, v in self.result.power.metrics().items():
                ms.publish(metric, v)

    # -- one-shot -----------------------------------------------------------
    def run(self, design: str | LogicNetwork) -> FlowResult:
        """Run every stage in order on VHDL text or a BLIF-level network.

        A :class:`LogicNetwork` enters at translation: the VHDL parser,
        DIVINER, DRUID and E2FMT have nothing to do, and the stage keys
        chain on the network's BLIF text instead of the VHDL source.
        """
        with obs.span("flow.run") as sp:
            if isinstance(design, LogicNetwork):
                self.result.name = design.name
                self.result.logic = design
                self._seed_fingerprint("blif", write_blif(design))
            else:
                self.upload(design)
                self.synthesis()
            self.translation()
            self.place_and_route()
            self.power_estimation()
            self.program()
            sp.set_attr(**self.result.summary())
        self.publish_metrics()
        return self.result


def _format_place(pl: Placement) -> str:
    lines = [f"Netlist placement, grid {pl.grid_size} x {pl.grid_size}",
             "#block\tx\ty\tsub"]
    for block, site in sorted(pl.loc.items()):
        lines.append(f"{block}\t{site.x}\t{site.y}\t{site.sub}")
    return "\n".join(lines) + "\n"


def _format_route(rr: RoutingResult) -> str:
    lines = [f"Routing: {len(rr.trees)} nets, "
             f"channel width {rr.channel_width}"]
    for name, tree in sorted(rr.trees.items()):
        lines.append(f"net {name}:")
        for node, parent in tree.parents.items():
            lines.append(f"  {node} <- {parent}")
    return "\n".join(lines) + "\n"
