"""Section 3.1 ablation: cluster size N vs energy.

The paper's exploration concluded N=5 minimises energy.  This bench
runs the full flow at N in {2..8} (I from Eq. 1 each time) over a mix
of circuits and reports total power at a fixed clock: small clusters
pay in inter-cluster routing energy, large ones in crossbar/cluster
overhead, so the curve bottoms out in the middle.
"""

from dataclasses import replace

from conftest import print_table, save_results
from repro.arch import DEFAULT_ARCH
from repro.bench import counter, random_logic
from repro.flow import DesignFlow, FlowOptions


def _sweep():
    circuits = [counter(8),
                random_logic("m", n_pi=12, n_po=6, n_nodes=100,
                             seed=3, registered=True)]
    rows = []
    for n in (2, 3, 5, 7, 8):
        arch = replace(DEFAULT_ARCH, n=n, i=None)
        total = 0.0
        routing = 0.0
        for net in circuits:
            res = DesignFlow(FlowOptions(arch=arch, seed=1,
                                         f_clk_hz=100e6)).run(net.copy())
            total += res.power.total_w
            routing += res.power.routing_w
        rows.append({"N": n, "I": arch.inputs_per_clb,
                     "routing_mW": routing * 1e3,
                     "total_mW": total * 1e3})
    return rows


def test_cluster_size_ablation(benchmark):
    rows = benchmark.pedantic(_sweep, iterations=1, rounds=1)
    print_table("Cluster-size ablation (paper selects N=5)", rows,
                ["N", "I", "routing_mW", "total_mW"])
    save_results("cluster_size", rows)
    by = {r["N"]: r for r in rows}
    # Inter-cluster routing power must shrink as N grows (more nets
    # absorbed into the crossbar) -- the effect behind the paper's
    # exploration.
    assert by[8]["routing_mW"] < by[2]["routing_mW"]
