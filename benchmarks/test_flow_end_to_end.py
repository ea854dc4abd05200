"""Complete-flow QoR table over the benchmark suite (section 4).

The paper's flow contribution is a capability (VHDL to bitstream with
academic tools only); it reports no QoR table.  This bench documents
ours: per circuit, LUTs / CLBs / minimum channel width / critical path
/ power / bitstream size, plus wall-clock per stage.
"""

from conftest import print_table, save_results
from repro.bench import mcnc_class_suite
from repro.flow import DesignFlow, FlowOptions


def _qor():
    rows = []
    for net in mcnc_class_suite():
        res = DesignFlow(FlowOptions(seed=1)).run(net)
        s = res.summary()
        s["wirelength"] = res.routing.total_wirelength(res.rr_graph)
        rows.append(s)
    return rows


def test_flow_qor_suite(benchmark):
    rows = benchmark.pedantic(_qor, iterations=1, rounds=1)
    print_table("Flow QoR over the MCNC-class suite", rows,
                ["circuit", "luts", "ffs", "clbs", "grid",
                 "channel_width", "wirelength", "fmax_MHz", "total_mW",
                 "bitstream_bytes"])
    save_results("flow_qor", rows)
    assert len(rows) == 10
    for row in rows:
        assert row["bitstream_bytes"] > 0
        assert row["fmax_MHz"] > 10
