"""Platform example: the low-power design choices, measured.

Reproduces the paper's three energy arguments with the circuit
simulator, then shows their system-level effect through the power
model:

1. DETFF candidate comparison (Table 1) -> Llopis 1 selected;
2. BLE- and CLB-level clock gating (Tables 2, 3) -> worthwhile when
   flip-flops are idle often enough;
3. full-flow power estimate of a mixed design with and without the
   gated clock, at the design's own fmax.

Run:  python examples/low_power_design.py       (~5 s with a cold cache)
"""

from repro.bench import counter, parity_tree
from repro.circuit.experiments import (gated_clock_breakeven, run_table1,
                                       run_table2, run_table3)
from repro.flow import DesignFlow, FlowOptions


def main() -> None:
    print("1. DETFF comparison (Table 1)")
    rows = run_table1(dt=2e-12)
    for r in rows:
        print(f"   {r['name']:8s} E={r['energy_fJ']:7.1f} fJ  "
              f"D={r['delay_ps']:6.1f} ps  EDP={r['edp_fJ_ps']:9.0f}")
    best = min(rows, key=lambda r: r["energy_fJ"])
    print(f"   -> lowest energy: {best['name']} "
          f"(the paper selects Llopis 1)")

    print("\n2. Clock gating (Tables 2 and 3)")
    t2 = run_table2(dt=2e-12)
    print(f"   BLE level: single {t2['single_fJ']:.1f} fJ, gated "
          f"en=1 {t2['gated_en1_fJ']:.1f} fJ "
          f"({t2['overhead_en1_pct']:+.1f} %), gated en=0 "
          f"{t2['gated_en0_fJ']:.1f} fJ "
          f"({-t2['saving_en0_pct']:.1f} %)")
    t3 = run_table3(dt=2e-12)
    for r in t3:
        print(f"   CLB level {r['condition']:8s}: "
              f"single {r['single_fJ']:6.1f} fJ -> gated "
              f"{r['gated_fJ']:6.1f} fJ ({r['delta_pct']:+.1f} %)")
    print(f"   break-even idle probability: "
          f"{gated_clock_breakeven(t3):.2f}")

    print("\n3. System-level effect (full flow + PowerModel)")
    # A design mixing registered logic (counter) with a large
    # combinational block whose clusters hold no flip-flops at all.
    for name, net in (("counter8", counter(8)),
                      ("parity64", parity_tree(64))):
        res_g = DesignFlow(FlowOptions(seed=1, gated_clock=True)).run(
            net.copy())
        res_n = DesignFlow(FlowOptions(seed=1, gated_clock=False)).run(
            net.copy())
        pg, pn = res_g.power, res_n.power
        print(f"   {name:9s} fmax={res_g.timing.fmax_hz / 1e6:6.1f} MHz"
              f"  clock power: gated {pg.clock_w * 1e6:8.1f} uW vs "
              f"free-running {pn.clock_w * 1e6:8.1f} uW"
              f"  (total {pg.total_w * 1e3:6.3f} / "
              f"{pn.total_w * 1e3:6.3f} mW)")
    print("   -> gating pays off exactly where clusters hold idle "
          "flip-flops, as the paper argues.")


if __name__ == "__main__":
    main()
