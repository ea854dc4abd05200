"""Platform example: routing-switch sizing exploration (Figs. 8-10).

Reruns a reduced version of the paper's pass-transistor sizing study
with the transistor-level simulator and prints the energy-delay-area
product landscape, showing:

* the ~10x-minimum optimum for short wires,
* the much larger optimum for length-8 wires (the paper rejects it on
  switch-box area grounds and picks 10x anyway), and
* the improvement from double metal spacing (why the platform routes
  at minimum width / double spacing).

Run:  python examples/interconnect_exploration.py       (~10 s)
"""

from repro.circuit.interconnect import optimum_width, sweep_pass_transistor

WIDTHS = [1.0, 2.0, 4.0, 8.0, 10.0, 16.0, 32.0, 64.0]
LENGTHS = [1, 4, 8]
DT = 4e-12


def sweep(metal_spacing: float) -> dict[int, list]:
    return sweep_pass_transistor(WIDTHS, LENGTHS,
                                 metal_spacing=metal_spacing, dt=DT)


def report(label: str, data) -> None:
    print(f"\n--- {label} ---")
    print(f"{'L':>3} " + "".join(f"{w:>10.0f}x" for w in WIDTHS)
          + "   optimum")
    for length, ms in data.items():
        eda_row = "".join(f"{m.eda:>11.2e}" for m in ms)
        print(f"{length:>3} {eda_row}   {optimum_width(ms):.0f}x")


def main() -> None:
    print("Energy-delay-area product vs routing switch width")
    single = sweep(metal_spacing=1.0)
    report("min width / min spacing (Fig. 8)", single)
    double = sweep(metal_spacing=2.0)
    report("min width / double spacing (Fig. 9)", double)

    improved = sum(
        1
        for length in LENGTHS
        for m1, m2 in zip(single[length], double[length])
        if m2.eda < m1.eda)
    total = len(LENGTHS) * len(WIDTHS)
    print(f"\nDouble spacing improves EDA at {improved}/{total} "
          f"operating points (the paper's rationale for choosing it).")
    print("Platform selection: 10x pass transistors, wire length 1, "
          "minimum width, double spacing.")


if __name__ == "__main__":
    main()
