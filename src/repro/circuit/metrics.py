"""Waveform post-processing: delays, crossings, energy products.

These are the measurement utilities behind every number in Tables 1-3
and Figures 8-10: threshold-crossing extraction, edge-to-edge delay
(worst case over all events, as the paper specifies for Table 1), and
the energy / energy-delay / energy-delay-area product figures of merit.
"""

from __future__ import annotations

import numpy as np


def crossing_times(time: np.ndarray, wave: np.ndarray, threshold: float,
                   direction: str = "both") -> np.ndarray:
    """Times at which ``wave`` crosses ``threshold``.

    ``direction`` is ``"rise"``, ``"fall"`` or ``"both"``.  Crossing
    instants are linearly interpolated between samples.
    """
    if direction not in ("rise", "fall", "both"):
        raise ValueError(f"bad direction {direction!r}")
    above = wave >= threshold
    change = np.nonzero(above[1:] != above[:-1])[0]
    out = []
    for i in change:
        rising = not above[i]
        if direction == "rise" and not rising:
            continue
        if direction == "fall" and rising:
            continue
        v0, v1 = wave[i], wave[i + 1]
        frac = (threshold - v0) / (v1 - v0)
        out.append(time[i] + frac * (time[i + 1] - time[i]))
    return np.asarray(out)


def propagation_delays(time: np.ndarray, v_in: np.ndarray,
                       v_out: np.ndarray, vdd: float,
                       *, max_delay: float = 2e-9) -> np.ndarray:
    """Per-event 50 %-to-50 % delays from ``v_in`` edges to ``v_out`` edges.

    For each input crossing, the first subsequent output crossing within
    ``max_delay`` is paired with it.  Events with no response (e.g. a
    clock edge that does not change Q) are skipped.
    """
    th = vdd / 2.0
    t_in = crossing_times(time, v_in, th)
    t_out = crossing_times(time, v_out, th)
    delays = []
    for ti in t_in:
        after = t_out[(t_out > ti) & (t_out <= ti + max_delay)]
        if after.size:
            delays.append(after[0] - ti)
    return np.asarray(delays)


def worst_case_delay(time: np.ndarray, v_in: np.ndarray, v_out: np.ndarray,
                     vdd: float, *, max_delay: float = 2e-9) -> float:
    """Worst (largest) edge-to-edge delay over the stimulus."""
    d = propagation_delays(time, v_in, v_out, vdd, max_delay=max_delay)
    if d.size == 0:
        raise ValueError("output never responded to any input edge")
    return float(d.max())


def settled(wave: np.ndarray, vdd: float, *, frac: float = 0.1) -> bool:
    """True if the final sample is within ``frac*vdd`` of a rail."""
    v = wave[-1]
    return bool(v < frac * vdd or v > (1.0 - frac) * vdd)


def logic_level(v: float, vdd: float) -> int:
    """Classify a settled voltage as 0 or 1; raises if indeterminate."""
    if v < 0.25 * vdd:
        return 0
    if v > 0.75 * vdd:
        return 1
    raise ValueError(f"voltage {v:.3f} V is not a settled logic level")
