"""Experiment-engine speedup demonstration (acceptance driver).

Runs the same Fig. 8-style sizing sweep three ways and compares
wall-clock:

1. the serial path -- one :func:`measure_routing_batch` call per wire
   length, no engine;
2. cold cache through ``ParallelRunner(jobs=4)``, one
   ``fig_sweep_batch`` job per wire length;
3. warm cache through a fresh runner sharing the same cache dir.

The warm-cache re-run must be at least 10x faster than the serial
path (cache hits skip simulation entirely).  The cold-cache parallel
run must be at least 2x faster when the host has >= 4 usable cores;
on fewer cores that bound is physically unattainable and the check is
skipped with an explanatory message.  Either way the engine's numbers
must be bit-identical to the serial path.
"""

import os
import time

from repro.circuit.interconnect import measure_routing_batch
from repro.exp import JobSpec, ParallelRunner, ResultCache

WIDTHS = [1.0, 2.0, 4.0, 8.0]
LENGTHS = [1, 2, 4]
DT = 4e-12
METAL = {"metal_width": 1.0, "metal_spacing": 1.0}


def _engine_sweep(cache):
    runner = ParallelRunner(jobs=4, cache=cache)
    specs = [JobSpec.make("fig_sweep_batch",
                          points=[[w, length] for w in WIDTHS],
                          dt=DT, **METAL)
             for length in LENGTHS]
    t0 = time.perf_counter()
    rows = runner.run_values(specs)
    return rows, time.perf_counter() - t0


def test_engine_speedup_vs_serial_path(tmp_path):
    t0 = time.perf_counter()
    serial = [measure_routing_batch([(w, length) for w in WIDTHS],
                                    dt=DT, **METAL)
              for length in LENGTHS]
    t_serial = time.perf_counter() - t0

    cache_dir = tmp_path / "cache"
    cold, t_cold = _engine_sweep(ResultCache(cache_dir))
    warm_cache = ResultCache(cache_dir)
    warm, t_warm = _engine_sweep(warm_cache)

    # Identical numbers on every path, cold and warm.
    assert cold == serial
    assert warm == serial
    assert warm_cache.hits == len(LENGTHS)

    speedup_warm = t_serial / t_warm
    speedup_cold = t_serial / t_cold
    print(f"\nserial {t_serial:.2f}s | cold jobs=4 {t_cold:.2f}s "
          f"({speedup_cold:.1f}x) | warm {t_warm*1e3:.1f}ms "
          f"({speedup_warm:.0f}x)")

    assert speedup_warm >= 10.0

    cores = os.cpu_count() or 1
    if cores >= 4:
        assert speedup_cold >= 2.0
    elif cores >= 2:
        assert speedup_cold >= 1.2
    else:
        print("single-core host: cold-cache parallel speedup bound "
              "skipped (needs >= 2 cores)")
