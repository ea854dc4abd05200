"""Transistor-level platform model (the paper's section 3).

Public surface:

* :class:`~repro.circuit.technology.Technology` / ``STM018`` -- process
* :class:`~repro.circuit.network.Circuit` -- netlist builder
* :func:`~repro.circuit.batchsim.simulate_batch` -- transient analysis
  of many independent circuits in one tensor-shaped run (the one step
  loop)
* :func:`~repro.circuit.simulator.simulate` -- transient analysis of
  one circuit (a batch of one)
* :mod:`~repro.circuit.cells` / :mod:`~repro.circuit.flipflops` -- cell
  and DETFF library
* :mod:`~repro.circuit.experiments` -- Table 1/2/3 and Fig. 8/9/10
  drivers

The CAD flow imports :mod:`~repro.circuit.technology` for wire
parasitics only, so ``simulate_batch`` (and with it the transient
engine and SciPy) loads on first access, not with this package.
"""

from .network import Circuit
from .simulator import (ConvergenceError, NewtonConvergenceError,
                        TransientResult, simulate)
from .technology import MetalLayer, STM018, Technology

__all__ = [
    "Circuit",
    "ConvergenceError",
    "MetalLayer",
    "NewtonConvergenceError",
    "STM018",
    "Technology",
    "TransientResult",
    "simulate",
    "simulate_batch",
]


def __getattr__(name):
    if name == "simulate_batch":
        from .batchsim import simulate_batch
        return simulate_batch
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
