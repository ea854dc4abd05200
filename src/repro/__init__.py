"""Reproduction of "An Integrated FPGA Design Framework" (IPPS 2004).

Two halves, mirroring the paper:

* :mod:`repro.circuit` -- the energy-efficient FPGA platform at
  transistor level (DETFF comparison, clock gating, routing-switch
  sizing) on a calibrated 0.18 um process model;
* the CAD flow -- :mod:`repro.hdl` (VHDL Parser / DIVINER),
  :mod:`repro.tools` (DRUID / E2FMT), :mod:`repro.synth` (SIS role),
  :mod:`repro.pack` (T-VPack), :mod:`repro.arch` (DUTYS + fabric),
  :mod:`repro.place` / :mod:`repro.route` (VPR), :mod:`repro.timing`,
  :mod:`repro.power` (PowerModel), :mod:`repro.bitgen` (DAGGER) and
  :mod:`repro.flow` (orchestrator, GUI, CLI).

Importing this package loads none of them: each process loads the
tools it runs.

Quick start::

    from repro import api
    result = api.submit(api.JobRequest(kind="flow",
                                       vhdl=open("design.vhd").read()))
    print(result.value["summary"])
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
