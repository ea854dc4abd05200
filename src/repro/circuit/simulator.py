"""Transient nodal simulation (the Cadence substitute): model and entry.

Backward-Euler integration with full Newton iteration at every timestep
over a square-law MOSFET model.  The formulation is standard nodal
analysis restricted to circuits whose every node carries a capacitance
to ground (the compiler adds a small floor capacitance), which keeps the
system matrix well-conditioned without needing charge-based MNA.

This module holds what defines a transient: the device model
(:func:`mos_currents`, all MOSFETs in one NumPy pass with symmetric D/S
handling, so pass transistors and transmission gates need no special
casing), the circuit compiler (:class:`CompiledCircuit`), the result
type and the convergence errors.  The step loop itself is the batched
engine in :mod:`repro.circuit.batchsim`; :func:`simulate` runs one
circuit through it as a batch of one.

Energy accounting follows the paper: the reported quantity is the energy
delivered by the ``vdd`` supply, ``E = Vdd * integral(i_vdd dt)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Circuit

#: Floor capacitance added to every floating node (F).  Keeps the BE
#: system non-singular for nodes whose only connection is resistive.
C_FLOOR = 0.05e-15

#: Minimum shunt conductance across every MOSFET channel (S); the usual
#: SPICE gmin convergence aid.
G_MIN = 1e-9


def mos_currents(v: np.ndarray, m_d: np.ndarray, m_g: np.ndarray,
                 m_s: np.ndarray, m_p: np.ndarray, m_beta: np.ndarray,
                 m_vt: np.ndarray, m_lam: np.ndarray,
                 m_ioff: np.ndarray):
    """Vectorised square-law MOSFET evaluation at node voltages ``v``.

    The device model's one definition; the terminal-index arrays may
    address one circuit or a block-diagonal stack of many.  Returns
    ``(i_ds, g_d, g_g, g_s)`` where ``i_ds`` is the signed channel
    current from drain to source and ``g_*`` its partial derivatives
    w.r.t. the drain/gate/source node voltages.
    """
    vd = v[m_d]
    vs = v[m_s]
    vg = v[m_g]
    swap = vd < vs
    v_hi = np.maximum(vd, vs)
    v_lo = np.minimum(vd, vs)
    vds = v_hi - v_lo

    # Overdrive: NMOS references the low terminal, PMOS the high one.
    vov = np.where(m_p, v_hi - vg, vg - v_lo) - m_vt

    beta = m_beta
    lam = m_lam

    on = vov > 0.0
    lin = on & (vds < vov)
    sat = on & ~lin

    # Sub-threshold leakage everywhere 'on' is false; lin | sat == on,
    # so the on-region selections below replace every 'on' entry.
    ids = m_ioff * np.minimum(vds / 0.1, 1.0)
    d_dvds = m_ioff / 0.1 * (vds < 0.1)
    d_dvov = np.zeros(beta.shape)

    # The (1 + lam*vds) factor is applied in both regions so current
    # is continuous at the vds = vov boundary (prevents Newton limit
    # cycles at switching instants).
    clm = 1.0 + lam * vds
    lin_i = beta * (vov * vds - 0.5 * vds * vds)
    ids = np.where(lin, lin_i * clm, ids)
    d_dvds = np.where(lin, beta * (vov - vds) * clm + lin_i * lam,
                      d_dvds)
    d_dvov = np.where(lin, beta * vds * clm, d_dvov)

    sat_i0 = 0.5 * beta * vov * vov
    ids = np.where(sat, sat_i0 * clm, ids)
    d_dvds = np.where(sat, sat_i0 * lam, d_dvds)
    d_dvov = np.where(sat, beta * vov * clm, d_dvov)

    # gmin shunt for convergence.
    ids += G_MIN * vds
    d_dvds += G_MIN

    # Magnitude derivatives w.r.t. (hi, lo, gate) node voltages; the
    # PMOS/NMOS split needs a single select because negation and
    # addition are sign-symmetric under IEEE rounding.
    d_dvov_p = np.where(m_p, d_dvov, 0.0)
    d_dvov_n = d_dvov - d_dvov_p
    g_hi = d_dvds + d_dvov_p
    g_lo = -(d_dvds + d_dvov_n)
    g_gm = d_dvov_n - d_dvov_p

    # Signed drain->source current and its derivatives.
    sgn = np.where(swap, -1.0, 1.0)
    i_ds = sgn * ids
    g_d = np.where(swap, -g_lo, g_hi)
    g_s = np.where(swap, -g_hi, g_lo)
    g_g = sgn * g_gm
    return i_ds, g_d, g_g, g_s


@dataclass
class TransientResult:
    """Waveforms and supply-energy trace from a transient run."""

    time: np.ndarray            # (T,)
    voltages: np.ndarray        # (T, n_nodes)
    supply_current: np.ndarray  # (T,) current drawn from vdd (A)
    node_names: list[str]
    vdd: float

    def v(self, name: str) -> np.ndarray:
        """Waveform of a node by name."""
        return self.voltages[:, self.node_names.index(name)]

    @property
    def energy(self) -> float:
        """Total energy delivered by the supply over the run (J)."""
        return float(self.vdd * np.trapezoid(self.supply_current, self.time))

    def energy_between(self, t0: float, t1: float) -> float:
        """Supply energy delivered within the window ``[t0, t1]`` (J)."""
        mask = (self.time >= t0) & (self.time <= t1)
        if mask.sum() < 2:
            return 0.0
        return float(self.vdd * np.trapezoid(self.supply_current[mask],
                                             self.time[mask]))


class ConvergenceError(RuntimeError):
    """Raised when Newton iteration fails to converge at some timestep."""


class NewtonConvergenceError(ConvergenceError):
    """Newton failure with the offending nodes and timestep attached.

    ``nodes`` are the node *names* that were furthest from convergence
    (largest ``|dv|``) on the final attempt, ``time`` the simulation
    time of the failed step and ``dt`` the step size in use when it
    failed.  The message carries all three so the failure is actionable
    even after crossing a process boundary as a structured
    :class:`repro.exp.JobError` (which preserves only ``exc_type`` and
    the message text).
    """

    def __init__(self, message: str, *, nodes: list[str] | None = None,
                 time: float = 0.0, dt: float = 0.0):
        super().__init__(message)
        self.nodes = list(nodes or [])
        self.time = time
        self.dt = dt

    @classmethod
    def at_step(cls, *, time: float, dt: float, nodes: list[str],
                detail: str = "") -> "NewtonConvergenceError":
        where = ", ".join(nodes) if nodes else "<unknown>"
        msg = (f"Newton failed to converge at t={time:.4e}s "
               f"(dt={dt:.3e}s) on node(s): {where}")
        if detail:
            msg += f" [{detail}]"
        return cls(msg, nodes=nodes, time=time, dt=dt)


class CompiledCircuit:
    """A :class:`Circuit` lowered to the arrays the transient engine reads.

    Node ``i`` is free unless a voltage source fixes it; ``free`` lists
    the free nodes and ``free_pos`` maps a node to its position among
    them (-1 if fixed).  ``cap`` is each node's lumped capacitance, the
    ``m_*`` and ``r_*`` arrays describe the MOSFETs and resistors, and
    ``jac_res`` is the constant resistor part of the flat ``nf x nf``
    residual Jacobian.
    """

    def __init__(self, circuit: Circuit):
        ckt = circuit
        tech = ckt.tech
        n = ckt.n_nodes
        self.n = n

        fixed = np.zeros(n, dtype=bool)
        for idx in ckt.sources:
            fixed[idx] = True
        self.free = np.where(~fixed)[0]
        nf = self.free.size
        self.nf = nf
        # Map full node index -> position among free nodes (-1 if fixed).
        self.free_pos = -np.ones(n, dtype=np.int64)
        self.free_pos[self.free] = np.arange(nf)

        # Lumped node capacitance (explicit + device parasitics + floor).
        cap = np.full(n, C_FLOOR)
        for c in ckt.capacitors:
            cap[c.n] += c.c
        for m in ckt.mosfets:
            cap[m.g] += tech.gate_cap(m.w, m.l)
            cap[m.d] += tech.junction_cap(m.w)
            cap[m.s] += tech.junction_cap(m.w)
        self.cap = cap

        # MOSFET arrays.
        ms = ckt.mosfets
        self.m_d = np.array([m.d for m in ms], dtype=np.int64)
        self.m_g = np.array([m.g for m in ms], dtype=np.int64)
        self.m_s = np.array([m.s for m in ms], dtype=np.int64)
        self.m_p = np.array([m.ptype for m in ms], dtype=bool)
        self.m_beta = np.array(
            [tech.beta(m.w, m.l, ptype=m.ptype) for m in ms])
        self.m_vt = np.where(self.m_p, abs(tech.vt_p), tech.vt_n)
        self.m_lam = np.where(self.m_p, tech.lambda_p, tech.lambda_n)
        self.m_ioff = np.array([tech.i_off_per_m * m.w for m in ms])

        # Resistor arrays.
        rs = ckt.resistors
        self.r_a = np.array([r.a for r in rs], dtype=np.int64)
        self.r_b = np.array([r.b for r in rs], dtype=np.int64)
        self.r_g = np.array([1.0 / r.r for r in rs])

        # Resistor Jacobian contribution is constant: build it once.
        self.jac_res = np.zeros(nf * nf)
        if self.r_a.size:
            rows = np.concatenate([self.r_a, self.r_a, self.r_b, self.r_b])
            cols = np.concatenate([self.r_a, self.r_b, self.r_b, self.r_a])
            vals = np.concatenate([-self.r_g, self.r_g, -self.r_g, self.r_g])
            rp = self.free_pos[rows]
            cp = self.free_pos[cols]
            ok = (rp >= 0) & (cp >= 0)
            # d(resid)/dv = -d(inj)/dv
            np.add.at(self.jac_res, (rp * nf + cp)[ok], -vals[ok])

        self.vdd_idx = ckt.vdd


def simulate(circuit: Circuit, t_end: float,
             dt: float = 1e-12) -> TransientResult:
    """Transient analysis of one circuit from 0 to ``t_end``.

    A batch of one through :func:`~repro.circuit.batchsim.simulate_batch`
    with its dense per-circuit solve, so the waveforms are the ones
    that circuit gets inside any dense batch.
    """
    from .batchsim import simulate_batch
    return simulate_batch([circuit], t_end, dt, solver="dense")[0]
