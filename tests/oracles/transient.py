"""One-circuit-at-a-time transient loop: the batched engine's reference.

The product runs every transient through the batched engine
(:func:`repro.circuit.batchsim.simulate_batch`; a single circuit is a
batch of one).  :class:`TransientSimulator` is the plain loop it was
derived from: one circuit, one backward-Euler step at a time, a dense
``np.linalg.solve`` per Newton iteration, and the 8-substep
source-ramping recovery when a step fails to converge.

It shares the device model (:func:`~repro.circuit.simulator.mos_currents`),
the circuit compiler and the Newton constants with the product, and
defines the contract the batched engine's dense solver must meet bit
for bit: every stamp is accumulated with one ``np.bincount`` in the
section-major order below, and a step converges when the clipped
update's ``max|dv|`` drops under ``NEWTON_TOL``.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.batchsim import MAX_NEWTON, NEWTON_TOL
from repro.circuit.network import Circuit
from repro.circuit.simulator import (CompiledCircuit,
                                     NewtonConvergenceError,
                                     TransientResult, mos_currents)

__all__ = ["TransientSimulator", "simulate"]


class TransientSimulator(CompiledCircuit):
    """Compiles a :class:`Circuit` and runs backward-Euler transients."""

    def __init__(self, circuit: Circuit):
        super().__init__(circuit)
        self.circuit = circuit
        nf = self.nf

        # Static MOSFET stamp pattern (flat indices into the nf x nf
        # dense Jacobian): rows d,d,d,s,s,s; cols d,g,s x2.
        rows = np.concatenate([self.m_d] * 3 + [self.m_s] * 3)
        cols = np.concatenate([self.m_d, self.m_g, self.m_s] * 2)
        rp = self.free_pos[rows]
        cp = self.free_pos[cols]
        self.mos_ok = (rp >= 0) & (cp >= 0)
        self.mos_flat = (rp * nf + cp)[self.mos_ok]

        # Injection accumulation patterns (bincount over all nodes).
        self.inj_mos_idx = np.concatenate([self.m_d, self.m_s])
        self.inj_res_idx = np.concatenate([self.r_a, self.r_b])

    # ------------------------------------------------------------------
    def _eval(self, v: np.ndarray):
        """Injected node currents and the dense Jacobian of the residual."""
        n = self.n
        nf = self.nf
        inj = np.zeros(n)

        jac = self.jac_res.copy()
        if self.m_d.size:
            i_ds, g_d, g_g, g_s = mos_currents(
                v, self.m_d, self.m_g, self.m_s, self.m_p, self.m_beta,
                self.m_vt, self.m_lam, self.m_ioff)
            inj += np.bincount(self.inj_mos_idx,
                               np.concatenate([-i_ds, i_ds]), minlength=n)
            # Residual Jacobian stamps: resid = ... - inj, and
            # inj[d] -= i_ds, inj[s] += i_ds, so row d gets +g_* and
            # row s gets -g_* (cols d, g, s).
            vals = np.concatenate([g_d, g_g, g_s, -g_d, -g_g, -g_s])
            jac += np.bincount(self.mos_flat, vals[self.mos_ok],
                               minlength=nf * nf)
        if self.r_a.size:
            i_r = self.r_g * (v[self.r_a] - v[self.r_b])
            inj += np.bincount(self.inj_res_idx,
                               np.concatenate([-i_r, i_r]), minlength=n)
        return inj, jac.reshape(nf, nf)

    # ------------------------------------------------------------------
    def run(self, t_end: float, dt: float = 1e-12) -> TransientResult:
        """Run a transient analysis from 0 to ``t_end`` with step ``dt``.

        Every node starts at 0 V except the sources; every step is
        recorded.
        """
        ckt = self.circuit
        n = self.n
        n_steps = int(round(t_end / dt))
        times = np.arange(n_steps + 1) * dt

        src_idx = np.array(sorted(ckt.sources), dtype=np.int64)
        src_wave = np.empty((src_idx.size, n_steps + 1))
        for k, idx in enumerate(src_idx):
            src_wave[k] = ckt.sources[idx].sample(times)

        v = np.zeros(n)
        v[src_idx] = src_wave[:, 0]

        free = self.free
        nf = self.nf
        cap_free = self.cap[free]
        diag = np.arange(nf)

        volts = np.empty((n_steps + 1, n))
        i_sup = np.empty(n_steps + 1)

        vdd_idx = self.vdd_idx

        def worst_nodes(dv: np.ndarray | None) -> list[str]:
            """Names of the free nodes furthest from convergence."""
            if dv is None or not dv.size:
                return []
            order = np.argsort(-np.abs(dv))[:3]
            return [ckt.node_name(free[i]) for i in order
                    if abs(dv[i]) >= NEWTON_TOL]

        def newton_step(v_prev: np.ndarray, v_src: np.ndarray,
                        h: float):
            """One backward-Euler step of size ``h``.

            Returns ``(v_new, supply_current)``, or on Newton failure
            ``(None, diagnostic)`` where the diagnostic is the list of
            offending node names (empty for a singular Jacobian).
            """
            g_ch = cap_free / h
            vv = v_prev.copy()
            vv[src_idx] = v_src
            dv = None
            for _ in range(MAX_NEWTON):
                inj, jac = self._eval(vv)
                resid = g_ch * (vv[free] - v_prev[free]) - inj[free]
                jac = jac.copy()
                jac[diag, diag] += g_ch
                try:
                    dv = np.linalg.solve(jac, -resid)
                except np.linalg.LinAlgError:
                    return None, []
                np.clip(dv, -0.6, 0.6, out=dv)
                vv[free] += dv
                if np.abs(dv).max() < NEWTON_TOL:
                    # Current leaving the vdd node = -inj[vdd].
                    return vv, -inj[vdd_idx]
            return None, worst_nodes(dv)

        # Record initial point.
        inj0, _ = self._eval(v)
        volts[0] = v
        i_sup[0] = -inj0[vdd_idx]

        for step in range(1, n_steps + 1):
            src_prev = src_wave[:, step - 1]
            src_now = src_wave[:, step]
            v_new, cur = newton_step(v, src_now, dt)
            if v_new is None:
                # Substep through a stiff switching instant; sources are
                # linearly interpolated inside the step.
                n_sub = 8
                v_new = v
                for k in range(1, n_sub + 1):
                    frac = k / n_sub
                    v_src = src_prev + frac * (src_now - src_prev)
                    v_new, cur = newton_step(v_new, v_src, dt / n_sub)
                    if v_new is None:
                        raise NewtonConvergenceError.at_step(
                            time=step * dt, dt=dt / n_sub,
                            nodes=cur,
                            detail=(f"substep {k}/{n_sub}; singular "
                                    f"Jacobian" if not cur else
                                    f"substep {k}/{n_sub}"))
            v = v_new
            volts[step] = v
            i_sup[step] = cur

        return TransientResult(
            time=times,
            voltages=volts,
            supply_current=i_sup,
            node_names=ckt.names(),
            vdd=ckt.tech.vdd,
        )


def simulate(circuit: Circuit, t_end: float,
             dt: float = 1e-12) -> TransientResult:
    """One-shot wrapper around :class:`TransientSimulator`."""
    return TransientSimulator(circuit).run(t_end, dt)
