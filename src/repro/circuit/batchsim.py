"""Batched transient engine: many independent circuits, one tensor run.

The package's one transient step loop.  A figure sweep
(pass-transistor widths x wire lengths) or a table of cell
characterisations is dozens of *independent* transient analyses, each
thousands of backward-Euler steps over a few tens of nodes.  This
module runs them all at once: the circuits are stacked
block-diagonally (node and device arrays concatenated with per-circuit
offsets) so one backward-Euler/Newton loop advances every circuit in
lock step, with per-batch-element convergence masking.  The
Python-loop iteration count is the *maximum* of the per-circuit step
counts rather than their sum.  A single circuit
(:func:`~repro.circuit.simulator.simulate`) is a batch of one.

One Jacobian, in band storage
-----------------------------
The block-diagonal stack is one banded matrix, as wide as its widest
circuit.  Each Newton iteration stamps its Jacobian once, straight into
the band storage LAPACK's ``dgbsv`` reads: the entry at stack position
(row, col) sits at ``col * ab_rows + 2*kl + row - col``.  Both solvers
read that one array:

* ``solver="auto"`` (the default) factorises the whole stack with one
  ``dgbsv`` call per Newton iteration, for every pack.  Partial
  pivoting never crosses the zero coupling between blocks, so the
  per-circuit solutions are exact block solves; only their
  floating-point rounding differs from the dense path (well below
  solver tolerance, and far below the golden-regression tolerance).
* ``solver="dense"`` gathers each circuit's ``nf x nf`` block out of
  the band storage (entries outside the band read a zero slot) and
  solves it on its own.  The same gather diagnoses a singular band
  pivot: the per-circuit solves name the failing element.

Bit-equivalence contract
------------------------
With ``solver="dense"`` the engine produces **bit-identical** waveforms
to the one-circuit-at-a-time reference loop kept in
``tests/oracles/transient.py``, not merely close ones, so the
differential test layer (``tests/test_vectorized_equivalence.py``) can
assert equality:

* the MOSFET model is the same code
  (:func:`~repro.circuit.simulator.mos_currents`), evaluated
  elementwise -- values do not depend on which stack a device sits in;
* ``np.bincount`` accumulates per bin in input order, the global
  index arrays keep each circuit's stamps in the same section-major
  order as a single circuit's, and the (row, col) -> band position map
  is injective, so every nodal sum and Jacobian entry has the same
  floating-point association;
* the dense solves are grouped by matrix size and dispatched through
  the same LAPACK ``dgesv`` path a single ``np.linalg.solve`` uses,
  one independent factorisation per circuit;
* convergence is judged per element (``max|dv| < NEWTON_TOL`` after
  the clipped update) and a converged element's state is frozen while
  the rest keep iterating;
* a failing element falls back to an 8-substep source-ramping
  recovery, run on a single-element pack.

Circuits with differing step counts are handled by re-packing at each
step-count boundary: finished circuits leave the stack, the survivors
keep going.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgbsv

from .. import obs
from .network import Circuit
from .simulator import (CompiledCircuit, NewtonConvergenceError,
                        TransientResult, mos_currents)

__all__ = ["simulate_batch"]

#: Newton iterations per step before the substep recovery takes over.
MAX_NEWTON = 30

#: Newton convergence tolerance: ``max|dv|`` below this ends a step (V).
NEWTON_TOL = 1e-4


class _Element:
    """One circuit compiled for batching plus its per-run state."""

    def __init__(self, index: int, circuit: Circuit):
        self.index = index
        self.circuit = circuit
        self.cc = CompiledCircuit(circuit)
        if self.cc.nf == 0:
            raise ValueError(
                f"circuit #{index} has no free nodes; nothing to solve")

    # -- per-run state --------------------------------------------------
    def configure(self, t_end: float, dt: float) -> None:
        """Sample the stimulus and start every node at 0 V."""
        ckt = self.circuit
        self.n_steps = int(round(t_end / dt))
        self.times = np.arange(self.n_steps + 1) * dt

        self.src_idx = np.array(sorted(ckt.sources), dtype=np.int64)
        self.src_wave = np.empty((self.src_idx.size, self.n_steps + 1))
        for k, idx in enumerate(self.src_idx):
            self.src_wave[k] = ckt.sources[idx].sample(self.times)

        v = np.zeros(self.cc.n)
        v[self.src_idx] = self.src_wave[:, 0]
        self.v = v

        self.volts = np.empty((self.n_steps + 1, self.cc.n))
        self.i_sup = np.empty(self.n_steps + 1)

    def worst_nodes(self, dv: np.ndarray | None) -> list[str]:
        """Names of the free nodes furthest from convergence."""
        if dv is None or not dv.size:
            return []
        order = np.argsort(-np.abs(dv))[:3]
        return [self.circuit.node_name(self.cc.free[i]) for i in order
                if abs(dv[i]) >= NEWTON_TOL]

    def result(self) -> TransientResult:
        return TransientResult(
            time=self.times,
            voltages=self.volts,
            supply_current=self.i_sup,
            node_names=self.circuit.names(),
            vdd=self.circuit.tech.vdd,
        )


class _Group:
    """A contiguous run of pack elements sharing one Jacobian size.

    ``ab_idx`` holds, for each element's ``nf x nf`` block, the band
    storage position of every entry.
    """

    __slots__ = ("nf", "e0", "free_sl", "ab_idx")

    def __init__(self, nf, e0, free_sl, ab_idx):
        self.nf = nf
        self.e0 = e0
        self.free_sl = free_sl
        self.ab_idx = ab_idx


class _Pack:
    """A block-diagonal stack of circuits sharing one Newton loop.

    All index arrays address the concatenated node space or the
    stack's free-node space.  The Jacobian lives in LAPACK band storage
    -- ``ab_rows`` values per free node, column by column -- followed
    by one slot that stays zero.  Elements must arrive sorted by ``nf``
    so equal-size systems form contiguous solve groups.
    """

    def __init__(self, elements: list[_Element], solver: str):
        self.elements = elements
        self.dense = solver == "dense"
        ccs = [el.cc for el in elements]
        self.B = len(elements)

        n_list = [s.n for s in ccs]
        nf_list = [s.nf for s in ccs]
        self.node_off = np.concatenate(
            ([0], np.cumsum(n_list))).astype(np.int64)
        self.free_off = np.concatenate(
            ([0], np.cumsum(nf_list))).astype(np.int64)
        self.n_nodes = int(self.node_off[-1])
        self.nf_total = int(self.free_off[-1])
        self.free_starts = self.free_off[:-1]
        self.free_elem = np.repeat(np.arange(self.B), nf_list)

        offs = self.node_off[:-1]
        self.free_g = np.concatenate(
            [s.free + o for s, o in zip(ccs, offs)])
        self.cap_free = np.concatenate([s.cap[s.free] for s in ccs])
        self.vdd_idx = np.array(
            [o + s.vdd_idx for s, o in zip(ccs, offs)], dtype=np.int64)

        src_counts = [el.src_idx.size for el in elements]
        self.src_off = np.concatenate(
            ([0], np.cumsum(src_counts))).astype(np.int64)
        self.n_src = int(self.src_off[-1])
        self.src_idx = (np.concatenate(
            [el.src_idx + o for el, o in zip(elements, offs)])
            if self.n_src else np.empty(0, dtype=np.int64))

        # Device arrays with node offsets applied.
        self.m_d = np.concatenate([s.m_d + o for s, o in zip(ccs, offs)])
        self.m_g = np.concatenate([s.m_g + o for s, o in zip(ccs, offs)])
        self.m_s = np.concatenate([s.m_s + o for s, o in zip(ccs, offs)])
        self.m_p = np.concatenate([s.m_p for s in ccs])
        self.m_beta = np.concatenate([s.m_beta for s in ccs])
        self.m_vt = np.concatenate([s.m_vt for s in ccs])
        self.m_lam = np.concatenate([s.m_lam for s in ccs])
        self.m_ioff = np.concatenate([s.m_ioff for s in ccs])
        self.inj_mos_idx = np.concatenate([self.m_d, self.m_s])

        self.r_a = np.concatenate([s.r_a + o for s, o in zip(ccs, offs)])
        self.r_b = np.concatenate([s.r_b + o for s, o in zip(ccs, offs)])
        self.r_cond = np.concatenate([s.r_g for s in ccs])
        self.inj_res_idx = np.concatenate([self.r_a, self.r_b])

        # Jacobian stamps as (row, col) in the stack's free-node space:
        # the MOSFETs' (rows d,d,d,s,s,s; cols d,g,s x2, masked to free
        # nodes) and each circuit's constant resistor part.
        gpos = np.concatenate(
            [np.where(s.free_pos >= 0, s.free_pos + f, -1)
             for s, f in zip(ccs, self.free_starts)])
        rows = gpos[np.concatenate([self.m_d] * 3 + [self.m_s] * 3)]
        cols = gpos[np.concatenate([self.m_d, self.m_g, self.m_s] * 2)]
        self.mos_ok = (rows >= 0) & (cols >= 0)
        mos_r, mos_c = rows[self.mos_ok], cols[self.mos_ok]
        res_r, res_c, res_v = [], [], []
        for s, f in zip(ccs, self.free_starts):
            nz = np.flatnonzero(s.jac_res)
            r, c = np.divmod(nz, s.nf)
            res_r.append(r + f)
            res_c.append(c + f)
            res_v.append(s.jac_res[nz])
        res_r, res_c = np.concatenate(res_r), np.concatenate(res_c)

        # Band storage: kl = ku = the widest block's bandwidth, and kl
        # more rows per column for the LU fill-in.
        kl = self.kl = int(np.abs(np.concatenate(
            [mos_r - mos_c, res_r - res_c])).max(initial=0))
        ab_rows = 3 * kl + 1
        ab_size = self.nf_total * ab_rows
        self.ab_rows = ab_rows

        def band_pos(r, c):
            return c * ab_rows + (2 * kl + r - c)

        self.mos_ab = band_pos(mos_r, mos_c)
        self.ab_static = np.zeros(ab_size + 1)
        self.ab_static[band_pos(res_r, res_c)] = np.concatenate(res_v)
        diag = np.arange(self.nf_total)
        self.ab_diag = band_pos(diag, diag)

        # Solve groups: contiguous runs of equal nf, each with its
        # blocks' band positions (ab_size, the zero slot, off the band).
        self.groups = []
        i = 0
        while i < self.B:
            nf = nf_list[i]
            j = i
            while j < self.B and nf_list[j] == nf:
                j += 1
            li, lj = np.divmod(np.arange(nf * nf), nf)
            f = self.free_starts[i:j, None]
            pos = np.where(np.abs(li - lj) <= kl,
                           band_pos(f + li, f + lj), ab_size)
            self.groups.append(_Group(
                nf, i, slice(int(self.free_off[i]), int(self.free_off[j])),
                pos.reshape(-1, nf, nf)))
            i = j

    # -- element views ---------------------------------------------------
    def node_sl(self, pos: int) -> slice:
        return slice(int(self.node_off[pos]), int(self.node_off[pos + 1]))

    def src_sl(self, pos: int) -> slice:
        return slice(int(self.src_off[pos]), int(self.src_off[pos + 1]))

    def gather(self) -> np.ndarray:
        return np.concatenate([el.v for el in self.elements])

    def scatter(self, v_g: np.ndarray) -> None:
        for pos, el in enumerate(self.elements):
            el.v = v_g[self.node_sl(pos)].copy()

    # -- physics ---------------------------------------------------------
    def _stamp(self, v: np.ndarray, g_ch: np.ndarray):
        """Injected currents and the band-stored Newton Jacobian at
        ``v``, with ``g_ch`` on its diagonal.

        Stamped in each circuit's own section-major order: the same
        bincount input order as a single circuit, hence the same
        per-node and per-entry summation order.
        """
        n = self.n_nodes
        inj = np.zeros(n)
        ab = self.ab_static.copy()
        if self.m_d.size:
            i_ds, g_d, g_g, g_s = mos_currents(
                v, self.m_d, self.m_g, self.m_s, self.m_p,
                self.m_beta, self.m_vt, self.m_lam, self.m_ioff)
            inj += np.bincount(self.inj_mos_idx,
                               np.concatenate([-i_ds, i_ds]), minlength=n)
            vals = np.concatenate([g_d, g_g, g_s, -g_d, -g_g, -g_s])
            ab += np.bincount(self.mos_ab, vals[self.mos_ok],
                              minlength=ab.size)
        if self.r_a.size:
            i_r = self.r_cond * (v[self.r_a] - v[self.r_b])
            inj += np.bincount(self.inj_res_idx,
                               np.concatenate([-i_r, i_r]), minlength=n)
        ab[self.ab_diag] += g_ch
        return inj, ab

    def _g_ch(self, h: float) -> np.ndarray:
        """``cap/h`` for the free nodes, cached per step size."""
        cached = getattr(self, "_gch", None)
        if cached is None or cached[0] != h:
            self._gch = cached = (h, self.cap_free / h)
        return cached[1]

    def _dense_dv(self, ab, resid, failed) -> np.ndarray:
        """Per-circuit dense solves of the blocks gathered from ``ab``,
        grouped by matrix size.

        This is the bit-exact path: each block goes through the same
        LAPACK ``dgesv`` a single ``np.linalg.solve`` call would use.
        """
        dv = np.empty(self.nf_total)
        for grp in self.groups:
            block = ab[grp.ab_idx]
            rhs = -resid[grp.free_sl].reshape(-1, grp.nf, 1)
            try:
                dv[grp.free_sl] = np.linalg.solve(block, rhs).reshape(-1)
            except np.linalg.LinAlgError:
                # Some element's Jacobian is singular: redo the group
                # element by element so the healthy ones still get
                # their own exact solution.
                sol = np.empty_like(rhs)
                for b in range(sol.shape[0]):
                    try:
                        sol[b] = np.linalg.solve(block[b], rhs[b])
                    except np.linalg.LinAlgError:
                        sol[b] = 0.0
                        failed[grp.e0 + b] = True
                dv[grp.free_sl] = sol.reshape(-1)
        return dv

    def newton(self, v_prev: np.ndarray, src_now: np.ndarray, h: float):
        """One masked backward-Euler step of size ``h`` for every element.

        Returns ``(vv, conv, failed, cur, dv)``: the candidate state,
        per-element converged/singular masks, the supply current
        captured at each element's converging iteration, and the last
        Newton update (for failure diagnostics).  Elements with
        ``~conv`` need the substep fallback.
        """
        g_ch = self._g_ch(h)
        vv = v_prev.copy()
        if self.n_src:
            vv[self.src_idx] = src_now
        conv = np.zeros(self.B, dtype=bool)
        failed = np.zeros(self.B, dtype=bool)
        cur = np.zeros(self.B)
        dv = None
        fg = self.free_g
        vf = vv[fg]                  # free-node voltages, kept in sync
        vpf = v_prev[fg]
        n_done = 0
        for _ in range(MAX_NEWTON):
            inj, ab = self._stamp(vv, g_ch)
            pend = -inj[self.vdd_idx]
            resid = g_ch * (vf - vpf) - inj[fg]
            if self.dense:
                dv = self._dense_dv(ab, resid, failed)
            else:
                ab_t = ab[:-1].reshape(self.nf_total, self.ab_rows).T
                _, _, dv, info = dgbsv(self.kl, self.kl, ab_t,
                                       np.negative(resid),
                                       overwrite_ab=1, overwrite_b=1)
                if info:
                    # A singular pivot, met after dgbsv overwrote ab:
                    # stamp again and solve block by block, which
                    # also names the failing element.
                    _, ab = self._stamp(vv, g_ch)
                    dv = self._dense_dv(ab, resid, failed)
            np.maximum(dv, -0.6, out=dv)
            np.minimum(dv, 0.6, out=dv)
            done = conv | failed
            if n_done:
                live = ~done[self.free_elem]
                np.add(vf, dv, out=vf, where=live)
            else:
                vf += dv
            vv[fg] = vf
            amax = np.maximum.reduceat(np.abs(dv), self.free_starts)
            newly = (amax < NEWTON_TOL) & ~done
            if newly.any():
                # Current leaving vdd, from this iteration's pre-update
                # evaluation.
                cur[newly] = pend[newly]
                conv |= newly
            n_done = int(np.count_nonzero(conv | failed))
            if n_done == self.B:
                break
        return vv, conv, failed, cur, dv


class _BatchRun:
    """Runs many independent :class:`Circuit` transients in lock step."""

    def __init__(self, circuits: list[Circuit], solver: str):
        self.solver = solver
        self.elements = [_Element(i, c) for i, c in enumerate(circuits)]
        self._single: dict[int, _Pack] = {}

    # ------------------------------------------------------------------
    def _single_pack(self, el: _Element) -> _Pack:
        pack = self._single.get(el.index)
        if pack is None:
            pack = self._single[el.index] = _Pack([el], self.solver)
        return pack

    def _fallback(self, el: _Element, v_prev: np.ndarray,
                  src_prev: np.ndarray, src_now: np.ndarray, step: int,
                  dt: float):
        """8-substep source-ramping recovery for one failing element."""
        pack = self._single_pack(el)
        n_sub = 8
        h = dt / n_sub
        v_new = v_prev
        cur_val = 0.0
        for k in range(1, n_sub + 1):
            frac = k / n_sub
            v_src = src_prev + frac * (src_now - src_prev)
            vv, conv, failed, cur, dv = pack.newton(v_new, v_src, h)
            if not conv[0]:
                nodes = el.worst_nodes(dv) if not failed[0] else []
                raise NewtonConvergenceError.at_step(
                    time=step * dt, dt=h, nodes=nodes,
                    detail=(f"substep {k}/{n_sub}; singular Jacobian"
                            if not nodes else f"substep {k}/{n_sub}"))
            v_new = vv
            cur_val = float(cur[0])
        return v_new, cur_val

    # ------------------------------------------------------------------
    def run(self, t_ends, dt: float) -> list[TransientResult]:
        """Run every circuit from 0 to its ``t_end`` with shared ``dt``.

        ``t_ends`` is a scalar (shared) or one value per circuit.
        Returns one :class:`TransientResult` per circuit, in input
        order, with every step recorded.
        """
        n = len(self.elements)
        if not n:
            return []
        if np.isscalar(t_ends):
            t_ends = [float(t_ends)] * n
        if len(t_ends) != n:
            raise ValueError(f"{len(t_ends)} t_ends for {n} circuits")

        for el, t_end in zip(self.elements, t_ends):
            el.configure(t_end, dt)

        # Sorted by system size so equal-nf elements form contiguous
        # solve groups; ties broken by input order for determinism.
        ordered = sorted(self.elements, key=lambda e: (e.cc.nf, e.index))
        boundaries = sorted({el.n_steps for el in ordered})
        max_steps = boundaries[-1]

        ms = obs.metrics.metric_set()
        ms.publish("sim.batch_size", n)
        with obs.span("sim.batch", circuits=n, steps=max_steps,
                      nodes=sum(el.cc.n for el in ordered)):
            self._run_segments(ordered, boundaries, dt)
        return [el.result() for el in self.elements]

    # ------------------------------------------------------------------
    def _run_segments(self, ordered, boundaries, dt):
        s_prev = 0
        for seg, bound in enumerate(boundaries):
            members = [el for el in ordered if el.n_steps >= bound]
            pack = _Pack(members, self.solver)
            v_g = pack.gather()

            # Stimulus columns for absolute steps s_base .. bound.
            s_base = max(s_prev - 1, 0)
            src = np.zeros((pack.n_src, bound - s_base + 1))
            for pos, el in enumerate(members):
                src[pack.src_sl(pos)] = el.src_wave[:, s_base:bound + 1]

            # Recording buffers: row r holds absolute step rec0 + r.
            rec0 = 0 if seg == 0 else s_prev + 1
            n_rec = bound - rec0 + 1
            volts_buf = np.empty((n_rec, pack.n_nodes))
            isup_buf = np.empty((n_rec, pack.B))

            if seg == 0:
                inj0, _ = pack._stamp(v_g, pack._g_ch(dt))
                volts_buf[0] = v_g
                isup_buf[0] = -inj0[pack.vdd_idx]

            for step in range(s_prev + 1, bound + 1):
                src_now = src[:, step - s_base]
                vv, conv, failed, cur, dv = pack.newton(v_g, src_now, dt)
                if not conv.all():
                    src_prev = src[:, step - 1 - s_base]
                    for pos in np.nonzero(~conv)[0]:
                        el = members[pos]
                        sl = pack.node_sl(pos)
                        ssl = pack.src_sl(pos)
                        v_e, cur_e = self._fallback(
                            el, v_g[sl].copy(), src_prev[ssl],
                            src_now[ssl], step, dt)
                        vv[sl] = v_e
                        cur[pos] = cur_e
                v_g = vv
                volts_buf[step - rec0] = v_g
                isup_buf[step - rec0] = cur

            pack.scatter(v_g)
            for pos, el in enumerate(members):
                el.volts[rec0:rec0 + n_rec] = volts_buf[:, pack.node_sl(pos)]
                el.i_sup[rec0:rec0 + n_rec] = isup_buf[:, pos]
            s_prev = bound


def simulate_batch(circuits, t_ends, dt: float = 1e-12,
                   solver: str = "auto") -> list[TransientResult]:
    """Transient analyses of many independent circuits in one run.

    ``t_ends`` is one end time shared by every circuit or one per
    circuit; every circuit starts at 0 V and every step is recorded.
    Returns one result per circuit, in input order.

    Every Newton iteration stamps one Jacobian for the whole batch, in
    band storage.  ``solver="auto"`` (default) solves it with one
    ``dgbsv`` call, identical to the per-circuit solves within solver
    tolerance.  ``solver="dense"`` gathers each circuit's block from
    it and solves the blocks one by one, bit-identical to a
    one-circuit-at-a-time loop.
    """
    if solver not in ("auto", "dense"):
        raise ValueError(f"unknown solver {solver!r}")
    return _BatchRun(circuits, solver).run(t_ends, dt)
