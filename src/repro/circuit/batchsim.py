"""Batched transient engine: many independent circuits, one tensor run.

The package's one transient step loop.  A figure sweep
(pass-transistor widths x wire lengths) or a table of cell
characterisations is dozens of *independent* transient analyses, each
thousands of backward-Euler steps over a few tens of nodes.  This
module runs them all at once: the circuits are stacked
block-diagonally (node, device and Jacobian arrays concatenated with
per-circuit offsets) so one backward-Euler/Newton loop advances every
circuit in lock step, with per-batch-element convergence masking.  The
Python-loop iteration count is the *maximum* of the per-circuit step
counts rather than their sum.  A single circuit
(:func:`~repro.circuit.simulator.simulate`) is a batch of one.

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
* ``np.bincount`` accumulates per bin in input order, and the global
  index arrays keep each circuit's stamps in the same section-major
  order as a single circuit's, so every nodal sum has the same
  floating-point association;
* the dense solves are grouped by matrix size and dispatched through
  the same LAPACK ``dgesv`` path a single ``np.linalg.solve`` uses,
  one independent factorisation per circuit;
* convergence is judged per element (``max|dv| < NEWTON_TOL`` after
  the clipped update) and a converged element's state is frozen while
  the rest keep iterating;
* a failing element falls back to an 8-substep source-ramping
  recovery, run on a single-element pack.

The default ``solver="auto"`` additionally enables a **banded** linear
path when every stacked Jacobian has small bandwidth (the figure
sweeps' RC-ladder circuits have bandwidth 2): the block-diagonal stack
is one banded matrix, factorised by a single LAPACK ``dgbsv`` call per
Newton iteration instead of one ``dgesv`` per circuit.  Partial
pivoting never crosses the zero coupling between blocks, so the
per-circuit solutions are exact block solves; only their floating-point
rounding differs from the dense path (well below solver tolerance, and
far below the golden-regression tolerance).  Wide-bandwidth circuits
(the DETFF cells) automatically keep the dense bit-exact path.

Circuits with differing step counts are handled by re-packing at each
step-count boundary: finished circuits leave the stack, the survivors
keep going.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .network import Circuit
from .simulator import (CompiledCircuit, NewtonConvergenceError,
                        TransientResult, mos_currents)

try:                               # scipy ships in the platform image,
    from scipy.linalg import lapack as _lapack   # but stay importable
except Exception:                  # pragma: no cover - no scipy
    _lapack = None

__all__ = ["simulate_batch"]

#: Maximum Jacobian bandwidth for which ``solver="auto"`` picks the
#: single-``dgbsv`` banded path over per-circuit dense solves.  The
#: figure sweeps' RC ladders have bandwidth 2; the DETFF cells (11-15)
#: stay dense and therefore bit-exact against the reference loop.
AUTO_BAND_LIMIT = 6

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
    """A contiguous run of pack elements sharing one Jacobian size."""

    __slots__ = ("nf", "e0", "jac_sl", "free_sl", "diag")

    def __init__(self, nf, e0, jac_sl, free_sl):
        self.nf = nf
        self.e0 = e0
        self.jac_sl = jac_sl
        self.free_sl = free_sl
        self.diag = np.arange(nf)


class _Pack:
    """A block-diagonal stack of circuits sharing one Newton loop.

    All index arrays address the concatenated node space; the flat
    Jacobian is the concatenation of each element's ``nf*nf`` block.
    Elements must arrive sorted by ``nf`` so equal-size systems form
    contiguous solve groups.
    """

    def __init__(self, elements: list[_Element], solver: str):
        self.elements = elements
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

        self.r_a = np.concatenate([s.r_a + o for s, o in zip(ccs, offs)])
        self.r_b = np.concatenate([s.r_b + o for s, o in zip(ccs, offs)])
        self.r_cond = np.concatenate([s.r_g for s in ccs])

        # Per-node lookups for rebuilding the flat stamp patterns: the
        # element-local free position, the element's nf and the offset
        # of its Jacobian block in the concatenated flat Jacobian.
        fp = np.concatenate([s.free_pos for s in ccs])
        jac_sizes = [nf * nf for nf in nf_list]
        jac_off = np.concatenate(
            ([0], np.cumsum(jac_sizes))).astype(np.int64)
        self.jac_off = jac_off
        node_nf = np.repeat(np.array(nf_list, dtype=np.int64), n_list)
        node_jac_off = np.repeat(jac_off[:-1], n_list)

        self.jac_res = np.concatenate([s.jac_res for s in ccs])
        self.total_flat = self.jac_res.size

        band = 0
        if self.m_d.size:
            rows = np.concatenate([self.m_d] * 3 + [self.m_s] * 3)
            cols = np.concatenate([self.m_d, self.m_g, self.m_s] * 2)
            rp = fp[rows]
            cp = fp[cols]
            ok = (rp >= 0) & (cp >= 0)
            flat = node_jac_off[rows] + rp * node_nf[rows] + cp
            self.mos_flat = flat[ok]
            self.mos_ok = ok
            self.inj_mos_idx = np.concatenate([self.m_d, self.m_s])
            if self.mos_flat.size:
                band = int(np.abs(rp - cp)[ok].max())
        else:
            self.mos_flat = np.empty(0, dtype=np.int64)
            self.mos_ok = np.empty(0, dtype=bool)
            self.inj_mos_idx = np.empty(0, dtype=np.int64)
        res_flat = np.empty(0, dtype=np.int64)
        if self.r_a.size:
            self.inj_res_idx = np.concatenate([self.r_a, self.r_b])
            rows = np.concatenate([self.r_a, self.r_a, self.r_b, self.r_b])
            cols = np.concatenate([self.r_a, self.r_b, self.r_b, self.r_a])
            rp = fp[rows]
            cp = fp[cols]
            ok = (rp >= 0) & (cp >= 0)
            res_flat = (node_jac_off[rows] + rp * node_nf[rows] + cp)[ok]
            if res_flat.size:
                band = max(band, int(np.abs(rp - cp)[ok].max()))
        else:
            self.inj_res_idx = np.empty(0, dtype=np.int64)

        # Solve groups: contiguous runs of equal nf.
        self.groups = []
        i = 0
        while i < self.B:
            nf = nf_list[i]
            j = i
            while j < self.B and nf_list[j] == nf:
                j += 1
            self.groups.append(_Group(
                nf, i,
                slice(int(jac_off[i]), int(jac_off[j])),
                slice(int(self.free_off[i]), int(self.free_off[j]))))
            i = j

        # Banded fast path: the block-diagonal stack is one banded
        # matrix (bandwidth = max per-element bandwidth); a single
        # LAPACK dgbsv factorises every circuit at once.  Partial
        # pivoting cannot mix decoupled blocks (all cross-block
        # candidates are exact zeros), so this is still an independent
        # per-circuit solve, just with banded instead of dense rounding.
        self.band = band
        self.use_banded = (_lapack is not None and solver == "auto"
                           and band <= AUTO_BAND_LIMIT)
        if self.use_banded:
            kl = ku = band
            self.kl = kl
            self.ab_rows = 2 * kl + ku + 1
            self.ab_diag_col = kl + ku
            nf_arr = np.array(nf_list, dtype=np.int64)

            def to_ab(flat):
                # Flat block-Jacobian index -> index into the
                # (nf_total, ab_rows) transposed band storage, using
                # A[i,j] -> ab[kl+ku+i-j, j].  Injective, so bincount
                # accumulation order per position matches the flat form.
                e = np.searchsorted(jac_off, flat, side="right") - 1
                rem = flat - jac_off[e]
                li = rem // nf_arr[e]
                lj = rem % nf_arr[e]
                row_g = self.free_starts[e] + li
                col_g = self.free_starts[e] + lj
                return col_g * self.ab_rows + (kl + ku + row_g - col_g)

            self.ab_size = self.nf_total * self.ab_rows
            # Static (resistor) stamps pre-imaged into band storage;
            # per-iteration MOS stamps bincount straight into it.
            self.ab_static = np.zeros(self.ab_size)
            nz = np.nonzero(self.jac_res)[0]
            self.ab_static[to_ab(nz)] = self.jac_res[nz]
            self.mos_ab = to_ab(self.mos_flat)

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
    def _eval(self, v: np.ndarray):
        """Injected currents + flat block Jacobian, stamped in each
        circuit's own section-major order (same bincount input order as
        a single circuit, hence the same per-node summation order)."""
        n = self.n_nodes
        inj = np.zeros(n)
        jac = self.jac_res.copy()
        if self.m_d.size:
            i_ds, g_d, g_g, g_s = mos_currents(
                v, self.m_d, self.m_g, self.m_s, self.m_p,
                self.m_beta, self.m_vt, self.m_lam, self.m_ioff)
            inj += np.bincount(self.inj_mos_idx,
                               np.concatenate([-i_ds, i_ds]), minlength=n)
            vals = np.concatenate([g_d, g_g, g_s, -g_d, -g_g, -g_s])
            jac += np.bincount(self.mos_flat, vals[self.mos_ok],
                               minlength=self.total_flat)
        if self.r_a.size:
            i_r = self.r_cond * (v[self.r_a] - v[self.r_b])
            inj += np.bincount(self.inj_res_idx,
                               np.concatenate([-i_r, i_r]), minlength=n)
        return inj, jac

    def _g_ch(self, h: float) -> np.ndarray:
        """``cap/h`` for the free nodes, cached per step size."""
        cached = getattr(self, "_gch", None)
        if cached is None or cached[0] != h:
            self._gch = cached = (h, self.cap_free / h)
        return cached[1]

    def _dense_dv(self, jac, resid, g_ch, dv, failed) -> None:
        """Per-circuit dense solves, grouped by matrix size.

        This is the bit-exact path: each block goes through the same
        LAPACK ``dgesv`` a single ``np.linalg.solve`` call would use.
        """
        for grp in self.groups:
            nf = grp.nf
            block = jac[grp.jac_sl].reshape(-1, nf, nf)
            block[:, grp.diag, grp.diag] += \
                g_ch[grp.free_sl].reshape(-1, nf)
            rhs = -resid[grp.free_sl].reshape(-1, nf, 1)
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

    def _eval_banded(self, v: np.ndarray):
        """Like :meth:`_eval` but accumulates the Jacobian straight
        into the flat band-storage image (``(nf_total, ab_rows)`` row
        major), skipping the full block form.  The flat->band position
        map is injective, so every entry receives the same contributions
        in the same order as the block form."""
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
                              minlength=self.ab_size)
        if self.r_a.size:
            i_r = self.r_cond * (v[self.r_a] - v[self.r_b])
            inj += np.bincount(self.inj_res_idx,
                               np.concatenate([-i_r, i_r]), minlength=n)
        return inj, ab

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
        banded = self.use_banded
        for _ in range(MAX_NEWTON):
            if banded:
                inj, ab = self._eval_banded(vv)
            else:
                inj, jac = self._eval(vv)
            pend = -inj[self.vdd_idx]
            resid = g_ch * (vf - vpf) - inj[fg]
            dv = None
            if banded:
                abt = ab.reshape(self.nf_total, self.ab_rows)
                abt[:, self.ab_diag_col] += g_ch
                rhs = np.negative(resid)
                _, _, x, info = _lapack.dgbsv(
                    self.kl, self.kl, abt.T, rhs,
                    overwrite_ab=1, overwrite_b=1)
                if info == 0:
                    dv = x
            if dv is None:
                # Singular pivot (or dense mode): per-circuit block
                # solves, which also identify the failing element.
                if banded:
                    _, jac = self._eval(vv)
                dv = np.empty(self.nf_total)
                self._dense_dv(jac, resid, g_ch, dv, failed)
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
                inj0, _ = pack._eval(v_g)
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
    ``solver="dense"`` forces the per-circuit grouped solves, which are
    bit-identical to a one-circuit-at-a-time loop; ``"auto"`` (default)
    uses the banded stack solve for narrow-band circuits, identical
    within solver tolerance.
    """
    if solver not in ("auto", "dense"):
        raise ValueError(f"unknown solver {solver!r}")
    return _BatchRun(circuits, solver).run(t_ends, dt)
