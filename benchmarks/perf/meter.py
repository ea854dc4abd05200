"""CPU-speed meter: how fast this machine ran while the benchmark ran.

The shared virtual machine the bounds were set on (2-vCPU Intel Xeon)
runs a fixed pure-Python loop anywhere from 1.0x to 1.75x its fastest
time, changing within a second and sometimes staying slow for minutes,
so a run of a few tens of seconds does not average the host out: the
quartile spread of raw throughputs over ten identical runs reached 28%.

While the meter runs, a SIGALRM timer interrupts the main thread every
``PERIOD_S``.  Unless the main thread itself mostly ran since the last
tick, it moves to a CPU on which a thread of a child process is running
(a pool worker, the job server), and it times a fixed reference task
there (one *tick*).  A time interval is then rescaled to the machine on
which a tick takes ``REF_NOMINAL_S``: its length net of the ticks
inside it, times the mean of ``REF_NOMINAL_S / tick`` over those ticks.
The ticks thus sample the CPU doing the work at the moments it does it;
each costs that work 1.5-2% of the interval.

The reference task is a pure-Python loop plus small dense solves,
because the program's work is of both kinds: the flow tools run Python
bytecode, the transient engine many small NumPy calls.  A slow spell
slows the second kind more than the first, so a pure-Python reference
alone under-corrects the experiment workload (figures in README.md).

Imports only the standard library and NumPy, so that it can start
before the program's imports and rescale the set-up time too.  Linux
only (``/proc``).
"""

import os
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
REF_ITERS = 5_000
REF_SOLVES = 10
_A = 48 * np.eye(48) + np.random.default_rng(0).standard_normal((48, 48))
_B = np.ones(48)
#: One tick on a quiet CPU of the machine the bounds were set on.
REF_NOMINAL_S = 0.6e-3


def _loop() -> int:
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    for _ in range(REF_SOLVES):
        np.linalg.solve(_A, _B)
    return acc


def _child_cpus() -> list[int]:
    """CPUs on which a thread of a descendant process is running, read
    from ``/proc``."""
    cpus, tasks = [], [f"/proc/self/task/{tid}"
                       for tid in os.listdir("/proc/self/task")]
    while tasks:
        task = tasks.pop()
        try:
            with open(f"{task}/children") as fh:
                children = fh.read().split()
            for pid in children:
                tasks += [f"/proc/{pid}/task/{tid}"
                          for tid in os.listdir(f"/proc/{pid}/task")]
            if task.startswith("/proc/self/"):
                continue
            with open(f"{task}/stat") as fh:
                stat = fh.read()
        except OSError:          # the task has exited meanwhile
            continue
        # Fields after "pid (comm)": state is field 3, processor 39.
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] == "R":
            cpus.append(int(fields[36]))
    return cpus


class SpeedMeter:
    """Ticks of the reference loop, as ``(start, seconds)`` pairs."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []
        self._previous = None
        self._since = (time.perf_counter(), time.thread_time())

    def start(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        # A main thread that mostly ran since the last tick is the one
        # doing the work; otherwise a child process does it.
        wall, cpu = self._since
        busy = time.thread_time() - cpu > (time.perf_counter() - wall) / 2
        cpus = [] if busy else _child_cpus()
        mask = os.sched_getaffinity(0)
        if cpus:
            os.sched_setaffinity(0, {cpus[len(self.ticks) % len(cpus)]})
        try:
            t0 = time.perf_counter()
            _loop()
            self.ticks.append((t0, time.perf_counter() - t0))
        finally:
            if cpus:
                os.sched_setaffinity(0, mask)
            self._since = (time.perf_counter(), time.thread_time())

    def nominal_s(self, t0: float, t1: float) -> float:
        """Seconds the interval ``[t0, t1)`` of ``time.perf_counter()``
        would have lasted on the nominal machine, without the ticks.
        An interval shorter than a period borrows its nearest tick."""
        inside = [s for t, s in self.ticks if t0 <= t < t1]
        speed = inside or [min(self.ticks, key=lambda tk: abs(tk[0] - t0))[1]]
        return ((t1 - t0 - sum(inside))
                * statistics.fmean(REF_NOMINAL_S / s for s in speed))

    def median_tick_ms(self) -> float:
        return statistics.median(s for _, s in self.ticks) * 1e3
