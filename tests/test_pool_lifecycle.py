"""Pool workers leave their fate to the parent.

A worker is forked with a copy of whatever its parent holds at that
moment -- for the job server's replacements, an asyncio loop's signal
handlers and wakeup fd, a bound listener and open client connections.
These tests fork workers from a parent in that state and check that
the worker lets go of it, and that closing a pool does not wait on
workers that are still busy.
"""

import multiprocessing
import os
import signal
import socket
import time

import pytest

from repro.exp import JobSpec, PersistentPool

FORK = multiprocessing.get_context("fork")


def _run(pool, worker, **params):
    """One ``selftest`` job on ``worker``; returns its ``res`` message."""
    pool.dispatch(worker, None, JobSpec.make("selftest", **params))
    assert worker.conn.recv()[0] == "ack"
    return worker.conn.recv()


def test_worker_drops_the_parents_signal_handlers():
    """Forked while the parent routes SIGTERM and SIGINT to handlers
    and a wakeup fd, as an asyncio loop does: the worker ignores
    SIGINT, dies on SIGTERM, and writes nothing to the parent's fd."""
    rsock, wsock = socket.socketpair()
    rsock.setblocking(False)
    wsock.setblocking(False)
    old_fd = signal.set_wakeup_fd(wsock.fileno())
    old_term = signal.signal(signal.SIGTERM, lambda *_: None)
    old_int = signal.signal(signal.SIGINT, lambda *_: None)
    try:
        pool = PersistentPool(1, FORK)
    finally:
        signal.set_wakeup_fd(old_fd)
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
    try:
        worker = pool.workers[0]
        assert _run(pool, worker, x=1.0)[1] == 2.0
        os.kill(worker.proc.pid, signal.SIGINT)
        assert _run(pool, worker, x=2.0)[1] == 4.0
        worker.proc.terminate()
        worker.proc.join(5)
        assert worker.proc.exitcode == -signal.SIGTERM
        with pytest.raises(BlockingIOError):
            rsock.recv(1)
    finally:
        pool.close()
        rsock.close()
        wsock.close()


def test_worker_lets_go_of_inherited_sockets():
    """A connection the parent held at fork time ends when the parent
    closes it, although the worker got a copy."""
    mine, peer = socket.socketpair()
    pool = PersistentPool(1, FORK)
    try:
        assert _run(pool, pool.workers[0], x=1.0)[1] == 2.0
        mine.close()
        peer.settimeout(5)
        assert peer.recv(1) == b""
    finally:
        pool.close()
        peer.close()


def test_worker_exits_once_the_parent_lets_go_of_its_pipe():
    """The worker keeps no copy of the parent's end of its own pipe, so
    it reads EOF and exits when that end closes -- as it does when the
    parent is killed."""
    pool = PersistentPool(1, FORK)
    worker = pool.workers[0]
    try:
        worker.conn.close()
        worker.proc.join(5)
        assert worker.proc.exitcode == 0
    finally:
        pool.close()


def test_close_kills_busy_workers_at_once():
    """Workers still on a job (their batch was interrupted) would only
    read the stop message after it: closing kills them instead of
    waiting a second for each."""
    pool = PersistentPool(2, FORK)
    for worker in pool.workers:
        pool.dispatch(worker, None, JobSpec.make("selftest", sleep_s=30.0))
        assert worker.conn.recv()[0] == "ack"
        worker.inflight = "interrupted"
    procs = [worker.proc for worker in pool.workers]
    t0 = time.monotonic()
    pool.close()
    assert time.monotonic() - t0 < 1.5
    assert not any(proc.is_alive() for proc in procs)
