"""repro.exp -- the batch experiment engine.

Fans independent experiment jobs (the batched table and figure
studies) over isolated worker processes with deterministic result
ordering, per-job timing, structured failure
capture (:class:`JobError` distinguishes task errors from timeouts and
worker crashes), per-job ``timeout_s``/``retries`` with exponential
backoff, and a content-addressed on-disk result cache (key = SHA-256
of job spec + technology parameters + code version) so re-runs and
interrupted sweeps resume from cache instead of re-simulating.

Typical use::

    from repro.exp import JobSpec, ParallelRunner

    runner = ParallelRunner(jobs=4)
    specs = [JobSpec.make("fig_sweep_batch", points=[[w, 4]])
             for w in (1.0, 2.0, 4.0)]
    points = runner.run_values(specs)

Parallel batches run on one warm worker pool (:mod:`repro.exp.pool`)
whose workers outlive batches; each is sent one job at a time and
pickles its result back over its pipe.  The job server runs its
requests through the same scheduler, fed from its queue.

Every experiment driver in :mod:`repro.circuit.experiments` accepts a
``runner=`` argument; with none given they use :func:`default_runner`,
which :class:`repro.api.Config` builds from ``REPRO_JOBS`` /
``REPRO_NO_CACHE`` / ``REPRO_CACHE_DIR`` / ``REPRO_JOB_TIMEOUT``.
"""

from .cache import NullCache, ResultCache, default_cache_dir
from .jobspec import JobSpec, canonical, canonical_json, repro_code_version
from .pool import PersistentPool, get_pool, shutdown_pools
from .runner import (JobError, JobFailedError, JobResult, ParallelRunner,
                     default_runner)

__all__ = [
    "JobSpec", "JobResult", "JobError", "JobFailedError",
    "ParallelRunner", "default_runner",
    "PersistentPool", "get_pool", "shutdown_pools",
    "ResultCache", "NullCache", "default_cache_dir",
    "canonical", "canonical_json", "repro_code_version",
]
