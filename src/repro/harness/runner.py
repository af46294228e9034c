"""Sweep execution engine: cached ``run`` and supervised parallel
``run_many``.

Resolution order for one point is memo -> store -> simulate:

* **memo** — an in-process ``{ExperimentSpec: SimResult}`` dict, so
  repeated calls inside one session return the identical object (several
  benchmarks share LRU baselines this way).
* **store** — the persistent :class:`~repro.harness.store.ResultStore`,
  so a fresh process reuses every point any earlier session simulated.
* **simulate** — :meth:`ExperimentSpec.execute`, fanned out over the
  persistent :class:`~repro.harness.turbo.PersistentPool` when
  ``workers > 1``.

Workers for :func:`run_many` come from the ``workers=`` argument, else
the ``REPRO_WORKERS`` environment variable, else 1 (serial).  ``0`` means
"one per CPU".  If worker processes cannot be created (sandboxed
environments, missing semaphores, ...), the engine logs a warning and
falls back to serial execution — results are identical either way,
because workers return ``SimResult.to_dict()`` payloads whose round-trip
is exact.

Fault tolerance (see :mod:`repro.harness.supervise`): a failing point is
recorded as a :class:`~repro.harness.supervise.FailedResult` instead of
killing the sweep; transient failures (``OSError`` family, preempted,
crashed or hung attempts) are retried with exponential backoff; each
pooled point runs under a wall-clock watchdog deadline.  Serial and
pooled execution make every attempt with
:func:`~repro.harness.supervise.attempt_point` and route its outcome
with :func:`~repro.harness.supervise.settle_attempt`, so both retry,
preempt and fail the same points.  With ``keep_going`` (the
default) every healthy point still completes and a
:class:`~repro.harness.supervise.SweepFailedError` carrying the partial
results is raised at the end; under an active
:func:`~repro.harness.supervise.supervised_sweep` the failures are
collected there instead and failed points come back as ``None`` holes.
"""

from __future__ import annotations

import logging
import os
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

from ..sim.stats import SimResult
from .spec import ExperimentSpec
from .store import ResultStore, default_store
from .supervise import (
    CRASH_ERROR,
    TIMEOUT_ERROR,
    FailedResult,
    PoolUnavailable,
    RetryPolicy,
    SweepFailedError,
    SweepInterrupted,
    active_supervisor,
    attempt_point,
    compute_timeout,
    settle_attempt,
)

log = logging.getLogger(__name__)

#: sentinel: "use the process-wide default store"
USE_DEFAULT_STORE = object()

#: in-process memo (aliased by ``experiment._result_cache`` for
#: backwards compatibility with existing tests/tools)
_MEMO: Dict[ExperimentSpec, SimResult] = {}

ProgressFn = Callable[["SweepStats", Optional[ExperimentSpec], str], None]


@dataclass
class SweepStats:
    """Observability counters for one ``run_many`` call."""

    total: int = 0
    done: int = 0
    memo_hits: int = 0
    store_hits: int = 0
    simulated: int = 0
    workers: int = 1
    pool_used: bool = False
    fell_back_serial: bool = False
    elapsed: float = 0.0      # wall-clock of the whole call
    busy_time: float = 0.0    # summed per-point simulation time
    failed: int = 0           # points that exhausted their attempts
    retried: int = 0          # transient failures given another attempt
    timeouts: int = 0         # watchdog deadline hits (retried or not)
    crashes: int = 0          # dead workers (exit code != 0, OOM, ...)
    store_write_failures: int = 0
    failures: List[FailedResult] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return self.memo_hits + self.store_hits

    @property
    def utilization(self) -> float:
        """Fraction of worker wall-clock spent simulating."""
        if self.elapsed <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_time / (self.elapsed * self.workers))

    def summary(self) -> str:
        mode = "pool" if self.pool_used else "serial"
        if self.fell_back_serial:
            mode = "serial (pool unavailable)"
        text = (f"{self.done}/{self.total} points in {self.elapsed:.2f}s | "
                f"{self.memo_hits} memo + {self.store_hits} store hits, "
                f"{self.simulated} simulated | workers={self.workers} "
                f"({mode}), utilization {self.utilization:.0%}")
        if self.failed or self.retried:
            text += (f" | {self.failed} failed, {self.retried} retried "
                     f"({self.timeouts} timeout(s), "
                     f"{self.crashes} crash(es))")
        return text


@dataclass
class _SessionStats:
    """Process-lifetime aggregate across every run()/run_many() call."""

    points: int = 0
    memo_hits: int = 0
    store_hits: int = 0
    simulated: int = 0
    sweeps: List[SweepStats] = field(default_factory=list)

    def summary(self) -> str:
        return (f"{self.points} experiment points: {self.memo_hits} memo "
                f"hits, {self.store_hits} store hits, "
                f"{self.simulated} simulated")


session_stats = _SessionStats()


def clear_memo() -> None:
    _MEMO.clear()


def resolve_workers(workers: Optional[int] = None) -> int:
    """``workers`` arg > ``REPRO_WORKERS`` env > 1; ``0`` = one per CPU.

    Negative values (arg or environment) are clamped to 1 with a
    warning — they would otherwise blow up at pool construction time.
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                log.warning("ignoring non-integer REPRO_WORKERS=%r", raw)
                workers = 1
        else:
            workers = 1
    if workers < 0:
        log.warning("clamping workers=%d to 1 (use 0 for one per CPU)",
                    workers)
        return 1
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, workers)


def _resolve_store(store) -> Optional[ResultStore]:
    if store is USE_DEFAULT_STORE:
        return default_store()
    return store


def _progress_printer(stats: SweepStats, spec: Optional[ExperimentSpec],
                      event: str) -> None:
    if spec is not None:
        print(f"[sweep] {stats.done}/{stats.total} {event:<9s} "
              f"{spec.label()}", file=sys.stderr)
    else:
        print(f"[sweep] {stats.summary()}", file=sys.stderr)


def _as_progress(progress: Union[None, bool, ProgressFn]) -> Optional[ProgressFn]:
    if progress is True:
        return _progress_printer
    if progress in (None, False):
        return None
    return progress


# ----------------------------------------------------------------------
# Single-point execution
# ----------------------------------------------------------------------
def run(spec: ExperimentSpec, store=USE_DEFAULT_STORE,
        force: bool = False, obs=None) -> SimResult:
    """Result for one point: memo -> store -> simulate (and persist).

    An enabled ``obs`` (:class:`~repro.obs.ObsConfig`) forces a fresh
    simulation: trace and metrics artifacts only exist when the simulator
    actually runs, so cache hits would silently produce nothing.
    """
    if obs is not None and obs.enabled:
        force = True
    if not force and spec in _MEMO:
        session_stats.points += 1
        session_stats.memo_hits += 1
        return _MEMO[spec]
    resolved = _resolve_store(store)
    session_stats.points += 1
    if not force and resolved is not None:
        cached = resolved.get(spec)
        if cached is not None:
            _MEMO[spec] = cached
            session_stats.store_hits += 1
            return cached
    result = spec.execute(obs=obs)
    session_stats.simulated += 1
    _MEMO[spec] = result
    if resolved is not None:
        try:
            resolved.put(spec, result)
        except OSError as exc:  # a full/readonly disk shouldn't kill a run
            log.warning("result store write failed: %s", exc)
    return result


# ----------------------------------------------------------------------
# Sweep execution
# ----------------------------------------------------------------------
def run_many(specs: Sequence[ExperimentSpec], workers: Optional[int] = None,
             store=USE_DEFAULT_STORE,
             progress: Union[None, bool, ProgressFn] = None,
             force: bool = False,
             stats_out: Optional[SweepStats] = None,
             keep_going: Optional[bool] = None,
             retry: Optional[RetryPolicy] = None,
             timeout: Optional[float] = None,
             on_failure: Optional[str] = None) -> List[Optional[SimResult]]:
    """Results for ``specs`` (order preserved, duplicates deduplicated).

    Cache hits are served first; the remaining points are simulated on
    the supervised worker pool (serial when ``workers`` is 1, or when
    processes cannot start).  Pass ``progress=True`` for per-point
    stderr lines, or a callable ``(stats, spec, event)`` for custom
    reporting.  Pass a ``SweepStats`` as ``stats_out`` to receive the
    counters.

    Fault handling: ``keep_going`` (default True) finishes every healthy
    point before reporting failures; ``keep_going=False`` aborts on the
    first one.  ``retry``/``timeout`` override the supervisor's (or the
    environment's) retry policy and watchdog deadline.  ``on_failure``
    selects what a failed point produces: ``"raise"`` (default) raises
    :class:`SweepFailedError` carrying the partial results once the
    sweep is over, ``"none"`` leaves ``None`` holes in the returned list
    (the default under an active supervisor, which collects the failures
    for the CLI's failure table).
    """
    sup = active_supervisor()
    if keep_going is None:
        keep_going = sup.keep_going if sup is not None else True
    if retry is None:
        retry = sup.retry if sup is not None else RetryPolicy.from_env()
    if timeout is None and sup is not None:
        timeout = sup.timeout
    if on_failure is None:
        on_failure = "none" if (sup is not None and keep_going) else "raise"
    if on_failure not in ("raise", "none"):
        raise ValueError(f"on_failure must be 'raise' or 'none', "
                         f"not {on_failure!r}")
    manifest = sup.manifest if sup is not None else None

    report = _as_progress(progress)
    stats = stats_out if stats_out is not None else SweepStats()
    stats.total = len(specs)
    stats.workers = resolve_workers(workers)
    resolved = _resolve_store(store)
    started = time.monotonic()

    results: Dict[ExperimentSpec, SimResult] = {}
    failed_specs: Set[ExperimentSpec] = set()
    pending: List[ExperimentSpec] = []
    for spec in dict.fromkeys(specs):           # unique, order kept
        session_stats.points += 1
        if manifest is not None:
            manifest.register(spec)
        if not force and spec in _MEMO:
            results[spec] = _MEMO[spec]
            stats.memo_hits += 1
            stats.done += 1
            session_stats.memo_hits += 1
            if manifest is not None:
                manifest.mark_done(spec)
            if report:
                report(stats, spec, "memo-hit")
            continue
        if not force and resolved is not None:
            cached = resolved.get(spec)
            if cached is not None:
                _MEMO[spec] = cached
                results[spec] = cached
                stats.store_hits += 1
                stats.done += 1
                session_stats.store_hits += 1
                if manifest is not None:
                    manifest.mark_done(spec)
                if report:
                    report(stats, spec, "store-hit")
                continue
        pending.append(spec)
    stats.total = stats.done + len(pending)
    if manifest is not None:
        # One checkpoint before simulation starts, so even a SIGKILL'd
        # campaign leaves a complete pending list behind.
        manifest.checkpoint()

    def finish(spec: ExperimentSpec, result: SimResult,
               duration: float) -> None:
        _MEMO[spec] = result
        results[spec] = result
        if resolved is not None:
            try:
                resolved.put(spec, result)
            except OSError as exc:
                # First failure is loud; the rest collapse into one
                # summary line at the end of the sweep.
                stats.store_write_failures += 1
                if stats.store_write_failures == 1:
                    log.warning("result store write failed: %s", exc)
                else:
                    log.debug("result store write failed: %s", exc)
        stats.simulated += 1
        stats.done += 1
        stats.busy_time += duration
        session_stats.simulated += 1
        if manifest is not None:
            manifest.mark_done(spec)
            manifest.checkpoint()
        if report:
            report(stats, spec, "simulated")

    def fail(failure: FailedResult) -> None:
        failed_specs.add(failure.spec)
        stats.failed += 1
        stats.failures.append(failure)
        if failure.kind == "timeout":
            stats.timeouts += 1
        elif failure.kind == "crash":
            stats.crashes += 1
        if sup is not None:
            sup.record_failure(failure)   # manifest + incident trail
        elif manifest is not None:
            manifest.mark_failed(failure)
            manifest.checkpoint()
        log.warning("sweep point failed: %s", failure.summary())
        if report:
            report(stats, failure.spec, "failed")
        if not keep_going:
            raise SweepFailedError(stats.failures, results)

    def note_retry(spec: ExperimentSpec, attempt: int, error: str) -> None:
        stats.retried += 1
        if error == TIMEOUT_ERROR:
            stats.timeouts += 1
        elif error == CRASH_ERROR:
            stats.crashes += 1

    settle = partial(settle_attempt, retry=retry, supervisor=sup,
                     on_success=finish, on_failure=fail,
                     on_retry=note_retry)

    def run_serial(todo: Sequence[ExperimentSpec]) -> None:
        for spec in todo:
            attempt = 0
            while True:
                if sup is not None and sup.interrupted:
                    raise SweepInterrupted()
                delay = settle(attempt_point(spec, attempt,
                                             disruptive_ok=False),
                               spec, attempt)
                if delay is None:
                    break
                time.sleep(delay)
                attempt += 1

    try:
        if pending:
            n_workers = min(stats.workers, len(pending))
            if n_workers > 1:
                from .turbo import shared_pool
                try:
                    shared_pool(n_workers).run(
                        pending, settle,
                        timeout_for=lambda s: compute_timeout(s, timeout),
                        supervisor=sup)
                    stats.pool_used = True
                except PoolUnavailable as exc:
                    log.warning("worker pool unavailable (%s); "
                                "falling back to serial execution",
                                exc.reason)
                    stats.fell_back_serial = True
                    # Completed and failed points keep their outcome —
                    # only genuinely unresolved specs are rerun.
                    run_serial([s for s in pending
                                if s not in results
                                and s not in failed_specs])
            else:
                run_serial(pending)
    except (SweepInterrupted, KeyboardInterrupt):
        if sup is not None:
            sup.flush(force=True)
            counts = (manifest.counts() if manifest is not None
                      else {"done": stats.done, "pending": 0})
            raise SweepInterrupted(
                manifest.path if manifest is not None else None,
                done=counts.get("done", 0),
                pending=counts.get("pending", 0)) from None
        raise

    stats.elapsed = time.monotonic() - started
    session_stats.sweeps.append(stats)
    if stats.store_write_failures > 1:
        log.warning("result store: %d write(s) failed during this sweep",
                    stats.store_write_failures)
    if report:
        report(stats, None, "done")
    if stats.failures:
        if sup is not None:
            sup.flush(force=True)
        if on_failure == "raise":
            raise SweepFailedError(stats.failures, results)
        return [results.get(spec) for spec in specs]
    return [results[spec] for spec in specs]
