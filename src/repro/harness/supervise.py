"""Fault-tolerant sweep supervision: retries, timeouts, checkpoints.

The paper's campaigns are large — dozens of policies x workloads x core
counts — and a multi-hour sweep must survive worker crashes, hangs, OOM
kills, and dirty shutdowns instead of dying on the first bad point.
This module supplies the machinery the runner builds on:

* :class:`FailedResult` — a failing point becomes a recorded value
  (exception type, message, traceback tail, attempt count) instead of an
  escaped exception that kills the pool.
* :class:`RetryPolicy` — transient failures (the ``OSError`` family,
  ``MemoryError``, preempted, crashed and timed-out attempts) are
  retried with exponential backoff and deterministic per-point jitter;
  permanent failures are classified immediately.
* :func:`attempt_point` / :func:`settle_attempt` — one attempt of one
  point and the routing of its outcome (success, retry, or failure).
  The serial runner calls both in-process; the warm pool
  (:class:`~repro.harness.turbo.PersistentPool`) runs the first in a
  worker and settles its payload, plus the crashes and watchdog
  timeouts it detects itself, with the second.  Both transports
  therefore retry, preempt and fail the same points.
* :func:`compute_timeout` — the per-point watchdog deadline.
* :class:`SweepManifest` — a checkpoint file (atomic rename, see
  :mod:`repro.casdir`) tracking done/failed/pending point keys, so
  ``python -m repro sweep --resume`` continues a killed campaign.
* :class:`SweepSupervisor` / :func:`supervised_sweep` — the process-wide
  context the CLI installs around a sweep: failure collection across
  every ``run_many`` call, SIGINT/SIGTERM handlers that flush the
  manifest before exit, and incident logging through ``repro.obs``.

Chaos (``REPRO_CHAOS``, :mod:`repro.checks.chaos`) injects worker
raises/hangs/kills and store corruption against exactly this layer; the
fault-injection suite in ``tests/test_chaos.py`` proves a chaotic sweep
converges to the byte-identical fault-free result set.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..casdir import FsckReport, atomic_write
from ..sim.stats import SimResult
from .preempt import PREEMPT_ERROR, PreemptedError, clear_preempt
from .spec import ExperimentSpec

log = logging.getLogger(__name__)

#: synthetic error names minted by the supervisor itself
CRASH_ERROR = "WorkerCrash"
TIMEOUT_ERROR = "WorkerTimeout"

#: default per-point deadline: a generous base plus work-proportional
#: slack (records x cores at a floor throughput no healthy point is
#: slower than).  Override per sweep with ``REPRO_TIMEOUT`` seconds
#: (<= 0 disables the watchdog entirely).
TIMEOUT_ENV = "REPRO_TIMEOUT"
DEFAULT_TIMEOUT_BASE = 120.0
DEFAULT_TIMEOUT_FLOOR_RATE = 25.0   # records*cores per second, worst case

RETRIES_ENV = "REPRO_RETRIES"


# ----------------------------------------------------------------------
# Failure values
# ----------------------------------------------------------------------
@dataclass
class FailedResult:
    """What the sweep records for a point that could not be simulated."""

    spec: ExperimentSpec
    kind: str                 # "error" | "timeout" | "crash" | "preempted"
    error: str                # exception type name (or synthetic)
    message: str
    traceback: str = ""
    attempts: int = 1
    duration: float = 0.0     # wall-clock of the last attempt
    permanent: bool = True

    @property
    def key(self) -> str:
        return self.spec.key()

    @property
    def label(self) -> str:
        return self.spec.label()

    def summary(self) -> str:
        return (f"{self.label}: {self.error}: {self.message} "
                f"({self.kind}, {self.attempts} attempt(s))")

    def to_dict(self) -> Dict[str, Any]:
        return {"spec": self.spec.to_dict(), "kind": self.kind,
                "error": self.error, "message": self.message,
                "traceback": self.traceback, "attempts": self.attempts,
                "duration": round(self.duration, 3),
                "permanent": self.permanent}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FailedResult":
        return cls(spec=ExperimentSpec.from_dict(data["spec"]),
                   kind=data["kind"], error=data["error"],
                   message=data["message"],
                   traceback=data.get("traceback", ""),
                   attempts=data.get("attempts", 1),
                   duration=data.get("duration", 0.0),
                   permanent=data.get("permanent", True))


class SweepFailedError(RuntimeError):
    """Raised after a sweep finished its healthy points but some failed.

    ``results`` maps every successfully resolved spec to its result —
    callers that can tolerate holes may consume it; the CLI renders
    ``failures`` as the failure table and exits nonzero.
    """

    def __init__(self, failures: Sequence[FailedResult],
                 results: Optional[Dict[ExperimentSpec, SimResult]] = None):
        self.failures = list(failures)
        self.results = dict(results or {})
        first = self.failures[0].summary() if self.failures else "?"
        super().__init__(
            f"{len(self.failures)} sweep point(s) failed (first: {first})")


class SweepInterrupted(RuntimeError):
    """SIGINT/SIGTERM stopped the sweep; partial state was checkpointed."""

    def __init__(self, manifest_path: Optional[Path] = None,
                 done: int = 0, pending: int = 0):
        self.manifest_path = manifest_path
        where = f"; manifest at {manifest_path}" if manifest_path else ""
        super().__init__(
            f"sweep interrupted with {done} point(s) done, "
            f"{pending} pending{where}")


class PoolUnavailable(Exception):
    """The supervised worker pool could not start or died mid-sweep."""

    def __init__(self, reason: BaseException) -> None:
        super().__init__(str(reason))
        self.reason = reason


# ----------------------------------------------------------------------
# Retry / timeout policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How transient failures are retried: cap, backoff, jitter."""

    max_attempts: int = 3
    backoff: float = 0.25      # seconds before the first retry
    backoff_cap: float = 8.0   # exponential growth saturates here
    jitter: float = 0.5        # fraction of the delay added as jitter

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retry number ``attempt + 1`` for point ``key``.

        Jitter is derived from a hash of ``(key, attempt)`` — not the
        process RNG — so sweeps stay deterministic and two workers
        retrying simultaneously still decorrelate.
        """
        base = min(self.backoff_cap, self.backoff * (2.0 ** attempt))
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.jitter * unit)

    @classmethod
    def from_env(cls, env: Optional[Dict[str, str]] = None) -> "RetryPolicy":
        """Policy with ``REPRO_RETRIES`` (attempt cap) applied, if set."""
        e: Dict[str, str] = dict(os.environ) if env is None else env
        raw = e.get(RETRIES_ENV, "").strip()
        if raw:
            try:
                return cls(max_attempts=max(1, int(raw)))
            except ValueError:
                log.warning("ignoring non-integer %s=%r", RETRIES_ENV, raw)
        return cls()


def compute_timeout(spec: ExperimentSpec,
                    override: Optional[float] = None) -> Optional[float]:
    """Wall-clock deadline (seconds) for one point, or ``None`` (off).

    Precedence: explicit ``override`` > ``REPRO_TIMEOUT`` > the default
    scale-proportional deadline.  Values <= 0 disable the watchdog.
    """
    if override is not None:
        return override if override > 0 else None
    raw = os.environ.get(TIMEOUT_ENV, "").strip()
    if raw:
        try:
            value = float(raw)
        except ValueError:
            log.warning("ignoring non-numeric %s=%r", TIMEOUT_ENV, raw)
        else:
            return value if value > 0 else None
    return (DEFAULT_TIMEOUT_BASE +
            spec.cost_units() / DEFAULT_TIMEOUT_FLOOR_RATE)


# ----------------------------------------------------------------------
# Sweep manifest (checkpoint / resume)
# ----------------------------------------------------------------------
STATUS_PENDING = "pending"
STATUS_DONE = "done"
STATUS_FAILED = "failed"

MANIFEST_VERSION = 1
DEFAULT_MANIFEST = "sweep.manifest.json"

#: consecutive manifest-persist failures tolerated before the sweep aborts
MANIFEST_STRIKES = 3


class ManifestPersistError(RuntimeError):
    """The manifest failed to persist ``MANIFEST_STRIKES`` times in a row.

    One failed write is only a warning (a full disk may recover), but a
    sweep whose ledger cannot be written would silently lose resumability
    — the CLI turns this into exit code 3.
    """

    def __init__(self, path: Path, strikes: int,
                 last_error: BaseException) -> None:
        super().__init__(
            f"manifest at {path} failed to persist {strikes} times in a "
            f"row (last: {last_error}); aborting so the sweep cannot "
            f"silently lose its ledger")
        self.path = path
        self.strikes = strikes


class SweepManifest:
    """Checkpoint ledger for one campaign: done/failed/pending points.

    Results themselves live in the content-addressed store; the manifest
    only tracks *status*, so resuming is "serve done points from the
    store, re-run the rest".  Writes are atomic (tempfile + rename) and
    cheap (a few KB), so the runner checkpoints after every completion.
    """

    def __init__(self, path: Union[str, Path], sweep: str = "",
                 meta: Optional[Dict[str, Any]] = None,
                 persist: bool = True) -> None:
        self.path = Path(path)
        self.sweep = sweep
        self.meta = dict(meta or {})
        self.points: Dict[str, Dict[str, Any]] = {}
        #: False = keep in memory only, write on interrupt/failure flush
        self.persist = persist
        self._strikes = 0   # consecutive checkpoint() failures

    # -- bookkeeping ----------------------------------------------------
    def register(self, spec: ExperimentSpec) -> str:
        """Track ``spec``; an existing entry keeps its status."""
        key = spec.key()
        if key not in self.points:
            self.points[key] = {"spec": spec.to_dict(),
                                "label": spec.label(),
                                "status": STATUS_PENDING,
                                "attempts": 0, "error": None}
        return key

    def _entry(self, spec: ExperimentSpec) -> Dict[str, Any]:
        return self.points[self.register(spec)]

    def mark_done(self, spec: ExperimentSpec) -> None:
        entry = self._entry(spec)
        entry["status"] = STATUS_DONE
        entry["error"] = None

    def mark_failed(self, failure: FailedResult) -> None:
        entry = self._entry(failure.spec)
        entry["status"] = STATUS_FAILED
        entry["attempts"] = failure.attempts
        entry["error"] = {"kind": failure.kind, "error": failure.error,
                          "message": failure.message,
                          "permanent": failure.permanent}

    def mark_preempted(self, spec: ExperimentSpec,
                       ckpt_path: Optional[str]) -> None:
        """Record checkpoint lineage: the point was preempted and its
        requeued attempt will resume from ``ckpt_path`` (``None`` means
        the save failed and the retry cold-restarts)."""
        entry = self._entry(spec)
        entry["preempts"] = entry.get("preempts", 0) + 1
        entry["ckpt"] = ckpt_path
        self.checkpoint()

    def reset_failures(self) -> int:
        """Failed -> pending (a ``--resume`` gives them a fresh start)."""
        reset = 0
        for entry in self.points.values():
            if entry["status"] == STATUS_FAILED:
                entry["status"] = STATUS_PENDING
                entry["error"] = None
                reset += 1
        return reset

    def counts(self) -> Dict[str, int]:
        out = {STATUS_PENDING: 0, STATUS_DONE: 0, STATUS_FAILED: 0}
        for entry in self.points.values():
            out[entry["status"]] = out.get(entry["status"], 0) + 1
        return out

    def keys_with_status(self, status: str) -> List[str]:
        return [k for k, e in self.points.items() if e["status"] == status]

    def summary(self) -> str:
        c = self.counts()
        return (f"{len(self.points)} point(s): {c[STATUS_DONE]} done, "
                f"{c[STATUS_FAILED]} failed, {c[STATUS_PENDING]} pending")

    # -- persistence ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"version": MANIFEST_VERSION, "sweep": self.sweep,
                "meta": dict(self.meta), "points": self.points}

    def save(self) -> Path:
        """Atomic write (:func:`repro.casdir.atomic_write`)."""
        payload = json.dumps(self.to_dict(), sort_keys=True, indent=1)
        atomic_write(self.path, payload.encode())
        return self.path

    def checkpoint(self) -> None:
        """Persist if this manifest is file-backed.

        A single failed write is tolerated (warning), but
        ``MANIFEST_STRIKES`` consecutive failures raise
        :class:`ManifestPersistError` — a campaign without a ledger
        cannot resume, so limping on would be silent data loss.
        """
        if not self.persist:
            return
        try:
            self.save()
        except OSError as exc:
            self._strikes += 1
            log.warning("manifest checkpoint failed (%d/%d): %s",
                        self._strikes, MANIFEST_STRIKES, exc)
            if self._strikes >= MANIFEST_STRIKES:
                raise ManifestPersistError(self.path, self._strikes,
                                           exc) from exc
            return
        self._strikes = 0

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepManifest":
        data = json.loads(Path(path).read_text())
        if data.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version {data.get('version')!r} "
                f"in {path}")
        manifest = cls(path, sweep=data.get("sweep", ""),
                       meta=data.get("meta", {}))
        manifest.points = dict(data.get("points", {}))
        return manifest


def fsck_manifests(paths: Sequence[Union[str, Path]]) -> FsckReport:
    """Validate sweep/campaign manifest files; quarantine corrupt ones.

    A truncated or hand-mangled manifest would crash ``--resume``, so
    ``store fsck`` covers the ledgers too: every file must parse, carry
    a supported version, and hold entries whose spec round-trips to its
    key with a known status.  Bad files move to ``quarantine/`` beside
    the manifest and the next sweep starts a fresh ledger; done points
    still come from the result store.
    """
    report = FsckReport()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            report.record(path, _manifest_problem(path),
                          path.parent / "quarantine")
    return report


def _manifest_problem(path: Path) -> Optional[str]:
    statuses = (STATUS_PENDING, STATUS_DONE, STATUS_FAILED)
    try:
        manifest = SweepManifest.load(path)
        for key, entry in manifest.points.items():
            spec = ExperimentSpec.from_dict(entry["spec"])
            if spec.key() != key:
                return f"entry {key[:12]} does not match its spec"
            if entry["status"] not in statuses:
                return (f"entry {key[:12]} has unknown status "
                        f"{entry['status']!r}")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return str(exc)
    return None


# ----------------------------------------------------------------------
# The process-wide sweep supervisor
# ----------------------------------------------------------------------
class SweepSupervisor:
    """Cross-``run_many`` context for one campaign (see module doc)."""

    def __init__(self, keep_going: bool = True,
                 retry: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None,
                 manifest: Optional[SweepManifest] = None,
                 incidents: Optional[Any] = None) -> None:
        self.keep_going = keep_going
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        self.timeout = timeout          # None = per-spec default
        self.manifest = manifest
        self.incidents = incidents      # repro.obs.incidents.IncidentLog
        self.failures: List[FailedResult] = []
        self.interrupted = False
        self._signal_count = 0
        self._old_handlers: Dict[int, Any] = {}

    # -- recording ------------------------------------------------------
    def record_incident(self, event: str,
                        spec: Optional[ExperimentSpec] = None,
                        **fields: Any) -> None:
        if self.incidents is None:
            return
        if spec is not None:
            fields.setdefault("label", spec.label())
            fields.setdefault("key", spec.key()[:12])
        self.incidents.add(event, **fields)

    def record_failure(self, failure: FailedResult) -> None:
        self.failures.append(failure)
        if self.manifest is not None:
            self.manifest.mark_failed(failure)
            self.manifest.checkpoint()
        self.record_incident("failure", failure.spec, kind=failure.kind,
                             error=failure.error, attempts=failure.attempts)

    def flush(self, force: bool = False) -> None:
        """Write the manifest out (always when ``force``)."""
        if self.manifest is None:
            return
        if force:
            try:
                self.manifest.save()
            except OSError as exc:
                log.warning("manifest flush failed: %s", exc)
        else:
            self.manifest.checkpoint()

    # -- signals --------------------------------------------------------
    def install_signal_handlers(self) -> None:
        """SIGINT/SIGTERM -> graceful stop + manifest flush (main thread
        only; a second signal falls through to KeyboardInterrupt)."""
        import signal
        import threading
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._old_handlers[signum] = signal.signal(
                    signum, self._on_signal)
            except (ValueError, OSError):  # exotic embedding
                continue

    def restore_signal_handlers(self) -> None:
        import signal
        for signum, handler in self._old_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                continue
        self._old_handlers.clear()

    def _on_signal(self, signum: int, frame: Any) -> None:
        self._signal_count += 1
        self.interrupted = True
        if self.incidents is not None:
            self.incidents.add("interrupt", signal=signum,
                               count=self._signal_count)
        if self._signal_count >= 2:
            # The polite stop is being ignored (or is too slow for the
            # user) — flush what we have and die the classic way.
            self.flush(force=True)
            self.restore_signal_handlers()
            raise KeyboardInterrupt


_ACTIVE: Optional[SweepSupervisor] = None


def active_supervisor() -> Optional[SweepSupervisor]:
    return _ACTIVE


class supervised_sweep:
    """Context manager installing a :class:`SweepSupervisor` process-wide.

    While active, every :func:`repro.harness.runner.run_many` call picks
    up the supervisor's retry/timeout/keep-going settings, records
    failures into it, and checkpoints its manifest — which is what lets
    a *named* sweep (several ``run_many`` calls deep inside figure code)
    behave as one supervised campaign.
    """

    def __init__(self, keep_going: bool = True,
                 retry: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None,
                 manifest: Optional[SweepManifest] = None,
                 incidents: Optional[Any] = None) -> None:
        self._sup = SweepSupervisor(keep_going=keep_going, retry=retry,
                                    timeout=timeout, manifest=manifest,
                                    incidents=incidents)

    def __enter__(self) -> SweepSupervisor:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a supervised sweep is already active")
        _ACTIVE = self._sup
        self._sup.install_signal_handlers()
        return self._sup

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        global _ACTIVE
        _ACTIVE = None
        self._sup.restore_signal_handlers()


# ----------------------------------------------------------------------
# One attempt, one settlement (shared by the serial and pooled paths)
# ----------------------------------------------------------------------
def failure_payload(kind: str, error: str, message: str,
                    duration: float = 0.0, transient: bool = True,
                    traceback: str = "") -> Dict[str, Any]:
    """The payload of a failed attempt.  ``kind`` is ``error``,
    ``preempted``, ``crash`` or ``timeout``; the last three are transient
    by their kind, an ``error`` is transient only for the ``OSError``
    family and ``MemoryError``."""
    return {"ok": False, "kind": kind, "error": error, "message": message,
            "traceback": traceback, "transient": transient,
            "duration": duration}


def attempt_point(spec: ExperimentSpec, attempt: int,
                  disruptive_ok: bool) -> Dict[str, Any]:
    """Run attempt number ``attempt`` of ``spec`` in this process.

    Clears the preempt latch before and after (a request left over from
    an earlier point must not stop this one or a later run), injects
    chaos, and runs :meth:`ExperimentSpec.execute`.  Never raises an
    ``Exception``: the outcome is a payload, ``{"ok": True, "result":
    SimResult}`` or a :func:`failure_payload` (with ``ckpt`` for a
    preempted run), plus ``duration`` and the execute ``notes``
    (``resumed`` / ``quarantined``).  A pool worker calls this with
    ``disruptive_ok=True``, since chaos may hang or kill its sacrificial
    process; the serial runner passes ``False``.
    """
    from ..checks.chaos import chaos_from_env, inject_execute
    start = time.monotonic()
    notes: Dict[str, Any] = {}
    clear_preempt()
    try:
        chaos = chaos_from_env()
        if chaos is not None:
            inject_execute(chaos, spec.key(), attempt,
                           disruptive_ok=disruptive_ok)
        payload: Dict[str, Any] = {"ok": True,
                                   "result": spec.execute(notes=notes)}
    except PreemptedError as exc:
        payload = failure_payload("preempted", PREEMPT_ERROR, str(exc))
        payload["ckpt"] = {"path": exc.path, "events": exc.events}
    except Exception as exc:
        import traceback as tb_mod
        payload = failure_payload(
            "error", type(exc).__name__, str(exc),
            transient=isinstance(exc, (OSError, MemoryError)),
            traceback=tb_mod.format_exc()[-4000:])
    finally:
        clear_preempt()   # an unconsumed request ends with its attempt
    payload["duration"] = time.monotonic() - start
    if notes:
        payload["notes"] = notes
    return payload


def settle_attempt(payload: Dict[str, Any], spec: ExperimentSpec,
                   attempt: int, *, retry: RetryPolicy,
                   supervisor: Optional[SweepSupervisor],
                   on_success: Callable[[ExperimentSpec, SimResult, float],
                                        None],
                   on_failure: Callable[[FailedResult], None],
                   on_retry: Callable[[ExperimentSpec, int, str], None],
                   worker: Optional[int] = None) -> Optional[float]:
    """Route one attempt's outcome; returns the backoff before the next
    attempt when the point is requeued, else ``None``.

    Execute notes become ``resumed`` / ``ckpt-quarantined`` incidents;
    success goes to ``on_success``; a transient failure with attempts
    left calls ``on_retry`` and logs a ``retry`` incident; anything else
    becomes a :class:`FailedResult` for ``on_failure``.  ``preempted``,
    ``timeout`` and ``crash`` outcomes also log an incident of their
    kind (attributed to ``worker``, a pid, when pooled), and a preempt
    records its save-state in the manifest so the resumed attempt is
    auditable.
    """
    notes = payload.get("notes") or {}
    if supervisor is not None:
        if "resumed" in notes:
            supervisor.record_incident("resumed", spec,
                                       events=notes["resumed"])
        if "quarantined" in notes:
            supervisor.record_incident("ckpt-quarantined", spec,
                                       reason=notes["quarantined"])
    if payload["ok"]:
        on_success(spec, payload["result"], payload["duration"])
        return None
    kind, error = payload["kind"], payload["error"]
    if supervisor is not None and kind != "error":
        extra: Dict[str, Any] = {} if worker is None else {"worker": worker}
        ckpt = payload.get("ckpt")
        if ckpt:
            extra["ckpt"] = ckpt["path"]
            extra["events"] = ckpt["events"]
        supervisor.record_incident(kind, spec, error=error, attempt=attempt,
                                   **extra)
        if kind == "preempted" and supervisor.manifest is not None:
            supervisor.manifest.mark_preempted(spec, (ckpt or {}).get("path"))
    transient = payload["transient"]
    if transient and attempt + 1 < retry.max_attempts:
        on_retry(spec, attempt, error)
        if supervisor is not None:
            supervisor.record_incident("retry", spec, error=error,
                                       attempt=attempt)
        return retry.delay(spec.key(), attempt)
    on_failure(FailedResult(spec=spec, kind=kind, error=error,
                            message=payload["message"],
                            traceback=payload["traceback"],
                            attempts=attempt + 1,
                            duration=payload["duration"],
                            permanent=not transient))
    return None


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def format_failure_table(failures: Sequence[FailedResult]) -> str:
    """The CLI's failure table (one row per permanently failed point)."""
    from ..analysis.reporting import format_table
    rows = []
    for failure in failures:
        message = failure.message
        if len(message) > 60:
            message = message[:57] + "..."
        rows.append([failure.label, failure.kind, failure.error,
                     str(failure.attempts), message])
    header = f"{len(failures)} point(s) failed:"
    return "\n".join([header, format_table(
        ["point", "kind", "error", "attempts", "message"], rows)])
