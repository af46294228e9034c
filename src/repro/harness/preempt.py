"""Checkpoint cadence, preemption protocol, and resource guards.

:mod:`repro.sim.savestate` defines the pure bytes-level save-state
format; this module owns everything around it that touches the world —
files, environment, wall clocks, signals, and processes:

* :class:`CheckpointPolicy` — an engine watcher that writes save-states
  on an event and/or wall-clock cadence and turns a latched preempt
  request into a clean :class:`PreemptedError` at the next watcher
  boundary (the only point where a snapshot is phase-exact).  The
  policy rides the watcher mux, pickles *with* the system (so a
  restored run keeps the exact trampoline countdowns), and installs
  last so every other observer is settled when it fires.
* The **preempt latch** — a process-local flag set by
  :func:`request_preempt`, the worker ``SIGTERM`` handler, or the chaos
  ``preempt`` fault, and consumed by the policy's tick.  Workers only
  install the handler while executing a checkpointed task; idle
  persistent workers keep ``SIG_DFL`` so pool teardown stays instant.
* :func:`save_state` / :func:`try_restore` / :func:`clear_state` —
  save-state I/O under a content-addressed
  ``<dir>/<key[:2]>/<key>.ckpt.gz`` layout, written and quarantined the
  :mod:`repro.casdir` way (quarantine is ``quarantine/`` beside the
  state).  A stale or corrupt state is quarantined and the caller
  cold-starts: a bad save-state may cost time, never a wrong answer.
* :func:`try_preempt` — the parent-side half of the protocol: SIGTERM a
  worker and wait a grace period for its final payload (which may be a
  preempted report *or* a normal result racing the signal) before the
  caller escalates to SIGKILL.
* :class:`ResourceGuards` — optional RSS budget (``/proc/<pid>/status``)
  and disk-free floor (``statvfs``) checks the pools run beside the
  watchdog, so memory leaks and full disks preempt work instead of
  losing it to the OOM killer.

Environment (all read lazily, per call):

``REPRO_CKPT_DIR``
    Save-state directory; setting it is what enables checkpointing.
``REPRO_CKPT_EVENTS`` / ``REPRO_CKPT_SECS``
    Periodic cadence (simulated events / wall seconds).  Unset: states
    are written only on preemption, at the default tick granularity.
``REPRO_PREEMPT_GRACE``
    Parent-side seconds to wait for a preempted worker's payload.
``REPRO_RSS_BUDGET_MB`` / ``REPRO_DISK_FLOOR_MB``
    Resource guard thresholds (disabled when unset).
"""

from __future__ import annotations

import logging
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..casdir import atomic_write, chaos_tear, quarantine

log = logging.getLogger(__name__)

CKPT_DIR_ENV = "REPRO_CKPT_DIR"
CKPT_EVENTS_ENV = "REPRO_CKPT_EVENTS"
CKPT_SECS_ENV = "REPRO_CKPT_SECS"
GRACE_ENV = "REPRO_PREEMPT_GRACE"
RSS_BUDGET_ENV = "REPRO_RSS_BUDGET_MB"
DISK_FLOOR_ENV = "REPRO_DISK_FLOOR_MB"

#: synthetic error name a preempted worker reports (transient: the
#: supervisor requeues the point with its save-state attached)
PREEMPT_ERROR = "WorkerPreempted"

#: watcher cadence when only wall-clock (or only preempt-on-demand)
#: checkpointing is configured — frequent enough that a SIGTERM turns
#: into a save within a fraction of a second, rare enough to be free
DEFAULT_TICK_EVENTS = 20_000

DEFAULT_GRACE_SECS = 8.0


class PreemptedError(RuntimeError):
    """The run was preempted cleanly; ``path`` resumes it (may be None
    if the save itself failed — the retry then cold-starts)."""

    def __init__(self, path: Optional[str], events: int) -> None:
        where = path if path else "<save failed>"
        super().__init__(
            f"preempted at {events} events; save-state: {where}")
        self.path = path
        self.events = events


# ----------------------------------------------------------------------
# The preempt latch
# ----------------------------------------------------------------------
#: Process-local preempt request.  A one-element list mutated in place
#: (not a rebound module global): signal handlers, the chaos injector,
#: and the policy tick share it without import-order hazards.
_PREEMPT = [False]


def request_preempt() -> None:
    """Ask the running simulation to checkpoint and stop at the next
    watcher boundary (no-op if no checkpoint policy is installed)."""
    _PREEMPT[0] = True


def clear_preempt() -> None:
    """Drop any pending request (pools call this at task start so a
    late signal for the *previous* task cannot leak into the next)."""
    _PREEMPT[0] = False


def preempt_requested() -> bool:
    return _PREEMPT[0]


def _signal_preempt(signum: int, frame: Any) -> None:
    _PREEMPT[0] = True


def install_preempt_handler() -> Any:
    """Route SIGTERM to the latch; returns the previous handler.

    Installed by workers only for the duration of a checkpointed task —
    an idle worker keeps default signal behaviour so ``terminate()``
    still kills it instantly.
    """
    try:
        return signal.signal(signal.SIGTERM, _signal_preempt)
    except (ValueError, OSError):   # non-main thread / exotic embedding
        return None


def restore_preempt_handler(previous: Any) -> None:
    if previous is None:
        return
    try:
        signal.signal(signal.SIGTERM, previous)
    except (ValueError, OSError):
        pass


def chaos_preempt(env: Optional[Dict[str, str]] = None) -> bool:
    """Latch a preempt request for the chaos ``preempt`` fault.

    No-ops (returns False) when checkpointing is disabled: without a
    policy nothing would consume the latch, and the fault is meant to
    exercise the save/resume path, not to poison later tasks.
    """
    if checkpoint_from_env(env) is None:
        return False
    request_preempt()
    return True


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckpointConfig:
    """Parsed ``REPRO_CKPT_*`` settings."""

    dir: str
    every_events: Optional[int] = None
    every_secs: Optional[float] = None


def checkpoint_from_env(
        env: Optional[Dict[str, str]] = None) -> Optional[CheckpointConfig]:
    """The active checkpoint config, or ``None`` when disabled.

    ``REPRO_CKPT_DIR`` being set (non-empty) is the enable switch; the
    cadence variables refine it.  Read per call, like the other worker
    env accessors, so pool workers pick it up from shipped snapshots.
    """
    e: Dict[str, str] = dict(os.environ) if env is None else env
    root = e.get(CKPT_DIR_ENV, "").strip()
    if not root:
        return None
    every_events = None
    raw = e.get(CKPT_EVENTS_ENV, "").strip()
    if raw:
        try:
            every_events = max(1, int(raw))
        except ValueError:
            log.warning("ignoring non-integer %s=%r", CKPT_EVENTS_ENV, raw)
    every_secs = None
    raw = e.get(CKPT_SECS_ENV, "").strip()
    if raw:
        try:
            every_secs = float(raw)
            if every_secs <= 0:
                every_secs = None
        except ValueError:
            log.warning("ignoring non-numeric %s=%r", CKPT_SECS_ENV, raw)
    return CheckpointConfig(dir=root, every_events=every_events,
                            every_secs=every_secs)


def preempt_grace(env: Optional[Dict[str, str]] = None) -> float:
    """Parent-side wait for a preempted worker's payload (seconds)."""
    e: Dict[str, str] = dict(os.environ) if env is None else env
    raw = e.get(GRACE_ENV, "").strip()
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            log.warning("ignoring non-numeric %s=%r", GRACE_ENV, raw)
    return DEFAULT_GRACE_SECS


def state_path(root: Union[str, Path], key: str) -> Path:
    """Content-addressed save-state location."""
    return Path(root) / key[:2] / f"{key}.ckpt.gz"


# ----------------------------------------------------------------------
# The checkpoint policy (an engine watcher)
# ----------------------------------------------------------------------
class CheckpointPolicy:
    """Cadence-driven save-state writer + preempt-request consumer.

    Lives on the engine's watcher mux; :meth:`_tick` runs at watcher
    boundaries where the engine has settled its counters, which is
    what makes the saved state resume phase-exact.  The policy pickles
    inside the save-state (it is registered in ``engine._watchers`` and
    on ``System.checkpoint``); only the process-local wall-clock
    deadline is stripped and re-armed on resume.
    """

    __slots__ = ("path", "spec_key", "fingerprint", "every_events",
                 "every_secs", "system", "saves", "_deadline", "_installed")

    def __init__(self, path: Union[str, Path], spec_key: str,
                 fingerprint: str, every_events: Optional[int] = None,
                 every_secs: Optional[float] = None) -> None:
        self.path = str(path)
        self.spec_key = spec_key
        self.fingerprint = fingerprint
        self.every_events = every_events
        self.every_secs = every_secs
        self.system: Optional[Any] = None
        self.saves = 0
        self._deadline: Optional[float] = None
        self._installed = False

    @classmethod
    def for_spec(cls, cfg: CheckpointConfig, spec_key: str,
                 fingerprint: str) -> "CheckpointPolicy":
        return cls(path=state_path(cfg.dir, spec_key), spec_key=spec_key,
                   fingerprint=fingerprint, every_events=cfg.every_events,
                   every_secs=cfg.every_secs)

    @property
    def tick_interval(self) -> int:
        return (self.every_events if self.every_events
                else DEFAULT_TICK_EVENTS)

    # -- lifecycle ------------------------------------------------------
    def install(self, system: Any) -> None:
        self.system = system
        system.engine.add_watcher(self._tick, self.tick_interval)
        self._installed = True
        self.rearm()

    def rearm(self) -> None:
        """(Re-)arm the process-local wall-clock cadence."""
        self._deadline = (time.monotonic() + self.every_secs
                          if self.every_secs else None)

    def uninstall(self) -> None:
        if self._installed and self.system is not None:
            self.system.engine.remove_watcher(self._tick)
            self._installed = False

    # -- the watcher ----------------------------------------------------
    def _tick(self) -> None:
        if _PREEMPT[0]:
            _PREEMPT[0] = False
            path = save_state(self)
            raise PreemptedError(path, self.system.engine.events_processed)
        if self.every_events is not None:
            save_state(self)
            if self.every_secs:
                self._deadline = time.monotonic() + self.every_secs
        elif self._deadline is not None and time.monotonic() >= self._deadline:
            save_state(self)
            self._deadline = time.monotonic() + self.every_secs

    # -- pickling -------------------------------------------------------
    def __getstate__(self):
        state = {slot: getattr(self, slot)
                 for slot in CheckpointPolicy.__slots__}
        state["_deadline"] = None     # wall clock is process-local
        return state

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)


# ----------------------------------------------------------------------
# Save-state I/O
# ----------------------------------------------------------------------
def save_state(policy: CheckpointPolicy) -> Optional[str]:
    """Atomically write the policy's system to its save-state path.

    Returns the path, or ``None`` when the write failed — checkpointing
    is an availability feature, so I/O trouble degrades to "no state"
    (logged) rather than killing a healthy simulation.  Chaos
    ``ckpt-corrupt`` then truncates selected states (every attempt, like
    the store's ``corrupt``): resume must quarantine the torn file and
    cold-start, converging to correct results regardless.
    """
    from ..sim.savestate import encode_savestate
    blob = encode_savestate(policy.system, spec_key=policy.spec_key,
                            fingerprint=policy.fingerprint)
    path = Path(policy.path)
    try:
        atomic_write(path, blob)
    except OSError as exc:
        log.warning("save-state write failed for %s: %s", path, exc)
        return None
    policy.saves += 1
    chaos_tear(path, policy.spec_key, "ckpt-corrupt")
    return str(path)


def try_restore(path: Union[str, Path], *, spec_key: str,
                fingerprint: str) -> Tuple[Optional[Any], Optional[str]]:
    """``(system, note)``: the restored system ready to ``resume()``.

    ``(None, None)`` means no state exists (normal cold start);
    ``(None, reason)`` means a state existed but was refused — it has
    been quarantined and the caller must cold-start, recording the
    reason as an incident.
    """
    from ..sim.savestate import SavestateError, decode_savestate
    p = Path(path)
    try:
        blob = p.read_bytes()
    except FileNotFoundError:
        return None, None
    except OSError as exc:
        return None, f"unreadable save-state: {exc}"
    try:
        system = decode_savestate(blob, spec_key=spec_key,
                                  fingerprint=fingerprint)
    except SavestateError as exc:
        reason = f"{type(exc).__name__}: {exc}"
        quarantine(p, p.parent / "quarantine", reason)
        return None, reason
    return system, None


def clear_state(path: Union[str, Path]) -> None:
    """Delete a save-state (after its point completed)."""
    try:
        Path(path).unlink()
    except FileNotFoundError:
        pass
    except OSError as exc:
        log.warning("could not remove save-state %s: %s", path, exc)


# ----------------------------------------------------------------------
# Parent-side preemption
# ----------------------------------------------------------------------
def try_preempt(proc: Any, conn: Any,
                grace: Optional[float] = None) -> Optional[Dict[str, Any]]:
    """SIGTERM ``proc`` and wait up to ``grace`` seconds for a payload.

    The payload may be the preempted report *or* a normal result that
    raced the signal — the caller routes whatever arrives through its
    usual reap path.  ``None`` means the worker neither answered nor
    died in time; the caller escalates (SIGKILL + its original
    classification).
    """
    if grace is None:
        grace = preempt_grace()
    try:
        proc.terminate()
    except (OSError, AttributeError):
        return None
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        try:
            if conn.poll(0.05):
                return conn.recv()
        except (EOFError, OSError):
            return None
        if not proc.is_alive():
            try:
                if conn.poll(0):
                    return conn.recv()
            except (EOFError, OSError):
                pass
            return None
    return None


# ----------------------------------------------------------------------
# Resource guards
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResourceGuards:
    """Per-worker RSS budget and global disk-free floor (MiB)."""

    rss_budget_mb: Optional[float] = None
    disk_floor_mb: Optional[float] = None

    @property
    def enabled(self) -> bool:
        return (self.rss_budget_mb is not None
                or self.disk_floor_mb is not None)


def guards_from_env(
        env: Optional[Dict[str, str]] = None) -> ResourceGuards:
    """Parse ``REPRO_RSS_BUDGET_MB`` / ``REPRO_DISK_FLOOR_MB``."""
    e: Dict[str, str] = dict(os.environ) if env is None else env
    values: Dict[str, Optional[float]] = {}
    for field_name, var in (("rss_budget_mb", RSS_BUDGET_ENV),
                            ("disk_floor_mb", DISK_FLOOR_ENV)):
        value = None
        raw = e.get(var, "").strip()
        if raw:
            try:
                value = float(raw)
                if value <= 0:
                    value = None
            except ValueError:
                log.warning("ignoring non-numeric %s=%r", var, raw)
        values[field_name] = value
    return ResourceGuards(**values)


def rss_mb(pid: int) -> Optional[float]:
    """Resident set size of ``pid`` in MiB (Linux ``/proc``; else None)."""
    try:
        with open(f"/proc/{pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


def disk_free_mb(path: Union[str, Path]) -> Optional[float]:
    """Free space (MiB) on the filesystem holding ``path``."""
    try:
        st = os.statvfs(str(path))
    except (OSError, AttributeError):
        return None
    return st.f_bavail * st.f_frsize / (1024.0 * 1024.0)


def guard_breach(guards: ResourceGuards, pid: int,
                 disk_path: Union[str, Path, None]) -> Optional[str]:
    """Human-readable breach description, or ``None`` when healthy."""
    if guards.rss_budget_mb is not None:
        rss = rss_mb(pid)
        if rss is not None and rss > guards.rss_budget_mb:
            return (f"worker rss {rss:.0f} MiB over the "
                    f"{guards.rss_budget_mb:.0f} MiB budget")
    if guards.disk_floor_mb is not None and disk_path is not None:
        free = disk_free_mb(disk_path)
        if free is not None and free < guards.disk_floor_mb:
            return (f"disk free {free:.0f} MiB under the "
                    f"{guards.disk_floor_mb:.0f} MiB floor")
    return None
