"""Content-addressed on-disk cache for generated workload traces.

Every sweep point sharing a ``(suite, workload, seed, n_records, scale)``
tuple regenerates the identical synthetic trace — a policy matrix at one
core count regenerates it once *per policy*, and a paper-scale campaign
(100 mixes x policies x core counts) pays that cost thousands of times.
The :class:`TraceCache` generates each distinct trace once and serves
every later request from disk (and from a small in-process memo, which
is what makes persistent warm workers nearly generation-free).

Addressing mirrors :class:`~repro.harness.store.ResultStore`:

* the **key** is ``sha256`` over the canonical JSON of the generation
  parameters (:func:`trace_key`);
* the **namespace** is a fingerprint over the workload-generator sources
  (plus ``sim/config.py``, whose ``BLOCK_SIZE`` shapes addresses), so
  editing a generator can never serve stale traces;
* entries are written atomically (tempfile + rename) in the native
  ``.rtrc.gz`` format of :mod:`repro.workloads.io`, are fsck-able
  (:meth:`TraceCache.fsck`), and corrupt entries are quarantined on
  read instead of poisoning sweeps.

Byte-identity contract: a cached trace must round-trip *exactly* —
:func:`repro.workloads.io.save_trace` refuses a record the format cannot
represent losslessly (``gap`` beyond 16 bits, ``pc``/``addr`` beyond 64),
so such a trace is uncacheable (generated fresh every time) rather than
subtly different.
The golden-equivalence suite pins this: fixtures reproduce byte-for-byte
with the cache cold, warm, and disabled.

Enable/point the cache with ``REPRO_TRACE_CACHE`` (default
``~/.cache/repro-care/traces``; set to ``0``/``off``/``none``/empty to
disable) or the ``--trace-cache`` CLI flag.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from .io import MAX_GAP, load_trace, save_trace  # noqa: F401  (re-export)
from .trace import Trace

log = logging.getLogger(__name__)

ENV_VAR = "REPRO_TRACE_CACHE"
_DISABLED_VALUES = {"", "0", "off", "none", "disabled"}

#: trace-key schema — bump when key semantics change
KEY_VERSION = 1

#: in-process memo entries kept per cache (FIFO).  Sized for a sweep's
#: working set (one workload tuple is reused across a whole policy
#: matrix) while bounding memory for paper-scale traces.
MEMO_ENTRIES = 16

_fingerprint_cache: Optional[str] = None


def workloads_fingerprint() -> str:
    """Hash of the trace-generation sources (the cache namespace).

    Narrower than the result store's whole-package fingerprint on
    purpose: traces depend only on ``repro.workloads`` and the geometry
    constants in ``repro/sim/config.py``, so a policy or harness edit
    keeps every cached trace valid.
    """
    # SS601: content-addressed memo — every process (parent or warm
    # worker) computes the identical digest from on-disk sources, so a
    # stale value cannot exist and the write is idempotent.
    global _fingerprint_cache
    if _fingerprint_cache is None:
        pkg_root = Path(__file__).resolve().parent
        paths = sorted(pkg_root.glob("*.py"))
        paths.append(pkg_root.parent / "sim" / "config.py")
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.name.encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint_cache = digest.hexdigest()  # simsan: skip=SS601
    return _fingerprint_cache


def trace_key(kind: str, name: str, n_records: int, seed: int,
              scale: int) -> str:
    """Content hash of one generation request (the cache address)."""
    payload = json.dumps(
        {"key_version": KEY_VERSION, "kind": kind, "name": name,
         "n_records": n_records, "seed": seed, "scale": scale},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class TraceCache:
    """Keyed on-disk trace cache (layout and hardening like ResultStore).

    Layout::

        <root>/<workloads_fingerprint[:16]>/<key[:2]>/<key>.rtrc.gz
    """

    def __init__(self, root: Union[str, Path],
                 fingerprint: Optional[str] = None) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint or workloads_fingerprint()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.memo_hits = 0
        self.quarantined = 0
        self._memo: "OrderedDict[str, Trace]" = OrderedDict()

    # -- paths ----------------------------------------------------------
    @property
    def namespace(self) -> Path:
        return self.root / self.fingerprint[:16]

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine" / self.fingerprint[:16]

    def path_for(self, key: str) -> Path:
        return self.namespace / key[:2] / f"{key}.rtrc.gz"

    # -- access ---------------------------------------------------------
    def get(self, key: str) -> Optional[Trace]:
        """The cached trace for ``key``, or ``None`` on a miss.

        Unreadable entries (torn writes, chaos corruption, foreign
        files) are quarantined and reported as a miss, so the caller
        regenerates and rewrites the entry.
        """
        memo = self._memo.get(key)
        if memo is not None:
            self.memo_hits += 1
            return memo
        path = self.path_for(key)
        try:
            trace = load_trace(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError) as exc:
            self._quarantine(path, reason=f"{type(exc).__name__}: {exc}")
            self.misses += 1
            return None
        self.hits += 1
        self._remember(key, trace)
        return trace

    def put(self, key: str, trace: Trace) -> Optional[Path]:
        """Persist ``trace`` under ``key`` (atomic rename).

        Returns ``None`` without writing a file when the native format
        cannot represent the trace losslessly (:func:`save_trace` raises
        ``ValueError``) — caching such a trace on disk would break result
        byte-identity, which outranks throughput.  The in-process memo
        still serves it.
        """
        self._remember(key, trace)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".gz")
        try:
            os.close(fd)
            save_trace(trace, tmp)
            os.replace(tmp, path)
        except BaseException as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if isinstance(exc, ValueError):
                log.debug("trace not cached: %s", exc)
                return None
            raise
        self.writes += 1
        self._maybe_chaos_corrupt(key, path)
        return path

    def _remember(self, key: str, trace: Trace) -> None:
        self._memo[key] = trace
        self._memo.move_to_end(key)
        while len(self._memo) > MEMO_ENTRIES:
            self._memo.popitem(last=False)

    def clear_memo(self) -> None:
        self._memo.clear()

    def _maybe_chaos_corrupt(self, key: str, path: Path) -> None:
        """Chaos hook: the ``corrupt`` fault truncates selected fresh
        entries, exercising quarantine/fsck against real torn files."""
        from ..checks.chaos import chaos_from_env, corrupt_entry
        chaos = chaos_from_env()
        if chaos is not None and corrupt_entry(chaos, key, path):
            log.debug("chaos: corrupted trace cache entry %s", path.name)

    def _quarantine(self, path: Path, reason: str = "") -> Optional[Path]:
        """Move a bad entry into ``quarantine/`` (never raises)."""
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / path.name
            suffix = 0
            while target.exists():
                suffix += 1
                target = self.quarantine_dir / f"{path.name}.{suffix}"
            os.replace(path, target)
        except OSError as exc:
            log.warning("could not quarantine corrupt trace entry %s: %s",
                        path, exc)
            return None
        self.quarantined += 1
        log.warning("quarantined corrupt trace cache entry %s (%s)",
                    path.name, reason or "unreadable")
        return target

    # -- maintenance ----------------------------------------------------
    def entries(self) -> Iterator[Path]:
        yield from self.namespace.glob("*/*.rtrc.gz")

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def fsck(self):
        """Scan the namespace; quarantine entries that cannot load.

        Healthy means: the file parses as a native trace and sits under
        the filename matching no *other* constraints — trace keys hash
        generation parameters that are not recoverable from the payload,
        so fsck validates readability, not re-derivable identity.
        Returns the same :class:`~repro.harness.store.FsckReport` shape
        the result store uses, so the CLI renders both uniformly.
        """
        from ..harness.store import FsckReport
        report = FsckReport()
        for path in sorted(self.entries()):
            report.scanned += 1
            try:
                load_trace(path)
            except (OSError, ValueError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                report.errors.append(f"{path.name}: {reason}")
                moved = self._quarantine(path, reason=reason)
                if moved is not None:
                    report.quarantined.append(str(moved))
                continue
            report.ok += 1
        return report

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "memo_hits": self.memo_hits,
                "quarantined": self.quarantined}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceCache({str(self.namespace)!r}, hits={self.hits}, "
                f"memo_hits={self.memo_hits}, misses={self.misses}, "
                f"writes={self.writes})")


# ----------------------------------------------------------------------
# Process-wide default (env-keyed, so long-lived workers track changes)
# ----------------------------------------------------------------------
_default_cache: Optional[TraceCache] = None
#: the raw env value the current default was resolved from; ``None``
#: means "unresolved".  Unlike the result store's one-shot resolution,
#: the default is *re*-resolved whenever ``REPRO_TRACE_CACHE`` changes —
#: persistent pool workers receive env snapshots per task and must honor
#: them without a process restart.
_resolved_env: Optional[str] = None
_override_active = False


def default_trace_cache() -> Optional[TraceCache]:
    """Process-wide cache from ``REPRO_TRACE_CACHE`` (``None`` if disabled
    or the directory cannot be created)."""
    # SS601: env-keyed memo, safe in warm workers by design — the pair
    # (_resolved_env, _default_cache) is a pure function of the current
    # REPRO_TRACE_CACHE value, re-resolved after every per-task env
    # snapshot, and the cache it names is content-addressed on disk.
    global _default_cache, _resolved_env
    if _override_active:
        return _default_cache
    raw = os.environ.get(ENV_VAR)
    env_key = "\0unset" if raw is None else raw
    if _resolved_env == env_key:
        return _default_cache
    _resolved_env = env_key  # simsan: skip=SS601
    if raw is not None and raw.strip().lower() in _DISABLED_VALUES:
        _default_cache = None  # simsan: skip=SS601
    else:
        root = Path(raw) if raw else (
            Path.home() / ".cache" / "repro-care" / "traces")
        cache = TraceCache(root)
        try:
            cache.namespace.mkdir(parents=True, exist_ok=True)
            _default_cache = cache  # simsan: skip=SS601
        except OSError:
            _default_cache = None  # simsan: skip=SS601
    return _default_cache


def set_default_trace_cache(cache: Optional[TraceCache]) -> None:
    """Install ``cache`` process-wide, ignoring the environment until
    :func:`reset_default_trace_cache` (tests use this with a tmp dir)."""
    global _default_cache, _override_active
    _default_cache = cache
    _override_active = True


def reset_default_trace_cache() -> None:
    """Forget the cached default; next use re-reads the environment."""
    global _default_cache, _resolved_env, _override_active
    _default_cache = None
    _resolved_env = None
    _override_active = False


# ----------------------------------------------------------------------
# Cached generation entry points
# ----------------------------------------------------------------------
def generate_trace(kind: str, name: str, n_records: int, seed: int,
                   scale: int) -> Trace:
    """Generate one trace directly (the cache-miss path)."""
    if kind == "spec":
        from .spec_like import spec_trace
        return spec_trace(name, n_records=n_records, seed=seed, scale=scale)
    if kind == "gap":
        from .gap import gap_trace
        return gap_trace(name, n_records=n_records, seed=seed)
    if kind == "serve":
        from .serving import serve_trace
        return serve_trace(name, n_records=n_records, seed=seed, scale=scale)
    raise ValueError(
        f"unknown trace kind {kind!r} (want 'spec', 'gap' or 'serve')")


def cached_trace(kind: str, name: str, n_records: int, seed: int,
                 scale: int,
                 cache: Optional[TraceCache] = None) -> Trace:
    """One trace via the cache: memo -> disk -> generate (and persist).

    With the cache disabled this is exactly a direct generator call, and
    generated traces round-trip the native format exactly (pinned by the
    golden suite), so enabling the cache can never change a result.
    """
    if kind == "gap":
        scale = 0  # gap generation has no scale knob; keep keys canonical
    if cache is None:
        cache = default_trace_cache()
    if cache is None:
        return generate_trace(kind, name, n_records, seed, scale)
    key = trace_key(kind, name, n_records, seed, scale)
    trace = cache.get(key)
    if trace is None:
        trace = generate_trace(kind, name, n_records, seed, scale)
        try:
            cache.put(key, trace)
        except OSError as exc:   # full/readonly disk: generation still won
            log.warning("trace cache write failed: %s", exc)
    return trace
