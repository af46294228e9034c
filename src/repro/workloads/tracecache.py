"""Content-addressed on-disk cache for generated workload traces.

Every sweep point sharing a ``(suite, workload, seed, n_records, scale)``
tuple regenerates the identical synthetic trace — a policy matrix at one
core count regenerates it once *per policy*, and a paper-scale campaign
(100 mixes x policies x core counts) pays that cost thousands of times.
The :class:`TraceCache` generates each distinct trace once and serves
every later request from disk (and from a small in-process memo, which
is what makes persistent warm workers nearly generation-free).

The cache is a :class:`repro.casdir.CasDir` (atomic writes, quarantine
of unreadable entries on read and in :meth:`TraceCache.fsck`):

* the **key** is ``sha256`` over the canonical JSON of the generation
  parameters (:func:`trace_key`);
* the **namespace** is a fingerprint over the workload-generator sources
  (plus ``sim/config.py``, whose ``BLOCK_SIZE`` shapes addresses), so
  editing a generator can never serve stale traces;
* entries hold the native ``.rtrc.gz`` bytes of :mod:`repro.workloads.io`.

Byte-identity contract: a cached trace must round-trip *exactly* —
:func:`repro.workloads.io.encode_trace` refuses a record the format cannot
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

import functools
import hashlib
import json
import logging
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Union

from ..casdir import CasDir, EnvDefault, FsckReport, source_digest
from .io import MAX_GAP, encode_trace, load_trace  # noqa: F401  (re-export)
from .trace import Trace

log = logging.getLogger(__name__)

ENV_VAR = "REPRO_TRACE_CACHE"

#: trace-key schema — bump when key semantics change
KEY_VERSION = 1

#: in-process memo entries kept per cache (FIFO).  Sized for a sweep's
#: working set (one workload tuple is reused across a whole policy
#: matrix) while bounding memory for paper-scale traces.
MEMO_ENTRIES = 16


@functools.lru_cache(maxsize=None)
def workloads_fingerprint() -> str:
    """Hash of the trace-generation sources (the cache namespace).

    Narrower than the result store's whole-package fingerprint on
    purpose: traces depend only on ``repro.workloads`` and the geometry
    constants in ``repro/sim/config.py``, so a policy or harness edit
    keeps every cached trace valid.
    """
    pkg_root = Path(__file__).resolve().parent.parent
    paths = sorted((pkg_root / "workloads").glob("*.py"))
    paths.append(pkg_root / "sim" / "config.py")
    return source_digest(paths, pkg_root)


def trace_key(kind: str, name: str, n_records: int, seed: int,
              scale: int) -> str:
    """Content hash of one generation request (the cache address)."""
    payload = json.dumps(
        {"key_version": KEY_VERSION, "kind": kind, "name": name,
         "n_records": n_records, "seed": seed, "scale": scale},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _check_trace(path: Path) -> None:
    load_trace(path)


class TraceCache(CasDir):
    """Keyed on-disk trace cache plus a small in-process memo.

    Layout::

        <root>/<workloads_fingerprint[:16]>/<key[:2]>/<key>.rtrc.gz
    """

    def __init__(self, root: Union[str, Path],
                 fingerprint: Optional[str] = None) -> None:
        super().__init__(root, fingerprint or workloads_fingerprint(),
                         ".rtrc.gz")
        self.memo_hits = 0
        self._memo: "OrderedDict[str, Trace]" = OrderedDict()

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
        trace = self.read(key, load_trace)
        if trace is not None:
            self._remember(key, trace)
        return trace

    def put(self, key: str, trace: Trace) -> Optional[Path]:
        """Persist ``trace`` under ``key`` (atomic rename).

        Returns ``None`` without writing a file when the native format
        cannot represent the trace losslessly (:func:`encode_trace`
        raises ``ValueError``) — caching such a trace on disk would break
        result byte-identity, which outranks throughput.  The in-process
        memo still serves it.
        """
        self._remember(key, trace)
        try:
            data = encode_trace(trace, compress=True)
        except ValueError as exc:
            log.debug("trace not cached: %s", exc)
            return None
        return self.write(key, data, "corrupt")

    def _remember(self, key: str, trace: Trace) -> None:
        self._memo[key] = trace
        self._memo.move_to_end(key)
        while len(self._memo) > MEMO_ENTRIES:
            self._memo.popitem(last=False)

    def clear_memo(self) -> None:
        self._memo.clear()

    def fsck(self) -> FsckReport:  # type: ignore[override]
        """Scan the namespace; quarantine entries that cannot load.

        Trace keys hash generation parameters that are not recoverable
        from the payload, so fsck validates readability, not identity.
        """
        return super().fsck(_check_trace)

    def stats(self) -> Dict[str, int]:
        return {**super().stats(), "memo_hits": self.memo_hits}


_DEFAULT: "EnvDefault[TraceCache]" = EnvDefault(ENV_VAR, "traces",
                                                 TraceCache)


def default_trace_cache() -> Optional[TraceCache]:
    """Process-wide cache from ``REPRO_TRACE_CACHE`` (``None`` if disabled
    or the directory cannot be created); re-resolved whenever the
    variable changes, so persistent workers honour per-task snapshots."""
    return _DEFAULT.current()


def set_default_trace_cache(cache: Optional[TraceCache]) -> None:
    """Install ``cache`` process-wide, ignoring the environment until
    :func:`reset_default_trace_cache` (tests use this with a tmp dir)."""
    _DEFAULT.set(cache)


def reset_default_trace_cache() -> None:
    """Forget the cached default; next use re-reads the environment."""
    _DEFAULT.reset()


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
