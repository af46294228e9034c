"""One on-disk discipline for every artifact family.

The result store, the trace cache, save-states and sweep manifests all
keep their files the same way, and this module is the only place that
knows how:

* **Atomic write** (:func:`atomic_write`): a temp file beside the
  target, then ``os.replace``.  A reader never sees half a file, and
  two writers of one deterministic entry race harmlessly (one rename
  wins), so workers and processes share a directory without locking.
* **Quarantine** (:func:`quarantine`): a file that cannot be read moves
  aside (numbered suffix on collision) with one warning.  It can then
  neither shadow its key forever nor abort the caller; the caller
  treats it as a miss and regenerates it.
* **Content-addressed directory** (:class:`CasDir`):
  ``<root>/<fingerprint[:16]>/<key[:2]>/<key><suffix>``.  The key hashes
  what an entry was made from, and the fingerprint hashes the sources
  that made it (:func:`source_digest`), so a code edit lands in a fresh
  namespace instead of serving stale entries.
* **Env-keyed defaults** (:class:`EnvDefault`): the process-wide
  instance of a family, named by one environment variable and
  re-resolved whenever that variable changes.

Standard library only; :mod:`repro.checks.chaos` is imported lazily, by
the write hook that lets chaos tear fresh files.
"""

from __future__ import annotations

import hashlib
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Generic, Iterable, Iterator, List,
                    Optional, TypeVar, Union)

log = logging.getLogger(__name__)

#: what a decoder raises for an unreadable entry (quarantine + miss);
#: ``FileNotFoundError`` is caught first and is a plain miss
UNREADABLE = (OSError, ValueError, KeyError, TypeError)

#: environment values (any case, surrounding blanks ignored) that
#: disable an :class:`EnvDefault`
OFF_VALUES = frozenset({"", "0", "off", "none", "disabled"})

T = TypeVar("T")


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` all or nothing.

    The parent directory is created; the bytes go to a temp file beside
    the target, which ``os.replace`` then moves into place.  On any
    failure (or interrupt) the temp file is removed, the old target is
    untouched, and the exception propagates.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def quarantine(path: Path, qdir: Path, reason: str = "") -> Optional[Path]:
    """Move ``path`` into ``qdir``; the new location, or ``None``.

    A name already taken in ``qdir`` gets a numbered suffix (``name.1``,
    ``name.2``, ...), so repeated damage to one entry keeps every copy.
    Never raises: a failed move is logged and returns ``None``.
    """
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = qdir / f"{path.name}.{suffix}"
        os.replace(path, target)
    except OSError as exc:
        log.warning("could not quarantine %s: %s", path, exc)
        return None
    log.warning("quarantined %s (%s)", path, reason or "unreadable")
    return target


def source_digest(paths: Iterable[Path], base: Path) -> str:
    """sha256 over each file's path relative to ``base`` and its bytes."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.relative_to(base).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def chaos_tear(path: Path, key: str, fault: str) -> None:
    """Chaos hook after a write: if ``REPRO_CHAOS`` selects ``fault`` for
    ``key``, the file just written is truncated, so readers and fsck
    meet real torn files."""
    from .checks.chaos import chaos_from_env, corrupt_entry
    cfg = chaos_from_env()
    if cfg is not None and corrupt_entry(cfg, key, path, fault):
        log.debug("chaos: %s truncated %s", fault, path.name)


@dataclass
class FsckReport:
    """What an fsck pass found and did."""

    scanned: int = 0
    ok: int = 0
    quarantined: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)   # per-file reasons

    def summary(self) -> str:
        return (f"fsck: {self.scanned} entr(ies) scanned, {self.ok} ok, "
                f"{len(self.quarantined)} quarantined")

    def record(self, path: Path, reason: Optional[str],
               qdir: Path) -> Optional[Path]:
        """Count one scanned file; quarantine it when ``reason`` is set."""
        self.scanned += 1
        if reason is None:
            self.ok += 1
            return None
        self.errors.append(f"{path.name}: {reason}")
        moved = quarantine(path, qdir, reason)
        if moved is not None:
            self.quarantined.append(str(moved))
        return moved


class CasDir:
    """A content-addressed directory holding one artifact family.

    Layout::

        <root>/<fingerprint[:16]>/<key[:2]>/<key><suffix>

    Bad entries move to ``<root>/quarantine/<fingerprint[:16]>/``.
    Subclasses own the encoding: they hand :meth:`write` the bytes and
    :meth:`read` / :meth:`fsck` a function of the entry's path.
    """

    def __init__(self, root: Union[str, Path], fingerprint: str,
                 suffix: str) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint
        self.suffix = suffix
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0

    # -- paths ----------------------------------------------------------
    @property
    def namespace(self) -> Path:
        return self.root / self.fingerprint[:16]

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine" / self.fingerprint[:16]

    def path_for(self, key: str) -> Path:
        return self._path(key)

    def _path(self, key: str) -> Path:
        return self.namespace / key[:2] / f"{key}{self.suffix}"

    # -- access ---------------------------------------------------------
    def read(self, key: str, decode: Callable[[Path], T]) -> Optional[T]:
        """``decode(path)`` for ``key``'s entry, or ``None`` on a miss.

        A missing entry is a miss.  One ``decode`` cannot read (torn
        write, bad disk, chaos, a directory in its place) is quarantined
        and is a miss too, so the caller regenerates and rewrites it.
        """
        path = self._path(key)
        try:
            value = decode(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except UNREADABLE as exc:
            if quarantine(path, self.quarantine_dir,
                          f"{type(exc).__name__}: {exc}") is not None:
                self.quarantined += 1
            self.misses += 1
            return None
        self.hits += 1
        return value

    def write(self, key: str, data: bytes, fault: str) -> Path:
        """Store ``data`` as ``key``'s entry (atomic); chaos ``fault``
        may then tear it."""
        path = self._path(key)
        atomic_write(path, data)
        self.writes += 1
        chaos_tear(path, key, fault)
        return path

    # -- maintenance ----------------------------------------------------
    def entries(self) -> Iterator[Path]:
        yield from self.namespace.glob(f"*/*{self.suffix}")

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def fsck(self, check: Callable[[Path], Optional[str]]) -> FsckReport:
        """Scan the namespace; quarantine every entry ``check`` refuses.

        ``check(path)`` returns ``None`` for a healthy entry and a reason
        for a readable but wrong one; an :data:`UNREADABLE` exception is
        a reason too.
        """
        report = FsckReport()
        for path in sorted(self.entries()):
            try:
                reason = check(path)
            except UNREADABLE as exc:
                reason = f"{type(exc).__name__}: {exc}"
            if report.record(path, reason, self.quarantine_dir) is not None:
                self.quarantined += 1
        return report

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "quarantined": self.quarantined}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({str(self.namespace)!r}, {self.stats()})"


D = TypeVar("D", bound=CasDir)


class EnvDefault(Generic[D]):
    """The process-wide instance of one family, named by an env var.

    Unset means ``~/.cache/repro-care/<sub>``; a value in
    :data:`OFF_VALUES` disables the family (``None``); anything else is
    the root.  ``None`` too when the namespace cannot be created.  The
    instance is re-resolved whenever the variable's value changes,
    because persistent pool workers apply the parent's environment per
    task without restarting.  :meth:`set` pins an instance and ignores
    the environment until :meth:`reset`.
    """

    def __init__(self, env_var: str, sub: str,
                 factory: Callable[[Path], D]) -> None:
        self.env_var = env_var
        self.sub = sub
        self.factory = factory
        self._value: Optional[D] = None
        self._env_key: Optional[str] = None     # None: not yet resolved
        self._pinned = False

    def current(self) -> Optional[D]:
        if self._pinned:
            return self._value
        raw = os.environ.get(self.env_var)
        env_key = "\0unset" if raw is None else raw
        if self._env_key != env_key:
            self._env_key = env_key
            self._value = self._resolve(raw)
        return self._value

    def _resolve(self, raw: Optional[str]) -> Optional[D]:
        if raw is not None and raw.strip().lower() in OFF_VALUES:
            return None
        root = (Path(raw) if raw is not None
                else Path.home() / ".cache" / "repro-care" / self.sub)
        value = self.factory(root)
        try:
            value.namespace.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        return value

    def set(self, value: Optional[D]) -> None:
        self._value = value
        self._pinned = True

    def reset(self) -> None:
        self._value = None
        self._env_key = None
        self._pinned = False
