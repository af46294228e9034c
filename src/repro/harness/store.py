"""Persistent, content-addressed store of simulation results.

Each :class:`~repro.harness.spec.ExperimentSpec` is addressed by
``sha256(spec canonical JSON)`` *within a directory named by the code
fingerprint* — a hash over every ``repro`` source file.  Any edit to the
simulator (or policies, workload generators, ...) therefore lands in a
fresh namespace and can never serve stale results; old namespaces are
just directories that ``prune()`` can drop.

Layout::

    <root>/<fingerprint[:16]>/<spec-key[:2]>/<spec-key>.json

Each entry file holds ``{"spec": ..., "result": ..., "fingerprint": ...}``.
Writing, quarantine and the layout follow :mod:`repro.casdir`, so
concurrent workers and processes share one store without locking: the
worst case is both simulating the same point and one rename winning,
which is harmless because results are deterministic.

The default root is ``~/.cache/repro-care/results``; override with the
``REPRO_RESULT_STORE`` environment variable (set it to ``0``, ``off`` or
the empty string to disable persistence entirely).
"""

from __future__ import annotations

import functools
import json
import shutil
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from ..casdir import CasDir, EnvDefault, FsckReport, source_digest
from ..sim.stats import SimResult
from .spec import ExperimentSpec

ENV_VAR = "REPRO_RESULT_STORE"


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """Hash of every ``repro`` package source file (path + contents).

    Computed once per process; ~60 small files, so the cost is a few
    milliseconds on first use.  The value is a pure function of the
    installed source tree, so every task in a warm worker computes (or
    reuses) the identical string.
    """
    pkg_root = Path(__file__).resolve().parent.parent
    return source_digest(sorted(pkg_root.rglob("*.py")), pkg_root)


def _load(path: Path) -> Tuple[ExperimentSpec, SimResult]:
    payload = json.loads(path.read_text())
    return (ExperimentSpec.from_dict(payload["spec"]),
            SimResult.from_dict(payload["result"]))


def _load_result(path: Path) -> SimResult:
    return SimResult.from_dict(json.loads(path.read_text())["result"])


def _check(path: Path) -> Optional[str]:
    """fsck: the entry loads and is filed under its spec's key."""
    spec, _ = _load(path)
    if spec.key() != path.stem:
        return (f"key mismatch: spec hashes to {spec.key()[:12]}..., "
                f"filed as {path.stem[:12]}...")
    return None


class ResultStore(CasDir):
    """On-disk result cache shared by benchmarks, examples, and the CLI."""

    def __init__(self, root: Union[str, Path],
                 fingerprint: Optional[str] = None) -> None:
        super().__init__(root, fingerprint or code_fingerprint(), ".json")

    def path_for(self, spec: ExperimentSpec) -> Path:  # type: ignore[override]
        return self._path(spec.key())

    def __contains__(self, spec: ExperimentSpec) -> bool:
        return self.path_for(spec).is_file()

    def get(self, spec: ExperimentSpec) -> Optional[SimResult]:
        """The stored result for ``spec``, or ``None`` on a miss.

        An unreadable entry (torn write, bad disk, chaos, a directory in
        its place) is quarantined and is a miss, so a fresh simulation
        rewrites it instead of the entry aborting the sweep.
        """
        return self.read(spec.key(), _load_result)

    def put(self, spec: ExperimentSpec, result: SimResult) -> Path:
        """Persist ``result`` under ``spec``'s key (atomic rename)."""
        payload = json.dumps(
            {"fingerprint": self.fingerprint, "spec": spec.to_dict(),
             "result": result.to_dict()},
            sort_keys=True, separators=(",", ":"))
        return self.write(spec.key(), payload.encode(), "corrupt")

    def load_entries(self) -> Iterator[Tuple[ExperimentSpec, SimResult]]:
        """Yield ``(ExperimentSpec, SimResult)`` for every readable entry.

        Deterministic order (sorted paths); unreadable or foreign files
        are skipped.  This is the report generator's input.
        """
        for path in sorted(self.entries()):
            try:
                yield _load(path)
            except (OSError, KeyError, TypeError, ValueError):
                continue

    def fsck(self) -> FsckReport:  # type: ignore[override]
        """Scan the current namespace; quarantine corrupt entries.

        An entry is healthy when it parses as JSON, carries ``spec`` and
        ``result`` payloads that round-trip through their classes, and
        sits under the filename matching its spec's content key.
        Anything else — truncated writes, bit rot, hand-edited or
        misfiled entries — moves to ``quarantine/`` and is reported, so
        the next sweep re-simulates those points instead of serving
        garbage or silently missing forever.
        """
        return super().fsck(_check)

    def prune_stale(self) -> int:
        """Drop namespaces belonging to older code fingerprints."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for child in self.root.iterdir():
            if (child.is_dir() and child != self.namespace
                    and child.name != "quarantine"):
                shutil.rmtree(child, ignore_errors=True)
                removed += 1
        return removed


_DEFAULT: "EnvDefault[ResultStore]" = EnvDefault(ENV_VAR, "results",
                                                  ResultStore)


def default_store() -> Optional[ResultStore]:
    """Process-wide store from ``REPRO_RESULT_STORE`` (``None`` if disabled
    or the directory cannot be created)."""
    return _DEFAULT.current()


def set_default_store(store: Optional[ResultStore]) -> None:
    """Install ``store`` process-wide, ignoring the environment until
    :func:`reset_default_store` (tests use this with a tmp dir)."""
    _DEFAULT.set(store)


def reset_default_store() -> None:
    """Forget the cached default; next use re-reads the environment."""
    _DEFAULT.reset()
