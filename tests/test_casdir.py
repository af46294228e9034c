"""The shared on-disk discipline: atomic write, quarantine, and the
env-keyed process defaults."""

import os

import pytest

from repro.casdir import atomic_write, quarantine
from repro.harness.store import (ENV_VAR, default_store,
                                 reset_default_store)


def test_atomic_write_is_all_or_nothing(tmp_path, monkeypatch):
    target = tmp_path / "entry.json"
    atomic_write(target, b"old bytes")

    def failing_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk gone"):
        atomic_write(target, b"new bytes")
    assert target.read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


def test_quarantine_numbers_collisions(tmp_path):
    qdir = tmp_path / "quarantine"
    moved = []
    for payload in (b"one", b"two", b"three"):
        bad = tmp_path / "state.ckpt.gz"
        bad.write_bytes(payload)
        moved.append(quarantine(bad, qdir, "torn"))
        assert not bad.exists()
    assert [p.name for p in moved] == [
        "state.ckpt.gz", "state.ckpt.gz.1", "state.ckpt.gz.2"]
    assert [p.read_bytes() for p in moved] == [b"one", b"two", b"three"]


def test_quarantine_never_raises(tmp_path):
    assert quarantine(tmp_path / "missing", tmp_path / "q") is None


def test_default_store_tracks_env_changes(tmp_path, monkeypatch):
    """The store default re-resolves on env change, like the trace cache:
    persistent workers apply per-task env snapshots."""
    reset_default_store()
    try:
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "a"))
        first = default_store()
        assert first is not None and first.root == tmp_path / "a"
        assert default_store() is first
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "b"))
        assert default_store().root == tmp_path / "b"
        monkeypatch.setenv(ENV_VAR, "Off")
        assert default_store() is None
    finally:
        reset_default_store()
