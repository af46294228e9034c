"""Multi-seed statistics helpers."""

import os
import subprocess
import sys

import pytest

from repro.analysis.statistics import (
    RunStatistics,
    separable,
    summarize,
    summarize_sweep,
)


def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0])
    assert s.mean == pytest.approx(2.0)
    assert s.std == pytest.approx(1.0)
    assert s.ci_low < 2.0 < s.ci_high
    assert s.n == 3


def test_summarize_single_value_degenerates():
    s = summarize([5.0])
    assert s.mean == 5.0
    assert s.ci_low == s.ci_high == 5.0


def test_summarize_validation():
    with pytest.raises(ValueError):
        summarize([])
    with pytest.raises(ValueError):
        summarize([1.0], confidence=1.5)


def test_ci_narrows_with_more_samples():
    wide = summarize([1.0, 2.0, 3.0])
    narrow = summarize([1.0, 2.0, 3.0] * 10)
    assert narrow.ci_half_width < wide.ci_half_width


def test_ci_widens_with_confidence():
    a = summarize([1.0, 2.0, 3.0], confidence=0.90)
    b = summarize([1.0, 2.0, 3.0], confidence=0.99)
    assert b.ci_half_width > a.ci_half_width


def test_separable_detects_clear_gap():
    sig, p = separable([1.0, 1.01, 0.99, 1.02], [2.0, 2.01, 1.98, 2.02])
    assert sig and p < 0.001


def test_separable_rejects_noise():
    sig, p = separable([1.0, 1.2, 0.8, 1.1], [1.05, 0.95, 1.15, 0.9])
    assert not sig


def test_separable_needs_two_samples():
    with pytest.raises(ValueError):
        separable([1.0], [1.0, 2.0])


def test_summarize_sweep():
    tables = [
        {"lru": 1.0, "care": 1.2},
        {"lru": 1.0, "care": 1.3},
        {"lru": 1.0, "care": 1.25},
    ]
    out = summarize_sweep(tables)
    assert out["care"].mean == pytest.approx(1.25)
    assert out["lru"].std == 0.0
    with pytest.raises(ValueError):
        summarize_sweep([])


def test_formatted_output():
    s = summarize([1.0, 2.0])
    text = s.formatted()
    assert "±" in text and "n=2" in text


def test_harness_import_leaves_scipy_unloaded():
    """scipy.stats costs about a second to import; only summarize() and
    separable() need it, so importing the harness must not load it."""
    code = ("import sys, repro.harness; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_deferred_scipy_gives_the_same_numbers():
    s = summarize([1, 2, 3])
    assert (s.ci_low, s.ci_high) == pytest.approx(
        (-0.48413771175033027, 4.48413771175033), rel=1e-12)
    sig, p = separable([1.0, 2.0, 3.0, 4.0], [2.5, 3.5, 4.5, 6.0])
    assert not sig and p == pytest.approx(0.15177438373882, rel=1e-12)
