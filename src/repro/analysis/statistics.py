"""Multi-seed run statistics: means, dispersion, confidence intervals.

The paper reports single numbers per configuration; a reproduction on
synthetic traces should quantify seed-to-seed variation.  These helpers
summarize repeated measurements and decide whether two schemes' results are
separable at a given confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class RunStatistics:
    """Summary of one metric over repeated (re-seeded) runs."""

    n: int
    mean: float
    std: float                 # sample standard deviation (ddof=1)
    ci_low: float              # confidence interval bounds for the mean
    ci_high: float
    confidence: float

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2

    def formatted(self) -> str:
        return (f"{self.mean:.4f} ± {self.ci_half_width:.4f} "
                f"(n={self.n}, {self.confidence:.0%} CI)")


def summarize(values: Sequence[float], confidence: float = 0.95
              ) -> RunStatistics:
    """Mean with a Student-t confidence interval."""
    vals = list(values)
    if not vals:
        raise ValueError("no measurements")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    n = len(vals)
    mean = sum(vals) / n
    if n == 1:
        return RunStatistics(1, mean, 0.0, mean, mean, confidence)
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    std = math.sqrt(var)
    from scipy import stats   # deferred: scipy.stats costs ~1 s to import
    t = stats.t.ppf(0.5 + confidence / 2, df=n - 1)
    half = t * std / math.sqrt(n)
    return RunStatistics(n, mean, std, mean - half, mean + half, confidence)


def separable(a: Sequence[float], b: Sequence[float],
              alpha: float = 0.05) -> Tuple[bool, float]:
    """Welch's t-test: are the two samples' means distinguishable?

    Returns ``(significant, p_value)``.  Used to decide whether a reported
    scheme-vs-scheme gap survives seed noise.
    """
    if len(a) < 2 or len(b) < 2:
        raise ValueError("need at least two measurements per group")
    from scipy import stats
    t_stat, p_value = stats.ttest_ind(list(a), list(b), equal_var=False)
    return bool(p_value < alpha), float(p_value)


def summarize_sweep(per_seed_tables: List[Dict[str, float]],
                    confidence: float = 0.95) -> Dict[str, RunStatistics]:
    """Summarize a {policy -> value} table measured across several seeds."""
    if not per_seed_tables:
        raise ValueError("no tables")
    policies = per_seed_tables[0].keys()
    out = {}
    for policy in policies:
        out[policy] = summarize(
            [table[policy] for table in per_seed_tables], confidence)
    return out
