"""Summary statistics the benchmark reports, and process memory readings."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest last.
TAIL_PERCENTILES = (50, 60, 65, 70, 75, 80, 85, 90, 95, 99, 99.9)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of no values")
    if min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def shifted_geomean(values: Sequence[float], shift: float = 1.0) -> float:
    """``geomean(v + shift) - shift``: a geometric mean that admits zeros.

    Valve counts can be 0 (an assay bound to one device needs no channel
    valve), which a plain geometric mean turns into 0 for the whole set.
    """
    return geomean([v + shift for v in values]) - shift


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (every result is an observed value)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(samples: int) -> float:
    """The highest reportable percentile with at least ten samples beyond it."""
    best = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if samples * (1.0 - pct / 100.0) >= 10.0 - 1e-9:
            best = pct
    return best


def tail(values: Sequence[float], pct: float) -> Tuple[float, float, int]:
    """``(value, percentile, beyond)`` at ``pct``, lowered until ten lie beyond.

    Workloads fix their tail percentile in advance (so it cannot flip
    between runs as the sample count drifts); this only lowers it when a
    run collected fewer samples than the workload promises.
    """
    pct = min(pct, tail_percentile(len(values)))
    value = percentile(values, pct)
    beyond = sum(1 for v in values if v > value)
    return value, pct, beyond


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle two for an even count)."""
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set size (``VmHWM``) of a live process, or ``None``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None

