"""Percentiles and process memory, kept inside the benchmark."""

from __future__ import annotations

import math
from typing import Dict, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def p50(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def p90(values: Sequence[float]) -> float:
    return percentile(values, 0.9)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def proc_status(pid: str = "self") -> Dict[str, int]:
    """``VmRSS``/``VmHWM`` of a process in KiB, from ``/proc/<pid>/status``."""
    fields: Dict[str, int] = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            name, _, rest = line.partition(":")
            if name in ("VmRSS", "VmHWM"):
                fields[name] = int(rest.split()[0])
    return fields
