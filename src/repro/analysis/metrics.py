"""Summary statistics of a sample (latencies, decision times, delays)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Stats"]


@dataclass(frozen=True)
class Stats:
    """Summary statistics of a sample (times or delay counts)."""

    count: int
    mean: float
    p50: float
    p95: float
    minimum: float
    maximum: float
    #: Tail percentile (E18's headline metric).
    p99: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Stats":
        if not values:
            raise ValueError("cannot summarize an empty sample")
        array = np.asarray(values, dtype=float)
        return cls(
            count=int(array.size),
            mean=float(array.mean()),
            p50=float(np.percentile(array, 50)),
            p95=float(np.percentile(array, 95)),
            minimum=float(array.min()),
            maximum=float(array.max()),
            p99=float(np.percentile(array, 99)),
        )
