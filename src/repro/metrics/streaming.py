"""Constant-memory streaming accumulators for per-packet samples.

A long saturated run delivers millions of packets; storing every
latency/energy sample in the :class:`~repro.noc.stats.SimulationResult`
lists makes memory grow linearly with simulated cycles.  When a run is
configured with ``SimulationConfig(metrics="streaming")`` the kernel feeds
each delivered packet's samples into the accumulators in this module
instead, which keep the exact aggregates the
:class:`~repro.metrics.saturation.LoadPointSummary` layer consumes (count,
mean, max) plus P² estimates of the 50th/95th/99th latency percentiles —
all in O(1) memory per run.

The P² algorithm (Jain & Chlamtac, CACM 1985) maintains five markers per
tracked quantile and adjusts their heights with a piecewise-parabolic
update; until five samples have arrived the estimator stores the samples
directly and answers with the same nearest-rank convention as the sampled
path (:meth:`SimulationResult.latency_percentile_cycles`), so tiny runs
agree bit-for-bit between the two metrics modes.
"""

from __future__ import annotations

from typing import List, Tuple

#: Latency percentiles tracked by the streaming path.  The sampled path can
#: answer any percentile from its stored list; the streaming path only
#: maintains markers for these three (the ones reports consume).
TRACKED_PERCENTILES = (50.0, 95.0, 99.0)


class StreamingMoments:
    """Count / mean / max of a stream, in O(1) memory.

    The mean uses Welford-style incremental updates, so it stays accurate
    for long streams where a naive running sum of millions of samples
    would accumulate float error.
    """

    __slots__ = ("count", "mean", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.max = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.mean += (value - self.mean) / self.count
        if self.count == 1 or value > self.max:
            self.max = value

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"StreamingMoments(count={self.count}, mean={self.mean:.3f}, max={self.max})"


class P2Quantile:
    """P² estimator of one quantile of a stream, in O(1) memory."""

    __slots__ = ("percentile", "_p", "_initial", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, percentile: float) -> None:
        if not 0.0 < percentile < 100.0:
            raise ValueError(f"percentile must be in (0, 100), got {percentile}")
        self.percentile = percentile
        self._p = percentile / 100.0
        #: First five observations, kept verbatim until the markers start.
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[int] = []
        self._desired: List[float] = []
        p = self._p
        self._rates = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)

    @property
    def count(self) -> int:
        if self._positions:
            return self._positions[4]
        return len(self._initial)

    def add(self, value: float) -> None:
        value = float(value)
        if not self._positions:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._positions = [1, 2, 3, 4, 5]
                p = self._p
                self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
            return
        q = self._heights
        n = self._positions
        # Locate the marker cell the new observation falls into.
        if value < q[0]:
            q[0] = value
            cell = 0
        elif value >= q[4]:
            q[4] = value
            cell = 3
        else:
            cell = 0
            while value >= q[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            n[i] += 1
        for i in range(5):
            self._desired[i] += self._rates[i]
        # Adjust the three interior markers towards their desired positions.
        for i in range(1, 4):
            d = self._desired[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1) or (d <= -1.0 and n[i - 1] - n[i] < -1):
                step = 1 if d >= 1.0 else -1
                candidate = self._parabolic(i, step)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, step)
                q[i] = candidate
                n[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        q = self._heights
        n = self._positions
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: int) -> float:
        q = self._heights
        n = self._positions
        return q[i] + step * (q[i + step] - q[i]) / (n[i + step] - n[i])

    def value(self) -> float:
        """The current quantile estimate (0.0 before any sample)."""
        if self._positions:
            return self._heights[2]
        if not self._initial:
            return 0.0
        # Fewer than five samples: answer exactly, with the same
        # nearest-rank convention as the sampled path.
        ordered = sorted(self._initial)
        index = int(round(self._p * (len(ordered) - 1)))
        return float(ordered[index])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"P2Quantile(p{self.percentile:g}={self.value():.3f}, count={self.count})"


class StreamingSampleStats:
    """Moments plus tracked percentiles of one per-packet sample stream."""

    __slots__ = ("moments", "quantiles")

    def __init__(self, percentiles: Tuple[float, ...] = TRACKED_PERCENTILES) -> None:
        self.moments = StreamingMoments()
        self.quantiles = {p: P2Quantile(p) for p in percentiles}

    @property
    def count(self) -> int:
        return self.moments.count

    @property
    def mean(self) -> float:
        return self.moments.mean

    @property
    def max(self) -> float:
        return self.moments.max

    def add(self, value: float) -> None:
        self.moments.add(value)
        for quantile in self.quantiles.values():
            quantile.add(value)

    def percentile(self, percentile: float) -> float:
        """The tracked percentile estimate; raises on untracked ones."""
        quantile = self.quantiles.get(float(percentile))
        if quantile is None:
            tracked = ", ".join(f"{p:g}" for p in sorted(self.quantiles))
            raise ValueError(
                f"streaming metrics track only percentiles [{tracked}], got {percentile}"
            )
        return quantile.value()
