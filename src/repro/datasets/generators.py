"""Shared utilities of the synthetic stream generators.

All generators are deterministic given a seed, emit events in timestamp
order and expose their knobs through small config dataclasses so that the
benchmark harness can sweep the parameters the paper varies (events per
window, number of groups, predicate selectivity).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional


def seeded_rng(seed: Optional[int]) -> random.Random:
    """A private random generator; ``None`` seeds from the default source."""
    return random.Random(seed)


def random_walk(
    rng: random.Random,
    length: int,
    start: float,
    step: float,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
    up_probability: float = 0.5,
) -> List[float]:
    """A bounded random walk used for heart rates and stock prices.

    ``up_probability`` controls the fraction of increasing steps and thereby
    the selectivity of "value increases/decreases" adjacent predicates.
    """
    values: List[float] = []
    current = start
    for _ in range(length):
        direction = 1.0 if rng.random() < up_probability else -1.0
        current += direction * rng.uniform(0.0, step)
        if minimum is not None and current < minimum:
            current = minimum
        if maximum is not None and current > maximum:
            current = maximum
        values.append(round(current, 3))
    return values


@dataclass
class StreamConfig:
    """Common knobs shared by every generator."""

    #: total number of events to generate
    event_count: int = 10_000
    #: average number of events per second of application time
    events_per_second: float = 100.0
    #: seed for deterministic generation
    seed: Optional[int] = 7

    @property
    def duration_seconds(self) -> float:
        """Application-time span covered by the generated stream."""
        if self.events_per_second <= 0:
            return float(self.event_count)
        return self.event_count / self.events_per_second


def spread_timestamps(config: StreamConfig) -> Iterator[float]:
    """Evenly spread integer-resolution timestamps over the stream duration."""
    if config.event_count <= 0:
        return
    step = 1.0 / config.events_per_second if config.events_per_second > 0 else 1.0
    time = 0.0
    for _ in range(config.event_count):
        yield round(time, 6)
        time += step

