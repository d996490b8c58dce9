"""Aggregated results of one simulated run."""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter

from .power import EVENT_KINDS


@dataclass(frozen=True)
class RoundMeasurement:
    """What one simulated round measured, in cycles from its ready cycle,
    when its first result is posted."""

    collection: int
    packets: int
    flits: int
    hops: int
    payloads: int
    timeout_packets: int
    head_latencies: list[int]
    counter_delta: dict[str, int]


@dataclass(frozen=True)
class RoundClass:
    """The rounds of shape ``(active_rows, active_cols)``, ``col_blocks``
    column blocks in each of ``row_blocks`` row blocks, the first of them
    ``first_round``: each takes ``latency`` cycles and measures ``measurement``."""

    active_rows: int
    active_cols: int
    row_blocks: int
    col_blocks: int
    first_round: int
    latency: int
    measurement: RoundMeasurement

    @property
    def rounds(self) -> int:
        return self.row_blocks * self.col_blocks


@dataclass
class RunStats:
    """Everything a finished run reports.

    ``round_classes``, one row per round class in round order, is the
    run's record: the scalars and ``counter_totals`` fold from it and the
    per-round lists are views of it.  ``per_round_collection`` is measured
    from the cycle the first PE of a round could post its result to the
    cycle the round's last packet commits into the buffer.
    ``delta_measured`` is the observed minus closed-form ideal collection
    cycles (congestion plus skew), never negative, of the rounds whose
    shape is the whole mesh.
    ``head_latencies`` are the first round's."""

    model: str
    layer: str
    mode: str
    rows: int
    cols: int
    seed: int
    rounds: int = 0
    total_cycles: int = 0
    ideal_collection: int = 0
    timeout_packets: int = 0
    packets: int = 0
    flits: int = 0
    hops: int = 0
    payloads_delivered: int = 0
    counter_totals: dict[str, int] = field(default_factory=lambda: {k: 0 for k in EVENT_KINDS})
    energy: float = 0.0
    improvement_pct: float | None = None
    round_classes: list[RoundClass] = field(default_factory=list)

    @property
    def mesh(self) -> str:
        return f"{self.rows}x{self.cols}"

    @property
    def collection_cycles(self) -> int:
        return sum(c.rounds * c.measurement.collection for c in self.round_classes)

    @property
    def per_round_latency(self) -> list[int]:
        return self._per_round(lambda c: [c.latency])

    @property
    def per_round_collection(self) -> list[int]:
        return self._per_round(lambda c: [c.measurement.collection])

    @property
    def delta_measured(self) -> list[int]:
        whole = (self.rows, self.cols)
        return self._per_round(lambda c: [c.measurement.collection - self.ideal_collection]
                               if (c.active_rows, c.active_cols) == whole else [])

    @property
    def head_latencies(self) -> list[int]:
        first = self.round_classes[0].measurement if self.round_classes else None
        return list(first.head_latencies) if first else []

    def _per_round(self, values) -> list[int]:
        """``values(c)`` for each round of class ``c``, row block by row block
        (whose classes share their active rows), column block by column block."""
        out: list[int] = []
        for _, row in groupby(self.round_classes, attrgetter("active_rows")):
            row = list(row)
            out += [v for c in row for v in values(c) * c.col_blocks] * row[0].row_blocks
        return out
