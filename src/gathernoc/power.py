"""Activity-counter energy proxy.

Dynamic energy is modeled as a linear combination of per-router event
counts; coefficients default to one energy unit per event and are
configurable, so only relative numbers are meaningful.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from itertools import zip_longest

from .errors import ConfigError

EVENT_KINDS = (
    "buffer_write",
    "buffer_read",
    "xbar_traversal",
    "link_traversal",
    "va_arb",
    "sa_arb",
    "payload_upload",
)


# the events of one flit move through a router: a buffer read, a crossbar
# traversal and a switch allocation
MOVE_KINDS = ("buffer_read", "xbar_traversal", "sa_arb")


class ActivityCounters:
    """Per-router event counts, monotonically non-decreasing during a run.

    ``recorded[kind]`` and ``moves`` are flat lists indexed by router id
    that grow to cover every id recorded by a network.  ``moves`` counts
    flit moves, each one event of every kind in ``MOVE_KINDS``, so a
    network counts a move with one increment instead of three.
    ``per_router[kind]`` reports each router's count of a kind: the
    recorded events plus, for a move kind, the moves.  ``replayed`` holds
    the counts folded in by ``add_scaled``: a run folds each distinct round
    measurement into it once, scaled by the number of rounds it stands
    for, so a run's totals live there and belong to no single router.
    """

    def __init__(self) -> None:
        self.recorded: dict[str, list[int]] = {k: [] for k in EVENT_KINDS}
        self.moves: list[int] = []
        self.replayed: dict[str, int] = dict.fromkeys(EVENT_KINDS, 0)

    @property
    def per_router(self) -> dict[str, list[int]]:
        """A new ``{kind: per-router counts}`` of every event kind."""
        moves = self.moves
        return {k: [n + m for n, m in zip_longest(counts, moves, fillvalue=0)]
                if k in MOVE_KINDS else list(counts)
                for k, counts in self.recorded.items()}

    def reserve(self, routers: int) -> None:
        """Make room for router ids below ``routers``, so that callers may
        increment ``recorded[kind][rid]`` and ``moves[rid]`` in place."""
        for bucket in (*self.recorded.values(), self.moves):
            if len(bucket) < routers:
                bucket.extend([0] * (routers - len(bucket)))

    def record(self, kind: str, router: int, n: int = 1) -> None:
        if n < 0:
            raise ValueError("activity counters only move forward")
        if router < 0:
            raise ValueError("router ids are non-negative")
        bucket = self.recorded[kind]
        if router >= len(bucket):
            bucket.extend([0] * (router + 1 - len(bucket)))
        bucket[router] += n

    def total(self, kind: str, moves: int | None = None) -> int:
        """The count of ``kind``; ``moves``, if given, is ``sum(self.moves)``."""
        n = sum(self.recorded[kind]) + self.replayed[kind]
        if kind not in MOVE_KINDS:
            return n
        return n + (sum(self.moves) if moves is None else moves)

    def totals(self) -> dict[str, int]:
        """``total`` of every kind, with the moves summed once."""
        moves = sum(self.moves)
        return {k: self.total(k, moves) for k in EVENT_KINDS}

    def add_scaled(self, delta: dict[str, int], factor: int) -> None:
        """Fold ``factor`` repetitions of a per-round delta into the counters.

        A run folds each round measurement in this way, with its round
        count as ``factor``; the bulk counts go to ``replayed``.
        """
        for kind, n in delta.items():
            n *= factor
            if n < 0:
                raise ValueError("activity counters only move forward")
            self.replayed[kind] += n


@dataclass(frozen=True)
class EnergyCoefficients:
    """Energy units charged per event occurrence."""

    buffer_write: float = 1.0
    buffer_read: float = 1.0
    xbar_traversal: float = 1.0
    link_traversal: float = 1.0
    va_arb: float = 1.0
    sa_arb: float = 1.0
    payload_upload: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError("energy coefficients must be finite and non-negative")

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def total_energy(counters: ActivityCounters | dict[str, int],
                 coeffs: EnergyCoefficients | None = None) -> float:
    """The energy of ``counters``' event totals under ``coeffs``; a
    ``ConfigError`` if finite coefficients overflow it on these counts."""
    totals = counters.totals() if isinstance(counters, ActivityCounters) else counters
    c = (coeffs or EnergyCoefficients()).as_dict()
    energy = float(sum(totals.get(k, 0) * c[k] for k in EVENT_KINDS))
    if not math.isfinite(energy):
        # a sum of finite terms overflows only if one term exceeds its share
        share = sys.float_info.max / len(EVENT_KINDS)
        named = ", ".join(f"{k} = {c[k]:g} ({totals[k]} events)" for k in EVENT_KINDS
                          if totals.get(k, 0) * c[k] > share)
        raise ConfigError(f"energy overflows the float range: energy coefficients {named}")
    return energy


def energy_improvement(baseline: float, proposed: float) -> float:
    """Fractional energy saving of ``proposed`` relative to ``baseline``."""
    if baseline == 0:
        return 0.0
    return (baseline - proposed) / baseline
