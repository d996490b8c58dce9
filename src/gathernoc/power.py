"""Activity-counter energy proxy.

Dynamic energy is modeled as a linear combination of per-router event
counts; coefficients default to one energy unit per event and are
configurable, so only relative numbers are meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

EVENT_KINDS = (
    "buffer_write",
    "buffer_read",
    "xbar_traversal",
    "link_traversal",
    "va_arb",
    "sa_arb",
    "payload_upload",
)


class ActivityCounters:
    """Per-router event counts, monotonically non-decreasing during a run.

    ``per_router[kind]`` is a flat list indexed by router id that grows to
    cover every id recorded by a network.  ``replayed`` holds the counts
    folded in by ``add_scaled``: a run folds each distinct round
    measurement into it once, scaled by the number of rounds it stands
    for, so a run's totals live there and belong to no single router.
    """

    def __init__(self) -> None:
        self.per_router: dict[str, list[int]] = {k: [] for k in EVENT_KINDS}
        self.replayed: dict[str, int] = dict.fromkeys(EVENT_KINDS, 0)

    def reserve(self, routers: int) -> None:
        """Make room for router ids below ``routers``, so that callers may
        increment ``per_router[kind][rid]`` in place."""
        for bucket in self.per_router.values():
            if len(bucket) < routers:
                bucket.extend([0] * (routers - len(bucket)))

    def record(self, kind: str, router: int, n: int = 1) -> None:
        if n < 0:
            raise ValueError("activity counters only move forward")
        if router < 0:
            raise ValueError("router ids are non-negative")
        bucket = self.per_router[kind]
        if router >= len(bucket):
            bucket.extend([0] * (router + 1 - len(bucket)))
        bucket[router] += n

    def total(self, kind: str) -> int:
        return sum(self.per_router[kind]) + self.replayed[kind]

    def totals(self) -> dict[str, int]:
        return {k: self.total(k) for k in EVENT_KINDS}

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
            if getattr(self, f.name) < 0:
                raise ValueError("energy coefficients must be non-negative")

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def total_energy(counters: ActivityCounters | dict[str, int],
                 coeffs: EnergyCoefficients | None = None) -> float:
    totals = counters.totals() if isinstance(counters, ActivityCounters) else counters
    c = (coeffs or EnergyCoefficients()).as_dict()
    return float(sum(totals.get(k, 0) * c[k] for k in EVENT_KINDS))


def energy_improvement(baseline: float, proposed: float) -> float:
    """Fractional energy saving of ``proposed`` relative to ``baseline``."""
    if baseline == 0:
        return 0.0
    return (baseline - proposed) / baseline
