"""Closed-form per-round latency model and the collection-scheme comparison.

A round is input streaming, the final MAC, then result collection.  The
repetitive-unicast collection term serializes one packet per column behind
the row-start packet's head; the gather term is one multi-payload packet
per capacity chunk.  The improvement ratio normalizes the per-round
collection gap by the gather round latency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from .config import MeshConfig
from .errors import ConfigError
from .workload import LayerConfig


@dataclass(frozen=True)
class AnalyticParams:
    """Inputs to the closed-form model.

    Packet sizes are in flits.  ``timeout_wait`` is the per-packet cycles a
    gather initiator spends waiting out its give-up budget.  Congestion is
    measured by the simulator, not predicted here.
    """

    rows: int                 # mesh rows
    cols: int                 # mesh cols
    in_channels: int
    kernel_side: int
    input_vectors: int
    kernels: int
    mac_latency: int = 5
    pipeline_depth: int = 5
    unicast_flits: int = 2
    gather_flits: int = 4
    payloads_per_gather: int | None = None   # None = one whole row
    timeout_wait: int = 0

    def __post_init__(self) -> None:
        for name in ("rows", "cols", "in_channels", "kernel_side",
                     "input_vectors", "kernels", "unicast_flits", "gather_flits"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("mac_latency", "pipeline_depth", "timeout_wait"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.payloads_per_gather is not None and self.payloads_per_gather < 1:
            raise ConfigError("payloads_per_gather must be >= 1")

    @property
    def stream_cycles(self) -> int:
        return self.in_channels * self.kernel_side * self.kernel_side

    @property
    def rounds(self) -> int:
        return math.ceil(self.input_vectors / self.rows) * math.ceil(self.kernels / self.cols)

    @property
    def gather_chunk(self) -> int:
        return self.payloads_per_gather if self.payloads_per_gather is not None else self.cols

    @staticmethod
    def for_run(config: MeshConfig, layer: LayerConfig, *,
                payloads_per_gather: int | None = None) -> "AnalyticParams":
        return AnalyticParams(
            rows=config.rows,
            cols=config.cols,
            in_channels=layer.in_channels,
            kernel_side=layer.kernel_side,
            input_vectors=layer.vectors,
            kernels=layer.kernels,
            mac_latency=config.mac_latency,
            pipeline_depth=config.pipeline_depth,
            unicast_flits=config.unicast_len,
            gather_flits=config.gather_len,
            payloads_per_gather=payloads_per_gather,
        )


def ru_collection_cycles(p: AnalyticParams) -> int:
    """Per-round collection term for the repetitive-unicast drain: head path
    of the row-start packet plus every packet's flits streamed back to back."""
    return p.cols * (p.pipeline_depth + p.unicast_flits) - 1


def gather_collection_cycles(p: AnalyticParams) -> int:
    """Per-round collection term for gather packets, one per capacity chunk."""
    chunks = math.ceil(p.cols / p.gather_chunk)
    total = 0
    for i in range(chunks):
        span = p.cols - i * p.gather_chunk
        total += span * p.pipeline_depth + p.gather_flits - 1 + p.timeout_wait
    return total


def latency_ru(p: AnalyticParams) -> int:
    """Total cycles for all rounds using per-PE unicast collection."""
    per_round = p.stream_cycles + p.mac_latency + ru_collection_cycles(p)
    return per_round * p.rounds


def latency_gather(p: AnalyticParams) -> int:
    """Total cycles for all rounds using gather collection."""
    per_round = p.stream_cycles + p.mac_latency + gather_collection_cycles(p)
    return per_round * p.rounds


def improvement(p: AnalyticParams) -> Fraction:
    """Expected fractional latency saving of gather over repetitive unicast,
    normalized by the gather round latency."""
    ru = ru_collection_cycles(p)
    g = gather_collection_cycles(p)
    denom = p.stream_cycles + p.mac_latency + g
    return Fraction(ru - g, denom)


def improvement_pct(p: AnalyticParams) -> float:
    """Improvement as a percentage rounded half-up to two decimals."""
    frac = improvement(p)
    pct = Decimal(frac.numerator * 100) / Decimal(frac.denominator)
    return float(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def estimated_table(config: MeshConfig, layers: list[LayerConfig]) -> dict[str, float]:
    """Layer-name -> estimated improvement percentage, ideal conditions."""
    out: dict[str, float] = {}
    for layer in layers:
        out[layer.layer] = improvement_pct(AnalyticParams.for_run(config, layer))
    return out
