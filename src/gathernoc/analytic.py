"""Closed-form per-round latency model and the collection-scheme comparison.

The model reads the ``MeshConfig`` and ``LayerConfig`` the simulator runs,
so both describe the same hardware.  A round is input streaming
(``stream_length`` cycles), the final MAC, then result collection; a layer
takes ``round_count`` rounds.  The repetitive-unicast collection term
serializes one packet per column behind the row-start packet's head.  The
gather term is one gather packet per row, even where the payload capacity
splits a row (9 of 16 payloads at 16x16): timeout-launched packets overlap
the lead packet in time, so this is the ideal the simulator departs from.
The improvement ratio normalizes the per-round collection gap by the gather
round latency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .config import MeshConfig
from .workload import LayerConfig, round_count, stream_length


@dataclass(frozen=True)
class AnalyticParams:
    """One layer on one mesh: the inputs of the closed-form model.
    Congestion is measured by the simulator, not predicted here."""

    mesh: MeshConfig
    layer: LayerConfig

    @staticmethod
    def for_run(mesh: MeshConfig, layer: LayerConfig) -> "AnalyticParams":
        return AnalyticParams(mesh, layer)


def ru_collection_cycles(mesh: MeshConfig) -> int:
    """Per-round collection term for the repetitive-unicast drain: head path
    of the row-start packet plus every packet's flits streamed back to back."""
    return mesh.cols * (mesh.pipeline_depth + mesh.unicast_len) - 1


def gather_collection_cycles(mesh: MeshConfig) -> int:
    """Per-round collection term for gather: one packet crossing the row."""
    return mesh.cols * mesh.pipeline_depth + mesh.gather_len - 1


def _round_cycles(p: AnalyticParams, collection: int) -> int:
    return stream_length(p.layer) + p.mesh.mac_latency + collection


def latency_ru(p: AnalyticParams) -> int:
    """Total cycles for all rounds using per-PE unicast collection."""
    return _round_cycles(p, ru_collection_cycles(p.mesh)) * round_count(p.layer, p.mesh)


def latency_gather(p: AnalyticParams) -> int:
    """Total cycles for all rounds using gather collection."""
    return _round_cycles(p, gather_collection_cycles(p.mesh)) * round_count(p.layer, p.mesh)


def improvement(p: AnalyticParams) -> Fraction:
    """Expected fractional latency saving of gather over repetitive unicast,
    normalized by the gather round latency."""
    ru, g = ru_collection_cycles(p.mesh), gather_collection_cycles(p.mesh)
    return Fraction(ru - g, _round_cycles(p, g))


def improvement_pct(p: AnalyticParams) -> float:
    """Improvement as a percentage rounded half-up to two decimals."""
    return pct_half_up(improvement(p))


def pct_half_up(frac: Fraction) -> float:
    """``frac`` as a percentage rounded half-up (ties away from zero) to two
    decimals, from the exact ratio, so a tie is never lost to a float."""
    hundredths = math.floor(abs(frac) * 10_000 + Fraction(1, 2))
    return math.copysign(hundredths / 100, frac)
