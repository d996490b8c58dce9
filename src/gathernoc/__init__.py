"""Mesh NoC simulator with gather-packet collection for systolic CNN traffic."""

from .analytic import AnalyticParams, improvement, improvement_pct, latency_gather
from .config import MeshConfig, default_timeout_table
from .errors import (
    CapacityError,
    ConfigError,
    DeadlockError,
    DrainError,
    GatherNocError,
    LostPayloadError,
    OracleMismatchError,
    SimulationError,
)
from .harness import RunConfig, run
from .network import MeshNetwork
from .packet import Flit, FlitType, PacketType, build_packet
from .power import ActivityCounters, EnergyCoefficients, total_energy
from .stats import RunStats
from .systolic import CollectionMode, partial_conv_oracle, run_convolution, run_ready_row
from .topology import NodeId, Port, xy_route
from .workload import LayerConfig, load_layer, model_layers, round_count, stream_length

__version__ = "0.1.0"

__all__ = [
    "ActivityCounters",
    "AnalyticParams",
    "CapacityError",
    "CollectionMode",
    "ConfigError",
    "DeadlockError",
    "DrainError",
    "EnergyCoefficients",
    "Flit",
    "FlitType",
    "GatherNocError",
    "LayerConfig",
    "LostPayloadError",
    "MeshConfig",
    "MeshNetwork",
    "NodeId",
    "OracleMismatchError",
    "PacketType",
    "Port",
    "RunConfig",
    "RunStats",
    "SimulationError",
    "build_packet",
    "default_timeout_table",
    "improvement",
    "improvement_pct",
    "latency_gather",
    "load_layer",
    "model_layers",
    "partial_conv_oracle",
    "round_count",
    "run",
    "run_convolution",
    "run_ready_row",
    "stream_length",
    "total_energy",
    "xy_route",
]
