"""Network configuration: mesh geometry, link widths, and protocol knobs.

All quantities are plain integers in cycles, bits, or flits.  A frozen
``MeshConfig`` is shared read-only by every component of one simulation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError


@dataclass(frozen=True)
class MeshConfig:
    """Parameters of one mesh NoC instance.

    ``pipeline_depth`` is the number of cycles a flit spends in an
    uncontended router, link traversal included.  ``gather_timeout`` is the
    base per-hop patience used to derive each node's give-up budget (see
    :func:`give_up_budgets`).  ``buffer_commit_rate`` is how many
    packet transactions the shared result buffer can commit per cycle.
    The derived sizes below are computed once per instance, on first read,
    since packets are built and checked against them per packet.
    """

    rows: int = 8
    cols: int = 8
    vc_count: int = 4
    buffer_depth: int = 4            # flits per input VC
    flit_width: int = 98             # bits
    unicast_len: int = 2             # flits per unicast packet
    gather_len: int = 4              # flits per gather packet
    pipeline_depth: int = 5          # cycles per router traversal
    gather_timeout: int = 5          # base timeout unit, cycles
    gather_payload_bits: int = 32
    gather_capacity: int | None = None   # payloads per gather packet; None = auto
    mac_latency: int = 5             # cycles for the final MAC before posting
    buffer_commit_rate: int = 2      # packet commits per cycle at the buffer

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("mesh must have at least one row and one column")
        if self.vc_count < 1:
            raise ConfigError("vc_count must be >= 1")
        if self.buffer_depth < 1:
            raise ConfigError("buffer_depth must be >= 1")
        if self.flit_width < 1:
            raise ConfigError("flit_width must be >= 1 bit")
        if self.unicast_len < 2 or self.gather_len < 2:
            raise ConfigError("packets need a head and a tail: length >= 2 flits")
        if self.pipeline_depth < 1:
            raise ConfigError("pipeline_depth must be >= 1")
        if self.gather_timeout < 0:
            raise ConfigError("gather_timeout must be >= 0")
        if self.mac_latency < 0:
            raise ConfigError("mac_latency must be >= 0")
        if self.buffer_commit_rate < 1:
            raise ConfigError("buffer_commit_rate must be >= 1")
        if self.gather_payload_bits < 1 or self.gather_payload_bits > self.flit_width:
            raise ConfigError("a gather payload must fit in one flit")
        eta = self.gather_capacity
        if eta is not None:
            if eta < 1:
                raise ConfigError("gather_capacity must be >= 1")
            if eta > self.gather_payload_slots:
                raise ConfigError(
                    f"gather_capacity {eta} exceeds the {self.gather_payload_slots} "
                    "whole payloads the packet's non-head flits hold"
                )

    @cached_property
    def gather_payload_capacity_bits(self) -> int:
        """Total payload bits one gather packet can carry (non-head flits)."""
        return (self.gather_len - 1) * self.flit_width

    @cached_property
    def payload_slots_per_flit(self) -> int:
        """Whole payloads that fit in one flit's payload field."""
        return self.flit_width // self.gather_payload_bits

    @cached_property
    def gather_payload_slots(self) -> int:
        """Whole payloads one gather packet can carry (non-head flits)."""
        return (self.gather_len - 1) * self.payload_slots_per_flit

    def resolved_gather_capacity(self) -> int:
        """Payload budget per gather packet.

        Defaults to one full row, clamped to the whole payloads the
        packet's non-head flits hold.
        """
        if self.gather_capacity is not None:
            return self.gather_capacity
        return min(self.cols, self.gather_payload_slots)


def check_timeout_table(config: MeshConfig, table: dict[tuple[int, int], int] | None) -> None:
    """Reject a give-up table with an entry outside the mesh or a negative
    budget; ``None`` means the default table."""
    for (r, c), budget in (table or {}).items():
        if not (0 <= r < config.rows and 0 <= c < config.cols):
            raise ConfigError(f"timeout table entry ({r}, {c}) is outside the "
                              f"{config.rows}x{config.cols} mesh")
        if budget < 0:
            raise ConfigError(f"timeout table entry ({r}, {c}): budget must be "
                              f">= 0, got {budget}")


def give_up_budgets(config: MeshConfig,
                    timeout_table: dict[tuple[int, int], int] | None = None) -> list[int]:
    """Every node's give-up budget, in router-id order (``row * cols +
    col``): the explicit entries of ``timeout_table``, once checked, laid
    over the default staircase.

    A node ``c`` hops from the start of its row waits ``(c + 1)`` timeout
    units after posting a payload before initiating its own gather packet:
    ``c`` units for an upstream head to reach it plus one for the local
    check/upload window.  The row-start node initiates immediately.  With the
    timeout unit equal to the router pipeline depth this guarantees a packet
    launched anywhere upstream arrives before the local budget expires, so a
    row collapses into the minimum number of gather packets.  A run resolves
    its table once; tables that resolve to equal budgets are one policy.
    """
    check_timeout_table(config, timeout_table)  # before an entry such as (-1, 0) is indexed
    cols, unit = config.cols, config.gather_timeout
    budgets = [0, *((c + 1) * unit for c in range(1, cols))] * config.rows
    for (r, c), budget in (timeout_table or {}).items():
        budgets[r * cols + c] = budget
    return budgets


def default_timeout_table(config: MeshConfig) -> dict[tuple[int, int], int]:
    """The default staircase of :func:`give_up_budgets`, keyed by ``(row, col)``."""
    return {divmod(i, config.cols): b for i, b in enumerate(give_up_budgets(config))}


def flat_timeout_table(config: MeshConfig, timeout: int) -> dict[tuple[int, int], int]:
    """Uniform per-node budget; mainly for protocol stress tests."""
    return {(r, c): timeout for r in range(config.rows) for c in range(config.cols)}
