"""Network configuration: mesh geometry, link widths, and protocol knobs.

All quantities are plain integers in cycles, bits, or flits.  A frozen
``MeshConfig`` is shared read-only by every component of one simulation.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class MeshConfig:
    """Parameters of one mesh NoC instance.

    ``pipeline_depth`` is the number of cycles a flit spends in an
    uncontended router, link traversal included.  ``gather_timeout`` is the
    base per-hop patience used to derive each node's give-up budget (see
    :func:`default_timeout_table`).  ``buffer_commit_rate`` is how many
    packet transactions the shared result buffer can commit per cycle.
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
            if eta * self.gather_payload_bits > self.gather_payload_capacity_bits:
                raise ConfigError(
                    "gather_capacity * payload bits exceeds the packet's "
                    "non-head flit capacity"
                )

    @property
    def gather_payload_capacity_bits(self) -> int:
        """Total payload bits one gather packet can carry (non-head flits)."""
        return (self.gather_len - 1) * self.flit_width

    @property
    def payload_slots_per_flit(self) -> int:
        """Whole payloads that fit in one flit's payload field."""
        return self.flit_width // self.gather_payload_bits

    def resolved_gather_capacity(self) -> int:
        """Payload budget per gather packet.

        Defaults to one full row, clamped to what the packet's bit capacity
        physically admits.
        """
        if self.gather_capacity is not None:
            return self.gather_capacity
        bit_bound = self.gather_payload_capacity_bits // self.gather_payload_bits
        return max(1, min(self.cols, bit_bound))


def default_timeout_table(config: MeshConfig) -> dict[tuple[int, int], int]:
    """Per-node give-up budgets for gather collection.

    A node ``c`` hops from the start of its row waits ``(c + 1)`` timeout
    units after posting a payload before initiating its own gather packet:
    ``c`` units for an upstream head to reach it plus one for the local
    check/upload window.  The row-start node initiates immediately.  With the
    timeout unit equal to the router pipeline depth this guarantees a packet
    launched anywhere upstream arrives before the local budget expires, so a
    row collapses into the minimum number of gather packets.
    """
    table: dict[tuple[int, int], int] = {}
    for r in range(config.rows):
        for c in range(config.cols):
            table[(r, c)] = 0 if c == 0 else (c + 1) * config.gather_timeout
    return table


def flat_timeout_table(config: MeshConfig, timeout: int | None = None) -> dict[tuple[int, int], int]:
    """Uniform per-node budget; mainly for protocol stress tests."""
    t = config.gather_timeout if timeout is None else timeout
    return {(r, c): t for r in range(config.rows) for c in range(config.cols)}
