"""Mesh geometry: node addressing and XY routing."""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .errors import ConfigError


class Port(IntEnum):
    """Router ports.  LOCAL doubles as the injection input and the PE-side
    ejection output; BUFFER is the extra output on right-edge routers that
    feeds the global result buffer."""

    LOCAL = 0
    NORTH = 1
    EAST = 2
    SOUTH = 3
    WEST = 4
    BUFFER = 5


# Input ports a router can receive flits on, in arbitration order.
INPUT_PORTS = (Port.LOCAL, Port.NORTH, Port.EAST, Port.SOUTH, Port.WEST)


@dataclass(frozen=True, order=True)
class NodeId:
    row: int
    col: int

    def index(self, cols: int) -> int:
        return self.row * cols + self.col

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


def xy_route(current: NodeId, dst: NodeId, cols: int, sink_is_buffer: bool = False) -> Port:
    """Dimension-ordered next-port decision: resolve the column first, then
    the row.  At the destination, deliver locally or, for result traffic, out
    the buffer port (right edge only)."""
    if current == dst:
        if sink_is_buffer:
            if current.col != cols - 1:
                raise ConfigError(
                    f"buffer port requested at {current}, but the buffer is "
                    f"attached to column {cols - 1} only"
                )
            return Port.BUFFER
        return Port.LOCAL
    if dst.col > current.col:
        return Port.EAST
    if dst.col < current.col:
        return Port.WEST
    if dst.row > current.row:
        return Port.SOUTH
    return Port.NORTH


def step_toward(current: NodeId, port: Port) -> NodeId:
    if port == Port.EAST:
        return NodeId(current.row, current.col + 1)
    if port == Port.WEST:
        return NodeId(current.row, current.col - 1)
    if port == Port.SOUTH:
        return NodeId(current.row + 1, current.col)
    if port == Port.NORTH:
        return NodeId(current.row - 1, current.col)
    raise ConfigError(f"{port} is not a mesh direction")

