"""Mesh geometry: node addressing, XY routing, and hop accounting."""
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

    @staticmethod
    def from_index(idx: int, cols: int) -> "NodeId":
        return NodeId(idx // cols, idx % cols)

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


class BufferSink:
    """Marker for the global-buffer endpoint of a hop path."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BUFFER"


BUFFER_SINK = BufferSink()


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


def manhattan_hops(src: NodeId, dst: NodeId, plus_buffer: bool = False) -> int:
    """Link count between two routers; +1 covers the buffer attachment."""
    hops = abs(src.row - dst.row) + abs(src.col - dst.col)
    return hops + 1 if plus_buffer else hops


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


def hop_path(src: NodeId, dst: NodeId, cols: int, sink_is_buffer: bool = False) -> list:
    """Router-by-router path from src to the sink, by iterating xy_route.

    The returned list holds NodeIds; when the sink is the global buffer the
    path ends with the BUFFER_SINK marker after the right-edge router.
    """
    path: list = [src]
    current = src
    while current != dst:
        port = xy_route(current, dst, cols)
        current = step_toward(current, port)
        path.append(current)
    if sink_is_buffer:
        # validates the right-edge constraint
        xy_route(dst, dst, cols, sink_is_buffer=True)
        path.append(BUFFER_SINK)
    return path
