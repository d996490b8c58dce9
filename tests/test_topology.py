import pytest
from hypothesis import given, strategies as st

from gathernoc.errors import ConfigError
from gathernoc.topology import NodeId, Port, step_toward, xy_route


def _distance(a, b):
    return abs(a.row - b.row) + abs(a.col - b.col)


def _walk(src, dst, cols):
    """The routers from src on, following xy_route toward dst one hop at a
    time, for as many hops as src is from dst (a minimal route's length)."""
    path = [src]
    for _ in range(_distance(src, dst)):
        path.append(step_toward(path[-1], xy_route(path[-1], dst, cols)))
    return path


def test_xy_route_same_row_goes_east():
    assert xy_route(NodeId(2, 0), NodeId(2, 5), cols=6) == Port.EAST


def test_xy_route_local_buffer_delivery():
    assert xy_route(NodeId(2, 5), NodeId(2, 5), cols=6, sink_is_buffer=True) == Port.BUFFER


def test_xy_route_same_column_goes_south():
    assert xy_route(NodeId(0, 3), NodeId(4, 3), cols=6) == Port.SOUTH


def test_xy_route_resolves_column_before_row():
    assert xy_route(NodeId(3, 1), NodeId(0, 4), cols=6) == Port.EAST
    assert xy_route(NodeId(3, 4), NodeId(0, 4), cols=6) == Port.NORTH


def test_buffer_port_only_on_right_edge():
    with pytest.raises(ConfigError):
        xy_route(NodeId(1, 2), NodeId(1, 2), cols=6, sink_is_buffer=True)


def test_node_index_bijection_6x6():
    seen = set()
    for r in range(6):
        for c in range(6):
            idx = NodeId(r, c).index(6)
            assert divmod(idx, 6) == (r, c)
            seen.add(idx)
    assert seen == set(range(36))


def test_xy_route_path_length_matches_manhattan_exhaustive_6x6():
    nodes = [NodeId(r, c) for r in range(6) for c in range(6)]
    for src in nodes:
        for dst in nodes:
            path = _walk(src, dst, cols=6)
            assert path[-1] == dst
            # consecutive routers are mesh neighbors
            assert all(_distance(a, b) == 1 for a, b in zip(path, path[1:]))


@given(
    st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15),
)
def test_route_iteration_reaches_destination(r1, c1, r2, c2):
    src, dst = NodeId(r1, c1), NodeId(r2, c2)
    assert _walk(src, dst, cols=16)[-1] == dst
