import pytest
from hypothesis import given, strategies as st

from gathernoc.config import MeshConfig, default_timeout_table, flat_timeout_table
from gathernoc.errors import ConfigError


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("rows", 0), ("cols", 0), ("vc_count", 0), ("buffer_depth", 0),
        ("unicast_len", 1), ("gather_len", 1), ("pipeline_depth", 0),
        ("buffer_commit_rate", 0), ("mac_latency", -1), ("gather_timeout", -1),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            MeshConfig(**{field: value})

    def test_payload_must_fit_one_flit(self):
        with pytest.raises(ConfigError):
            MeshConfig(gather_payload_bits=99)
        MeshConfig(gather_payload_bits=98)   # boundary is fine

    def test_capacity_bound_by_packet_bits(self):
        # 4-flit packet at 98 bits holds at most nine 32-bit payloads
        with pytest.raises(ConfigError):
            MeshConfig(gather_capacity=10)
        assert MeshConfig(gather_capacity=9).resolved_gather_capacity() == 9

    def test_default_capacity_is_row_clamped_to_bits(self):
        assert MeshConfig(rows=8, cols=8).resolved_gather_capacity() == 8
        assert MeshConfig(rows=16, cols=16).resolved_gather_capacity() == 9
        assert MeshConfig(rows=1, cols=2).resolved_gather_capacity() == 2

    def test_capacity_bits_properties(self):
        cfg = MeshConfig()
        assert cfg.gather_payload_capacity_bits == 294
        assert cfg.payload_slots_per_flit == 3


class TestTimeoutTables:
    def test_staircase_shape(self):
        cfg = MeshConfig(rows=2, cols=4, gather_timeout=5)
        table = default_timeout_table(cfg)
        assert [table[(0, c)] for c in range(4)] == [0, 10, 15, 20]
        assert table[(1, 3)] == 20

    def test_flat_table(self):
        cfg = MeshConfig(rows=2, cols=2)
        assert set(flat_timeout_table(cfg, 7).values()) == {7}

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16))
    def test_staircase_covers_upstream_head_arrival(self, rows, cols):
        # a head launched at the row start reaches hop c after c pipeline
        # traversals; the budget at c must outlast that
        cfg = MeshConfig(rows=rows, cols=cols)
        table = default_timeout_table(cfg)
        kappa = cfg.pipeline_depth
        for c in range(1, cols):
            assert table[(0, c)] >= c * kappa
