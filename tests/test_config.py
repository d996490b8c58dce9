import pytest
from hypothesis import given, strategies as st

from gathernoc.config import (MeshConfig, default_timeout_table, flat_timeout_table,
                              give_up_budgets)
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

    def test_capacity_counts_whole_payload_slots(self):
        # 64-bit flits hold one 40-bit payload each: three per 4-flit packet,
        # though the 192 bits would pass for four
        cfg = MeshConfig(flit_width=64, gather_payload_bits=40)
        assert cfg.resolved_gather_capacity() == 3
        with pytest.raises(ConfigError, match="gather_capacity 4 exceeds the 3 whole payloads"):
            MeshConfig(flit_width=64, gather_payload_bits=40, gather_capacity=4)
        assert MeshConfig(flit_width=64, gather_payload_bits=40,
                          gather_capacity=3).resolved_gather_capacity() == 3
        assert cfg.gather_payload_slots == 3


class TestTimeoutTables:
    def test_staircase_shape(self):
        cfg = MeshConfig(rows=2, cols=4, gather_timeout=5)
        table = default_timeout_table(cfg)
        assert [table[(0, c)] for c in range(4)] == [0, 10, 15, 20]
        assert table[(1, 3)] == 20

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 8), st.data())
    def test_budgets_are_the_entries_over_the_staircase(self, rows, cols, unit, data):
        cfg = MeshConfig(rows=rows, cols=cols, gather_timeout=unit)
        table = data.draw(st.dictionaries(st.tuples(st.integers(0, rows - 1),
                                                    st.integers(0, cols - 1)),
                                          st.integers(0, 40)))
        assert give_up_budgets(cfg, table) == [
            table.get((r, c), 0 if c == 0 else (c + 1) * unit)
            for r in range(rows) for c in range(cols)]
        assert give_up_budgets(cfg) == list(default_timeout_table(cfg).values())

    @pytest.mark.parametrize("entry", [(-1, 0), (0, -1), (2, 0), (0, 3)])
    def test_entry_outside_the_mesh_is_rejected_not_indexed(self, entry):
        with pytest.raises(ConfigError, match="outside the 2x3 mesh"):
            give_up_budgets(MeshConfig(rows=2, cols=3), {entry: 1})

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
