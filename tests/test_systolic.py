import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from gathernoc.config import MeshConfig, flat_timeout_table
from gathernoc.errors import ConfigError
from gathernoc.systolic import (
    CollectionMode,
    build_round_schedules,
    input_vector,
    last_operand_cycle,
    partial_conv_oracle,
    pe_mac,
    post_cycle,
    round_accumulators,
    run_convolution,
    run_ready_row,
    simulate_stream,
    weight_vector,
)
from gathernoc.workload import LayerConfig, load_layer


def _not_simulated(*args, **kwargs):
    raise AssertionError("a round was simulated")


def _layer(c=1, r=3, q=8, p=8, model="t", name="t"):
    return LayerConfig(model=model, layer=name, in_channels=c, kernel_side=r,
                       kernels=q, layer_side=1, input_vectors=p)


class TestMacAndOracle:
    def test_two_element_dot_product(self):
        acc = pe_mac(pe_mac(0, 1, 3), 2, 4)
        assert acc == 11

    def test_zero_operand_leaves_accumulator(self):
        assert pe_mac(37, 0, 999) == 37

    def test_oracle_all_ones(self):
        assert partial_conv_oracle([1] * 9, [1] * 9) == 9

    def test_oracle_sum_of_squares(self):
        assert partial_conv_oracle([1, 2, 3, 4], [1, 2, 3, 4]) == 30

    def test_oracle_length_mismatch(self):
        with pytest.raises(ConfigError):
            partial_conv_oracle([1, 2], [1])

    def test_streamed_mac_matches_oracle_length_27(self):
        rng = np.random.default_rng(7)
        ins = rng.integers(0, 256, 27).tolist()
        wts = rng.integers(0, 256, 27).tolist()
        acc = 0
        for x, w in zip(ins, wts):
            acc = pe_mac(acc, x, w)
        assert acc == partial_conv_oracle(ins, wts)


class TestStreamSchedule:
    def test_conv1_last_operand_reaches_far_corner(self):
        # 8x8 mesh, 363-operand stream: skew is one cycle per hop
        assert last_operand_cycle(363, 7, 7) == 363 + 14

    def test_one_by_one_mesh_zero_skew(self):
        assert last_operand_cycle(5, 0, 0) == 5
        assert post_cycle(5, 0, 0, mac_latency=5) == 10

    def test_cycle_level_stream_matches_engine_and_oracle(self):
        layer = _layer(c=2, r=2, q=3, p=4)
        cfg = MeshConfig(rows=4, cols=3)
        schedule = build_round_schedules(layer, cfg)[0]
        stepped = simulate_stream(schedule, seed=11)
        engine = round_accumulators(schedule, seed=11)
        assert (stepped == engine).all()
        ref = partial_conv_oracle(
            input_vector(11, schedule.input_ids[2], 8).tolist(),
            weight_vector(11, schedule.filter_ids[1], 8).tolist(),
        )
        assert engine[2][1] == ref

    def test_round_schedules_cover_all_pairs(self):
        layer = _layer(q=10, p=10)
        cfg = MeshConfig(rows=8, cols=8)
        schedules = build_round_schedules(layer, cfg)
        assert len(schedules) == 4   # ceil(10/8)^2
        pairs = {(i, k) for s in schedules for i in s.input_ids for k in s.filter_ids}
        assert pairs == {(i, k) for i in range(10) for k in range(10)}


class TestSingleRowCollection:
    """Uncontended one-row runs must land exactly on the closed forms."""

    def test_ru_collection_is_serialized_drain(self):
        cfg = MeshConfig(rows=1, cols=8)
        stats = run_convolution(_layer(p=1), cfg, "ru", seed=3)
        expected = cfg.cols * (cfg.pipeline_depth + cfg.unicast_len) - 1
        assert stats.per_round_collection == [expected] == [55]
        assert stats.delta_measured == [0]

    def test_gather_collection_is_one_packet(self):
        cfg = MeshConfig(rows=1, cols=8)
        stats = run_convolution(_layer(p=1), cfg, "gather", seed=3)
        expected = cfg.cols * cfg.pipeline_depth + cfg.gather_len - 1
        assert stats.per_round_collection == [expected] == [43]
        assert stats.delta_measured == [0]
        assert stats.packets == 1 and stats.timeout_packets == 0

    @pytest.mark.parametrize("cols,kappa", [(4, 3), (6, 5), (8, 5)])
    def test_closed_forms_scale_with_geometry(self, cols, kappa):
        cfg = MeshConfig(rows=1, cols=cols, pipeline_depth=kappa)
        ru = run_convolution(_layer(q=cols, p=1), cfg, "ru", seed=5)
        g = run_convolution(_layer(q=cols, p=1), cfg, "gather", seed=5)
        assert ru.per_round_collection == [cols * (kappa + 2) - 1]
        assert g.per_round_collection == [cols * kappa + 4 - 1]


class TestRunConvolution:
    def test_modes_deliver_identical_payload_multisets(self):
        cfg = MeshConfig(rows=4, cols=4)
        layer = _layer(c=2, r=2, q=6, p=6)
        ru = run_convolution(layer, cfg, "ru", seed=9)
        g = run_convolution(layer, cfg, "gather", seed=9)
        assert ru.payloads_delivered == g.payloads_delivered == 6 * 6
        assert ru.rounds == g.rounds == 4

    def test_gather_total_not_slower_than_ru(self):
        cfg = MeshConfig()
        layer = _layer(c=3, r=11, q=8, p=8)   # conv1-shaped stream, 1 round
        ru = run_convolution(layer, cfg, "ru", seed=2)
        g = run_convolution(layer, cfg, "gather", seed=2)
        assert g.total_cycles <= ru.total_cycles

    def test_total_at_least_analytic_ideal(self):
        from gathernoc.analytic import AnalyticParams, latency_gather, latency_ru
        cfg = MeshConfig(rows=4, cols=4)
        layer = _layer(c=2, r=3, q=8, p=8)
        params = AnalyticParams.for_run(cfg, layer)
        ru = run_convolution(layer, cfg, "ru", seed=4)
        g = run_convolution(layer, cfg, "gather", seed=4)
        assert ru.total_cycles >= latency_ru(params)
        assert g.total_cycles >= latency_gather(params)

    def test_payload_count_per_full_round(self):
        cfg = MeshConfig(rows=4, cols=4)
        stats = run_convolution(_layer(q=4, p=4), cfg, "gather", seed=1)
        assert stats.rounds == 1
        assert stats.payloads_delivered == 16

    def test_ragged_rounds_idle_pes_post_nothing(self):
        cfg = MeshConfig(rows=4, cols=4)
        layer = _layer(q=6, p=5)   # 2x2 blocks: 4 rounds, ragged edges
        stats = run_convolution(layer, cfg, "gather", seed=8)
        assert stats.rounds == 4
        assert stats.payloads_delivered == 5 * 6

    @pytest.mark.parametrize("oracle", ["ful", "Full", "none", ""])
    @pytest.mark.parametrize("replay", [True, False])
    def test_unknown_oracle_rejected_before_simulation(self, monkeypatch, oracle, replay):
        def simulated(*args, **kwargs):
            raise AssertionError("a round was simulated")
        monkeypatch.setattr("gathernoc.systolic._simulate_round", simulated)
        with pytest.raises(ConfigError, match="oracle"):
            run_convolution(_layer(), MeshConfig(rows=4, cols=4), "ru",
                            oracle=oracle, replay=replay)

    @pytest.mark.parametrize("mode", ["unicast", "RU", "analytic", ""])
    @pytest.mark.parametrize("replay", [True, False])
    def test_unknown_mode_rejected_before_simulation(self, monkeypatch, mode, replay):
        monkeypatch.setattr("gathernoc.systolic._simulate_round", _not_simulated)
        with pytest.raises(ConfigError, match="mode"):
            run_convolution(_layer(), MeshConfig(rows=4, cols=4), mode, replay=replay)

    @pytest.mark.parametrize("mode", ["ru", "gather"])
    @pytest.mark.parametrize("replay", [True, False])
    def test_payload_width_checked_before_simulation(self, monkeypatch, mode, replay):
        # alexnet/conv3 results reach 255*255*2304, more than 20 bits hold;
        # the library path rejects the layer as RunConfig does, whether or
        # not a simulated value would overflow
        monkeypatch.setattr("gathernoc.systolic._simulate_round", _not_simulated)
        cfg = MeshConfig(rows=4, cols=4, gather_payload_bits=20)
        with pytest.raises(ConfigError, match="gather_payload_bits"):
            run_convolution(load_layer("alexnet", "conv3"), cfg, mode, p_override=4,
                            replay=replay)

    def test_replay_matches_full_simulation(self):
        cfg = MeshConfig(rows=4, cols=4)
        layer = _layer(c=2, r=2, q=8, p=12)   # 6 rounds, one repeated class
        fast = run_convolution(layer, cfg, "ru", seed=6, replay=True)
        slow = run_convolution(layer, cfg, "ru", seed=6, replay=False)
        assert fast.total_cycles == slow.total_cycles
        assert fast.per_round_collection == slow.per_round_collection
        assert fast.counter_totals == slow.counter_totals
        assert fast.hops == slow.hops and fast.flits == slow.flits

    def test_mesh_full_round_deltas_nonnegative(self):
        cfg = MeshConfig()
        stats = run_convolution(_layer(q=8, p=8), cfg, "ru", seed=3)
        assert stats.delta_measured and all(d >= 0 for d in stats.delta_measured)


class TestReadyRowScenario:
    def test_fig1_hop_counts(self):
        cfg = MeshConfig(rows=6, cols=6)
        ru = run_ready_row(cfg, 2, "ru")
        g = run_ready_row(cfg, 2, "gather")
        assert ru.hops == 15
        assert g.hops == 5
        assert ru.packets == 6 and g.packets == 1

    @pytest.mark.parametrize("mode", ["unicast", "RU", "analytic", ""])
    def test_unknown_mode_rejected_before_simulation(self, monkeypatch, mode):
        monkeypatch.setattr("gathernoc.systolic._collect", _not_simulated)
        with pytest.raises(ConfigError, match="mode"):
            run_ready_row(MeshConfig(rows=4, cols=4), 0, mode)

    def test_ready_row_payloads_survive(self):
        cfg = MeshConfig(rows=6, cols=6)
        values = [7, 8, 9, 10, 11, 12]
        g = run_ready_row(cfg, 0, CollectionMode.GATHER, values=values)
        assert g.payloads_delivered == 6

    # every RunStats field of the ready-row demo, keyed "size/row/mode" with a
    # "/flat5" suffix for a flat give-up budget of 5 cycles
    GOLDEN = json.loads((Path(__file__).parent / "data" / "ready_row_golden.json").read_text())

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_ready_row_stats_match_golden(self, key):
        size, row, mode, *flat = key.split("/")
        cfg = MeshConfig(rows=int(size), cols=int(size))
        table = flat_timeout_table(cfg, 5) if flat else None
        stats = run_ready_row(cfg, int(row), mode, timeout_table=table)
        assert dataclasses.asdict(stats) == self.GOLDEN[key]
