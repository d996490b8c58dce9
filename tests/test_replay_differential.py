"""Replay must be exact: folding repeated round classes arithmetically gives
the same statistics as simulating every round cycle by cycle."""
from __future__ import annotations

import dataclasses
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from gathernoc import systolic
from gathernoc.config import MeshConfig
from gathernoc.power import ActivityCounters
from gathernoc.stats import RunStats
from gathernoc.systolic import build_round_schedules, run_convolution
from gathernoc.workload import LayerConfig


@st.composite
def cases(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cfg = MeshConfig(
        rows=rows, cols=cols,
        vc_count=draw(st.integers(1, 4)),
        buffer_depth=draw(st.integers(1, 4)),
        unicast_len=draw(st.integers(2, 4)),
        gather_len=draw(st.integers(2, 5)),
        pipeline_depth=draw(st.integers(1, 6)),
        gather_timeout=draw(st.integers(0, 8)),
        mac_latency=draw(st.integers(0, 6)),
        buffer_commit_rate=draw(st.integers(1, 3)),
    )
    # per-node give-up budgets overlaid on the default staircase
    timeouts = draw(st.none() | st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        st.integers(0, 40)))
    # several rounds per shape class, ragged final blocks included
    layer = LayerConfig("fuzz", "conv", in_channels=draw(st.integers(1, 4)),
                        kernels=draw(st.integers(1, 3 * cols)), kernel_side=1,
                        layer_side=1, input_vectors=draw(st.integers(1, 4 * rows)))
    return cfg, layer, draw(st.sampled_from(("ru", "gather"))), timeouts


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_replay_matches_full_simulation(case):
    cfg, layer, mode, timeouts = case
    replayed = run_convolution(layer, cfg, mode, seed=5, timeout_table=timeouts, replay=True)
    full = run_convolution(layer, cfg, mode, seed=5, timeout_table=timeouts, replay=False)
    for field in dataclasses.fields(RunStats):
        assert getattr(replayed, field.name) == getattr(full, field.name), field.name


def test_replay_simulates_each_round_class_once_in_its_own_network(monkeypatch):
    # 4x4 mesh, 16 input vectors x 6 filters: classes (4, 4) and (4, 2),
    # four rounds each
    cfg = MeshConfig(rows=4, cols=4)
    layer = LayerConfig("t", "t", in_channels=2, kernels=6, kernel_side=1,
                        layer_side=1, input_vectors=16)
    schedules = build_round_schedules(layer, cfg)
    classes = {(s.active_rows, s.active_cols) for s in schedules}
    assert len(classes) >= 2
    assert all(sum((s.active_rows, s.active_cols) == k for s in schedules) >= 3 for k in classes)

    calls = []
    simulate = systolic._simulate_round

    def spy(net, config, mode, schedule, *rest):
        calls.append((net, (schedule.active_rows, schedule.active_cols)))
        return simulate(net, config, mode, schedule, *rest)

    monkeypatch.setattr(systolic, "_simulate_round", spy)
    for mode in ("ru", "gather"):
        calls.clear()
        run_convolution(layer, cfg, mode, seed=3, replay=True)
        assert sorted(k for _, k in calls) == sorted(classes)
        assert len({id(net) for net, _ in calls}) == len(calls)

        calls.clear()
        run_convolution(layer, cfg, mode, seed=3, replay=False)
        assert len(calls) == len(schedules)
        assert len({id(net) for net, _ in calls}) == 1


def test_replay_folds_each_round_class_once_scaled_by_its_round_count(monkeypatch):
    # 4x4 mesh, 16 input vectors x 6 filters: classes (4, 4) and (4, 2),
    # four rounds each
    cfg = MeshConfig(rows=4, cols=4)
    layer = LayerConfig("t", "t", in_channels=2, kernels=6, kernel_side=1,
                        layer_side=1, input_vectors=16)
    schedules = build_round_schedules(layer, cfg)
    per_class = Counter((s.active_rows, s.active_cols) for s in schedules)
    assert len(per_class) >= 2 and min(per_class.values()) >= 3

    factors = []
    add_scaled = ActivityCounters.add_scaled

    def spy(self, delta, factor):
        factors.append(factor)
        return add_scaled(self, delta, factor)

    monkeypatch.setattr(ActivityCounters, "add_scaled", spy)
    for mode in ("ru", "gather"):
        factors.clear()
        stats = run_convolution(layer, cfg, mode, seed=3, replay=True)
        assert sorted(factors) == sorted(per_class.values())
        assert stats.rounds == sum(factors)
