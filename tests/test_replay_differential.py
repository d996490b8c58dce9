"""Replay must be exact: folding repeated round classes arithmetically gives
the same statistics as simulating every round cycle by cycle."""
from __future__ import annotations

import dataclasses
import re
import tempfile
from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import accumulate
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

from gathernoc import harness, systolic
from gathernoc.config import MeshConfig
from gathernoc.power import ActivityCounters
from gathernoc.stats import RunStats
from gathernoc.systolic import build_round_schedules, run_convolution
from gathernoc.workload import LayerConfig, load_layer
from scenario_utils import ragged_case

# every RunStats field, the class table included, and the four per-round
# views of the table
COMPARED = (*(f.name for f in dataclasses.fields(RunStats)), "per_round_latency",
            "per_round_collection", "delta_measured", "head_latencies")


def _mesh_and_timeouts(draw):
    """A mesh of up to 6x6 with random protocol knobs, and a random table of
    per-node give-up budgets overlaid on the default staircase (or none)."""
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
    timeouts = draw(st.none() | st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        st.integers(0, 40)))
    return cfg, timeouts


def _fuzz_layer(draw, cfg: MeshConfig, name: str = "conv") -> LayerConfig:
    """A small layer with several rounds per shape class, ragged final
    blocks included."""
    return LayerConfig("fuzz", name, in_channels=draw(st.integers(1, 4)),
                       kernels=draw(st.integers(1, 3 * cfg.cols)), kernel_side=1,
                       layer_side=1, input_vectors=draw(st.integers(1, 4 * cfg.rows)))


@st.composite
def cases(draw):
    cfg, timeouts = _mesh_and_timeouts(draw)
    return cfg, _fuzz_layer(draw, cfg), draw(st.sampled_from(("ru", "gather"))), timeouts


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
# the benchmark's mesh sizes, with ragged final blocks
@example((*ragged_case(8, "ru"), None))
@example((*ragged_case(8, "gather"), None))
@example((*ragged_case(16, "ru"), None))
@example((*ragged_case(16, "gather"), None))
def test_replay_matches_full_simulation(case):
    cfg, layer, mode, timeouts = case
    replayed = run_convolution(layer, cfg, mode, seed=5, timeout_table=timeouts, replay=True)
    full = run_convolution(layer, cfg, mode, seed=5, timeout_table=timeouts, replay=False)
    for name in COMPARED:
        assert getattr(replayed, name) == getattr(full, name), name


def _round_events(log: list[str], latencies: list[int]) -> dict[int, list[str]]:
    """The lines of an event log by round, packet ids counted from the
    round's first.  A round owns the cycles after its start up to the next
    round's start, when its last result commits."""
    starts = [0, *accumulate(latencies)]
    rounds = defaultdict(list)
    for line in log:
        rounds[bisect_left(starts, int(line.split(" ", 1)[0])) - 1].append(line)
    out = {}
    for index, lines in rounds.items():
        base = min((int(pid) for line in lines for pid in re.findall(r"pid=(\d+)", line)),
                   default=0)
        out[index] = [re.sub(r"pid=(\d+)", lambda m: f"pid={int(m[1]) - base}", line)
                      for line in lines]
    return out


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example((*ragged_case(8, "ru"), None))
@example((*ragged_case(8, "gather"), None))
@example((*ragged_case(16, "ru"), None))
@example((*ragged_case(16, "gather"), None))
def test_replay_event_log_matches_full_simulation(case):
    # replay logs the first round of each class, measured from its ready
    # cycle and shifted to the round's true one: the same lines, but for
    # packet numbering, that the full simulation logs for that round
    cfg, layer, mode, timeouts = case
    replayed_log, full_log = [], []
    run_convolution(layer, cfg, mode, seed=5, timeout_table=timeouts, event_log=replayed_log)
    full = run_convolution(layer, cfg, mode, seed=5, timeout_table=timeouts, replay=False,
                           event_log=full_log)
    first = {}
    for s in build_round_schedules(layer, cfg):
        first.setdefault((s.active_rows, s.active_cols), s.index)
    replayed = _round_events(replayed_log, full.per_round_latency)
    assert sorted(replayed) == sorted(first.values())
    by_round = _round_events(full_log, full.per_round_latency)
    for index, lines in replayed.items():
        assert lines == by_round[index], index


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


@st.composite
def shared_runs(draw):
    cfg, timeouts = _mesh_and_timeouts(draw)
    layers = [_fuzz_layer(draw, cfg, f"l{i}") for i in range(draw(st.integers(2, 4)))]
    modes = draw(st.sampled_from((("ru",), ("gather",), ("ru", "gather"))))
    return cfg, layers, modes, timeouts, draw(st.booleans())


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(shared_runs())
def test_shared_class_measurements_match_separate_runs(case):
    # harness.run measures each round class once across its layers; every
    # (layer, mode) must come out as if run on its own
    cfg, layers, modes, timeouts, events = case
    db = {(l.model, l.layer): l for l in layers}
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(harness, "builtin_layer_db", lambda: db):
        result = harness.run(harness.RunConfig(
            mesh=cfg, layers=list(db), modes=modes, seed=5, output=f"{out}/r",
            event_log=events, timeout_table=timeouts))
        for layer in layers:
            alone = {}
            for mode in modes:
                log = [] if events else None
                alone[mode] = run_convolution(layer, cfg, mode, seed=5, timeout_table=timeouts,
                                              event_log=log)
                path = Path(f"{out}/r.fuzz.{layer.layer}.{mode}.events.txt")
                if events:
                    assert path.read_text() == "\n".join(log) + ("\n" if log else "")
                else:
                    assert not path.exists()
            if len(modes) == 2:
                pct = harness.simulated_improvement_pct(alone["ru"], alone["gather"])
                alone["ru"].improvement_pct = alone["gather"].improvement_pct = pct
            for mode in modes:
                shared = result.stats[("fuzz", layer.layer, mode)]
                for name in COMPARED:
                    assert getattr(shared, name) == getattr(alone[mode], name), \
                        (layer.layer, mode, name)


def test_run_simulates_each_round_class_once_per_run(monkeypatch):
    # 4x5 mesh, 11 input vectors: rows come in blocks of 4, 4 and 3, and the
    # 256 and 384 filters leave ragged column blocks of 1 and 4
    cfg = harness.RunConfig(mesh=MeshConfig(rows=4, cols=5), modes=("ru", "gather"),
                            layers=[("alexnet", f"conv{i}") for i in (2, 3, 4, 5)],
                            p_override=11)
    classes = {(s.active_rows, s.active_cols)
               for model, name in cfg.layers
               for s in build_round_schedules(
                   load_layer(model, name).with_vectors(cfg.p_override), cfg.mesh)}
    assert len(classes) >= 4

    calls = []
    simulate = systolic._simulate_round

    def spy(net, config, mode, schedule, *rest):
        calls.append((mode.value, schedule.active_rows, schedule.active_cols))
        return simulate(net, config, mode, schedule, *rest)

    monkeypatch.setattr(systolic, "_simulate_round", spy)
    expected = Counter((mode, *k) for mode in cfg.modes for k in classes)
    # a second run measures its classes again: nothing is kept between runs
    for _ in range(2):
        calls.clear()
        harness.run(cfg)
        assert Counter(calls) == expected
