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

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from gathernoc import harness, systolic
from gathernoc.config import MeshConfig, give_up_budgets
from gathernoc.errors import SimulationError
from gathernoc.network import MeshNetwork
from gathernoc.power import ActivityCounters
from gathernoc.stats import RunStats
from gathernoc.systolic import CollectionMode, build_round_schedules, run_convolution
from gathernoc.workload import LayerConfig, load_layer, model_layers
from scenario_utils import measure_classes_one_cycle_off, ragged_case

# every RunStats field, the class table included, and the four per-round
# views of the table
COMPARED = (*(f.name for f in dataclasses.fields(RunStats)), "per_round_latency",
            "per_round_collection", "delta_measured", "head_latencies")


def _mesh_and_timeouts(draw, side: int = 6, rates=st.integers(1, 3)):
    """A mesh of up to ``side`` x ``side`` with random protocol knobs, its
    commit rate drawn from ``rates``, and a random table of per-node give-up
    budgets overlaid on the default staircase (or none)."""
    rows, cols = draw(st.integers(1, side)), draw(st.integers(1, side))
    cfg = MeshConfig(
        rows=rows, cols=cols,
        vc_count=draw(st.integers(1, 4)),
        buffer_depth=draw(st.integers(1, 4)),
        unicast_len=draw(st.integers(2, 4)),
        gather_len=draw(st.integers(2, 5)),
        pipeline_depth=draw(st.integers(1, 6)),
        gather_timeout=draw(st.integers(0, 8)),
        mac_latency=draw(st.integers(0, 6)),
        buffer_commit_rate=draw(rates),
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


@st.composite
def class_cases(draw):
    """A mesh of up to 16x16, commit rates 1-4 and one that never queues
    included, one round shape on it, a mode and a give-up table (or none)."""
    cfg, timeouts = _mesh_and_timeouts(draw, 16, st.sampled_from((1, 2, 3, 4, 1024)))
    shape = draw(st.integers(1, cfg.rows)), draw(st.integers(1, cfg.cols))
    return cfg, shape, draw(st.sampled_from(("ru", "gather"))), timeouts


def _rows_differ(side: int) -> dict[tuple[int, int], int]:
    """A give-up table on a ``side`` x ``side`` mesh whose rows all differ."""
    return {(r, c): (7 * r + 3 * c) % 23 for r in range(side) for c in range(side)}


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(class_cases())
# rows tie at a one-commit-per-cycle port
@example((MeshConfig(rows=16, cols=16, buffer_commit_rate=1), (16, 16), "ru", None))
# one gather packet per row at 7 flits, two chunks per row at the default 4
@example((MeshConfig(rows=16, cols=16, gather_len=7), (16, 16), "gather", None))
@example((MeshConfig(rows=16, cols=16), (16, 16), "gather", None))
# a ragged shape on a mesh that is not square
@example((MeshConfig(rows=7, cols=12), (5, 9), "ru", None))
@example((MeshConfig(rows=7, cols=12), (5, 9), "gather", None))
# one row network per row
@example((MeshConfig(rows=6, cols=6), (6, 6), "gather", _rows_differ(6)))
@example((MeshConfig(rows=6, cols=6, buffer_commit_rate=1), (6, 4), "ru", _rows_differ(6)))
def test_row_merged_class_measurement_matches_full_mesh(case):
    # a class measured one row at a time and merged at the commit port must
    # equal one round of its shape on a fresh network of the whole mesh
    cfg, shape, mode, timeouts = case
    mode = CollectionMode(mode)
    merged = systolic._measure_class(cfg, mode, shape, "round 0", timeouts)
    full = systolic._simulate_round(MeshNetwork(cfg, timeout_table=timeouts), mode, shape,
                                    "round 0", 0, max(give_up_budgets(cfg, timeouts)))
    assert merged == full


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


def _spy_measurements(monkeypatch) -> list:
    """Record each class measurement of ``run_convolution`` as ``(entry
    point, shape, networks it ran on)``: ``_measure_class`` with the networks
    built during the call, ``_simulate_round`` with the network it is given."""
    calls, built = [], []
    network, measure, simulate = (systolic.MeshNetwork, systolic._measure_class,
                                  systolic._simulate_round)

    def build(*args, **kwargs):
        built.append(network(*args, **kwargs))
        return built[-1]

    def measure_spy(config, mode, shape, *rest):
        first = len(built)
        m = measure(config, mode, shape, *rest)
        calls.append(("measure", mode.value, *shape, built[first:]))
        return m

    def simulate_spy(net, mode, shape, *rest):
        calls.append(("simulate", mode.value, *shape, [net]))
        return simulate(net, mode, shape, *rest)

    monkeypatch.setattr(systolic, "MeshNetwork", build)
    monkeypatch.setattr(systolic, "_measure_class", measure_spy)
    monkeypatch.setattr(systolic, "_simulate_round", simulate_spy)
    return calls


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

    calls = _spy_measurements(monkeypatch)
    for mode in ("ru", "gather"):
        # without an event log, one row network per class: the default
        # give-up table gives every row the same budgets
        calls.clear()
        run_convolution(layer, cfg, mode, seed=3, replay=True)
        assert sorted(c[2:4] for c in calls) == sorted(classes)
        assert all(c[0] == "measure" and len(c[4]) == 1 and c[4][0].config.rows == 1
                   for c in calls)
        assert len({id(c[4][0]) for c in calls}) == len(calls)

        # with one too, and each class's lines come from one round on a
        # fresh logged network of the whole mesh
        calls.clear()
        run_convolution(layer, cfg, mode, seed=3, replay=True, event_log=[])
        assert sorted(c[2:4] for c in calls if c[0] == "measure") == sorted(classes)
        assert sorted(c[2:4] for c in calls if c[0] == "simulate") == sorted(classes)
        assert all(len(c[4]) == 1 for c in calls)
        assert all(c[4][0].config.rows == 1 and c[4][0].event_log is None
                   for c in calls if c[0] == "measure")
        assert all(c[4][0].config.rows == cfg.rows and c[4][0].event_log is not None
                   for c in calls if c[0] == "simulate")
        assert len({id(c[4][0]) for c in calls}) == len(calls)

        # without replay, the same row networks measure each class once,
        # and every round runs on one network of the whole mesh
        calls.clear()
        run_convolution(layer, cfg, mode, seed=3, replay=False)
        measured = [c for c in calls if c[0] == "measure"]
        simulated = [c for c in calls if c[0] == "simulate"]
        assert sorted(c[2:4] for c in measured) == sorted(classes)
        assert all(len(c[4]) == 1 and c[4][0].config.rows == 1 for c in measured)
        assert [c[2:4] for c in simulated] == [(s.active_rows, s.active_cols)
                                               for s in schedules]
        assert len({id(c[4][0]) for c in simulated}) == 1
        assert simulated[0][4][0].config.rows == cfg.rows


@pytest.mark.parametrize("checked", [{"event_log": []}, {"replay": False}],
                         ids=["event_log", "no_replay"])
@pytest.mark.parametrize("mode", ["ru", "gather"])
def test_event_logged_class_that_rows_measure_otherwise_raises(monkeypatch, mode, checked):
    # class measurements one cycle off: a replayed run without an event log
    # reports them unchecked; the whole-mesh rounds of an event-logged run,
    # and of a run without replay, reject them
    measure_classes_one_cycle_off(monkeypatch)
    cfg = MeshConfig(rows=4, cols=4)
    layer = LayerConfig("t", "t", in_channels=2, kernels=6, kernel_side=1,
                        layer_side=1, input_vectors=16)
    run_convolution(layer, cfg, mode, seed=3)
    with pytest.raises(SimulationError, match=r"^round 0: the whole mesh measures its 4x4 "):
        run_convolution(layer, cfg, mode, seed=3, **checked)


def test_class_measurement_builds_one_row_network_per_row_of_budgets(monkeypatch):
    # rows 0 and 2 share a row of budgets, rows 1 and 3 differ: three groups
    cfg = MeshConfig(rows=4, cols=4)
    layer = LayerConfig("t", "t", in_channels=2, kernels=4, kernel_side=1,
                        layer_side=1, input_vectors=4)
    timeouts = {(1, 2): 3, (3, 0): 9}
    calls = _spy_measurements(monkeypatch)
    stats = run_convolution(layer, cfg, "gather", seed=3, timeout_table=timeouts)
    [(entry, _, _, _, nets)] = calls
    assert entry == "measure" and len(nets) == 3
    assert all(net.config.rows == 1 for net in nets)
    full = run_convolution(layer, cfg, "gather", seed=3, timeout_table=timeouts, replay=False)
    for name in COMPARED:
        assert getattr(stats, name) == getattr(full, name), name


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


def _row_budgets(config: MeshConfig, timeouts) -> list[tuple[int, ...]]:
    """Each mesh row's give-up budgets, top row first."""
    budgets = give_up_budgets(config, timeouts)
    return [tuple(budgets[r * config.cols:(r + 1) * config.cols]) for r in range(config.rows)]


def _spy_row_networks(monkeypatch) -> list:
    """Record each row network ``_measure_class`` simulates as ``(mode,
    active cols, row budgets)``."""
    calls, measure_row = [], systolic._measure_row

    def spy(row_config, mode, row_budgets, active_cols, *rest):
        calls.append((mode.value, active_cols, row_budgets))
        return measure_row(row_config, mode, row_budgets, active_cols, *rest)

    monkeypatch.setattr(systolic, "_measure_row", spy)
    return calls


def test_run_simulates_each_round_class_once_per_run(monkeypatch):
    # 4x5 mesh, 11 input vectors: rows come in blocks of 4, 4 and 3, and the
    # 256 and 384 filters leave ragged column blocks of 1 and 4.  The give-up
    # table sets row 1 apart from rows 0 and 2, and row 3, which only the
    # 4-row classes have, apart from all of them
    mesh, timeouts = MeshConfig(rows=4, cols=5), {(1, 2): 3, (3, 0): 9}
    cfg = harness.RunConfig(mesh=mesh, modes=("ru", "gather"), timeout_table=timeouts,
                            layers=[("alexnet", f"conv{i}") for i in (2, 3, 4, 5)],
                            p_override=11)
    classes = {(s.active_rows, s.active_cols)
               for model, name in cfg.layers
               for s in build_round_schedules(
                   load_layer(model, name).with_vectors(cfg.p_override), cfg.mesh)}
    assert {rows for rows, _ in classes} == {3, 4} and len(classes) >= 4
    row_budgets = _row_budgets(mesh, timeouts)
    assert row_budgets[0] == row_budgets[2] and len(set(row_budgets)) == 3
    # one row network per (mode, active cols, budgets) that some class has
    networks = {(mode, cols, row_budgets[r])
                for mode in cfg.modes for rows, cols in classes for r in range(rows)}
    assert len(networks) < sum(rows for rows, _ in classes) * len(cfg.modes)

    calls = _spy_measurements(monkeypatch)
    row_networks = _spy_row_networks(monkeypatch)
    expected = Counter(("measure", mode, *k) for mode in cfg.modes for k in classes)
    # a second run measures its classes and simulates its row networks
    # again: nothing is kept between runs
    for _ in range(2):
        calls.clear()
        row_networks.clear()
        harness.run(cfg)
        assert Counter(c[:4] for c in calls) == expected
        assert Counter(row_networks) == Counter(networks)
        built = [net for c in calls for net in c[4]]
        assert len(built) == len(networks) and all(net.config.rows == 1 for net in built)
        assert len({id(net) for net in built}) == len(built)


@st.composite
def row_tables(draw):
    """A mesh of up to 6x6 and a give-up table under which some rows'
    budgets differ: a drawn subset of rows gets one drawn budget each."""
    cfg, timeouts = _mesh_and_timeouts(draw)
    timeouts = dict(timeouts or {})
    for r, moved in enumerate(draw(st.lists(st.booleans(), min_size=cfg.rows,
                                            max_size=cfg.rows))):
        if moved:
            timeouts[r, draw(st.integers(0, cfg.cols - 1))] = draw(st.integers(0, 40))
    assume(cfg.rows == 1 or len(set(_row_budgets(cfg, timeouts))) > 1)
    return cfg, timeouts


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(row_tables())
def test_shared_row_networks_measure_every_shape_as_fresh_ones(case):
    # every shape of the mesh in both modes, measured in one mapping,
    # equals its measurement in a fresh one; the mapping holds one row
    # network per distinct (mode, active cols, row budgets)
    cfg, timeouts = case
    row_budgets = _row_budgets(cfg, timeouts)
    shapes = [(k, c) for k in range(1, cfg.rows + 1) for c in range(1, cfg.cols + 1)]
    shared: dict = {}
    for mode in CollectionMode:
        for shape in shapes:
            what = f"{shape[0]}x{shape[1]}"
            got = systolic._measure_class(cfg, mode, shape, what, timeouts, shared)
            alone = systolic._measure_class(cfg, mode, shape, what, timeouts)
            assert got == alone, (mode, shape)
    assert len(shared) == 2 * len({(c, budgets) for c in range(1, cfg.cols + 1)
                                   for budgets in row_budgets})


def test_full_scale_run_simulates_one_row_network_per_mode(monkeypatch):
    # every class of the grid has full columns and default budgets, so one
    # harness.run per mesh simulates one row network in each mode
    calls = _spy_measurements(monkeypatch)
    row_networks = _spy_row_networks(monkeypatch)
    layers = [(model, layer.layer) for model in ("alexnet", "vgg16")
              for layer in model_layers(model)]
    for side in (8, 16):
        calls.clear()
        row_networks.clear()
        harness.run(harness.RunConfig(mesh=MeshConfig(rows=side, cols=side), layers=layers,
                                      modes=("ru", "gather", "analytic")))
        assert len({c[1:4] for c in calls}) == len(calls) > 2
        assert sorted(row_networks) == [("gather", side, row_networks[0][2]),
                                        ("ru", side, row_networks[0][2])]
        built = [net for c in calls for net in c[4]]
        assert len(built) == 2 and all(net.config.rows == 1 for net in built)


def test_replay_matches_full_simulation_at_full_scale():
    # alexnet/conv5 as the grid runs it: 8x8 and 16x16, both modes, every
    # compared field; the random cases above stay at most 6x6
    layer = load_layer("alexnet", "conv5")
    for side in (8, 16):
        cfg = MeshConfig(rows=side, cols=side)
        for mode in ("ru", "gather"):
            replayed = run_convolution(layer, cfg, mode, replay=True)
            full = run_convolution(layer, cfg, mode, replay=False)
            for name in COMPARED:
                assert getattr(replayed, name) == getattr(full, name), (side, mode, name)
