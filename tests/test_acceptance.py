"""Acceptance suite: one test per criterion, each printing a PASS line.

Simulated runs use the default configuration with the per-layer input-vector
count truncated to 64; the grid fixture takes well under a second.
"""
from __future__ import annotations

import pytest

from gathernoc.analytic import AnalyticParams, improvement_pct
from gathernoc.config import MeshConfig
from gathernoc.harness import RunConfig, run, simulated_improvement_pct
from gathernoc.network import MeshNetwork
from gathernoc.packet import PacketType, build_packet
from gathernoc.power import energy_improvement
from gathernoc.systolic import FULL_ORACLE_WORK_LIMIT, run_convolution, run_ready_row
from gathernoc.topology import NodeId
from gathernoc.workload import LayerConfig, model_layers, round_count, stream_length

from scenario_utils import run_safety_scenario

SEED = 20240517
P_DESK = 64
ALL_LAYERS = [("alexnet", n) for n in ("conv1", "conv2", "conv3", "conv4", "conv5")] + \
             [("vgg16", n) for n in ("conv1", "conv2", "conv3", "conv4")]

GOLDEN_ESTIMATED = {"conv1": 2.92, "conv2": 0.73, "conv3": 0.68,
                    "conv4": 0.34, "conv5": 0.51}


def _report(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS - {detail}")


@pytest.fixture(scope="module")
def grid():
    """Simulated RU/gather stats for every layer at 8x8 and 16x16."""
    out = {}
    for size in (8, 16):
        mesh = MeshConfig(rows=size, cols=size)
        for model, name in ALL_LAYERS:
            layer = next(l for l in model_layers(model) if l.layer == name)
            for mode in ("ru", "gather"):
                out[(size, model, name, mode)] = run_convolution(
                    layer.with_vectors(P_DESK), mesh, mode, seed=SEED
                )
    return out


def _sim_imp(grid, size, model, name) -> float:
    ru = grid[(size, model, name, "ru")]
    g = grid[(size, model, name, "gather")]
    return simulated_improvement_pct(ru, g)


def _energy_imp(grid, size, model, name) -> float:
    ru = grid[(size, model, name, "ru")]
    g = grid[(size, model, name, "gather")]
    return energy_improvement(ru.energy, g.energy)


def test_criterion_1_golden_estimated_table():
    """Ideal-parameter improvements for AlexNet at 8x8, exact to 2 decimals."""
    mesh = MeshConfig(rows=8, cols=8)
    got = {}
    for layer in model_layers("alexnet"):
        got[layer.layer] = improvement_pct(AnalyticParams.for_run(mesh, layer))
    assert got == GOLDEN_ESTIMATED
    _report(1, f"estimated row {[got[k] for k in sorted(got)]} matches exactly")


def test_criterion_2_ready_row_hop_counts():
    """6x6 mesh, one ready row: 15 unicast hops vs 5 gather hops, exactly."""
    mesh = MeshConfig(rows=6, cols=6)
    ru = run_ready_row(mesh, 2, "ru")
    g = run_ready_row(mesh, 2, "gather")
    assert ru.hops == 15
    assert g.hops == 5
    _report(2, f"ru hops={ru.hops}, gather hops={g.hops}")


def test_criterion_3_simulated_within_estimated_bracket(grid):
    """AlexNet at 8x8: estimated <= simulated <= 3x estimated per layer."""
    mesh = MeshConfig(rows=8, cols=8)
    details = []
    for layer in model_layers("alexnet"):
        est = improvement_pct(AnalyticParams.for_run(mesh, layer))
        sim = _sim_imp(grid, 8, "alexnet", layer.layer)
        assert sim >= est, f"{layer.layer}: simulated {sim} < estimated {est}"
        assert sim <= 3 * est, f"{layer.layer}: simulated {sim} > 3x estimated {est}"
        details.append(f"{layer.layer} {sim:.2f} in [{est:.2f}, {3 * est:.2f}]")
    _report(3, "; ".join(details))


def test_criterion_4_mesh_scaling_trend(grid):
    """16x16 strictly beats 8x8 in latency and energy improvement, per layer."""
    for model, name in ALL_LAYERS:
        lat8 = _sim_imp(grid, 8, model, name)
        lat16 = _sim_imp(grid, 16, model, name)
        assert lat16 > lat8, f"{model}/{name}: latency {lat16} !> {lat8}"
        en8 = _energy_imp(grid, 8, model, name)
        en16 = _energy_imp(grid, 16, model, name)
        assert en16 > en8, f"{model}/{name}: energy {en16} !> {en8}"
    _report(4, f"all {len(ALL_LAYERS)} layers improve more at 16x16 "
               "(latency and energy)")


def test_criterion_5_conv1_dominates_alexnet(grid):
    """Conv1 shows the highest simulated improvement on both mesh sizes."""
    for size in (8, 16):
        imps = {name: _sim_imp(grid, size, "alexnet", name)
                for _, name in ALL_LAYERS if _ == "alexnet"}
        best = max(imps, key=imps.get)
        assert best == "conv1", f"{size}x{size}: {best} beat conv1 ({imps})"
        assert all(imps["conv1"] > v for k, v in imps.items() if k != "conv1")
    _report(5, "conv1 is the top improvement on 8x8 and 16x16")


@pytest.mark.parametrize("size", [4, 8])
@pytest.mark.parametrize("mode", ["ru", "gather"])
def test_criterion_6_functional_oracle(size, mode):
    """Every PE accumulator equals the reference dot product, all rounds,
    both modes, across 50 seeds (ragged final rounds included)."""
    mesh = MeshConfig(rows=size, cols=size)
    layer = LayerConfig(model="t", layer="t", in_channels=2, kernel_side=2,
                        kernels=mesh.cols, layer_side=1,
                        input_vectors=mesh.rows + 3)
    # within the work limit, so every PE of every round is checked
    work = round_count(layer, mesh) * mesh.rows * mesh.cols * stream_length(layer)
    assert work <= FULL_ORACLE_WORK_LIMIT
    for seed in range(50):
        stats = run_convolution(layer, mesh, mode, seed=seed)
        assert stats.payloads_delivered == layer.vectors * layer.kernels
    _report(6, f"{size}x{size}/{mode}: 50 seeds, full oracle check")


def test_criterion_7_protocol_safety_500_scenarios():
    """Payload/flit conservation, wormhole contiguity, capacity bound, and
    drain under randomized stall and timeout schedules on a 4x4 mesh."""
    for seed in range(500):
        run_safety_scenario(seed, rows=4, cols=4)
    _report(7, "500 randomized scenarios clean")


def test_criterion_8_byte_identical_reruns(tmp_path):
    """Identical RunConfig + seed produce byte-identical result files."""
    def once(tag):
        d = tmp_path / tag
        d.mkdir()
        cfg = RunConfig(
            mesh=MeshConfig(rows=4, cols=4),
            layers=[("alexnet", "conv1"), ("alexnet", "conv2")],
            modes=("ru", "gather", "analytic"),
            seed=SEED, p_override=8, output=str(d / "out"), out_format="json",
        )
        return run(cfg).files
    files_a = once("a")
    files_b = once("b")
    assert files_a and len(files_a) == len(files_b)
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes(), fa.name
    _report(8, f"{len(files_a)} files byte-identical across reruns")


@pytest.mark.parametrize("kappa", [3, 5])
def test_criterion_9_uncontended_head_latency(kappa):
    """A lone packet's head latency over h router traversals is h * depth."""
    mesh = MeshConfig(rows=2, cols=8, pipeline_depth=kappa)
    for hops in range(1, 8):
        net = MeshNetwork(mesh)
        flits = build_packet(PacketType.UNICAST, NodeId(0, 0), NodeId(0, hops - 1),
                             [(NodeId(0, 0), 1)], mesh, 0)
        net.schedule_injection(0, NodeId(0, 0), flits)
        net.run_until_idle(5000)
        net.assert_drained()
        pkt = net.delivered[0]
        assert pkt.head_arrival - pkt.inject_cycle == hops * kappa
    _report(9, f"h*kappa holds for h in 1..7 at kappa={kappa}")
