import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from gathernoc.analytic import (
    AnalyticParams,
    gather_collection_cycles,
    improvement,
    improvement_pct,
    latency_gather,
    latency_ru,
    ru_collection_cycles,
)
from gathernoc.config import MeshConfig
from gathernoc.errors import ConfigError
from gathernoc.harness import RunConfig, run
from gathernoc.systolic import CollectionMode, ideal_collection_cycles
from gathernoc.workload import LayerConfig, model_layers, round_count

# AlexNet convolution shapes and the expected ideal improvements at 8x8.
GOLDEN_8X8 = {
    "conv1": 2.92,
    "conv2": 0.73,
    "conv3": 0.68,
    "conv4": 0.34,
    "conv5": 0.51,
}

# the analytic record of every AlexNet and VGG-16 layer at full scale, keyed
# "mesh/model/layer", and the ideal collection term of each mesh and mode
GOLDEN = json.loads((Path(__file__).parent / "data" / "analytic_golden.json").read_text())


def _layer(c=3, r=11, q=8, p=8):
    return LayerConfig(model="t", layer="t", in_channels=c, kernels=q, kernel_side=r,
                       layer_side=1, input_vectors=p)


def _params(mesh=None, **kw):
    return AnalyticParams.for_run(mesh or MeshConfig(), _layer(**kw))


class TestCollectionTerms:
    def test_ru_bracket_conv1_shape(self):
        assert ru_collection_cycles(MeshConfig()) == 8 * (5 + 2) - 1 == 55

    def test_gather_bracket_single_packet(self):
        assert gather_collection_cycles(MeshConfig()) == 8 * 5 + 4 - 1 == 43

    def test_gather_ignores_payload_capacity(self):
        # one packet per row even where the capacity (9 at 16x16) splits a row
        mesh = MeshConfig(rows=16, cols=16)
        assert mesh.resolved_gather_capacity() == 9
        assert gather_collection_cycles(mesh) == 16 * 5 + 4 - 1 == 83

    def test_ru_latency_conv1_single_round(self):
        assert latency_ru(_params()) == 363 + 5 + 55 == 423

    def test_collection_on_single_column(self):
        # one column: one packet's head path plus its flits
        mesh = MeshConfig(rows=8, cols=1)
        assert ru_collection_cycles(mesh) == 5 + 2 - 1
        assert gather_collection_cycles(mesh) == 5 + 4 - 1

    def test_doubling_rounds_doubles_latency(self):
        one = _params(p=8, q=8)
        two = _params(p=16, q=8)
        assert latency_ru(two) == 2 * latency_ru(one)
        assert latency_gather(two) == 2 * latency_gather(one)

    def test_simulator_ideal_is_the_closed_form(self):
        for side in (1, 3, 8, 16):
            mesh = MeshConfig(rows=side, cols=side, pipeline_depth=3, unicast_len=3)
            assert ideal_collection_cycles(mesh, CollectionMode.RU) == ru_collection_cycles(mesh)
            assert (ideal_collection_cycles(mesh, CollectionMode.GATHER)
                    == gather_collection_cycles(mesh))


class TestImprovement:
    def test_golden_alexnet_8x8(self):
        cfg = MeshConfig()
        table = {l.layer: improvement_pct(AnalyticParams.for_run(cfg, l))
                 for l in model_layers("alexnet")}
        assert table == GOLDEN_8X8

    def test_golden_values_are_two_decimal_half_up(self):
        # conv1: 12/411 = 2.9197..% rounds up to 2.92
        p = _params()
        assert improvement(p) == Fraction(12, 411)
        assert improvement_pct(p) == 2.92

    def test_identical_schemes_no_improvement(self):
        # equal packet lengths on one column: the two drains coincide
        mesh = MeshConfig(rows=8, cols=1, unicast_len=4, gather_len=4)
        assert improvement(_params(mesh, q=1)) == 0

    def test_monotone_decreasing_in_stream_length(self):
        cfg = MeshConfig()
        layers = sorted(model_layers("alexnet"),
                        key=lambda l: l.in_channels * l.kernel_side ** 2)
        imps = [improvement(AnalyticParams.for_run(cfg, l)) for l in layers]
        assert imps == sorted(imps, reverse=True)
        assert imps[0] > imps[-1]

    def test_larger_mesh_improves_every_layer(self):
        small = MeshConfig(rows=8, cols=8)
        large = MeshConfig(rows=16, cols=16)
        for model in ("alexnet", "vgg16"):
            for layer in model_layers(model):
                a = improvement(AnalyticParams.for_run(small, layer))
                b = improvement(AnalyticParams.for_run(large, layer))
                assert b > a, layer.layer

    def test_gather_never_slower_over_experiment_grid(self):
        for rows in (4, 8, 16):
            for layer_model in ("alexnet", "vgg16"):
                for layer in model_layers(layer_model):
                    cfg = MeshConfig(rows=rows, cols=rows)
                    p = AnalyticParams.for_run(cfg, layer)
                    assert latency_gather(p) <= latency_ru(p)


class TestRoundFactor:
    def test_ceiling_round_factor(self):
        p = _params(p=10, q=10)
        assert round_count(p.layer, p.mesh) == math.ceil(10 / 8) * math.ceil(10 / 8) == 4
        assert latency_ru(p) == 4 * latency_ru(_params())

    def test_rounds_cancel_in_improvement(self):
        one = _params(p=8, q=8)
        many = _params(p=64, q=64)
        assert improvement(one) == improvement(many)


def test_params_are_the_simulator_configs():
    assert [f.name for f in dataclasses.fields(AnalyticParams)] == ["mesh", "layer"]
    mesh, layer = MeshConfig(rows=4, cols=6), _layer()
    assert AnalyticParams.for_run(mesh, layer) == AnalyticParams(mesh=mesh, layer=layer)


def test_param_validation():
    # the checks are the configs' own: a mesh the simulator rejects has no estimate
    with pytest.raises(ConfigError):
        MeshConfig(rows=0)
    with pytest.raises(ConfigError):
        MeshConfig(pipeline_depth=0)
    with pytest.raises(ConfigError):
        MeshConfig(unicast_len=1)
    with pytest.raises(ConfigError):
        _layer(p=0)


@pytest.mark.parametrize("side", [8, 16])
def test_analytic_records_match_golden(side):
    mesh = MeshConfig(rows=side, cols=side)
    layers = [(l.model, l.layer) for m in ("alexnet", "vgg16") for l in model_layers(m)]
    result = run(RunConfig(mesh=mesh, layers=layers, modes=("analytic",)))
    got = {f"{side}x{side}/{r['model']}/{r['layer']}":
           {k: r[k] for k in ("total_cycles", "collection_cycles", "improvement_pct")}
           for r in result.records}
    assert got == {k: v for k, v in GOLDEN["analytic"].items() if k.startswith(f"{side}x{side}/")}
    ideal = {m.value: ideal_collection_cycles(mesh, m) for m in CollectionMode}
    assert ideal == GOLDEN["ideal_collection"][f"{side}x{side}"]
