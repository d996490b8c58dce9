import pytest

from gathernoc.config import MeshConfig
from gathernoc.errors import ConfigError
from gathernoc.workload import (
    LayerConfig,
    load_layer,
    model_layers,
    parse_layer_db,
    round_count,
    stream_length,
)


class TestDatabase:
    def test_alexnet_conv1(self):
        layer = load_layer("alexnet", "conv1")
        assert (layer.in_channels, layer.kernels, layer.kernel_side) == (3, 64, 11)
        assert layer.layer_side == 55
        assert layer.vectors == 55 * 55

    def test_alexnet_conv5(self):
        layer = load_layer("alexnet", "conv5")
        assert (layer.in_channels, layer.kernels, layer.kernel_side) == (256, 256, 3)

    def test_vgg16_conv4(self):
        layer = load_layer("vgg16", "conv4")
        assert (layer.in_channels, layer.kernels, layer.kernel_side) == (512, 512, 3)
        assert layer.layer_side == 14

    def test_unknown_layer(self):
        with pytest.raises(ConfigError):
            load_layer("alexnet", "conv9")

    def test_model_listing(self):
        assert [l.layer for l in model_layers("alexnet")] == [
            "conv1", "conv2", "conv3", "conv4", "conv5"]
        assert [l.layer for l in model_layers("vgg16")] == [
            "conv1", "conv2", "conv3", "conv4"]

    def test_duplicate_entry_rejected(self):
        text = "m l 1 1 1 1\nm l 2 2 2 2\n"
        with pytest.raises(ConfigError):
            parse_layer_db(text)


class TestSizing:
    def test_conv1_stream_length(self):
        assert stream_length(load_layer("alexnet", "conv1")) == 3 * 11 * 11 == 363

    def test_conv4_stream_length(self):
        assert stream_length(load_layer("alexnet", "conv4")) == 384 * 9 == 3456

    def test_unit_stream(self):
        layer = LayerConfig(model="m", layer="l", in_channels=1, kernels=1,
                            kernel_side=1, layer_side=1)
        assert stream_length(layer) == 1

    def test_round_count_exact_division(self):
        layer = LayerConfig(model="m", layer="l", in_channels=1, kernels=64,
                            kernel_side=1, layer_side=8)
        assert round_count(layer, MeshConfig(rows=8, cols=8)) == 64

    def test_round_count_single(self):
        layer = LayerConfig(model="m", layer="l", in_channels=1, kernels=1,
                            kernel_side=1, layer_side=1)
        assert round_count(layer, MeshConfig(rows=8, cols=8)) == 1

    def test_round_count_ceilings(self):
        layer = LayerConfig(model="m", layer="l", in_channels=1, kernels=10,
                            kernel_side=1, layer_side=1, input_vectors=10)
        assert round_count(layer, MeshConfig(rows=8, cols=8)) == 4

    def test_vector_override(self):
        layer = load_layer("alexnet", "conv1").with_vectors(64)
        assert layer.vectors == 64
        assert load_layer("alexnet", "conv1").vectors == 3025
