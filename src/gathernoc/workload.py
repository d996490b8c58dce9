"""Convolution layer database and workload sizing helpers."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources

from .config import MeshConfig
from .errors import ConfigError


@dataclass(frozen=True)
class LayerConfig:
    """Shape of one convolution layer.

    ``input_vectors`` is the number of im2col input vectors (output-pixel
    positions) streamed through the array; it defaults to the squared output
    side and can be truncated for desk-scale runs.
    """

    model: str
    layer: str
    in_channels: int      # C
    kernels: int          # number of filters streamed across columns
    kernel_side: int      # R
    layer_side: int       # output feature-map side H
    input_vectors: int | None = None

    def __post_init__(self) -> None:
        for name in ("in_channels", "kernels", "kernel_side", "layer_side"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.input_vectors is not None and self.input_vectors < 1:
            raise ConfigError("input_vectors must be positive")

    @property
    def vectors(self) -> int:
        return self.input_vectors if self.input_vectors is not None else self.layer_side ** 2

    def with_vectors(self, p: int | None) -> "LayerConfig":
        return self if p is None else replace(self, input_vectors=p)


def stream_length(layer: LayerConfig) -> int:
    """Operands each PE consumes per round: channels x kernel area."""
    return layer.in_channels * layer.kernel_side * layer.kernel_side


def round_count(layer: LayerConfig, config: MeshConfig) -> int:
    """Rounds needed to cover all input vectors and kernels on the mesh."""
    return math.ceil(layer.vectors / config.rows) * math.ceil(layer.kernels / config.cols)


def text_records(text: str):
    """``(line number, line)`` of every line of a record file that holds
    more than a ``#`` comment, stripped of the comment and outer blanks."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_layer_db(text: str) -> dict[tuple[str, str], LayerConfig]:
    db: dict[tuple[str, str], LayerConfig] = {}
    for lineno, line in text_records(text):
        parts = line.split()
        if len(parts) != 6:
            raise ConfigError(f"layer db line {lineno}: expected 6 fields, got {len(parts)}")
        model, layer = parts[0], parts[1]
        try:
            c, q, r, h = (int(x) for x in parts[2:])
        except ValueError as exc:
            raise ConfigError(f"layer db line {lineno}: {exc}") from exc
        key = (model, layer)
        if key in db:
            raise ConfigError(f"layer db line {lineno}: duplicate entry {key}")
        db[key] = LayerConfig(model=model, layer=layer, in_channels=c,
                              kernels=q, kernel_side=r, layer_side=h)
    return db


def builtin_layer_db() -> dict[tuple[str, str], LayerConfig]:
    text = resources.files("gathernoc").joinpath("data/layers.txt").read_text()
    return parse_layer_db(text)


def load_layer(model: str, layer: str,
               db: dict[tuple[str, str], LayerConfig] | None = None) -> LayerConfig:
    db = db if db is not None else builtin_layer_db()
    try:
        return db[(model.lower(), layer.lower())]
    except KeyError:
        known = ", ".join(f"{m}/{l}" for m, l in sorted(db))
        raise ConfigError(f"unknown layer {model}/{layer}; known: {known}") from None


def model_layers(model: str,
                 db: dict[tuple[str, str], LayerConfig] | None = None) -> list[LayerConfig]:
    db = db if db is not None else builtin_layer_db()
    out = [cfg for (m, _), cfg in sorted(db.items()) if m == model.lower()]
    if not out:
        raise ConfigError(f"unknown model {model}")
    return out
