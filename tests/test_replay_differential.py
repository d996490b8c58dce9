"""Replay must be exact: folding repeated round classes arithmetically gives
the same statistics as simulating every round cycle by cycle."""
from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from gathernoc.config import MeshConfig
from gathernoc.systolic import run_convolution
from gathernoc.workload import LayerConfig

FIELDS = ("total_cycles", "per_round_collection", "packets", "flits", "hops",
          "counter_totals")


@st.composite
def cases(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cfg = MeshConfig(
        rows=rows, cols=cols,
        vc_count=draw(st.integers(1, 4)),
        buffer_depth=draw(st.integers(1, 4)),
        pipeline_depth=draw(st.integers(1, 6)),
        gather_timeout=draw(st.integers(0, 8)),
        buffer_commit_rate=draw(st.integers(1, 3)),
    )
    # several rounds per shape class, ragged final blocks included
    layer = LayerConfig("fuzz", "conv", in_channels=draw(st.integers(1, 4)),
                        kernels=draw(st.integers(1, 3 * cols)), kernel_side=1,
                        layer_side=1, input_vectors=draw(st.integers(1, 4 * rows)))
    return cfg, layer, draw(st.sampled_from(("ru", "gather")))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_replay_matches_full_simulation(case):
    cfg, layer, mode = case
    replayed = run_convolution(layer, cfg, mode, seed=5, replay=True)
    full = run_convolution(layer, cfg, mode, seed=5, replay=False)
    for field in FIELDS:
        assert getattr(replayed, field) == getattr(full, field), field
