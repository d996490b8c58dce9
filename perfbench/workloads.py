"""The benchmark's workloads, and the checks of their outputs.

Every workload is a closed loop with one caller: each operation (one
``mesh/model/layer/mode`` run) starts when the previous one has ended.  The
seed changes operand values only.  Simulated timing does not depend on
operand values, so every statistic and every written file must equal the
recorded reference for any seed.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from gathernoc import harness, systolic, workload
from gathernoc.config import MeshConfig
from gathernoc.errors import GatherNocError

from spans import op_key

MODES = ("ru", "gather")
MESH_SIDES = (8, 16)

WHY = {
    "grid": "The job users run: every AlexNet and VGG-16 layer on 8x8 and 16x16 "
            "in ru, gather and analytic mode at full scale, with result files.",
    "kernel": "Cycle kernel alone: replay off on a short operand stream, so nearly "
              "all host time is network stepping; differential check against replay.",
    "replay": "Replay path: 8x8 VGG-16 at full scale, about 89k rounds per mode of "
              "which 10 are simulated, so schedule, fold and oracle dominate.",
}

# Input vectors per layer in the quick self-check.  Every layer still has at
# least four rounds, so replay, the differential and the reference checks
# all run; two active rows keep the "auto" full oracle cheap.
QUICK_VECTORS = 2

# kernel: alexnet/conv1 streams only C*R*R = 3*11*11 = 363 operands per PE,
# so the "auto" oracle checks every PE while costing little.  Full scale
# simulates 8 rounds at 8x8 and 4 at 16x16, every one of them cycle by cycle,
# about 2.5 s per repetition on a 2.1 GHz Xeon.
KERNEL_LAYER = ("alexnet", "conv1")
KERNEL_VECTORS = {8: 8, 16: 16}
QUICK_KERNEL_VECTORS = {8: QUICK_VECTORS, 16: QUICK_VECTORS}

# fields the kernel's replay=False run must share with the replay=True run
DIFFERENTIAL_FIELDS = ("total_cycles", "per_round_collection", "packets", "flits",
                       "hops", "counter_totals")

_SCALAR_FIELDS = ("rounds", "total_cycles", "ideal_collection", "timeout_packets",
                  "packets", "flits", "hops", "payloads_delivered", "energy",
                  "improvement_pct")
_LIST_FIELDS = ("per_round_latency", "per_round_collection", "delta_measured",
                "head_latencies")


def signature(stats) -> dict:
    """Every simulated statistic of a run, long lists as length and digest."""
    sig = {f: getattr(stats, f) for f in _SCALAR_FIELDS}
    sig["counter_totals"] = dict(stats.counter_totals)
    for f in _LIST_FIELDS:
        values = getattr(stats, f)
        digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
        sig[f] = {"len": len(values), "sum": sum(values), "sha256": digest}
    return sig


def _mesh(side: int) -> MeshConfig:
    return MeshConfig(rows=side, cols=side)


class Workload:
    """One named workload at full or quick scale.  Unless a subclass says
    otherwise, its configs are (layer, mesh, mode) run_convolution calls."""

    name = ""
    replay = True

    def __init__(self, quick: bool) -> None:
        self.quick = quick
        self.scale = "quick" if quick else "full"
        self.expected_ops = self._expected_ops(workload.builtin_layer_db())

    @property
    def why(self) -> str:
        return WHY[self.name]

    def configs(self, db, seed: int, outdir: Path) -> list:
        """Build what one repetition runs from the layer database."""
        raise NotImplementedError

    def _expected_ops(self, db) -> list[str]:
        return [op_key(layer, mesh, mode)
                for layer, mesh, mode in self.configs(db, 0, Path())]

    def prepare(self, seed: int) -> None:
        """Untimed work done once per process before the repetitions."""

    def run(self, seed: int, outdir: Path) -> dict[str, dict]:
        """One repetition; returns signatures of operations the
        instrumentation does not see (analytic rows)."""
        for layer, mesh, mode in self.configs(workload.builtin_layer_db(), seed, outdir):
            try:
                systolic.run_convolution(layer, mesh, mode, seed=seed, replay=self.replay)
            except GatherNocError:
                pass
        return {}

    def failed_ops(self, ops, extra: dict[str, dict], outdir: Path,
                   reference: dict) -> set[str]:
        """Operations of one repetition that raised or whose outputs differ
        from the reference.  ``ops`` are the instrumentation's records."""
        got = {op.key: signature(op.stats) for op in ops}
        got.update(extra)
        ref = reference["ops"]
        return {key for key in self.expected_ops if got.get(key) != ref.get(key)}


class Grid(Workload):
    name = "grid"

    def configs(self, db, seed: int, outdir: Path) -> list:
        layers = [(l.model, l.layer) for m in ("alexnet", "vgg16")
                  for l in workload.model_layers(m, db)]
        return [harness.RunConfig(
            mesh=_mesh(side), layers=layers, modes=("ru", "gather", "analytic"),
            seed=seed, p_override=QUICK_VECTORS if self.quick else None,
            output=str(outdir / f"grid_{side}x{side}"),
        ) for side in MESH_SIDES]

    def _expected_ops(self, db) -> list[str]:
        return [f"{cfg.mesh.rows}x{cfg.mesh.cols}/{m}/{l}/{mode}"
                for cfg in self.configs(db, 0, Path()) for m, l in cfg.layers
                for mode in cfg.modes]

    @staticmethod
    def file_names() -> list[str]:
        return [f"grid_{s}x{s}{ext}" for s in MESH_SIDES for ext in (".csv", ".table.txt")]

    def run(self, seed: int, outdir: Path) -> dict[str, dict]:
        analytic = {}
        for cfg in self.configs(workload.builtin_layer_db(), seed, outdir):
            try:
                result = harness.run(cfg)
            except GatherNocError:
                continue
            for rec in result.records:
                if rec["mode"] == "analytic":
                    key = f"{rec['mesh']}/{rec['model']}/{rec['layer']}/analytic"
                    analytic[key] = {k: rec[k] for k in
                                     ("total_cycles", "collection_cycles", "improvement_pct")}
        return analytic

    def failed_ops(self, ops, extra, outdir, reference) -> set[str]:
        failed = super().failed_ops(ops, extra, outdir, reference)
        for name in self.file_names():
            path = outdir / name
            text = path.read_text() if path.exists() else None
            path.unlink(missing_ok=True)   # so the next repetition cannot pass on stale files
            if text != reference["files"][name]:
                mesh = name.split("_")[1].split(".")[0]
                failed.update(k for k in self.expected_ops if k.startswith(mesh + "/"))
        return failed


class Kernel(Workload):
    name = "kernel"
    replay = False

    def configs(self, db, seed: int, outdir: Path) -> list:
        layer = workload.load_layer(*KERNEL_LAYER, db)
        vectors = QUICK_KERNEL_VECTORS if self.quick else KERNEL_VECTORS
        return [(layer.with_vectors(vectors[side]), _mesh(side), mode)
                for side in MESH_SIDES for mode in MODES]

    def prepare(self, seed: int) -> None:
        """Run every operation once with replay on, as the differential
        reference for the replay-off repetitions."""
        self.replayed = {}
        for layer, mesh, mode in self.configs(workload.builtin_layer_db(), seed, Path()):
            try:
                self.replayed[op_key(layer, mesh, mode)] = systolic.run_convolution(
                    layer, mesh, mode, seed=seed, replay=True)
            except GatherNocError:
                pass

    def failed_ops(self, ops, extra, outdir, reference) -> set[str]:
        failed = super().failed_ops(ops, extra, outdir, reference)
        for op in ops:
            twin = self.replayed.get(op.key)
            if twin is None or any(getattr(op.stats, f) != getattr(twin, f)
                                   for f in DIFFERENTIAL_FIELDS):
                failed.add(op.key)
        return failed


class Replay(Workload):
    name = "replay"

    def configs(self, db, seed: int, outdir: Path) -> list:
        p = QUICK_VECTORS if self.quick else None
        return [(layer.with_vectors(p), _mesh(8), mode)
                for layer in workload.model_layers("vgg16", db) for mode in MODES]


WORKLOADS = {cls.name: cls for cls in (Grid, Kernel, Replay)}
