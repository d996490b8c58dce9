#!/usr/bin/env python3
"""Run the full experiment grid: every layer in the database on 8x8 and
16x16 meshes, both collection schemes plus the closed-form estimate, and
write per-mesh result files and comparison tables.

At full scale the identical-round replay, which simulates each round shape
once per mesh and mode, keeps this to about 1.4 seconds (2-vCPU Xeon,
Python 3.11); pass --p-override to truncate the per-layer input count for
a quick look.
"""
import argparse
import sys
from pathlib import Path

from gathernoc.config import MeshConfig
from gathernoc.harness import RunConfig, run
from gathernoc.workload import model_layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--p-override", type=int, default=None,
                        help="truncate each layer's input-vector count")
    parser.add_argument("--meshes", default="8x8,16x16")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    layers = [(l.model, l.layer) for m in ("alexnet", "vgg16") for l in model_layers(m)]

    for mesh_name in args.meshes.split(","):
        rows, cols = (int(x) for x in mesh_name.strip().split("x"))
        cfg = RunConfig(
            mesh=MeshConfig(rows=rows, cols=cols),
            layers=layers,
            modes=("ru", "gather", "analytic"),
            seed=args.seed,
            p_override=args.p_override,
            output=str(outdir / f"grid_{rows}x{cols}"),
            out_format=args.format,
        )
        result = run(cfg)
        sys.stdout.write(result.table_text + "\n")
        for path in result.files:
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
