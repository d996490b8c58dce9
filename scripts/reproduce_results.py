#!/usr/bin/env python3
"""Run the full experiment grid: every layer in the database on 8x8 and
16x16 meshes, both collection schemes plus the closed-form estimate, and
write per-mesh result files and comparison tables.

At full scale the identical-round replay, which simulates each distinct
row network once per mesh and mode and merges it into every round shape
at the buffer's commit port, and one oracle check of each layer per mesh
keep this well under a second (README states the measured time); pass
--p-override to truncate the per-layer input count for a quick look.
"""
import argparse
import sys
from pathlib import Path

from gathernoc.config import MeshConfig
from gathernoc.errors import ConfigError
from gathernoc.harness import RunConfig, parse_mesh, run
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
    layers = [(l.model, l.layer) for m in ("alexnet", "vgg16") for l in model_layers(m)]
    # every config is checked before anything runs or is written
    try:
        configs = [
            RunConfig(
                mesh=MeshConfig(rows=rows, cols=cols),
                layers=layers,
                modes=("ru", "gather", "analytic"),
                seed=args.seed,
                p_override=args.p_override,
                output=str(outdir / f"grid_{rows}x{cols}"),
                out_format=args.format,
            )
            for rows, cols in map(parse_mesh, args.meshes.split(","))
        ]
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    outdir.mkdir(parents=True, exist_ok=True)
    for cfg in configs:
        result = run(cfg)
        sys.stdout.write(result.table_text + "\n")
        for path in result.files:
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
