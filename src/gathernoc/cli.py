"""Command-line entry points.

Subcommands:
  run     execute a batch run config (file + flag overrides)
  table2  estimated vs simulated improvement table for one model
  fig1    hop-count demo: one ready row drained by both schemes
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import MeshConfig
from .errors import ConfigError, GatherNocError, SimulationError
from .harness import (
    RunConfig,
    emit_csv,
    improvement_record,
    improvement_table,
    parse_kv_text,
    parse_layers,
    parse_mesh,
    result_path,
    run,
    run_config_from_kv,
    stats_record,
)
from .systolic import run_ready_row

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_IO = 4


def _flag_settings(args: argparse.Namespace) -> dict[str, str]:
    """The ``run`` flags given, as the config-file settings they override.
    A flag given an empty value is passed on as it is, so the validation
    of the merged config rejects it rather than the run ignoring it."""
    kv: dict[str, str] = {}
    if args.mesh is not None:
        rows, cols = parse_mesh(args.mesh)
        kv["mesh_rows"], kv["mesh_cols"] = str(rows), str(cols)
    if args.model is not None:
        # --model alone selects all of that model's layers; --layers alone
        # names layers of the config's model
        kv["model"], kv["layers"] = args.model, "all" if args.layers is None else args.layers
    elif args.layers is not None:
        kv["layers"] = args.layers
    for key in ("modes", "seed", "p_override", "output", "format"):
        if (value := getattr(args, key)) is not None:
            kv[key] = value
    if args.event_log:
        kv["event_log"] = "true"
    return kv


def cmd_run(args: argparse.Namespace) -> int:
    # the flags apply before the one validation of the merged config, so a
    # file may be valid only with a flag's value (a timeout table of the
    # --mesh, an event_log with the --output)
    kv, base_dir = {}, None
    if args.config:
        path = Path(args.config)
        kv, base_dir = parse_kv_text(path.read_text()), path.parent
    cfg = run_config_from_kv({**kv, **_flag_settings(args)}, base_dir=base_dir)
    result = run(cfg)
    sys.stdout.write(result.table_text)
    for path in result.files:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_table2(args: argparse.Namespace) -> int:
    rows, cols = parse_mesh(args.mesh)
    cfg = RunConfig(mesh=MeshConfig(rows=rows, cols=cols), layers=parse_layers(args.model, "all"),
                    modes=("ru", "gather", "analytic") if args.simulate else ("analytic",),
                    seed=args.seed, p_override=args.p_override)
    result = run(cfg)
    table = {"estimated": [result.estimated[key] for key in cfg.layers]}
    if args.simulate:
        table["simulated"] = [result.stats[(*key, "ru")].improvement_pct for key in cfg.layers]
    names = [name for _, name in cfg.layers]
    sys.stdout.write(improvement_table(
        f"{args.model} improvement over repetitive unicast (%), {rows}x{cols} mesh",
        "result", names, max(len(n) for n in names) + 4, table))
    return EXIT_OK


def cmd_fig1(args: argparse.Namespace) -> int:
    mesh = MeshConfig(rows=args.size, cols=args.size)
    path = result_path(args.output, ".csv") if args.output is not None else None
    row = args.row if args.row is not None else max(0, args.size // 2 - 1)
    ru = run_ready_row(mesh, row, "ru")
    g = run_ready_row(mesh, row, "gather")
    print(f"{args.size}x{args.size} mesh, row {row} ready, drained to the right-edge buffer")
    print(f"{'scheme':<20}{'packets':>8}{'flits':>8}{'hops':>8}{'cycles':>8}{'energy':>10}")
    print(f"{'repetitive unicast':<20}{ru.packets:>8}{ru.flits:>8}{ru.hops:>8}"
          f"{ru.total_cycles:>8}{ru.energy:>10.1f}")
    print(f"{'gather':<20}{g.packets:>8}{g.flits:>8}{g.hops:>8}"
          f"{g.total_cycles:>8}{g.energy:>10.1f}")
    if path is not None:
        emit_csv([stats_record(ru), stats_record(g), improvement_record(ru, g)], path)
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gathernoc",
        description="Mesh NoC simulator comparing gather-packet result "
                    "collection against repetitive unicast",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a batch run config")
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument("--mesh", help="mesh size, e.g. 8x8")
    p_run.add_argument("--model", help="model name from the layer database")
    p_run.add_argument("--layers", help="comma list of layer names, or 'all'")
    p_run.add_argument("--modes", help="comma subset of ru,gather,analytic")
    p_run.add_argument("--seed")
    p_run.add_argument("--p-override", dest="p_override",
                       help="truncate the per-layer input-vector count")
    p_run.add_argument("--output", help="output path stem for result files")
    p_run.add_argument("--format", choices=("csv", "json"))
    p_run.add_argument("--event-log", action="store_true", dest="event_log")
    p_run.set_defaults(func=cmd_run)

    p_t2 = sub.add_parser("table2", help="estimated vs simulated improvement table")
    p_t2.add_argument("--model", default="alexnet")
    p_t2.add_argument("--mesh", default="8x8")
    p_t2.add_argument("--simulate", action="store_true")
    p_t2.add_argument("--seed", type=int, default=12345)
    p_t2.add_argument("--p-override", type=int, dest="p_override", default=64)
    p_t2.set_defaults(func=cmd_table2)

    p_f1 = sub.add_parser("fig1", help="one-ready-row hop-count demo")
    p_f1.add_argument("--size", type=int, default=6)
    p_f1.add_argument("--row", type=int, default=None)
    p_f1.add_argument("--output", help="also write the rows as CSV")
    p_f1.set_defaults(func=cmd_fig1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"simulation invariant violated: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GatherNocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    raise SystemExit(main())
