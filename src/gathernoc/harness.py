"""Batch experiment driver: run configs, result files, comparison tables."""
from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .analytic import (AnalyticParams, gather_collection_cycles, improvement_pct,
                       latency_gather, pct_half_up)
from .config import MeshConfig, check_timeout_table
from .errors import ConfigError
from .power import EVENT_KINDS, EnergyCoefficients
from .stats import RunStats
from .systolic import check_payload_width, run_convolution
from .workload import builtin_layer_db, load_layer, model_layers, round_count, text_records

MODES = ("ru", "gather", "analytic")

CSV_COLUMNS = (
    "model", "layer", "mesh", "mode", "total_cycles", "collection_cycles",
    "hops", "flits", "energy", "improvement_pct",
)


@dataclass
class RunConfig:
    """One batch of experiments; identical configs and seeds give
    byte-identical outputs."""

    mesh: MeshConfig = field(default_factory=MeshConfig)
    layers: list[tuple[str, str]] = field(default_factory=lambda: [
        ("alexnet", l) for l in ("conv1", "conv2", "conv3", "conv4", "conv5")
    ])
    modes: tuple[str, ...] = ("ru", "gather", "analytic")
    seed: int = 12345
    p_override: int | None = None
    output: str | None = None
    out_format: str = "csv"
    event_log: bool = False
    timeout_table: dict[tuple[int, int], int] | None = None
    coefficients: EnergyCoefficients = field(default_factory=EnergyCoefficients)

    def __post_init__(self) -> None:
        if not self.modes:
            raise ConfigError("at least one mode is required")
        for m in self.modes:
            if m not in MODES:
                raise ConfigError(f"unknown mode {m!r}; choose from {MODES}")
        _check_unique("mode", self.modes)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.p_override is not None and self.p_override < 1:
            raise ConfigError(f"p_override must be >= 1, got {self.p_override}")
        if self.output is not None:
            result_path(self.output, "")  # rejects an empty stem or one naming a directory
        if self.out_format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if not self.layers:
            raise ConfigError("at least one layer is required")
        if self.event_log and not self.output:
            raise ConfigError("event_log needs output, the stem of the event files")
        check_timeout_table(self.mesh, self.timeout_table)
        # unknown names fail here; known ones take the database's spelling,
        # the one the run's result records carry
        db = builtin_layer_db()
        loaded = [load_layer(model, name, db) for model, name in self.layers]
        self.layers = [(l.model, l.layer) for l in loaded]
        _check_unique("layer", [f"{m}/{l}" for m, l in self.layers])
        if "ru" in self.modes or "gather" in self.modes:
            for layer in loaded:
                check_payload_width(self.mesh, layer)


def result_path(stem: str, suffix: str) -> Path:
    """The file ``<stem><suffix>``: the suffix is appended, so a dot in the
    stem stays (``exp.1`` gives ``exp.1.csv``).  An empty stem is a config
    error, and so is one whose last part is empty (it ends in a path
    separator), ``.`` or ``..``: it names a directory, not a file."""
    if not stem:
        raise ConfigError("output must not be empty: it is the stem of the result files")
    if os.path.basename(stem) in ("", ".", ".."):
        raise ConfigError(f"output {stem!r} names a directory: "
                          "it must be the stem of the result files")
    return Path(stem + suffix)


def _check_unique(what: str, names) -> None:
    """Reject a list that names one item twice: a run would repeat its rows
    in the result file and its column in the table."""
    seen = set()
    for name in names:
        if name in seen:
            raise ConfigError(f"{what} {name} is given twice")
        seen.add(name)


@dataclass
class RunResult:
    records: list[dict]
    stats: dict[tuple[str, str, str], RunStats]
    estimated: dict[tuple[str, str], float]
    table_text: str
    files: list[Path] = field(default_factory=list)


def simulated_improvement_pct(ru: RunStats, gather: RunStats) -> float:
    """(RU - G) / RU on total cycles, as a percentage rounded like the
    estimate's."""
    return pct_half_up(Fraction(ru.total_cycles - gather.total_cycles, ru.total_cycles))


def _record(**values) -> dict:
    """A result-file record: every CSV column, blank unless given."""
    return {**dict.fromkeys(CSV_COLUMNS, ""), **values}


def stats_record(st: RunStats) -> dict:
    """Result-file record of one simulated run; its improvement over the
    other mode is a record of its own."""
    return _record(**{col: getattr(st, col) for col in CSV_COLUMNS if col != "improvement_pct"})


def improvement_record(ru: RunStats, gather: RunStats) -> dict:
    """Result-file record of the simulated improvement of gather over ru."""
    return _record(model=ru.model, layer=ru.layer, mesh=ru.mesh, mode="improvement",
                   improvement_pct=simulated_improvement_pct(ru, gather))


def run(config: RunConfig) -> RunResult:
    if config.output:
        # the result and event files all go next to the output stem: fail
        # before the first layer is simulated, not after the last
        directory = Path(config.output).parent
        if not directory.is_dir():
            raise FileNotFoundError(errno.ENOENT, f"output directory {directory} does not exist",
                                    config.output)
    db = builtin_layer_db()
    records: list[dict] = []
    stats: dict[tuple[str, str, str], RunStats] = {}
    estimated: dict[tuple[str, str], float] = {}
    mesh = config.mesh
    # each event file's lines, written with the result files once every
    # layer has run, so that a run that fails writes no file
    event_logs: dict[Path, list[str]] = {}
    # round-class and row-network measurements, the classes' whole-mesh event
    # lines and oracle verdicts, shared by the run's calls
    shared: dict = {}

    for model, layer_name in config.layers:
        layer = load_layer(model, layer_name, db)
        if config.p_override is not None:  # truncates, never inflates
            layer = layer.with_vectors(min(config.p_override, layer.vectors))
        for mode in config.modes:
            if mode == "analytic":
                params = AnalyticParams.for_run(mesh, layer)
                est = estimated[(model, layer_name)] = improvement_pct(params)
                records.append(_record(
                    model=model, layer=layer_name, mesh=f"{mesh.rows}x{mesh.cols}",
                    mode="analytic", total_cycles=latency_gather(params),
                    collection_cycles=gather_collection_cycles(mesh) * round_count(layer, mesh),
                    improvement_pct=est))
                continue
            event_lines = None
            if config.event_log:
                path = result_path(config.output, f".{model}.{layer_name}.{mode}.events.txt")
                event_lines = event_logs[path] = []
            st = run_convolution(
                layer, mesh, mode, seed=config.seed,
                timeout_table=config.timeout_table,
                coefficients=config.coefficients,
                event_log=event_lines, shared=shared,
            )
            stats[(model, layer_name, mode)] = st
            records.append(stats_record(st))
        if "ru" in config.modes and "gather" in config.modes:
            ru = stats[(model, layer_name, "ru")]
            g = stats[(model, layer_name, "gather")]
            rec = improvement_record(ru, g)
            ru.improvement_pct = g.improvement_pct = rec["improvement_pct"]
            records.append(rec)

    table = comparison_table(config, stats, estimated)
    result = RunResult(records=records, stats=stats, estimated=estimated, table_text=table)
    if config.output:
        for path, lines in event_logs.items():
            path.write_text("\n".join(lines) + ("\n" if lines else ""))
        result.files = list(event_logs) + emit_results(result, config)
    return result


def improvement_table(title: str, corner: str, names: list[str], width: int,
                      rows: dict[str, list[float | None]]) -> str:
    """``title``, then a header of ``corner`` and ``names``, then one line
    per ``rows`` label with its values to two decimals, ``-`` for a missing
    one; every name and value is right-aligned in ``width`` columns."""
    out = [title, corner.ljust(12) + "".join(n.rjust(width) for n in names)]
    out += [label.ljust(12) + "".join(("-" if v is None else f"{v:.2f}").rjust(width)
                                      for v in values)
            for label, values in rows.items()]
    return "\n".join(out) + "\n"


def comparison_table(config: RunConfig, stats, estimated) -> str:
    """Estimated vs simulated improvement, one column per layer."""
    names = [f"{m}/{l}" for m, l in config.layers]
    rows = {}
    if estimated:
        rows["estimated"] = [estimated.get(key) for key in config.layers]
    if "ru" in config.modes and "gather" in config.modes:
        rows["simulated"] = [st.improvement_pct if (st := stats.get((*key, "ru"))) else None
                             for key in config.layers]
    return improvement_table("Improvement over repetitive unicast (%), "
                             f"{config.mesh.rows}x{config.mesh.cols} mesh", "layer", names,
                             max([12] + [len(n) + 2 for n in names]), rows)


def _csv_cell(value) -> str:
    if value == "" or value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}".rstrip("0").rstrip(".") if value != int(value) else str(int(value))
    return str(value)


def emit_csv(records: list[dict], path: Path) -> None:
    with io.StringIO(newline="") as buf:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([_csv_cell(rec[col]) for col in CSV_COLUMNS])
        path.write_text(buf.getvalue())


def emit_json(records: list[dict], stats, path: Path) -> None:
    payload = []
    for rec in records:
        entry = dict(rec)
        key = (rec["model"], rec["layer"], rec["mode"])
        st = stats.get(key)
        if st is not None:
            entry.update({
                "rounds": st.rounds,
                "packets": st.packets,
                "timeout_packets": st.timeout_packets,
                "per_round_collection": st.per_round_collection,
                "delta_measured": st.delta_measured,
                "counters": st.counter_totals,
            })
        payload.append(entry)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def emit_results(result: RunResult, config: RunConfig) -> list[Path]:
    path = result_path(config.output, f".{config.out_format}")
    if config.out_format == "csv":
        emit_csv(result.records, path)
    else:
        emit_json(result.records, result.stats, path)
    table_path = result_path(config.output, ".table.txt")
    table_path.write_text(result.table_text)
    return [path, table_path]


# ------------------------------------------------------------- config files

_MESH_KEYS = {
    "mesh_rows": ("rows", int),
    "mesh_cols": ("cols", int),
    "virtual_channels": ("vc_count", int),
    "buffer_depth": ("buffer_depth", int),
    "flit_bits": ("flit_width", int),
    "unicast_flits": ("unicast_len", int),
    "gather_flits": ("gather_len", int),
    "pipeline_stages": ("pipeline_depth", int),
    "gather_timeout": ("gather_timeout", int),
    "gather_payload_bits": ("gather_payload_bits", int),
    "gather_capacity": ("gather_capacity", int),
    "mac_cycles": ("mac_latency", int),
    "buffer_commit_rate": ("buffer_commit_rate", int),
}


def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    first: dict[str, int] = {}   # the line each key is given on
    for lineno, line in text_records(text):
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        key = key.lower()
        if (seen := first.setdefault(key, lineno)) != lineno:
            raise ConfigError(f"config line {lineno}: duplicate key {key}, "
                              f"first given on line {seen}")
        out[key] = value
    return out


def parse_timeout_table(text: str) -> dict[tuple[int, int], int]:
    table: dict[tuple[int, int], int] = {}
    first: dict[tuple[int, int], int] = {}   # the line each entry is given on
    for lineno, line in text_records(text):
        parts = line.split()
        if len(parts) != 3:
            raise ConfigError(f"timeout table line {lineno}: expected 'row col cycles'")
        r, c, v = (_cast(int, x, f"timeout table line {lineno}") for x in parts)
        if (seen := first.setdefault((r, c), lineno)) != lineno:
            raise ConfigError(f"timeout table line {lineno}: duplicate entry ({r}, {c}), "
                              f"first given on line {seen}")
        table[(r, c)] = v
    return table


def _cast(cast, value: str, what: str):
    """``cast(value)``, with a malformed value reported as a config error."""
    try:
        return cast(value)
    except ValueError:
        raise ConfigError(f"{what}: expected {cast.__name__}, got {value!r}") from None


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def parse_mesh(text: str) -> tuple[int, int]:
    """``(rows, cols)`` of a mesh size written ``8x8``."""
    try:
        rows, cols = (int(x) for x in text.lower().split("x"))
        return rows, cols
    except ValueError:
        raise ConfigError(f"mesh must look like 8x8, got {text!r}") from None


def parse_modes(value: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in value.split(",") if m.strip())


def parse_layers(model: str, value: str) -> list[tuple[str, str]]:
    """``(model, layer)`` pairs of a comma list of layer names, or of every
    layer of ``model`` for ``all``; ``RunConfig`` checks the names."""
    if value.strip().lower() == "all":
        return [(l.model, l.layer) for l in model_layers(model)]
    return [(model, name.strip()) for name in value.split(",") if name.strip()]


def run_config_from_kv(kv: dict[str, str], base_dir: Path | None = None) -> RunConfig:
    mesh_kwargs = {}
    coeff_kwargs = {}
    cfg_kwargs: dict = {}
    model = kv.get("model", "alexnet")
    for key, value in kv.items():
        if key in _MESH_KEYS:
            field_name, cast = _MESH_KEYS[key]
            if key == "gather_capacity" and value.lower() == "auto":
                continue
            mesh_kwargs[field_name] = _cast(cast, value, key)
        elif key.startswith("energy_"):
            kind = key[len("energy_"):]
            if kind not in EVENT_KINDS:
                raise ConfigError(f"unknown energy coefficient {key}")
            coeff = coeff_kwargs[kind] = _cast(float, value, key)
            if not (math.isfinite(coeff) and coeff >= 0):
                raise ConfigError(f"{key}: energy coefficients must be finite and "
                                  f"non-negative, got {value}")
        elif key == "seed":
            cfg_kwargs["seed"] = _cast(int, value, key)
        elif key == "p_override":
            cfg_kwargs["p_override"] = (None if value.lower() in ("none", "full")
                                        else _cast(int, value, key))
        elif key == "output":
            cfg_kwargs["output"] = value
        elif key == "format":
            cfg_kwargs["out_format"] = value.lower()
        elif key == "event_log":
            cfg_kwargs["event_log"] = _parse_bool(value)
        elif key == "modes":
            cfg_kwargs["modes"] = parse_modes(value)
        elif key == "model":
            pass
        elif key == "layers":
            pass
        elif key == "timeout_table":
            path = Path(value)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            cfg_kwargs["timeout_table"] = parse_timeout_table(path.read_text())
        else:
            raise ConfigError(f"unknown config key {key!r}")
    cfg_kwargs["layers"] = parse_layers(model, kv.get("layers", "all"))
    if coeff_kwargs:
        cfg_kwargs["coefficients"] = EnergyCoefficients(**coeff_kwargs)
    cfg_kwargs["mesh"] = MeshConfig(**mesh_kwargs)
    return RunConfig(**cfg_kwargs)
