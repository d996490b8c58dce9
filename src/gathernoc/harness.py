"""Batch experiment driver: run configs, result files, comparison tables."""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields as dc_fields
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .analytic import AnalyticParams, gather_collection_cycles, improvement_pct, latency_gather
from .config import MeshConfig
from .errors import ConfigError
from .power import EVENT_KINDS, EnergyCoefficients
from .stats import RunStats
from .systolic import check_payload_width, run_convolution
from .workload import builtin_layer_db, load_layer, model_layers, round_count

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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.out_format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if not self.layers:
            raise ConfigError("at least one layer is required")
        rows, cols = self.mesh.rows, self.mesh.cols
        for r, c in self.timeout_table or ():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ConfigError(f"timeout table entry ({r}, {c}) is outside the "
                                  f"{rows}x{cols} mesh")
        # unknown names fail here; known ones take the database's spelling,
        # the one the run's result records carry
        db = builtin_layer_db()
        loaded = [load_layer(model, name, db) for model, name in self.layers]
        self.layers = [(l.model, l.layer) for l in loaded]
        if "ru" in self.modes or "gather" in self.modes:
            for layer in loaded:
                check_payload_width(self.mesh, layer)


@dataclass
class RunResult:
    records: list[dict]
    stats: dict[tuple[str, str, str], RunStats]
    estimated: dict[tuple[str, str], float]
    table_text: str
    files: list[Path] = field(default_factory=list)


def _pct(value: float) -> float:
    return float(Decimal(value).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def simulated_improvement_pct(ru: RunStats, gather: RunStats) -> float:
    """(RU - G) / RU on total cycles, as a percentage."""
    return _pct(100.0 * (ru.total_cycles - gather.total_cycles) / ru.total_cycles)


def stats_record(st: RunStats) -> dict:
    """Result-file record of one simulated run."""
    return {
        "model": st.model, "layer": st.layer, "mesh": st.mesh, "mode": st.mode,
        "total_cycles": st.total_cycles, "collection_cycles": st.collection_cycles,
        "hops": st.hops, "flits": st.flits, "energy": st.energy, "improvement_pct": "",
    }


def improvement_record(ru: RunStats, gather: RunStats) -> dict:
    """Result-file record of the simulated improvement of gather over ru."""
    return {
        "model": ru.model, "layer": ru.layer, "mesh": ru.mesh,
        "mode": "improvement", "total_cycles": "", "collection_cycles": "",
        "hops": "", "flits": "", "energy": "",
        "improvement_pct": simulated_improvement_pct(ru, gather),
    }


def run(config: RunConfig) -> RunResult:
    db = builtin_layer_db()
    records: list[dict] = []
    stats: dict[tuple[str, str, str], RunStats] = {}
    estimated: dict[tuple[str, str], float] = {}
    mesh = config.mesh
    event_files: list[Path] = []
    classes: dict = {}  # round-class measurements, shared by the run's layers

    for model, layer_name in config.layers:
        layer = load_layer(model, layer_name, db).with_vectors(config.p_override)
        for mode in config.modes:
            if mode == "analytic":
                params = AnalyticParams.for_run(mesh, layer)
                est = estimated[(model, layer_name)] = improvement_pct(params)
                records.append({
                    "model": model, "layer": layer_name, "mesh": f"{mesh.rows}x{mesh.cols}",
                    "mode": "analytic",
                    "total_cycles": latency_gather(params),
                    "collection_cycles": gather_collection_cycles(mesh) * round_count(layer, mesh),
                    "hops": "", "flits": "", "energy": "",
                    "improvement_pct": est,
                })
                continue
            event_lines: list[str] | None = [] if config.event_log else None
            st = run_convolution(
                layer, mesh, mode, seed=config.seed,
                timeout_table=config.timeout_table,
                coefficients=config.coefficients,
                event_log=event_lines, classes=classes,
            )
            stats[(model, layer_name, mode)] = st
            records.append(stats_record(st))
            if event_lines is not None and config.output:
                path = Path(f"{config.output}.{model}.{layer_name}.{mode}.events.txt")
                path.write_text("\n".join(event_lines) + ("\n" if event_lines else ""))
                event_files.append(path)
        if "ru" in config.modes and "gather" in config.modes:
            ru = stats[(model, layer_name, "ru")]
            g = stats[(model, layer_name, "gather")]
            rec = improvement_record(ru, g)
            ru.improvement_pct = g.improvement_pct = rec["improvement_pct"]
            records.append(rec)

    table = comparison_table(config, stats, estimated)
    result = RunResult(records=records, stats=stats, estimated=estimated, table_text=table)
    if config.output:
        result.files = event_files + emit_results(result, config)
    return result


def comparison_table(config: RunConfig, stats, estimated) -> str:
    """Estimated vs simulated improvement, one column per layer."""
    names = [f"{m}/{l}" for m, l in config.layers]
    width = max([12] + [len(n) + 2 for n in names])
    out = ["Improvement over repetitive unicast (%), "
           f"{config.mesh.rows}x{config.mesh.cols} mesh"]
    header = "layer".ljust(12) + "".join(n.rjust(width) for n in names)
    out.append(header)
    if estimated:
        row = "estimated".ljust(12)
        for m, l in config.layers:
            v = estimated.get((m, l))
            row += (f"{v:.2f}" if v is not None else "-").rjust(width)
        out.append(row)
    if "ru" in config.modes and "gather" in config.modes:
        row = "simulated".ljust(12)
        for m, l in config.layers:
            st = stats.get((m, l, "ru"))
            v = st.improvement_pct if st else None
            row += (f"{v:.2f}" if v is not None else "-").rjust(width)
        out.append(row)
    return "\n".join(out) + "\n"


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
    stem = Path(config.output)
    files = []
    if config.out_format == "csv":
        path = stem.with_suffix(".csv")
        emit_csv(result.records, path)
    else:
        path = stem.with_suffix(".json")
        emit_json(result.records, result.stats, path)
    files.append(path)
    table_path = stem.with_suffix(".table.txt")
    table_path.write_text(result.table_text)
    files.append(table_path)
    return files


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
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        out[key.lower()] = value
    return out


def parse_timeout_table(text: str) -> dict[tuple[int, int], int]:
    table: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ConfigError(f"timeout table line {lineno}: expected 'row col cycles'")
        r, c, v = (_cast(int, x, f"timeout table line {lineno}") for x in parts)
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
            coeff_kwargs[kind] = _cast(float, value, key)
            if not coeff_kwargs[kind] >= 0:
                raise ConfigError(f"{key}: energy coefficients must be non-negative")
        elif key == "seed":
            cfg_kwargs["seed"] = _cast(int, value, key)
        elif key == "p_override":
            cfg_kwargs["p_override"] = (None if value.lower() in ("", "none", "full")
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
        cfg_kwargs["coefficients"] = EnergyCoefficients(**{
            f.name: coeff_kwargs.get(f.name, 1.0) for f in dc_fields(EnergyCoefficients)
        })
    cfg_kwargs["mesh"] = MeshConfig(**mesh_kwargs)
    return RunConfig(**cfg_kwargs)


def load_run_config(path: str | Path) -> RunConfig:
    p = Path(path)
    return run_config_from_kv(parse_kv_text(p.read_text()), base_dir=p.parent)
