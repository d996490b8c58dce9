import dataclasses
import json
import runpy
import sys
from pathlib import Path

import pytest

from gathernoc import harness, network
from gathernoc.cli import main
from gathernoc.config import MeshConfig
from gathernoc.errors import ConfigError, SimulationError
from gathernoc.harness import (
    CSV_COLUMNS,
    RunConfig,
    emit_csv,
    parse_kv_text,
    parse_timeout_table,
    run,
    run_config_from_kv,
    simulated_improvement_pct,
)
from gathernoc.stats import RunStats
from scenario_utils import measure_classes_one_cycle_off

DESK = dict(p_override=8, seed=7)


def _desk_config(tmp_path, modes=("ru", "gather", "analytic"), out_format="csv",
                 layers=(("alexnet", "conv1"),)):
    return RunConfig(
        mesh=MeshConfig(rows=4, cols=4),
        layers=list(layers),
        modes=tuple(modes),
        seed=DESK["seed"],
        p_override=DESK["p_override"],
        output=str(tmp_path / "results"),
        out_format=out_format,
    )


class TestRun:
    def test_records_per_layer_and_mode(self, tmp_path):
        result = run(_desk_config(tmp_path))
        modes = [r["mode"] for r in result.records]
        assert modes == ["ru", "gather", "analytic", "improvement"]

    def test_improvement_row_derived_from_totals(self, tmp_path):
        result = run(_desk_config(tmp_path))
        by_mode = {r["mode"]: r for r in result.records}
        ru, g = by_mode["ru"], by_mode["gather"]
        expect = round(100 * (ru["total_cycles"] - g["total_cycles"]) / ru["total_cycles"], 2)
        assert by_mode["improvement"]["improvement_pct"] == pytest.approx(expect, abs=0.01)

    def test_simulated_improvement_rounds_the_exact_ratio_half_up(self):
        # 30 / 200 000 is 0.015 % exactly; the float 0.015 lies just below it
        ru = RunStats(model="t", layer="t", mode="ru", rows=4, cols=4, seed=0,
                      total_cycles=200_000)
        g = dataclasses.replace(ru, mode="gather", total_cycles=199_970)
        assert simulated_improvement_pct(ru, g) == 0.02
        assert simulated_improvement_pct(g, ru) == -0.02

    def test_analytic_only_runs_no_simulation(self, tmp_path):
        result = run(_desk_config(tmp_path, modes=("analytic",)))
        assert [r["mode"] for r in result.records] == ["analytic"]
        assert result.stats == {}
        assert "estimated" in result.table_text and "simulated" not in result.table_text

    def test_fig1_hops_visible_in_records(self, tmp_path):
        cfg = _desk_config(tmp_path, modes=("ru", "gather"))
        cfg.mesh = MeshConfig(rows=6, cols=6)
        cfg.layers = [("alexnet", "conv1")]
        cfg.p_override = 6
        result = run(cfg)
        by_mode = {r["mode"]: r for r in result.records if r["mode"] in ("ru", "gather")}
        assert by_mode["ru"]["hops"] > by_mode["gather"]["hops"]

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        cfg_a = _desk_config(tmp_path / "a")
        cfg_b = _desk_config(tmp_path / "b")
        (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir()
        files_a = run(cfg_a).files
        files_b = run(cfg_b).files
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_json_mirrors_with_per_round_arrays(self, tmp_path):
        cfg = _desk_config(tmp_path, out_format="json")
        result = run(cfg)
        payload = json.loads(result.files[0].read_text())
        ru = next(r for r in payload if r["mode"] == "ru")
        assert ru["per_round_collection"]
        assert set(CSV_COLUMNS) <= set(ru)

    def test_json_matches_golden(self, tmp_path):
        # 4x5 mesh, 11 input vectors: every layer has four round classes,
        # ragged in rows and in columns, so the per-round arrays interleave
        # them; the golden pins every array entry, byte for byte
        cfg = RunConfig(mesh=MeshConfig(rows=4, cols=5), modes=("ru", "gather"),
                        layers=[("alexnet", f"conv{i}") for i in (2, 3, 4, 5)],
                        p_override=11, output=str(tmp_path / "golden"), out_format="json")
        run(cfg)
        golden = Path(__file__).parent / "data" / "json_golden.json"
        assert (tmp_path / "golden.json").read_bytes() == golden.read_bytes()


class TestEmit:
    def test_csv_schema_and_header_only_when_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_csv_rows_follow_schema(self, tmp_path):
        result = run(_desk_config(tmp_path))
        lines = result.files[0].read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(result.records)


class TestConfigFiles:
    def test_kv_parse_and_mesh_keys(self):
        cfg = run_config_from_kv(parse_kv_text(
            """
            mesh_rows = 4
            mesh_cols = 6           # comment
            pipeline_stages = 3
            model = vgg16
            layers = conv1,conv2
            modes = analytic
            seed = 99
            """
        ))
        assert (cfg.mesh.rows, cfg.mesh.cols, cfg.mesh.pipeline_depth) == (4, 6, 3)
        assert cfg.layers == [("vgg16", "conv1"), ("vgg16", "conv2")]
        assert cfg.seed == 99

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            run_config_from_kv({"warp_speed": "9"})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            run_config_from_kv({"modes": "teleport"})

    def test_timeout_table_parse(self):
        table = parse_timeout_table("0 0 0\n0 1 10\n # note\n1 1 12\n")
        assert table == {(0, 0): 0, (0, 1): 10, (1, 1): 12}

    def test_energy_coefficients_from_config(self):
        cfg = run_config_from_kv({"energy_link_traversal": "2.5", "modes": "analytic"})
        assert cfg.coefficients.link_traversal == 2.5
        assert cfg.coefficients.buffer_write == 1.0

    def test_load_run_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mesh_rows=4\nmesh_cols=4\nmodes=analytic\nlayers=conv1\n")
        cfg = run_config_from_kv(parse_kv_text(path.read_text()), base_dir=path.parent)
        assert cfg.mesh.rows == 4 and cfg.modes == ("analytic",)


class TestCli:
    def test_run_subcommand_writes_files(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(["run", "--mesh", "4x4", "--layers", "conv1",
                     "--modes", "ru,gather,analytic", "--seed", "7",
                     "--p-override", "8", "--output", str(out)])
        assert code == 0
        assert (tmp_path / "res.csv").exists()
        assert (tmp_path / "res.table.txt").exists()
        assert "estimated" in capsys.readouterr().out

    def test_table2_estimated_only(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "2.92" in out and "0.51" in out

    def test_fig1_demo(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "15" in out and "5" in out

    def test_bad_mesh_flag_exits_config_error(self, capsys):
        assert main(["run", "--mesh", "wat"]) == 2

    def test_unknown_layer_exits_config_error(self, capsys):
        assert main(["run", "--layers", "conv99", "--modes", "analytic"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--modes", ""], "at least one mode is required"),
        (["--layers", "", "--modes", "analytic"], "at least one layer is required"),
        (["--mesh", "", "--modes", "analytic"], "mesh must look like 8x8, got ''"),
        (["--seed", "", "--modes", "analytic"], "seed: expected int, got ''"),
        (["--model", "", "--modes", "analytic"], "unknown model "),
        (["--modes", "analytic", "--output", ""],
         "output must not be empty: it is the stem of the result files"),
        (["--p-override", "", "--modes", "analytic"], "p_override: expected int, got ''"),
    ])
    def test_empty_flag_exits_config_error(self, flags, message, capsys):
        # an empty value is validated, not taken for a flag left out
        assert main(["run", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {message}\n"

    def test_empty_fig1_output_exits_config_error(self, tmp_path, monkeypatch, capsys):
        # fig1 validates its stem as run does, before simulating anything
        monkeypatch.chdir(tmp_path)
        assert main(["fig1", "--output", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("configuration error: output must not be empty: "
                                "it is the stem of the result files\n")
        assert not any(tmp_path.iterdir())

    def test_invariant_violation_exits_simulation_error(self, monkeypatch, capsys):
        # no flit has room for a payload, so the first reserved load is
        # never uploaded
        arrival = network.gather_arrival
        monkeypatch.setattr("gathernoc.network.gather_arrival",
                            lambda flit, unit, limits: arrival(flit, unit, (*limits[:3], 0)))
        assert main(["run", "--mesh", "4x4", "--layers", "conv3", "--p-override", "4",
                     "--modes", "gather"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "simulation invariant violated: reserved upload never completed at (0,1)"]

    def test_unwritable_output_exits_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x"
        assert main(["run", "--modes", "analytic", "--output", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:")
        assert str(out) in err[0]

    def test_missing_output_directory_fails_before_any_simulation(self, tmp_path, capsys,
                                                                   monkeypatch):
        def simulated(*args, **kwargs):
            raise AssertionError("a layer was simulated")

        monkeypatch.setattr("gathernoc.harness.run_convolution", simulated)
        out = tmp_path / "missing" / "x"
        assert main(["run", "--mesh", "4x4", "--layers", "conv3", "--p-override", "4",
                     "--modes", "ru,gather", "--event-log", "--output", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [f"i/o error: [Errno 2] output directory {out.parent} does not exist: "
                       f"'{out}'"]
        assert not out.parent.exists()


def test_output_stems_with_a_dot_keep_their_files_apart(tmp_path, capsys):
    # the file names append to the stem, so exp.1 and exp.2 write two sets
    # of files, and the event files sit next to them
    for stem in ("exp.1", "exp.2"):
        assert main(["run", "--mesh", "4x4", "--layers", "conv3", "--p-override", "4",
                     "--modes", "ru,gather", "--event-log",
                     "--output", str(tmp_path / stem)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{stem}{suffix}" for stem in ("exp.1", "exp.2")
        for suffix in (".csv", ".table.txt", ".alexnet.conv3.ru.events.txt",
                       ".alexnet.conv3.gather.events.txt"))
    assert (tmp_path / "exp.1.csv").read_bytes() == (tmp_path / "exp.2.csv").read_bytes()
    assert main(["fig1", "--output", str(tmp_path / "fig.1")]) == 0
    assert (tmp_path / "fig.1.csv").exists() and not (tmp_path / "fig.csv").exists()


@pytest.mark.parametrize("directory", ["d/", "missing/", "d/.", "d/.."])
def test_output_stem_naming_a_directory_exits_config_error(tmp_path, capsys, monkeypatch,
                                                           directory):
    # a stem that names a directory fails before any layer is simulated,
    # whether the directory exists or not, and writes no file
    def simulated(*args, **kwargs):
        raise AssertionError("a layer was simulated")

    monkeypatch.setattr("gathernoc.harness.run_convolution", simulated)
    (tmp_path / "d").mkdir()
    stem = f"{tmp_path}/{directory}"
    assert main(["run", "--mesh", "4x4", "--layers", "conv3", "--p-override", "4",
                 "--modes", "ru,gather,analytic", "--event-log", "--output", stem]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"configuration error: output {stem!r} names a directory: "
                            "it must be the stem of the result files\n")
    assert main(["fig1", "--output", stem]) == 2
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
    assert list((tmp_path / "d").iterdir()) == []


def test_fig1_output_rows_show_hop_counts(tmp_path, capsys):
    out = tmp_path / "fig1"
    assert main(["fig1", "--output", str(out)]) == 0
    lines = (tmp_path / "fig1.csv").read_text().splitlines()
    ru_row = next(l for l in lines if ",ru," in l)
    g_row = next(l for l in lines if ",gather," in l)
    assert ru_row.split(",")[6] == "15"
    assert g_row.split(",")[6] == "5"


def test_payload_width_too_small_for_layer_exits_config_error(tmp_path, capsys):
    # alexnet/conv3 accumulates 2304 products of 8-bit operands: results up
    # to 255*255*2304 cannot fit a 16-bit payload, found before any cycle runs
    path = tmp_path / "run.cfg"
    path.write_text("mesh_rows = 4\nmesh_cols = 4\nlayers = conv3\n"
                    "gather_payload_bits = 16\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "gather_payload_bits" in capsys.readouterr().err
    path.write_text("mesh_rows = 4\nmesh_cols = 4\nlayers = conv3\n"
                    "gather_payload_bits = 16\nmodes = analytic\n")
    assert main(["run", "--config", str(path)]) == 0


def test_run_model_flag_selects_that_models_layers(capsys):
    assert main(["run", "--model", "vgg16", "--modes", "analytic"]) == 0
    header = capsys.readouterr().out.splitlines()[1].split()
    assert header == ["layer", "vgg16/conv1", "vgg16/conv2", "vgg16/conv3", "vgg16/conv4"]


@pytest.mark.parametrize("line, named", [
    ("mesh_rows = eight", "mesh_rows"),
    ("seed = 1.5", "seed"),
    ("p_override = many", "p_override"),
    ("energy_link_traversal = lots", "energy_link_traversal"),
    ("energy_va_arb = -1", "energy_va_arb"),
    ("timeout_table = timeouts.txt", "timeout table line 2"),
])
def test_malformed_config_value_exits_config_error(tmp_path, capsys, line, named):
    (tmp_path / "timeouts.txt").write_text("0 0 5\n0 0 x\n")
    path = tmp_path / "run.cfg"
    path.write_text(f"{line}\nmodes = analytic\n")
    assert main(["run", "--config", str(path)]) == 2
    assert f"configuration error: {named}" in capsys.readouterr().err


def test_fig1_smallest_mesh_uses_row_zero(capsys):
    assert main(["fig1", "--size", "1"]) == 0
    assert "row 0 ready" in capsys.readouterr().out


def test_event_log_writes_one_monotone_file_per_mode(tmp_path, capsys):
    out = tmp_path / "ev"
    assert main(["run", "--mesh", "4x4", "--layers", "conv3", "--p-override", "16",
                 "--modes", "ru,gather", "--event-log", "--output", str(out)]) == 0
    assert not (tmp_path / "ev.alexnet.conv3.events.txt").exists()
    wrote = [l for l in capsys.readouterr().out.splitlines() if l.startswith("wrote ")]
    for mode in ("ru", "gather"):
        path = tmp_path / f"ev.alexnet.conv3.{mode}.events.txt"
        assert f"wrote {path}" in wrote
        lines = path.read_text().splitlines()
        cycles = [int(l.split()[0]) for l in lines]
        assert cycles and cycles == sorted(cycles)
    assert len(wrote) == 4   # the two event logs, the CSV and the table


def test_event_log_without_output_exits_config_error(tmp_path, capsys):
    # the event files are named after the output stem; without one the
    # events were recorded and then dropped
    flags = ["--mesh", "4x4", "--layers", "conv3", "--p-override", "4", "--modes", "ru,gather"]
    assert main(["run", *flags, "--event-log"]) == 2
    assert "configuration error: event_log needs output" in capsys.readouterr().err
    path = tmp_path / "run.cfg"
    path.write_text("event_log = true\n")
    assert main(["run", "--config", str(path), *flags]) == 2
    assert "configuration error: event_log needs output" in capsys.readouterr().err
    # the file's event_log may take its output from the flag
    assert main(["run", "--config", str(path), *flags, "--output", str(tmp_path / "ev")]) == 0
    assert (tmp_path / "ev.alexnet.conv3.gather.events.txt").exists()
    with pytest.raises(ConfigError, match="event_log needs output"):
        RunConfig(mesh=MeshConfig(rows=4, cols=4), layers=[("alexnet", "conv3")],
                  event_log=True)


EVENT_RUN = ["--mesh", "4x4", "--layers", "conv2,conv3,conv4,conv5", "--p-override", "11",
             "--modes", "ru,gather", "--event-log"]

# the event-logged runs whose every written file the golden pins, by the
# name of its directory under tests/data/event_golden
EVENT_GOLDEN_RUNS = {
    "conv3": ["--mesh", "4x4", "--layers", "conv3", "--p-override", "16",
              "--modes", "ru,gather", "--event-log"],
    "four_layers": EVENT_RUN,
    # row r's PE c gives up after c * (r + 1) cycles: no two rows alike,
    # and the short budgets of the upper rows make timeout packets
    "rows_differ": ["--config", "rows.cfg", "--mesh", "4x4", "--layers", "conv3",
                    "--p-override", "11", "--modes", "ru,gather", "--event-log"],
}


@pytest.mark.parametrize("name", sorted(EVENT_GOLDEN_RUNS))
def test_event_files_match_golden(tmp_path, name, capsys):
    (tmp_path / "rows.txt").write_text(
        "".join(f"{r} {c} {c * (r + 1)}\n" for r in range(4) for c in range(4)))
    (tmp_path / "rows.cfg").write_text("timeout_table = rows.txt\n")
    flags = [str(tmp_path / f) if f == "rows.cfg" else f for f in EVENT_GOLDEN_RUNS[name]]
    out = tmp_path / name
    out.mkdir()
    assert main(["run", *flags, "--output", str(out / "ev")]) == 0
    golden = Path(__file__).parent / "data" / "event_golden" / name
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
    for path in golden.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_event_log_run_that_overflows_energy_writes_no_file(tmp_path, capsys):
    # conv2's event lines are ready before conv3's energy overflows; they
    # are written with the result files or not at all
    path = tmp_path / "huge.cfg"
    path.write_text("energy_link_traversal = 1.5e304\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", str(path), *EVENT_RUN, "--output", str(out / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: energy overflows the float range")
    assert list(out.iterdir()) == []


def test_event_log_run_that_fails_in_its_second_layer_writes_no_file(tmp_path, capsys,
                                                                      monkeypatch):
    simulated, convolve = [], harness.run_convolution

    def fail_at_conv3(layer, *args, **kwargs):
        simulated.append(layer.layer)
        if layer.layer == "conv3":
            raise SimulationError("injected into conv3")
        return convolve(layer, *args, **kwargs)

    monkeypatch.setattr(harness, "run_convolution", fail_at_conv3)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", *EVENT_RUN, "--output", str(out / "x")]) == 3
    assert simulated == ["conv2", "conv2", "conv3"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "simulation invariant violated: injected into conv3\n"
    assert list(out.iterdir()) == []


def test_event_log_run_whose_rows_and_mesh_differ_writes_no_file(tmp_path, capsys, monkeypatch):
    # class measurements one cycle off fail the whole-mesh round that an
    # event-logged class runs for its lines
    measure_classes_one_cycle_off(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", *EVENT_RUN, "--output", str(out / "x")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("simulation invariant violated: round 0: the whole mesh measures "
                            "its 4x4 class otherwise than its row networks do\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("entry", ["99 99 5", "4 0 5", "0 4 5", "-1 0 5"])
def test_timeout_table_entry_outside_mesh_exits_config_error(tmp_path, capsys, entry):
    (tmp_path / "timeouts.txt").write_text(f"0 0 5\n{entry}\n")
    path = tmp_path / "run.cfg"
    path.write_text("mesh_rows = 4\nmesh_cols = 4\nlayers = conv3\n"
                    "timeout_table = timeouts.txt\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "outside the 4x4 mesh" in capsys.readouterr().err
    (tmp_path / "timeouts.txt").write_text("0 0 5\n3 3 7\n")
    assert main(["run", "--config", str(path), "--p-override", "4"]) == 0


def test_config_file_is_validated_with_the_flags_applied(tmp_path, capsys):
    # a 4x4 file whose timeout table fits only the --mesh given with it
    (tmp_path / "timeouts.txt").write_text("0 0 5\n5 5 7\n")
    path = tmp_path / "run.cfg"
    path.write_text("mesh_rows = 4\nmesh_cols = 4\nlayers = conv3\np_override = 4\n"
                    "timeout_table = timeouts.txt\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "outside the 4x4 mesh" in capsys.readouterr().err
    assert main(["run", "--config", str(path), "--mesh", "8x8", "--modes", "analytic"]) == 0
    assert main(["run", "--config", str(path), "--mesh", "8x8", "--modes", "ru,gather",
                 "--output", str(tmp_path / "out"), "--format", "json"]) == 0
    assert json.loads((tmp_path / "out.json").read_text())[0]["mesh"] == "8x8"


# a 4x4 file with an entry outside 8x8 too, and an 8x8 file made invalid
# by the flag's smaller mesh
@pytest.mark.parametrize("side, mesh, entry", [(4, "8x8", "9 9 7"), (8, "4x4", "5 5 7")])
def test_config_file_still_invalid_with_the_flags_exits_config_error(tmp_path, capsys,
                                                                      side, mesh, entry):
    (tmp_path / "timeouts.txt").write_text(f"0 0 5\n{entry}\n")
    path = tmp_path / "run.cfg"
    path.write_text(f"mesh_rows = {side}\nmesh_cols = {side}\nlayers = conv3\n"
                    "timeout_table = timeouts.txt\n")
    assert main(["run", "--config", str(path), "--mesh", mesh, "--modes", "analytic"]) == 2
    assert f"outside the {mesh} mesh" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["0 1 -5", "3 3 -1"])
def test_timeout_table_negative_budget_exits_config_error(tmp_path, capsys, entry):
    (tmp_path / "timeouts.txt").write_text(f"0 0 5\n{entry}\n")
    path = tmp_path / "run.cfg"
    path.write_text("mesh_rows = 4\nmesh_cols = 4\nlayers = conv3\n"
                    "timeout_table = timeouts.txt\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "budget must be >= 0" in capsys.readouterr().err
    (tmp_path / "timeouts.txt").write_text("0 0 0\n0 1 5\n")
    assert main(["run", "--config", str(path), "--p-override", "4"]) == 0


@pytest.mark.parametrize("meshes, named", [
    ("8x8x", "'8x8x'"), ("8x8,16", "'16'"), ("0x4", "at least one row"),
])
def test_grid_script_malformed_meshes_exits_config_error(tmp_path, capsys, monkeypatch,
                                                         meshes, named):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"
    grid_main = runpy.run_path(str(script))["main"]
    monkeypatch.setattr(sys, "argv", ["reproduce_results.py", "--meshes", meshes,
                                      "--outdir", str(tmp_path / "out")])
    assert grid_main() == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err
    assert err.count("\n") == 1
    # every mesh is checked before anything runs or is written
    assert not (tmp_path / "out").exists()


def test_table2_simulated_rows_come_from_the_run(capsys):
    # recorded before table2 was built on harness.run
    assert main(["table2", "--mesh", "4x4", "--simulate", "--p-override", "4"]) == 0
    assert capsys.readouterr().out == (
        "alexnet improvement over repetitive unicast (%), 4x4 mesh\n"
        "result          conv1    conv2    conv3    conv4    conv5\n"
        "estimated        1.02     0.25     0.23     0.11     0.17\n"
        "simulated        1.01     0.24     0.23     0.11     0.17\n"
    )


def test_p_override_above_the_layer_vectors_truncates_nothing():
    # alexnet/conv5 has 169 input vectors: a larger p_override runs them all
    mesh = MeshConfig(rows=4, cols=4)
    full, over = (run(RunConfig(mesh=mesh, layers=[("alexnet", "conv5")], p_override=p))
                  for p in (None, 100_000))
    assert over.records == full.records
    assert full.stats[("alexnet", "conv5", "ru")].rounds == 43 * 64


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{cfg}"],
    ["run", "--mesh", "4x4", "--layers", "conv3", "--p-override", "4", "--seed", "-1"],
    ["table2", "--simulate", "--seed", "-1"],
])
def test_negative_seed_exits_config_error(tmp_path, capsys, argv):
    path = tmp_path / "run.cfg"
    path.write_text("mesh_rows = 4\nmesh_cols = 4\nlayers = conv3\np_override = 4\nseed = -1\n")
    assert main([a.format(cfg=path) for a in argv]) == 2
    assert "configuration error: seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "1e999"])
def test_infinite_energy_coefficient_exits_config_error(tmp_path, capsys, value):
    # inf passes a `>= 0` check, and no result file can hold the energy it
    # gives; analytic mode shows the check happens before any run
    path = tmp_path / "run.cfg"
    path.write_text(f"energy_link_traversal = {value}\n")
    assert main(["run", "--config", str(path), "--modes", "analytic",
                 "--output", str(tmp_path / "out")]) == 2
    assert ("configuration error: energy_link_traversal: energy coefficients must be "
            f"finite and non-negative, got {value}") in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_energy_overflow_exits_config_error_without_result_files(tmp_path, capsys, fmt):
    # every coefficient is finite, but the run's energy is not: no CSV cell
    # can hold it, and JSON would say Infinity
    path = tmp_path / "run.cfg"
    path.write_text("energy_link_traversal = 1e308\n")
    assert main(["run", "--config", str(path), "--mesh", "4x4", "--layers", "conv3",
                 "--p-override", "4", "--modes", "ru,gather", "--format", fmt,
                 "--output", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("configuration error: energy overflows the float range: energy "
                            "coefficients link_traversal = 1e+308 (4608 events)\n")
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("argv, message", [
    (["--layers", "conv1,CONV1", "--modes", "ru,ru,gather"], "mode ru is given twice"),
    (["--layers", "conv1,CONV1", "--modes", "analytic"], "layer alexnet/conv1 is given twice"),
    (["--model", "vgg16", "--layers", "conv2,conv1,Conv2", "--modes", "gather,analytic"],
     "layer vgg16/conv2 is given twice"),
], ids=["modes", "layers", "layers-of-model"])
def test_duplicate_modes_or_layers_exit_config_error(tmp_path, capsys, argv, message):
    # a run would repeat the rows in its result file and the column in its table
    assert main(["run", "--mesh", "4x4", "--p-override", "4",
                 "--output", str(tmp_path / "out"), *argv]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("config, timeouts, message", [
    ("mesh_rows = 4\nmesh_cols = 4\n# the mesh\nMESH_ROWS = 8\n", "",
     "config line 4: duplicate key mesh_rows, first given on line 1"),
    ("timeout_table = timeouts.txt\n", "0 0 5\n1 2 3\n\n0 0 7\n",
     "timeout table line 4: duplicate entry (0, 0), first given on line 1"),
], ids=["config-key", "timeout-entry"])
def test_duplicate_config_entry_exits_config_error(tmp_path, capsys, config, timeouts, message):
    # a second entry would silently override the first
    (tmp_path / "timeouts.txt").write_text(timeouts)
    path = tmp_path / "run.cfg"
    path.write_text(config)
    assert main(["run", "--config", str(path), "--mesh", "4x4", "--layers", "conv3",
                 "--p-override", "4", "--modes", "ru,gather"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


@pytest.mark.parametrize("p_override", [0, -3])
def test_p_override_below_one_rejected(p_override):
    with pytest.raises(ConfigError, match=f"p_override must be >= 1, got {p_override}"):
        RunConfig(modes=("analytic",), p_override=p_override)


def test_grid_script_p_override_below_one_exits_config_error(tmp_path, capsys, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"
    grid_main = runpy.run_path(str(script))["main"]
    monkeypatch.setattr(sys, "argv", ["reproduce_results.py", "--p-override", "0",
                                      "--outdir", str(tmp_path / "out")])
    assert grid_main() == 2
    assert capsys.readouterr().err == "configuration error: p_override must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


GRID_GOLDEN = Path(__file__).resolve().parent / "data" / "grid_golden"
TIMEOUT_SWEEP_GOLDEN = Path(__file__).resolve().parent / "data" / "timeout_sweep_golden"


@pytest.mark.parametrize("size", [8, 16])
def test_timeout_sweep_script_matches_the_golden(capsys, monkeypatch, size):
    # the only full-size outputs under give-up tables other than the default
    script = Path(__file__).resolve().parents[1] / "scripts" / "timeout_sweep.py"
    sweep_main = runpy.run_path(str(script))["main"]
    monkeypatch.setattr(sys, "argv", ["timeout_sweep.py", "--size", str(size)])
    assert sweep_main() == 0
    assert capsys.readouterr().out == (TIMEOUT_SWEEP_GOLDEN / f"size{size}.txt").read_text()


def test_full_scale_grid_files_match_the_golden(tmp_path, capsys, monkeypatch):
    # the reproduce_results.py files at full scale and the default seed are
    # the contract: every byte of both meshes' CSV and table
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"
    grid_main = runpy.run_path(str(script))["main"]
    monkeypatch.setattr(sys, "argv", ["reproduce_results.py", "--outdir", str(tmp_path)])
    assert grid_main() == 0
    capsys.readouterr()
    golden = sorted(p.name for p in GRID_GOLDEN.iterdir())
    assert golden == sorted(p.name for p in tmp_path.iterdir()) and len(golden) == 4
    for name in golden:
        assert (tmp_path / name).read_bytes() == (GRID_GOLDEN / name).read_bytes(), name
