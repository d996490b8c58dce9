import json

import pytest

from gathernoc.cli import main
from gathernoc.config import MeshConfig
from gathernoc.errors import ConfigError
from gathernoc.harness import (
    CSV_COLUMNS,
    RunConfig,
    emit_csv,
    load_run_config,
    parse_kv_text,
    parse_timeout_table,
    run,
    run_config_from_kv,
)

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
        cfg = load_run_config(path)
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


def test_table2_simulated_rows_come_from_the_run(capsys):
    # recorded before table2 was built on harness.run
    assert main(["table2", "--mesh", "4x4", "--simulate", "--p-override", "4"]) == 0
    assert capsys.readouterr().out == (
        "alexnet improvement over repetitive unicast (%), 4x4 mesh\n"
        "result          conv1    conv2    conv3    conv4    conv5\n"
        "estimated        1.02     0.25     0.23     0.11     0.17\n"
        "simulated        1.01     0.24     0.23     0.11     0.17\n"
    )


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
