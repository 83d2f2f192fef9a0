import os
from pathlib import Path

import numpy as np
import pytest

from parahyp import coefficients as co
from parahyp.cli import main as cli_main
from parahyp.slab import load_solution, run, save_solution
from parahyp.spaces import eval_scalar
from parahyp.study import (StudyConfig, export_snapshot, parse_config,
                           run_study, solve_reference)


def mini_config(tmp_path, **overrides):
    base = dict(n_list=(2, 4), T=1.5, rho=1.0, ref_space_cells=32,
                ref_time_cells=48, checkpoint="never",
                out_dir=str(tmp_path / "out"))
    base.update(overrides)
    return StudyConfig(**base)


class TestParseConfig:
    def test_empty_file_yields_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        config = parse_config(path)
        assert config.n_list == (2, 4, 8, 16)
        assert (config.p, config.q) == (2, 1)
        assert (config.rho, config.T) == (1.0, 1.5)
        assert config.ref_p == 3
        assert config.reference_space_cells == 128
        assert config.reference_time_cells == 192

    def test_values_parsed(self, tmp_path):
        path = tmp_path / "study.ini"
        path.write_text("""
[study]
n_list = 2, 4
p = 1
rho = 2.0

[reference]
space_cells = 32
time_cells = 48
checkpoint = never

[output]
dir = results
snapshot_times = 0.5 1.0
""")
        config = parse_config(path)
        assert config.n_list == (2, 4)
        assert config.p == 1
        assert config.rho == 2.0
        assert config.ref_space_cells == 32
        assert config.out_dir == "results"
        assert config.snapshot_times == (0.5, 1.0)

    def test_odd_n_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[study]\nn_list = 3\n")
        with pytest.raises(ValueError, match="even"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[study]\nunknown_knob = 1\n")
        with pytest.raises(ValueError, match="unknown_knob"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ValueError, match="mystery"):
            parse_config(path)

    def test_invalid_value_reports_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[study]\np = fast\n")
        with pytest.raises(ValueError, match="p = 'fast'"):
            parse_config(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[study]\nn_list 2 4\n")
        import configparser
        with pytest.raises(configparser.ParsingError) as err:
            parse_config(path)
        assert "line  2" in str(err.value).replace("[", " ").replace("]", " ")

    def test_small_rho_accepted_with_warning(self, tmp_path):
        path = tmp_path / "weak.ini"
        path.write_text("[study]\nrho = 0.5\n")
        config = parse_config(path)
        assert config.rho == 0.5
        messages = []
        co.rough_problem(2, rho=config.rho).warn_if_weak_weight(messages.append)
        assert messages and "rho" in messages[0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(tmp_path / "absent.ini")

    def test_invalid_choices_rejected_once(self, tmp_path):
        # parse_config leaves value checks to StudyConfig
        path = tmp_path / "bad.ini"
        path.write_text("[reference]\ncheckpoint = sometimes\n")
        with pytest.raises(ValueError, match="checkpoint must be one of .*'sometimes'"):
            parse_config(path)
        path.write_text("[study]\nsolver = fast\n")
        with pytest.raises(ValueError, match="solver must be one of .*'fast'"):
            parse_config(path)
        path.write_text("[study]\nthreads = 2\n")
        with pytest.raises(ValueError, match="unknown key 'threads'"):
            parse_config(path)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="solver must be one of"):
            StudyConfig(solver="bogus")

    @pytest.mark.parametrize("key, value", [("T", 0.0), ("T", -1.5), ("ref_p", 0),
                                            ("ref_q", -1), ("snapshot_resolution", 0)])
    def test_out_of_range_value_rejected(self, key, value):
        # rejected on construction, before a study opens its run.log
        with pytest.raises(ValueError, match=f"^{key} must be"):
            StudyConfig(**{key: value})

    @pytest.mark.parametrize("kwargs, cells", [({"T": 1e-4}, 0),
                                               ({"ref_time_cells": -3}, -3)])
    def test_reference_time_cells_must_be_positive(self, kwargs, cells):
        # T = 1e-4 on the default 128-cell reference rounds to 0 time cells
        with pytest.raises(ValueError, match=rf"reference time cells must be >= 1, "
                                             rf"got {cells} \(T=.*reference space cells 128\)"):
            StudyConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"ref_space_cells": 0}, r"reference mesh \(0 cells\)"),
        ({"ref_time_cells": 0}, r"reference time cells must be >= 1, got 0"),
        ({"ref_space_cells": 0, "ref_time_cells": 0}, r"reference mesh \(0 cells\)")])
    def test_zero_reference_cells_rejected(self, kwargs, match):
        # 0 is a resolution, not a request for the default one
        with pytest.raises(ValueError, match=match):
            StudyConfig(n_list=(2,), **kwargs)

    @pytest.mark.parametrize("key, match", [
        ("space_cells", r"reference mesh \(0 cells\)"),
        ("time_cells", r"reference time cells must be >= 1, got 0")])
    def test_zero_reference_cells_rejected_from_config(self, tmp_path, key, match):
        path = tmp_path / "zero.ini"
        path.write_text(f"[study]\nn_list = 2\n[reference]\n{key} = 0\n")
        with pytest.raises(ValueError, match=match):
            parse_config(path)

    def test_reference_nesting_validated(self):
        with pytest.raises(ValueError, match="twice as fine"):
            StudyConfig(n_list=(2,), ref_space_cells=6, ref_time_cells=9)
        with pytest.raises(ValueError, match="nest"):
            StudyConfig(n_list=(4, 6), ref_space_cells=50, ref_time_cells=75)


class TestReferenceCheckpointing:
    def test_cache_round_trip_and_reuse(self, tmp_path):
        config = mini_config(tmp_path, n_list=(2,), ref_space_cells=8,
                             ref_time_cells=12, checkpoint="always")
        logs = []
        sol1 = solve_reference("hom", None, config, logs.append)
        assert any("solved" in line for line in logs)
        path = os.path.join(config.out_dir, "ref_hom.ckpt")
        assert os.path.exists(path)
        logs.clear()
        sol2 = solve_reference("hom", None, config, logs.append)
        assert any("loaded checkpoint" in line for line in logs)
        assert not any("solved" in line for line in logs)
        assert np.array_equal(sol1.coeffs, sol2.coeffs)

    def test_solver_path_logged_and_outside_identity(self, tmp_path):
        config = mini_config(tmp_path, n_list=(2,), ref_space_cells=8,
                             ref_time_cells=12, checkpoint="always")
        logs = []
        sol = solve_reference("hom", None, config, logs.append)
        assert sol.meta["solver"] == "decoupled"
        assert any("] solved" in line and "solver=decoupled" in line for line in logs)
        # a checkpoint that does not record the solver path still loads
        path = os.path.join(config.out_dir, "ref_hom.ckpt")
        old = load_solution(path)
        old.meta = {k: v for k, v in old.meta.items() if k != "solver"}
        save_solution(old, path)
        logs.clear()
        again = solve_reference("hom", None, config, logs.append)
        assert any("loaded checkpoint" in line for line in logs)
        assert np.array_equal(again.coeffs, sol.coeffs)

    def test_eigenbasis_diagnostics_outside_identity(self, tmp_path):
        config = mini_config(tmp_path, n_list=(2,), ref_space_cells=8,
                             ref_time_cells=12, checkpoint="always")
        logs = []
        sol = solve_reference("hom", None, config, logs.append)
        assert any("solver=decoupled/bloch" in line for line in logs)
        for key in ("eigenbasis_residual", "eigenbasis_cond"):
            assert np.isfinite(sol.meta[key])
        # other diagnostics in the checkpoint do not make it another reference
        path = os.path.join(config.out_dir, "ref_hom.ckpt")
        old = load_solution(path)
        old.meta = {**old.meta, "eigenbasis_residual": 1.0, "eigenbasis_cond": 1e9}
        del old.meta["spatial_solver"]
        save_solution(old, path)
        logs.clear()
        again = solve_reference("hom", None, config, logs.append)
        assert any("loaded checkpoint" in line for line in logs)
        assert np.array_equal(again.coeffs, sol.coeffs)

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        config = mini_config(tmp_path, n_list=(2,), ref_space_cells=8,
                             ref_time_cells=12, checkpoint="always")
        solve_reference("hom", None, config, lambda *_: None)
        other = mini_config(tmp_path, n_list=(2,), ref_space_cells=16,
                            ref_time_cells=24, checkpoint="always")
        with pytest.raises(ValueError, match="does not match"):
            solve_reference("hom", None, other, lambda *_: None)

    @pytest.mark.parametrize("key, changed", [
        ("rho", dict(rho=3.0)),
        # same slab length 1/8, other final time
        ("T", dict(T=0.75, ref_time_cells=6)),
    ])
    def test_other_problem_data_rejected(self, tmp_path, key, changed):
        base = dict(n_list=(2,), ref_space_cells=8, ref_time_cells=12, checkpoint="always")
        solve_reference("hom", None, mini_config(tmp_path, **base), lambda *_: None)
        other = mini_config(tmp_path, **{**base, **changed})
        with pytest.raises(ValueError, match=f"does not match the requested reference: "
                                             f"{key} [^,]*$"):
            solve_reference("hom", None, other, lambda *_: None)

    def test_renamed_rough_checkpoint_rejected_as_hom(self, tmp_path):
        config = mini_config(tmp_path, n_list=(2,), ref_space_cells=8,
                             ref_time_cells=12, checkpoint="always")
        solve_reference("rough", 2, config, lambda *_: None)
        os.replace(os.path.join(config.out_dir, "ref_rough_N2.ckpt"),
                   os.path.join(config.out_dir, "ref_hom.ckpt"))
        with pytest.raises(ValueError, match="does not match the requested reference: "
                                             "problem 'rough' .*, N 2 "):
            solve_reference("hom", None, config, lambda *_: None)


class TestRunStudy:
    def test_table_shape_and_eoc_presence(self, tmp_path):
        config = mini_config(tmp_path, snapshot_times=(0.5,), snapshot_resolution=16)
        table = run_study(config, log=lambda *_: None)
        assert [row["N"] for row in table.rows] == [2, 4]
        eocs = table.eoc_rows()
        assert all(v is None for v in eocs[0].values())
        assert all(v is not None for v in eocs[1].values())
        assert os.path.exists(os.path.join(config.out_dir, "table.csv"))
        assert os.path.exists(os.path.join(config.out_dir, "run.log"))
        for label in ("u_N2", "u_N4", "u_hom"):
            assert os.path.exists(os.path.join(config.out_dir, f"{label}_t0.5.vtk"))
            assert os.path.exists(os.path.join(config.out_dir, f"{label}_t0.5.csv"))

    def test_outputs_written_whole_without_temporaries(self, tmp_path):
        config = mini_config(tmp_path, n_list=(2,), ref_space_cells=8,
                             ref_time_cells=12, checkpoint="always",
                             snapshot_times=(0.5,), snapshot_resolution=8)
        run_study(config, log=lambda *_: None)
        assert sorted(os.listdir(config.out_dir)) == [
            "ref_hom.ckpt", "ref_rough_N2.ckpt", "run.log", "table.csv",
            "u_N2_t0.5.csv", "u_N2_t0.5.vtk", "u_hom_t0.5.csv", "u_hom_t0.5.vtk"]

    def test_failed_study_leaves_its_log(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("comparison failed")

        monkeypatch.setattr("parahyp.study.compare_solutions", broken)
        config = mini_config(tmp_path, n_list=(2,), ref_space_cells=8, ref_time_cells=12)
        with pytest.raises(RuntimeError, match="comparison failed"):
            run_study(config, log=lambda *_: None)
        lines = Path(config.out_dir, "run.log").read_text().splitlines()
        assert any(line.startswith("[study N=2] solved") for line in lines)
        assert any(line.startswith("[reference rough N=2] solved") for line in lines)

    def test_determinism_byte_identical_csv(self, tmp_path):
        config_a = mini_config(tmp_path, out_dir=str(tmp_path / "a"))
        config_b = mini_config(tmp_path, out_dir=str(tmp_path / "b"))
        run_study(config_a, log=lambda *_: None)
        run_study(config_b, log=lambda *_: None)
        csv_a = Path(config_a.out_dir, "table.csv").read_bytes()
        csv_b = Path(config_b.out_dir, "table.csv").read_bytes()
        assert csv_a == csv_b


class TestSnapshots:
    def test_zero_state_zero_raster(self, tmp_path):
        sol = run(co.rough_problem(2, T=0.5), n=4, p=2, q=1, tau=0.25)
        base = str(tmp_path / "snap")
        vtk, csv = export_snapshot(sol, 0.0, 8, base)
        grid = np.array([[float(v) for v in line.split(",")]
                         for line in Path(csv).read_text().strip().splitlines()])
        assert grid.shape == (8, 8)
        assert np.abs(grid).max() == 0.0
        text = Path(vtk).read_text()
        assert text.startswith("# vtk DataFile Version 2.0")
        assert "DATASET STRUCTURED_POINTS" in text
        assert "ORIGIN 0.0625 0.0625 0\n" in text
        assert "SPACING 0.125 0.125 1\n" in text
        assert "POINT_DATA 64" in text

    def test_vtk_and_csv_hold_the_same_raster(self, tmp_path):
        sol = run(co.rough_problem(2, T=0.25), n=8, p=2, q=1, tau=1 / 16)
        vtk, csv = export_snapshot(sol, 0.125, 16, str(tmp_path / "rough"))
        text = Path(csv).read_text()
        grid = np.array([[float(v) for v in line.split(",")]
                         for line in text.strip().splitlines()])
        scalars = Path(vtk).read_text().split("LOOKUP_TABLE default\n")[1].split()
        assert np.array_equal(np.array(scalars, dtype=float).reshape(16, 16), grid)
        assert np.abs(grid).max() > 0.0
        # the CSV bytes of the per-value writer this one replaced
        pts = (np.arange(16) + 0.5) / 16
        xx, yy = np.meshgrid(pts, pts, indexing="ij")
        values = eval_scalar(sol.space_u, sol.coefficients_at(0.125, "-")[: sol.ndof_u],
                             np.column_stack([xx.ravel(), yy.ravel()])).reshape(16, 16)
        assert text == "".join(",".join(repr(float(values[i, j])) for i in range(16)) + "\n"
                               for j in range(16))

    def test_constant_field_constant_raster(self, tmp_path):
        sol = run(co.homogenised_problem(T=0.5), n=4, p=2, q=1, tau=0.25)
        # overwrite with a constant-one u state
        sol.coeffs[:, :, : sol.ndof_u] = 1.0
        sol.coeffs[:, :, sol.ndof_u:] = 0.0
        _, csv = export_snapshot(sol, 0.25, 6, str(tmp_path / "const"))
        rows = Path(csv).read_text().strip().splitlines()
        values = np.array([[float(v) for v in line.split(",")] for line in rows])
        assert values == pytest.approx(np.full((6, 6), values[0, 0]), abs=1e-12)

    def test_rough_solution_shows_checkerboard_oscillation(self, tmp_path):
        N = 2
        sol = run(co.rough_problem(N, T=0.25), n=8, p=2, q=1, tau=1 / 16)
        _, csv = export_snapshot(sol, 0.125, 16, str(tmp_path / "rough"))
        grid = np.array([[float(v) for v in line.split(",")]
                         for line in Path(csv).read_text().strip().splitlines()])
        # grid[i, j] samples u at ((i+0.5)/16, (j+0.5)/16); average |u| over
        # wave cells (s0 = 1) vs heat cells and require a visible contrast
        pts = (np.arange(16) + 0.5) / 16
        xx, yy = np.meshgrid(pts, pts, indexing="ij")
        black = co.epsilon_N((xx, yy), N).astype(bool)
        mean_black = np.abs(grid[black]).mean()
        mean_white = np.abs(grid[~black]).mean()
        contrast = abs(mean_black - mean_white) / max(mean_black, mean_white)
        assert contrast > 0.05

    def test_time_outside_window_rejected(self, tmp_path):
        sol = run(co.rough_problem(2, T=0.5), n=4, p=2, q=1, tau=0.25)
        with pytest.raises(ValueError):
            export_snapshot(sol, 0.6, 4, str(tmp_path / "late"))


class TestCli:
    def test_check_verb(self, capsys):
        assert cli_main(["check", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 5

    def test_check_reads_seed_from_config(self, tmp_path, monkeypatch):
        seeds = []
        monkeypatch.setattr("parahyp.cli.run_self_checks",
                            lambda seed: seeds.append(seed) or True)
        config = tmp_path / "cfg.ini"
        config.write_text("[study]\nseed = 7\n")
        assert cli_main(["check", "--config", str(config)]) == 0
        assert cli_main(["check", "--config", str(config), "--seed", "3"]) == 0
        assert cli_main(["check"]) == 0
        assert seeds == [7, 3, 0]

    def test_solve_reference_snapshot_pipeline(self, tmp_path, capsys):
        config = tmp_path / "cfg.ini"
        config.write_text("""
[study]
n_list = 2
[reference]
space_cells = 8
time_cells = 12
checkpoint = always
[output]
dir = {out}
""".format(out=tmp_path / "out"))
        assert cli_main(["solve", "--config", str(config), "--problem", "rough",
                         "--N", "2"]) == 0
        chk = tmp_path / "out" / "solution_rough_N2.ckpt"
        assert chk.exists()
        header = load_solution(chk).meta
        assert (header["problem"], header["N"], header["source"]) == ("rough", 2, "box")
        assert header["solver"] == "decoupled"
        assert cli_main(["reference", "--config", str(config), "--problem", "hom"]) == 0
        assert (tmp_path / "out" / "ref_hom.ckpt").exists()
        assert cli_main(["snapshot", "--config", str(config), "--checkpoint",
                         str(chk), "--time", "0.5", "--resolution", "8"]) == 0
        assert (tmp_path / "out" / "snapshot_t0.5.vtk").exists()
        assert (tmp_path / "out" / "snapshot_t0.5.csv").exists()

    def test_hom_solve_checkpoint_records_no_N(self, tmp_path, capsys):
        config = tmp_path / "cfg.ini"
        config.write_text("[study]\nn_list = 2\n[reference]\nspace_cells = 8\n"
                          "time_cells = 12\n")
        assert cli_main(["solve", "--config", str(config), "--out", str(tmp_path),
                         "--problem", "hom", "--N", "4"]) == 0
        header = load_solution(tmp_path / "solution_hom.ckpt").meta
        assert (header["problem"], header["N"], header["source"]) == ("hom", None, "box")

    def test_study_verb(self, tmp_path):
        config = tmp_path / "cfg.ini"
        config.write_text("""
[study]
n_list = 2
[reference]
space_cells = 16
time_cells = 24
checkpoint = never
[output]
dir = {out}
""".format(out=tmp_path / "out"))
        assert cli_main(["study", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "table.csv").exists()
