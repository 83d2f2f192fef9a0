import dataclasses
import os
import re
from pathlib import Path

import numpy as np
import pytest

from parahyp import coefficients as co
from parahyp import spaces
from parahyp.cli import main as cli_main
from parahyp.errors import compare_solutions
from parahyp.slab import load_solution, run, save_solution
from parahyp.spaces import eval_scalar
from parahyp.study import (_SCHEMA, StudyConfig, _write_raster, export_snapshot,
                           parse_config, run_study, solve_reference)


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

    @pytest.mark.parametrize("text, match", [
        # [DEFAULT] would set p and ref_p alike
        ("[DEFAULT]\np = 3\n", r"unknown config section \[DEFAULT\]"),
        # [STUDY] would merge into [study]
        ("[study]\np = 1\n\n[STUDY]\nq = 2\n", r"\[STUDY\] repeats another section")],
        ids=["default", "case-twin"])
    def test_default_and_case_twin_sections_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
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

    def test_schema_names_every_field_once(self):
        named = [name for keys in _SCHEMA.values() for name, _ in keys.values()]
        assert sorted(named) == sorted(f.name for f in dataclasses.fields(StudyConfig))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(tmp_path / "absent.ini")

    def test_invalid_choices_rejected_once(self, tmp_path):
        # parse_config leaves value checks to StudyConfig
        path = tmp_path / "bad.ini"
        for mode in ("sometimes", "always"):
            path.write_text(f"[reference]\ncheckpoint = {mode}\n")
            with pytest.raises(ValueError, match=f"checkpoint must be one of .*'{mode}'"):
                parse_config(path)
        for key, line in [("threads", "threads = 2"), ("solver", "solver = fast")]:
            path.write_text(f"[study]\n{line}\n")
            with pytest.raises(ValueError, match=f"unknown key '{key}'"):
                parse_config(path)

    @pytest.mark.parametrize("key, value", [("T", 0.0), ("T", -1.5), ("T", np.inf),
                                            ("T", np.nan), ("rho", -1.0), ("rho", np.inf),
                                            ("rho", np.nan), ("ref_p", 0),
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

    @pytest.mark.parametrize("line, key", [("rho = nan", "rho"), ("t = inf", "T")])
    def test_non_finite_value_rejected_from_config(self, tmp_path, line, key):
        path = tmp_path / "nonfinite.ini"
        path.write_text(f"[study]\n{line}\n")
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            parse_config(path)

    def test_final_time_must_fit_the_study_slabs(self):
        # rejected on construction, not at the first solve after run.log is open
        with pytest.raises(ValueError, match=r"^T=1.3 is not an integer multiple of the "
                                             r"study slab length 1/4 for N=2$"):
            StudyConfig(n_list=(2,), T=1.3, ref_space_cells=8, ref_time_cells=26)
        # 3/8 fits the slabs 1/8 of N = 4, not the slabs 1/4 of N = 2
        assert StudyConfig(n_list=(4,), T=0.375, ref_space_cells=16, ref_time_cells=6).T == 0.375
        with pytest.raises(ValueError, match=r"slab length 1/4 for N=2$"):
            StudyConfig(n_list=(2, 4), T=0.375, ref_space_cells=16, ref_time_cells=6)

    @pytest.mark.parametrize("kwargs, text, q", [
        # the study slabs 1/4 at rho = 40
        (dict(q=3), "[study]\nn_list = 2\nrho = 40\nq = 3\n", 3),
        # the reference slabs T/6 = 1/4; the study's q = 1 slabs pass
        (dict(ref_q=5, ref_space_cells=8, ref_time_cells=6),
         "[study]\nn_list = 2\nrho = 40\n[reference]\nq = 5\nspace_cells = 8\n"
         "time_cells = 6\n", 5)], ids=["study", "reference"])
    def test_ill_conditioned_slabs_refused(self, tmp_path, kwargs, text, q):
        # rejected on construction, not at the first solve after run.log is open
        match = rf"q={q} slabs at rho\*tau=10 .*; use shorter slabs or a lower q$"
        with pytest.raises(ValueError, match=match):
            StudyConfig(n_list=(2,), rho=40.0, **kwargs)
        path = tmp_path / "bad.ini"
        path.write_text(text)
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
                             ref_time_cells=12, checkpoint="auto")
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
                             ref_time_cells=12, checkpoint="auto")
        logs = []
        sol = solve_reference("hom", None, config, logs.append)
        assert sol.meta["solver"] == "decoupled"
        # 8 x 8 fibres fall into 21 orbits of the point group, and the study
        # data reach its trivial character alone
        assert (sol.meta["fibres"], sol.meta["symmetry_blocks"]) == (21, 1)
        assert any("] solved" in line and "solver=decoupled/bloch (21 of 64 fibres, "
                   "1 of 4 symmetry blocks) in" in line for line in logs)
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
                             ref_time_cells=12, checkpoint="auto")
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

    def test_skeleton_size_logged_and_outside_identity(self, tmp_path):
        config = mini_config(tmp_path, n_list=(2,), ref_space_cells=8,
                             ref_time_cells=12, checkpoint="auto")
        logs = []
        sol = solve_reference("rough", 2, config, logs.append)
        # p = 3: 11 of each cell's 27 owned unknowns are left on the skeleton,
        # all 27 on the 16 cells of the two diagonals, and the study's
        # symmetric data reach one of its four symmetry blocks
        assert (sol.meta["spatial_solver"], sol.meta["skeleton_dofs"],
                sol.meta["symmetry_blocks"]) == ("splu", 11 * 48 + 27 * 16, 1)
        assert sol.coeffs.shape[2] == 27 * 64
        assert any("] solved" in line and "solver=decoupled/splu (skeleton 960 of 1728, "
                   "1 of 4 symmetry blocks) in" in line for line in logs)
        path = os.path.join(config.out_dir, "ref_rough_N2.ckpt")
        old = load_solution(path)
        assert old.meta["symmetry_blocks"] == 1
        # a checkpoint that records another skeleton size is the same reference
        old.meta = {**old.meta, "skeleton_dofs": 1}
        save_solution(old, path)
        logs.clear()
        again = solve_reference("rough", 2, config, logs.append)
        assert any("loaded checkpoint" in line for line in logs)
        assert np.array_equal(again.coeffs, sol.coeffs)

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        config = mini_config(tmp_path, n_list=(2,), ref_space_cells=8,
                             ref_time_cells=12, checkpoint="auto")
        solve_reference("hom", None, config, lambda *_: None)
        other = mini_config(tmp_path, n_list=(2,), ref_space_cells=16,
                            ref_time_cells=24, checkpoint="auto")
        with pytest.raises(ValueError, match="does not match"):
            solve_reference("hom", None, other, lambda *_: None)

    @pytest.mark.parametrize("key, changed", [
        ("rho", dict(rho=3.0)),
        # same slab length 1/8, other final time
        ("T", dict(T=0.75, ref_time_cells=6)),
    ])
    def test_other_problem_data_rejected(self, tmp_path, key, changed):
        base = dict(n_list=(2,), ref_space_cells=8, ref_time_cells=12, checkpoint="auto")
        solve_reference("hom", None, mini_config(tmp_path, **base), lambda *_: None)
        other = mini_config(tmp_path, **{**base, **changed})
        with pytest.raises(ValueError, match=f"does not match the requested reference: "
                                             f"{key} [^,]*$"):
            solve_reference("hom", None, other, lambda *_: None)

    def test_renamed_rough_checkpoint_rejected_as_hom(self, tmp_path):
        config = mini_config(tmp_path, n_list=(2,), ref_space_cells=8,
                             ref_time_cells=12, checkpoint="auto")
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
                             ref_time_cells=12, checkpoint="auto",
                             snapshot_times=(0.5,), snapshot_resolution=8)
        run_study(config, log=lambda *_: None)
        assert sorted(os.listdir(config.out_dir)) == [
            "ref_hom.ckpt", "ref_rough_N2.ckpt", "run.log", "table.csv",
            "u_N2_t0.5.csv", "u_N2_t0.5.vtk", "u_hom_t0.5.csv", "u_hom_t0.5.vtk"]

    def test_snapshot_times_outside_the_window_skipped_and_logged(self, tmp_path):
        config = mini_config(tmp_path, n_list=(2,), T=0.5, ref_space_cells=8,
                             ref_time_cells=4, snapshot_times=(0.25, 2.0, -1.0),
                             snapshot_resolution=4)
        run_study(config, log=lambda *_: None)
        snapshots = sorted(f for f in os.listdir(config.out_dir) if f.startswith("u_"))
        assert snapshots == ["u_N2_t0.25.csv", "u_N2_t0.25.vtk",
                             "u_hom_t0.25.csv", "u_hom_t0.25.vtk"]
        lines = Path(config.out_dir, "run.log").read_text().splitlines()
        assert [line for line in lines if re.fullmatch(
            r"\[study\] wrote snapshots at t = \(0\.25,\) for N = \(2,\) and the averaged "
            r"problem in \d+\.\ds", line)]
        assert "[study] skipped snapshot times outside [0, T=0.5]: (2.0, -1.0)" in lines
        # with no time inside the window nothing is written and nothing claims so
        late = dataclasses.replace(config, out_dir=str(tmp_path / "late"), snapshot_times=(2.0,))
        run_study(late, log=lambda *_: None)
        assert not [f for f in os.listdir(late.out_dir) if f.startswith("u_")]
        lines = Path(late.out_dir, "run.log").read_text().splitlines()
        assert not [line for line in lines if line.startswith("[study] wrote snapshots")]

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

    def test_each_reference_meets_the_rows_it_serves(self, tmp_path, monkeypatch):
        calls = []

        def recorder(coarse, reference, s0_weight):
            calls.append((reference.meta["problem"], reference.meta["N"],
                          coarse.space_u.mesh.n, s0_weight))
            return compare_solutions(coarse, reference, s0_weight=s0_weight)

        monkeypatch.setattr("parahyp.study.compare_solutions", recorder)
        config = mini_config(tmp_path, ref_space_cells=16, ref_time_cells=24,
                             snapshot_times=(0.5,), snapshot_resolution=4)
        table = run_study(config, log=lambda *_: None)
        # E_sup is weighted by the s0 of the reference's own problem
        assert calls == [("rough", 2, 4, co.checkerboard(2)),
                         ("rough", 4, 8, co.checkerboard(4)),
                         ("hom", None, 4, co.constant(0.5)),
                         ("hom", None, 8, co.constant(0.5))]
        # the benchmark's golden study table, to about 1e-14
        expected = [[2, 0.039909266918084566, 0.019643131920692572,
                     0.060865637478312244, 0.027228377649973698],
                    [4, 0.01272960284917609, 0.006397508397760359,
                     0.04591528455163123, 0.0190009020151726]]
        for row, want in zip(table.rows, expected, strict=True):
            got = [row["N"], *(row[c] for c in table.columns)]
            assert got == pytest.approx(want, rel=1e-9)
        lines = Path(config.out_dir, "run.log").read_text().splitlines()
        assert any(line.startswith("[study hom] solved n=8 p=2 slabs=12") for line in lines)

    def test_determinism_byte_identical_csv(self, tmp_path):
        config_a = mini_config(tmp_path, out_dir=str(tmp_path / "a"))
        config_b = mini_config(tmp_path, out_dir=str(tmp_path / "b"))
        run_study(config_a, log=lambda *_: None)
        run_study(config_b, log=lambda *_: None)
        csv_a = Path(config_a.out_dir, "table.csv").read_bytes()
        csv_b = Path(config_b.out_dir, "table.csv").read_bytes()
        assert csv_a == csv_b


def assert_per_value_text(values, vtk, csv):
    """The VTK scalars and the CSV rows hold the bytes of the writer that
    formats every value of the raster by its own ``repr``, x running fastest."""
    res = len(values)
    words = [repr(float(values[i, j])) for j in range(res) for i in range(res)]
    scalars = Path(vtk).read_bytes().split(b"LOOKUP_TABLE default\n")[1]
    assert scalars == ("\n".join(words) + "\n").encode()
    assert Path(csv).read_bytes() == "".join(",".join(words[j * res:(j + 1) * res]) + "\n"
                                             for j in range(res)).encode()


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

    def test_time_just_after_zero_writes_the_initial_raster(self, tmp_path):
        # coefficients_at snaps t = 1e-12 onto t = 0, where only x0 is defined
        sol = run(co.rough_problem(2, T=0.5), n=4, p=2, q=1, tau=0.25)
        sol.initial_state = np.random.default_rng(0).standard_normal(sol.coeffs.shape[2])
        rasters = []
        for t in (0.0, 1e-12):
            vtk, csv = export_snapshot(sol, t, 8, str(tmp_path / f"snap_{t}"))
            rasters.append((Path(csv).read_text(),
                            Path(vtk).read_text().split("LOOKUP_TABLE default\n")[1]))
        assert rasters[0] == rasters[1]
        assert any(float(v) != 0.0 for v in rasters[0][1].split())

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
        assert_per_value_text(values, vtk, csv)

    def test_each_distinct_float_keeps_its_own_text(self, tmp_path):
        # repeats, both zeros, subnormals, NaNs with two payloads, infinities
        # and near-ties that a coarser key would merge
        tiny = np.nextafter(0.0, 1.0)
        pool = np.array([0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308 / 3, 0.1,
                         np.nextafter(0.1, 1.0), 1e300, -1e-300, np.inf, -np.inf, np.nan,
                         np.int64(0x7FF8000000000001).view(np.float64), 1 / 3, 12345.678])
        values = np.random.default_rng(3).choice(pool, size=(9, 9))
        values.flat[:len(pool)] = pool
        vtk, csv = _write_raster(values, 0.5, str(tmp_path / "pool"))
        assert len(np.unique(values.view(np.int64))) == len(pool)
        assert_per_value_text(values, vtk, csv)

    def test_raster_tabulated_once_per_solution(self, tmp_path, monkeypatch):
        calls = []

        def counting(space, points, *args):
            calls.append((space, len(points)))
            return spaces._tabulate(space, points, *args)

        monkeypatch.setattr("parahyp.study._tabulate", counting)
        config = mini_config(tmp_path, n_list=(2,), T=0.5, ref_space_cells=8,
                             ref_time_cells=4, snapshot_times=(0.25, 0.5),
                             snapshot_resolution=8)
        run_study(config, log=lambda *_: None)
        assert len([f for f in os.listdir(config.out_dir) if f.startswith("u_")]) == 8
        # the N = 2 row and the averaged problem, each at 64 raster points
        assert len(calls) == 2 and calls[0][0] is not calls[1][0]
        assert [n for _, n in calls] == [64, 64]

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

    def test_resolution_must_be_positive(self, tmp_path):
        sol = run(co.rough_problem(2, T=0.5), n=4, p=2, q=1, tau=0.25)
        for resolution in (0, -4):
            with pytest.raises(ValueError, match=f"resolution must be >= 1, got {resolution}"):
                export_snapshot(sol, 0.25, resolution, str(tmp_path / "snap"))
        # 0 on the command line is a resolution, not a request for the configured one
        chk = tmp_path / "sol.ckpt"
        save_solution(sol, chk)
        with pytest.raises(ValueError, match="resolution must be >= 1, got 0"):
            cli_main(["snapshot", "--out", str(tmp_path), "--checkpoint", str(chk),
                      "--time", "0.25", "--resolution", "0"])
        assert sorted(os.listdir(tmp_path)) == ["sol.ckpt"]


class TestCli:
    def test_check_verb(self, capsys):
        assert cli_main(["check", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 5

    def test_seed_is_a_check_flag_not_a_config_key(self, tmp_path, monkeypatch):
        seeds = []
        monkeypatch.setattr("parahyp.cli.run_self_checks",
                            lambda seed: seeds.append(seed) or True)
        assert cli_main(["check", "--seed", "3"]) == 0
        assert cli_main(["check"]) == 0
        assert seeds == [3, 0]
        config = tmp_path / "cfg.ini"
        config.write_text("[study]\nseed = 7\n")
        with pytest.raises(ValueError, match="unknown key 'seed'"):
            parse_config(config)
        for argv in (["check", "--config", str(config)], ["study", "--seed", "3"]):
            with pytest.raises(SystemExit):
                cli_main(argv)
        assert seeds == [3, 0]

    def test_solve_reference_snapshot_pipeline(self, tmp_path, capsys):
        config = tmp_path / "cfg.ini"
        config.write_text("""
[study]
n_list = 2
[reference]
space_cells = 8
time_cells = 12
checkpoint = auto
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
