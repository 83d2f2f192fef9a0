"""Tests of the benchmark itself, on tiny configurations (seconds each).

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

parahyp = child.import_parahyp()

TINY = {"n_list": [2], "ref_space_cells": 8, "snapshot_resolution": 8}
TINY_TABLE = [[2, 0.032212374715185614, 0.012696885240981528,
               0.05674228707610066, 0.023530750156361458]]
TINY_STUDY_SOLVES = 2 * run._dof_slabs(4, 2, 6)
TINY_WORKLOADS = {
    "tiny_cold": {"call": "study", "config": TINY, "golden": {"table": TINY_TABLE},
                  "work": TINY_STUDY_SOLVES + 2 * run._dof_slabs(8, 3, 12)},
    "tiny_warm": {"call": "study", "config": TINY, "golden": {"table": TINY_TABLE},
                  "work": TINY_STUDY_SOLVES, "prepare": [["rough", 2], ["hom", None]]},
    "tiny_reference": {"call": "references", "references": [["hom", None]],
                       "config": dict(TINY, checkpoint="never"),
                       "golden": {"final_trace_norm": 4.933314364600624},
                       "work": run._dof_slabs(8, 3, 12)},
}


@pytest.fixture(autouse=True)
def _work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)


def _bench(capsys, workload, trace, workloads=TINY_WORKLOADS):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)], workloads=workloads)
    assert code == 0
    report, result = [json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return report, result


def _declared(kind):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", sorted(TINY_WORKLOADS))
def test_end_to_end_metrics_match_benchmark_json(capsys, workload):
    report, result = _bench(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["failed_frac"] == 0
    # the timed wall and set-up are raw medians rescaled by the run's host speed
    host = report["host_speed"]
    assert host["reps"] >= result["attempted"] and host["rate"] > 0
    for metric, raw in (("wall_norm_s", "wall_s"), ("setup_s", "setup_s")):
        assert result["metrics"][metric]["value"] == pytest.approx(
            report[raw]["median"] * host["rate"] / host["reference_rate"], rel=1e-12)
    assert set(report["environment"]) >= {"nproc", "blas_threads", "numpy", "scipy",
                                          "cpu", "disk_free_gb"}
    assert report["environment"]["blas_threads"] <= report["environment"]["nproc"]


@pytest.mark.parametrize("workload", ["tiny_cold", "tiny_warm"])
def test_traced_metrics_match_benchmark_json_and_add_up(capsys, workload):
    _, result = _bench(capsys, workload, trace=1)
    assert result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("per_layer")
    layer_times = [v for k, v in metrics.items()
                   if k.endswith("_s") and not k.startswith("trace.")]
    assert sum(layer_times) == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["slab.dof_slabs"] == TINY_WORKLOADS[workload]["work"]
    if workload == "tiny_cold":
        assert metrics["checkpoint.save_bytes"] > 0 and metrics["checkpoint.load_s"] == 0
    else:
        assert metrics["checkpoint.load_MBps"] > 0 and metrics["checkpoint.save_s"] == 0


def test_gate_rejects_a_perturbed_table_value(capsys):
    table = parahyp.ErrorTable()
    table.add_row(*TINY_TABLE[0])
    assert child.check_table(table, TINY_TABLE) == []
    perturbed = [TINY_TABLE[0][:3] + [TINY_TABLE[0][3] * (1 + 1e-5)] + TINY_TABLE[0][4:]]
    assert len(child.check_table(table, perturbed)) == 1

    workloads = {"bad": dict(TINY_WORKLOADS["tiny_cold"], golden={"table": perturbed})}
    report, result = _bench(capsys, "bad", trace=0, workloads=workloads)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "e_sup_hom" in report["errors"][0]


def test_warm_guard_rejects_changed_checkpoint(tmp_path):
    runner = run.Runner(tmp_path, deadline=float("inf"))
    (tmp_path / "inputs").mkdir()
    (tmp_path / "inputs" / "ref_hom.txt").write_text("checkpoint")
    digest = run._sha256(tmp_path / "inputs" / "ref_hom.txt")
    assert run.stage(runner, {"ref_hom.txt": digest})[1] == []
    assert run.stage(runner, {})[1] == []
    (tmp_path / "inputs" / "ref_hom.txt").write_text("rewritten")
    out, errors = run.stage(runner, {"ref_hom.txt": digest})
    assert errors and errors[0].startswith("guard")


def test_traced_run_restores_every_wrapped_global(tmp_path):
    modules = {name: sys.modules[name] for name, _ in spans.LAYERS}
    originals = {key: getattr(modules[key[0]], key[1]) for key in spans.LAYERS}
    config = parahyp.StudyConfig(n_list=(2,), ref_space_cells=8, snapshot_times=(0.5,),
                                 snapshot_resolution=8, out_dir=str(tmp_path / "out"))
    tracer = spans.Tracer(iteration=0)
    with pytest.raises(KeyboardInterrupt):
        with spans.installed(tracer), tracer.span(spans.ROOT):
            assert all(getattr(modules[m], a) is not originals[(m, a)] for m, a in spans.LAYERS)
            table = parahyp.study.run_study(config, log=lambda message: None)
            raise KeyboardInterrupt
    assert all(getattr(modules[m], a) is originals[(m, a)] for m, a in spans.LAYERS)
    assert child.check_table(table, TINY_TABLE) == []
    names = {s["name"] for s in tracer.spans}
    # a cold study solves and saves its references; nothing is loaded
    assert names == {attr for _, attr in spans.LAYERS} - {"load_solution"} | {spans.ROOT}
    root = next(s for s in tracer.spans if s["name"] == spans.ROOT)
    layers = spans.layer_metrics(tracer.spans)
    total = sum(v for k, v in layers.items() if k.endswith("_s"))
    assert total == pytest.approx(root["end"] - root["start"], rel=1e-9)


@pytest.mark.parametrize("n,p", [(4, 1), (8, 2), (6, 3)])
def test_work_formula_matches_the_spaces(n, p):
    mesh = parahyp.build_mesh(n)
    ndof = parahyp.ScalarSpace(mesh, p).ndof + parahyp.VectorSpace(mesh, p).ndof
    assert run._dof_slabs(n, p, slabs=5) == 5 * ndof
