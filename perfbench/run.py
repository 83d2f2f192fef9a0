"""parahyp benchmark: desk-scale convergence study, cold and warm, and one
large reference solve on the decoupled path.

    python3 perfbench/run.py --workload study_cold --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every timed iteration is a fresh child
process (``child.py``) that imports ``parahyp`` from ``src`` and makes one
public call, so each iteration pays what a ``parahyp study`` or ``parahyp
reference`` user pays and no in-process cache survives between iterations.
This parent runs the children one after another (a closed loop with one
client) until ``--seconds`` is used up, then prints a human-readable JSON
report line and, as the last line, the result object.  After each iteration
it runs a fixed calibration computation (``hostspeed.py``) and reports the
median wall and set-up times rescaled to a reference host speed, because the speed of a
shared host drifts in phases as long as a run.  ``--trace 1``
alternates untraced and traced iterations and reports per-layer metrics
instead of end-to-end ones.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from hostspeed import REFERENCE_RATE, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = HERE / "child.py"

RUN_LIMIT_S = 170          # every run ends well inside the 180 s budget
# The solver's BLAS calls are small (a (q+1) x (q+1) temporal basis change per
# slab); a second OpenBLAS thread only spins, costing ~20 % wall time and
# doubling CPU time on the decoupled path, and makes timings noisier.
BLAS_THREADS = 1


def _dof_slabs(n: int, p: int, slabs: int) -> int:
    """ndof x slabs of one solve: Q_p plus RT_{p-1} on a periodic n x n mesh
    have (np)^2 + 2 (np)^2 coefficients."""
    return 3 * (n * p) ** 2 * slabs


_STUDY = {"n_list": [2, 4], "p": 2, "q": 1, "ref_p": 3, "ref_q": 1,
          "ref_space_cells": 16, "ref_time_cells": 24, "checkpoint": "auto",
          "snapshot_resolution": 64}
_STUDY_REFERENCES = [["rough", 2], ["rough", 4], ["hom", None]]
# golden ErrorTable rows [N, E_sup_rough, E_Q_rough, E_sup_hom, E_Q_hom]
_STUDY_TABLE = [
    [2, 0.03990926691808406, 0.019643131920692378, 0.06086563747831201, 0.027228377649973275],
    [4, 0.012729602849176075, 0.006397508397760289, 0.04591528455162993, 0.019000902015172433],
]
# study rows (n = 2N, T / (1 / 2N) slabs) plus the averaged-problem snapshot solve
_STUDY_SOLVES = sum(_dof_slabs(2 * N, 2, 3 * N) for N in (2, 4)) + _dof_slabs(8, 2, 12)

WORKLOADS = {
    "study_cold": {
        "call": "study", "config": _STUDY, "golden": {"table": _STUDY_TABLE},
        "work": _STUDY_SOLVES + 3 * _dof_slabs(16, 3, 24),
    },
    "study_warm": {
        "call": "study", "config": _STUDY, "golden": {"table": _STUDY_TABLE},
        "work": _STUDY_SOLVES,
        # the reference checkpoints, written by the program during set-up
        "prepare": _STUDY_REFERENCES,
    },
    "reference_decoupled": {
        # 2 x 84672 = 169k stacked unknowns, above the 120k 'auto' threshold
        "call": "references", "references": [["hom", None]],
        "config": {"n_list": [2, 4], "ref_p": 3, "ref_q": 1, "ref_space_cells": 56,
                   "ref_time_cells": 48, "checkpoint": "never"},
        "golden": {"final_trace_norm": 35.11961385963752},
        "work": _dof_slabs(56, 3, 48),
    },
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, _nproc()))
    return env


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": _nproc(), "blas_threads": min(BLAS_THREADS, _nproc()), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "disk_free_gb": round(shutil.disk_usage(ROOT).free / 1e9, 1)}


def _sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _disk_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Runner:
    """Spawns the child processes of one benchmark run."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = child_env()
        self._count = 0
        self._outs = 0

    def spawn(self, spec: dict) -> tuple[dict | None, float]:
        """Run one child to completion; returns (result or None, spawn time)."""
        self._count += 1
        cdir = self.run_dir / f"child{self._count}"
        cdir.mkdir()
        spec_path, result_path = cdir / "spec.json", cdir / "result.json"
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        with open(cdir / "child.log", "w") as log:
            spawned = time.monotonic()
            try:
                code = subprocess.run([sys.executable, str(CHILD), str(spec_path),
                                       str(result_path)], cwd=ROOT, env=self.env,
                                      stdout=log, stderr=subprocess.STDOUT,
                                      timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                return None, spawned
        if code != 0 or not result_path.is_file():
            tail = (cdir / "child.log").read_text()[-2000:]
            return {"errors": [f"child exited with {code}: {tail}"]}, spawned
        return json.loads(result_path.read_text()), spawned

    def out_dir(self) -> Path:
        self._outs += 1
        return self.run_dir / f"out{self._outs}"


def prepare_inputs(runner: Runner, spec: dict) -> dict[str, str]:
    """Let the program write the workload's input checkpoints; name -> sha256."""
    inputs = runner.run_dir / "inputs"
    config = dict(spec["config"], out_dir=str(inputs))
    result, _ = runner.spawn({"call": "references", "references": spec["prepare"],
                              "config": config})
    if result is None or result.get("errors"):
        raise BenchError(f"set-up failed: {result and result['errors']}")
    files = sorted(p for p in inputs.iterdir() if p.is_file()) if inputs.is_dir() else []
    if len(files) != len(spec["prepare"]):
        raise BenchError(f"set-up wrote {[p.name for p in files]}, expected one "
                         f"checkpoint per reference {spec['prepare']}")
    return {p.name: _sha256(p) for p in files}


def stage(runner: Runner, inputs: dict[str, str]) -> tuple[Path, list[str]]:
    """Fresh output dir for one iteration, in the state the workload names.

    A cold study must find no reference checkpoint, or ``checkpoint = auto``
    silently makes it a warm one; a warm study must find every checkpoint
    with the content recorded at set-up.
    """
    out = runner.out_dir()
    out.mkdir()
    # hard links: no new dirty pages per iteration, and a program that wrote
    # into its inputs would change them for the next guard to see
    for name in inputs:
        os.link(runner.run_dir / "inputs" / name, out / name)
    found = {p.name: _sha256(p) for p in out.iterdir()}
    if found != inputs:
        return out, [f"guard: output dir holds {sorted(found)} before the iteration, "
                     f"expected {sorted(inputs)} with their set-up hashes"]
    return out, []


def run(workload: str, spec: dict, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, report)."""
    started = time.monotonic()
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, started + RUN_LIMIT_S)
    cpus = os.sched_getaffinity(0)
    try:
        # the children inherit the CPU, so the calibration samples the same
        # core as the program: the speeds of two cores drift independently
        os.sched_setaffinity(0, {min(cpus)})
        t0 = time.monotonic()
        inputs = prepare_inputs(runner, spec) if "prepare" in spec else {}
        prepare_s = time.monotonic() - t0

        host = HostSpeed()
        setups, iterations, durations = [], [], []
        window = time.monotonic()
        while True:
            t0 = time.monotonic()
            out, errors = stage(runner, inputs)
            traced = trace and len(iterations) % 2 == 1
            it = {"traced": traced, "errors": errors}
            if not errors:
                child_spec = dict(spec, config=dict(spec["config"], out_dir=str(out),
                                                    seed=seed),
                                  trace=traced, iteration=len(iterations))
                result, spawned = runner.spawn(child_spec)
                if result is None:
                    it["errors"] = ["child timed out"]
                else:
                    it.update(result)
                    if "ready" in result:
                        setups.append(result["ready"] - spawned)
                    it["disk_mb"] = _disk_bytes(out) / 1e6
            shutil.rmtree(out, ignore_errors=True)
            iterations.append(it)
            host.measure(time.monotonic() - t0)
            durations.append(time.monotonic() - t0)
            now = time.monotonic()
            enough = len(iterations) >= (2 if trace else 1)
            if enough and (now - window + statistics.median(durations) > seconds
                           or now + max(durations) > runner.deadline):
                break
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(run_dir, ignore_errors=True)

    # an iteration that failed the gate still ran and is timed; the result
    # then reads correct = false
    timed = [it for it in iterations if "wall_s" in it]
    plain = [it for it in timed if not it["traced"]]
    if not plain or (trace and len(timed) == len(plain)):
        raise BenchError("no iteration ran to completion: "
                         + "; ".join(e for it in iterations for e in it["errors"])[:4000])
    walls = [it["wall_s"] for it in plain]
    q1, wall_s, q3 = _quartiles(walls)
    wall_norm_s = host.rescale(wall_s)
    if trace:
        metrics = per_layer(timed, statistics.mean(walls))
    else:
        metrics = {
            "wall_norm_s": (wall_norm_s, "s"),
            "setup_s": (host.rescale(statistics.median(setups)), "s"),
            "dof_slabs_per_s": (spec["work"] / wall_norm_s, "1/s"),
            "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in plain), "MB"),
        }
    failed = sum(1 for it in iterations if it["errors"])
    result = {"correct": failed == 0, "attempted": len(iterations), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(),
              "wall_s": {"median": wall_s, "q1": q1, "q3": q3, "samples": len(walls),
                         "each": walls},
              "host_speed": {"rate": host.rate, "reps": host.reps, "seconds": host.seconds,
                             "reference_rate": REFERENCE_RATE, "wall_norm_s": wall_norm_s},
              "setup_s": {"median": statistics.median(setups), "samples": len(setups)},
              "failed_frac": failed / len(iterations),
              "disk_mb": statistics.median(it["disk_mb"] for it in timed),
              "prepare_s": prepare_s, "run_s": time.monotonic() - started,
              "errors": [e for it in iterations for e in it["errors"]][:5]}
    return result, report


def per_layer(timed: list[dict], untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Mean per-layer metrics over the traced iterations.

    Means (not medians) keep the layer times additive: they sum to the mean
    traced wall time.
    """
    from spans import ROOT as ROOT_SPAN, layer_metrics
    traced = [it for it in timed if it["traced"]]
    layers = [layer_metrics(it["spans"]) for it in traced]
    mean = {key: statistics.mean(m[key] for m in layers) for key in layers[0]}
    wall = statistics.mean(s["end"] - s["start"] for it in traced for s in it["spans"]
                           if s["name"] == ROOT_SPAN)

    def rate(nbytes, seconds):
        return nbytes / 1e6 / seconds if seconds > 0 else 0.0

    units = {"slab.steps": "count", "errors.compares": "count", "study.snapshots": "count",
             "slab.dof_slabs": "count", "checkpoint.save_bytes": "bytes",
             "checkpoint.load_bytes": "bytes"}
    metrics = {key: (value, units.get(key, "s")) for key, value in sorted(mean.items())}
    metrics["slab.step_ms"] = (1e3 * mean["slab.step_s"] / mean["slab.steps"]
                               if mean["slab.steps"] else 0.0, "ms")
    metrics["checkpoint.save_MBps"] = (rate(mean["checkpoint.save_bytes"],
                                            mean["checkpoint.save_s"]), "MB/s")
    metrics["checkpoint.load_MBps"] = (rate(mean["checkpoint.load_bytes"],
                                            mean["checkpoint.load_s"]), "MB/s")
    metrics["study.disk_mb"] = (statistics.median(it["disk_mb"] for it in timed), "MB")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (statistics.mean(it["wall_s"] for it in traced)
                                   - untraced_wall, "s")
    return metrics


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "parahyp" / "__init__.py").is_file():
            raise BenchError(f"no parahyp sources under {SRC}; run from a checkout root")
        result, report = run(args.workload, workloads[args.workload], args.seed,
                             args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
