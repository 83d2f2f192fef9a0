"""One benchmark iteration, run in a fresh Python process.

    python3 perfbench/child.py SPEC.json RESULT.json

The spec names the user call (``study``: ``run_study``; ``references``:
``solve_reference`` for each listed problem), the ``StudyConfig`` keyword
arguments, the golden values and whether to trace.  The child imports
``parahyp`` from the checkout's ``src`` directory, builds the config, stamps
the set-up point on the system-wide monotonic clock, times the user call,
checks its output against the golden values and writes one JSON result.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Far below the discretisation errors (1e-3 .. 1e-1 with eocs near 1) and far
# above round-off, so a change of factorisation or summation order passes.
RTOL = 1e-6


def import_parahyp():
    """Import ``parahyp`` from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import parahyp.study
    if not Path(parahyp.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"parahyp imported from {parahyp.__file__}, not from {SRC}")
    return parahyp


def _close(value: float, golden: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - golden) <= rtol * abs(golden)


def check_table(table, golden_rows, rtol: float = RTOL) -> list[str]:
    """Mismatches of an ErrorTable against golden rows [N, E_sup_r, E_Q_r, E_sup_h, E_Q_h]."""
    rows = [[row["N"]] + [float(row[c]) for c in table.columns] for row in table.rows]
    if [r[0] for r in rows] != [g[0] for g in golden_rows]:
        return [f"table rows N={[r[0] for r in rows]}, expected {[g[0] for g in golden_rows]}"]
    return [f"N={row[0]} {col}: {value!r} != golden {gold!r}"
            for row, gold_row in zip(rows, golden_rows)
            for col, value, gold in zip(table.columns, row[1:], gold_row[1:])
            if not _close(value, gold, rtol)]


def check_final_trace(solution, golden_norm: float, rtol: float = RTOL) -> list[str]:
    """Mismatch of the Euclidean norm of the final right-trace coefficients."""
    import numpy as np
    norm = float(np.linalg.norm(solution.final_trace().concat()))
    return [] if _close(norm, golden_norm, rtol) else \
        [f"final trace norm {norm!r} != golden {golden_norm!r}"]


def _config(parahyp, spec):
    kwargs = dict(spec["config"])
    for key in ("n_list", "snapshot_times"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return parahyp.study.StudyConfig(**kwargs)


def _call(parahyp, spec, config):
    """The user call, looked up on the module so that traced wrappers apply."""
    study = parahyp.study
    if spec["call"] == "study":
        return study.run_study(config)
    return [study.solve_reference(kind, N, config) for kind, N in spec["references"]]


def _gate(spec, config, output) -> list[str]:
    golden = spec.get("golden")
    if golden is None:
        return []
    if spec["call"] == "study":
        errors = check_table(output, golden["table"])
        csv = Path(config.out_dir, "table.csv")
        if not csv.is_file() or csv.read_text() != output.to_csv():
            errors.append(f"{csv} does not hold the returned table")
        return errors
    return [e for sol in output for e in check_final_trace(sol, golden["final_trace_norm"])]


def run_iteration(parahyp, spec, config) -> dict:
    result = {}
    tracer = None
    try:
        t0 = time.perf_counter()
        if spec.get("trace"):
            from spans import ROOT as ROOT_SPAN, Tracer, installed
            tracer = Tracer(spec.get("iteration", 0))
            with installed(tracer), tracer.span(ROOT_SPAN):
                output = _call(parahyp, spec, config)
        else:
            output = _call(parahyp, spec, config)
        result["wall_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["errors"] = _gate(spec, config, output)
    except Exception:
        result["errors"] = [traceback.format_exc()]
    if tracer is not None:
        result["spans"] = tracer.spans
    return result


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    parahyp = import_parahyp()
    config = _config(parahyp, spec)
    result = {"ready": time.monotonic()}
    result.update(run_iteration(parahyp, spec, config))
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
