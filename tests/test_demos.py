"""Each demo runs to completion as a script.

Demo 03 writes its snapshots into ``demos/output/``, which git ignores.
Demo 05 (a full convergence study, about 12 s on one core of a 2-core
Intel Xeon host with one BLAS thread) is left out: ``run_study``
is covered by the acceptance suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_weighted_radau_rules.py", "02_periodic_spaces_and_operators.py",
         "03_single_solve_and_snapshot.py", "04_manufactured_convergence.py",
         "06_gelfand_transform.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
