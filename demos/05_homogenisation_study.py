"""Scaled-down homogenisation convergence study.

Runs the full pipeline (study solves, rough and averaged reference
solutions, error table with experimental orders) at a resolution that
finishes in about 12 s (one core of a 2-core Intel Xeon host, one BLAS
thread).  The full desk-scale study (N up to 16 with a
p=3 reference on a 128-cell mesh) runs through the same code path via

    parahyp study --config study.ini

and is exercised by tests/test_acceptance.py.
"""

import os
import tempfile

from parahyp import StudyConfig, run_study

with tempfile.TemporaryDirectory() as tmp:
    config = StudyConfig(
        n_list=(2, 4, 8),          # checkerboard resolutions
        ref_space_cells=64,        # reference mesh (p=3), 4x the finest study mesh
        ref_time_cells=96,
        checkpoint="never",
        out_dir=os.path.join(tmp, "study"),
    )
    table = run_study(config)

print("""
Reading the table: the first error pair compares each study solution
against a fine solve of the same oscillating problem (pure discretisation
error); the second pair compares against the fine solve of the averaged
problem, so it also carries the homogenisation gap, which shrinks like 1/N.
""")
