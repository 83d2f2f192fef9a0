"""Host speed index: how fast this host runs a fixed reference computation now.

A shared 2-core host runs the same code up to 1.8x slower in phases that
last from seconds to minutes, and a 40 s run can fall wholly inside one.
The parent process therefore runs a fixed computation, independent of
``parahyp``, between iterations for a set share of each iteration's time and
on the CPU the iterations run on, so that it samples the host in the same
phases as the program.  The run's host
speed is calibration repetitions per second over all of them, and a time
``t`` measured at speed ``r`` is reported as ``t * r / REFERENCE_RATE``:
the time on a host that runs the computation ``REFERENCE_RATE`` times a
second.  The program never runs the computation, so no change to it can
move the index.

The computation mixes what the program's iterations spend their time on:
floats written as text and parsed back (the checkpoints), a sparse LU
factorisation and solve (the slabs) and plain interpreted Python (the driver
and the snapshots).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# about the rate of a 2-core Intel Xeon VM in its usual phase; a constant, so
# only the scale of rescaled times depends on it
REFERENCE_RATE = 150.0
SHARE = 0.25      # calibration time as a share of the time it follows


def _laplacian(m: int):
    a = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    return (sp.kron(eye, a) + sp.kron(a, eye)).tocsc()


class HostSpeed:
    """Accumulates calibration repetitions and the time they took."""

    def __init__(self):
        self._lap = _laplacian(26)
        self._rhs = np.ones(self._lap.shape[0])
        self._values = (np.arange(1000) * 0.123456789).tolist()
        self._text = " ".join(map(repr, (np.arange(6000) * 0.987654321).tolist()))
        self.reps = 0
        self.seconds = 0.0

    def _rep(self) -> None:
        " ".join(map(repr, self._values))
        np.array(self._text.split(), dtype=float)
        spla.splu(self._lap).solve(self._rhs)
        total = 0
        for i in range(25000):
            total += i % 7

    def measure(self, after_s: float) -> None:
        """Calibrate for ``SHARE`` of ``after_s`` seconds, at least one repetition."""
        budget = SHARE * after_s
        t0 = time.perf_counter()
        while True:
            self._rep()
            self.reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= budget:
                break
        self.seconds += elapsed

    @property
    def rate(self) -> float:
        """Calibration repetitions per second over the run so far."""
        return self.reps / self.seconds

    def rescale(self, seconds: float) -> float:
        """``seconds`` measured in this run, at the reference host speed."""
        return seconds * self.rate / REFERENCE_RATE
