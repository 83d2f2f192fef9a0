"""Discrete Floquet-Bloch (Gelfand) transform on block-periodic grid data.

A (0,N)^2-periodic function is sampled on a uniform grid with m points per
axis inside each of the N x N unit blocks.  The transform maps such data to
its N^2 frequency fibres

    F[k', y] = (1/N) * sum_k f(y + k) exp(-i theta . k),   theta = 2 pi k'/N,

which is the orthonormal 2-D discrete Fourier transform over the block
indices (``np.fft.fft2`` with ``norm="ortho"``).  With grid-cell-area-weighted
discrete L^2 norms the map is exactly unitary, as is its composition with the
unit-cell scaling T_N f = (1/N) f(./N).

The production use of the fibre decomposition is ``slab._BlochFibres``: the
same FFT over the mesh cells splits each constant-coefficient slab system
into n^2 dense fibre systems, and the homogenised slab iteration runs in
that fibre space from slab to slab.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class _BlockGrid:
    """N x N blocks of m x m samples, indexed [k1, k2, s1, s2]."""

    N: int
    m: int
    values: np.ndarray

    def __post_init__(self):
        expected = (self.N, self.N, self.m, self.m)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape}, expected {expected}")

    def norm(self) -> float:
        """Root of the grid sum of |values|^2 times the cell area 1/m^2: the
        discrete L^2((0,N)^2) norm of block grid data, and the root of the
        summed discrete L^2((0,1)^2) norms of all fibres of fibre data."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) / self.m**2))


class BlockGridFunction(_BlockGrid):
    """Samples of a (0,N)^2-periodic function, indexed [kx, ky, sx, sy]:
    block index k, intra-block sample s at y = s/m."""


class FibreDecomposition(_BlockGrid):
    """Fibre data indexed [kx', ky', sx, sy] with frequency theta = 2 pi k'/N."""


def forward(f: BlockGridFunction) -> FibreDecomposition:
    """Fibre decomposition (1/N) sum_k f(y + k) e^{-i theta k} per frequency."""
    return FibreDecomposition(N=f.N, m=f.m,
                              values=np.fft.fft2(f.values, axes=(0, 1), norm="ortho"))


def inverse(F: FibreDecomposition) -> BlockGridFunction:
    """Adjoint of forward; forward . inverse = identity (unitarity)."""
    return BlockGridFunction(N=F.N, m=F.m,
                             values=np.fft.ifft2(F.values, axes=(0, 1), norm="ortho"))


def scale_T_N(samples: np.ndarray, N: int) -> BlockGridFunction:
    """The unit-cell scaling T_N f = (1/N) f(./N) as block grid data.

    ``samples`` holds f on the (0,1)^2 grid x = j/J with J = N*m points per
    axis (so J must be divisible by N); the result lives on the (0,N)^2 grid
    with m samples per block axis.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[0] != samples.shape[1]:
        raise ValueError(f"expected square sample array, got shape {samples.shape}")
    J = samples.shape[0]
    if J % N != 0:
        raise ValueError(f"{J} samples per axis cannot be split into N={N} blocks")
    m = J // N
    vals = (samples / N).reshape(N, m, N, m).transpose(0, 2, 1, 3)
    return BlockGridFunction(N=N, m=m, values=vals)


def gelfand_transform(samples: np.ndarray, N: int) -> FibreDecomposition:
    """The unitary composition forward . T_N on (0,1)^2 sample data."""
    return forward(scale_T_N(samples, N))


def unit_square_norm(samples: np.ndarray) -> float:
    """Discrete L^2((0,1)^2) norm of grid samples (cell area 1/J^2)."""
    samples = np.asarray(samples)
    return float(np.sqrt(np.sum(np.abs(samples) ** 2) / samples.shape[0] ** 2))
