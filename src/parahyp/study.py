"""Convergence-study driver.

Reproduces the homogenisation experiment: for each even N, solve the rough
checkerboard problem at h = tau = 1/(2N) with degrees (p, q), compare
against fine reference solutions of the rough and the homogenised problem,
and tabulate E_sup / E_Q errors with experimental orders of convergence.
"""

from __future__ import annotations

import configparser
import functools
import math
import os
import time
from dataclasses import InitVar, dataclass

import numpy as np

from . import coefficients as coeff
from .errors import ErrorTable, compare_solutions
from .slab import (DiscreteSolution, SlabBasis, _temporal_eigenbasis, atomic_open,
                   load_solution, run, save_solution, slab_count)
from .spaces import _contract, _tabulate

_CHECKPOINT_MODES = ("auto", "never")
# every study problem is driven by coefficients.source_f, the box source
# switched off at t = 1; the tag keeps a checkpoint of another forcing apart
_SOURCE_TAG = "box"


@dataclass(frozen=True)
class StudyConfig:
    n_list: tuple = (2, 4, 8, 16)
    p: int = 2
    q: int = 1
    rho: float = 1.0
    T: float = 1.5
    ref_p: int = 3
    ref_q: int = 1
    ref_space_cells: int | None = None
    ref_time_cells: int | None = None
    checkpoint: str = "auto"
    out_dir: str = "study_out"
    snapshot_times: tuple = (0.025, 0.5, 1.0, 1.5)
    snapshot_resolution: int = 128
    # accepted and ignored: perfbench/run.py passes its run seed to every
    # config it builds, and no study result depends on a seed
    seed: InitVar[int] = 0

    def __post_init__(self, seed):
        if not self.n_list:
            raise ValueError("n_list must not be empty")
        for N in self.n_list:
            if N < 2 or N % 2 != 0:
                raise ValueError(f"study requires even N >= 2, got N={N}")
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ValueError("n_list must be strictly increasing")
        if self.p < 1 or self.q < 0:
            raise ValueError(f"invalid degrees p={self.p}, q={self.q}")
        # NaN fails every comparison; an infinite T would overflow the
        # reference time cells below
        for key, rule, ok in (("T", "finite and > 0", 0 < self.T < math.inf),
                              ("rho", "finite and >= 0", 0 <= self.rho < math.inf),
                              ("ref_p", ">= 1", self.ref_p >= 1),
                              ("ref_q", ">= 0", self.ref_q >= 0),
                              ("snapshot_resolution", ">= 1", self.snapshot_resolution >= 1)):
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")
        if self.checkpoint not in _CHECKPOINT_MODES:
            raise ValueError(f"checkpoint must be one of {_CHECKPOINT_MODES}, "
                             f"got {self.checkpoint!r}")
        h_finest = 2 * max(self.n_list)
        ref_n = self.reference_space_cells
        if ref_n < 2 * h_finest:
            raise ValueError(f"reference mesh ({ref_n} cells) must be at least twice "
                             f"as fine as the finest study mesh ({h_finest} cells)")
        for N in self.n_list:
            if ref_n % (2 * N) != 0:
                raise ValueError(f"reference mesh ({ref_n} cells) does not nest the "
                                 f"study mesh for N={N} ({2 * N} cells)")
        m_ref = self.reference_time_cells
        if m_ref < 1:
            raise ValueError(f"reference time cells must be >= 1, got {m_ref} (T={self.T!r}, "
                             f"ref_time_cells={self.ref_time_cells!r}, reference space "
                             f"cells {ref_n}); raise T or set ref_time_cells")
        tau_ref = self.T / m_ref
        for N in self.n_list:
            ratio = (1.0 / (2 * N)) / tau_ref
            if abs(ratio - round(ratio)) > 1e-9 or ratio < 1 - 1e-9:
                raise ValueError(f"reference slab length T/{m_ref} does not divide the "
                                 f"study slab length 1/{2 * N}")
        for N in self.n_list:
            # the test of slab.run, so that a study never fails at its first solve
            if slab_count(self.T, 1.0 / (2 * N)) is None:
                raise ValueError(f"T={self.T!r} is not an integer multiple of the study "
                                 f"slab length 1/{2 * N} for N={N}")
        # the eigenbasis check of slab.run, for the study and the reference slabs
        for q, tau in [(self.q, 1.0 / (2 * N)) for N in self.n_list] + [(self.ref_q, tau_ref)]:
            _temporal_eigenbasis(SlabBasis(q, self.rho, tau))

    @property
    def reference_space_cells(self) -> int:
        if self.ref_space_cells is None:
            return 8 * max(self.n_list)
        return self.ref_space_cells

    @property
    def reference_time_cells(self) -> int:
        if self.ref_time_cells is None:
            return int(round(self.T * self.reference_space_cells))
        return self.ref_time_cells


def _parse_str(section, key, raw):
    return raw


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"[{section}] {key} = {raw!r}: not an integer") from None


def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"[{section}] {key} = {raw!r}: not a number") from None


def _parse_list(parse_item):
    """A parser of comma- or space-separated items."""
    def parse(section, key, raw):
        items = [s for chunk in raw.split(",") for s in chunk.split()]
        return tuple(parse_item(section, key, s) for s in items)
    return parse


# config section -> key -> (StudyConfig field, parser of the raw value)
_SCHEMA = {
    "study": {"n_list": ("n_list", _parse_list(_parse_int)), "p": ("p", _parse_int),
              "q": ("q", _parse_int), "rho": ("rho", _parse_float),
              "t": ("T", _parse_float)},
    "reference": {"p": ("ref_p", _parse_int), "q": ("ref_q", _parse_int),
                  "space_cells": ("ref_space_cells", _parse_int),
                  "time_cells": ("ref_time_cells", _parse_int),
                  "checkpoint": ("checkpoint", _parse_str)},
    "output": {"dir": ("out_dir", _parse_str),
               "snapshot_times": ("snapshot_times", _parse_list(_parse_float)),
               "snapshot_resolution": ("snapshot_resolution", _parse_int)},
}


def parse_config(path) -> StudyConfig:
    """Read an INI-style study configuration; unknown sections and keys,
    [DEFAULT] among them, and sections named alike up to case are rejected.

    An empty file yields the defaults (N_list = 2,4,8,16, p=2, q=1, rho=1,
    T=1.5, reference p=3 at 4x the finest study mesh).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file {path} does not exist")
    # no section is named "", so [DEFAULT] stays an ordinary, unknown
    # section instead of lending its keys to every section
    parser = configparser.ConfigParser(default_section="")
    with open(path) as fh:
        parser.read_file(fh, source=str(path))
    kwargs, seen = {}, set()
    for section in parser.sections():
        keys = _SCHEMA.get(section.lower())
        if keys is None:
            raise ValueError(f"unknown config section [{section}]")
        if section.lower() in seen:
            raise ValueError(f"config section [{section}] repeats another section "
                             "that differs from it only in case")
        seen.add(section.lower())
        for key, raw in parser.items(section):
            if key not in keys:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            field, parse = keys[key]
            kwargs[field] = parse(section, key, raw)
    return StudyConfig(**kwargs)


def _study_problem(kind: str, N: int | None, config: StudyConfig) -> coeff.ProblemData:
    if kind == "rough":
        return coeff.rough_problem(N, T=config.T, rho=config.rho)
    if kind == "hom":
        return coeff.homogenised_problem(T=config.T, rho=config.rho)
    raise ValueError(f"unknown problem kind {kind!r}")


def _solver_path(sol: DiscreteSolution) -> str:
    """``decoupled/bloch`` or ``decoupled/splu (skeleton S of N, B of 4
    symmetry blocks)``."""
    skeleton = sol.meta.get("skeleton_dofs")
    return f"{sol.meta['solver']}/{sol.meta['spatial_solver']}" \
        + (f" (skeleton {skeleton} of {sol.coeffs.shape[2]}, "
           f"{sol.meta['symmetry_blocks']} of 4 symmetry blocks)" if skeleton else "")


def _solve(kind: str, N: int | None, config: StudyConfig, label: str, log, *,
           n: int, p: int, q: int, tau: float) -> DiscreteSolution:
    """Run one problem, stamp its identity (problem, N, source) after the
    run's own ``meta`` and log the solve under ``label``."""
    problem = _study_problem(kind, N, config)
    t0 = time.perf_counter()
    sol = run(problem, n=n, p=p, q=q, tau=tau)
    sol.meta.update(problem=kind, N=N, source=_SOURCE_TAG)
    log(f"[{label}] solved n={n} p={p} slabs={sol.n_slabs} solver={_solver_path(sol)} "
        f"in {time.perf_counter() - t0:.1f}s")
    return sol


def _reference_path(kind: str, N: int | None, config: StudyConfig) -> str:
    name = f"ref_rough_N{N}.ckpt" if kind == "rough" else "ref_hom.ckpt"
    return os.path.join(config.out_dir, name)


def solve_reference(kind: str, N: int | None, config: StudyConfig,
                    log=print) -> DiscreteSolution:
    """Solve (or load from checkpoint) one reference problem.

    The reference uses degree ref_p in space on the configured fine mesh and
    is cached as a binary checkpoint unless the configuration disables that.
    Its ``meta`` records the full identity (problem kind, N, source tag,
    resolution, tau, T, rho); a checkpoint whose identity differs from the
    requested one is refused.
    """
    path = _reference_path(kind, N, config)
    name = kind if N is None else f"{kind} N={N}"
    n_ref = config.reference_space_cells
    m_ref = config.reference_time_cells
    tau_ref = config.T / m_ref
    identity = {"problem": kind, "N": N, "source": _SOURCE_TAG, "n": n_ref,
                "p": config.ref_p, "q": config.ref_q, "tau": tau_ref,
                "T": config.T, "rho": config.rho}
    if config.checkpoint != "never" and os.path.exists(path):
        t0 = time.perf_counter()
        sol = load_solution(path)
        differ = [f"{key} {sol.meta.get(key)!r} (requested {want!r})"
                  for key, want in identity.items() if sol.meta.get(key) != want]
        if differ:
            raise ValueError(f"checkpoint {path} does not match the requested "
                             f"reference: {', '.join(differ)}")
        log(f"[reference {name}] loaded checkpoint {path} "
            f"in {time.perf_counter() - t0:.1f}s")
        return sol
    sol = _solve(kind, N, config, f"reference {name}", log,
                 n=n_ref, p=config.ref_p, q=config.ref_q, tau=tau_ref)
    if config.checkpoint != "never":
        os.makedirs(config.out_dir, exist_ok=True)
        t0 = time.perf_counter()
        save_solution(sol, path)
        log(f"[reference] checkpointed to {path} in {time.perf_counter() - t0:.1f}s")
    return sol


def run_study(config: StudyConfig, log=print) -> ErrorTable:
    """Full table run: study solves, references, error columns, CSV output.

    After the study rows, each reference in turn is solved or loaded,
    compared with the rows it serves (a rough one with its own N, the
    homogenised one with every row; E_sup weighted by the reference
    problem's s0) and dropped, so one reference is held at a time.

    Progress lines (with per-row timings) go to ``log`` and are also appended
    to ``run.log`` in the output directory as they happen, so a run that
    fails part-way leaves the lines logged so far.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    log_path = os.path.join(config.out_dir, "run.log")
    open(log_path, "w").close()
    sink = log

    def log(message):
        with open(log_path, "a") as fh:
            fh.write(f"{message}\n")
        sink(message)

    _study_problem("rough", config.n_list[0], config).warn_if_weak_weight(log)

    study_solutions = {N: _solve("rough", N, config, f"study N={N}", log,
                                 n=2 * N, p=config.p, q=config.q, tau=1.0 / (2 * N))
                       for N in config.n_list}

    # (kind, N) of each reference -> the study rows it is compared with
    references = [("rough", N, (N,)) for N in config.n_list] + [("hom", None, config.n_list)]
    errors = {}
    for kind, ref_N, rows in references:
        ref = solve_reference(kind, ref_N, config, log)
        s0 = _study_problem(kind, ref_N, config).s0
        for N in rows:
            t0 = time.perf_counter()
            errors[kind, N] = compare_solutions(study_solutions[N], ref, s0_weight=s0)
            log(f"[errors N={N}] {'homogenised' if kind == 'hom' else kind} comparison "
                f"in {time.perf_counter() - t0:.1f}s")
        del ref

    table = ErrorTable()
    for N in config.n_list:
        table.add_row(N, errors["rough", N].e_sup, errors["rough", N].e_q,
                      errors["hom", N].e_sup, errors["hom", N].e_q)
    csv_path = os.path.join(config.out_dir, "table.csv")
    with atomic_open(csv_path) as fh:
        fh.write(table.to_csv().encode())
    log(f"[study] wrote {csv_path}")
    log(table.format_pretty())
    _export_study_snapshots(config, study_solutions, log)
    return table


def _export_study_snapshots(config: StudyConfig, study_solutions, log):
    """Rasters of u for every study solution plus the averaged problem, at
    the snapshot times in [0, T]; the others are skipped and logged."""
    times = tuple(t for t in config.snapshot_times if 0.0 <= t <= config.T + 1e-12)
    skipped = tuple(t for t in config.snapshot_times if t not in times)
    if times:
        labelled = [(f"u_N{N}", study_solutions[N]) for N in config.n_list]
        n = 2 * max(config.n_list)
        labelled.append(("u_hom", _solve("hom", None, config, "study hom", log,
                                         n=n, p=config.p, q=config.q, tau=1.0 / n)))
        t0 = time.perf_counter()
        for label, sol in labelled:
            for t in times:
                base = os.path.join(config.out_dir, f"{label}_t{t}")
                export_snapshot(sol, min(t, sol.T), config.snapshot_resolution, base)
        log(f"[study] wrote snapshots at t = {times} for N = {config.n_list} "
            f"and the averaged problem in {time.perf_counter() - t0:.1f}s")
    if skipped:
        log(f"[study] skipped snapshot times outside [0, T={config.T!r}]: {skipped}")


@functools.lru_cache(maxsize=1)
def _raster_tabulation(space_u, resolution: int):
    """``space_u`` tabulated at the cell centres ((i+0.5)/res, (j+0.5)/res)
    of the raster, point i * res + j.  Only the last (space, resolution) is
    kept: the snapshots of one solution share it, and one table is held."""
    pts_1d = (np.arange(resolution) + 0.5) / resolution
    xx, yy = np.meshgrid(pts_1d, pts_1d, indexing="ij")
    return _tabulate(space_u, np.column_stack([xx.ravel(), yy.ravel()]))


def export_snapshot(sol: DiscreteSolution, t: float, resolution: int,
                    path_base: str) -> tuple[str, str]:
    """Sample the u component on a uniform raster and write VTK + CSV files.

    The raster uses cell-centred points ((i+0.5)/res, (j+0.5)/res) and the
    left limit at t, the datum x0 at t = 0.  Returns the two paths written.
    """
    if not 0.0 <= t <= sol.T + 1e-12:
        raise ValueError(f"snapshot time {t} outside [0, {sol.T}]")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution!r}")
    coeffs = sol.coefficients_at(t, "-")
    values = _contract(sol.space_u, coeffs[: sol.ndof_u],
                       _raster_tabulation(sol.space_u, resolution))[0]
    return _write_raster(values.reshape(resolution, resolution), t, path_base)


def _write_raster(values: np.ndarray, t: float, path_base: str) -> tuple[str, str]:
    """Write the square raster ``values[i, j]`` = u((i+0.5)/res, (j+0.5)/res)
    as ``path_base`` .vtk and .csv, each value as its shortest round-trip text."""
    resolution = len(values)
    # x running fastest: the VTK point order, and the order along each CSV
    # row; each distinct bit pattern (so -0.0 apart from 0.0) is formatted once
    bits, inverse = np.unique(values.T.ravel().view(np.int64), return_inverse=True)
    words = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    text = words[inverse].tolist()
    h = 1.0 / resolution
    vtk_path, csv_path = path_base + ".vtk", path_base + ".csv"
    with atomic_open(vtk_path) as fh:
        fh.write(f"# vtk DataFile Version 2.0\n"
                 f"u at t={t!r}\nASCII\n"
                 f"DATASET STRUCTURED_POINTS\n"
                 f"DIMENSIONS {resolution} {resolution} 1\n"
                 f"ORIGIN {h / 2!r} {h / 2!r} 0\n"
                 f"SPACING {h!r} {h!r} 1\n"
                 f"POINT_DATA {resolution * resolution}\n"
                 f"SCALARS u float\nLOOKUP_TABLE default\n".encode())
        fh.write(("\n".join(text) + "\n").encode())
    with atomic_open(csv_path) as fh:
        fh.write("".join(",".join(text[j:j + resolution]) + "\n"
                         for j in range(0, len(text), resolution)).encode())
    return vtk_path, csv_path


def single_solve(kind: str, N: int | None, config: StudyConfig,
                 log=print) -> DiscreteSolution:
    """Solve one study-resolution problem (the 'solve' CLI verb)."""
    if kind == "rough" and N is None:
        N = max(config.n_list)
    # the averaged problem at the finest study N
    n = 2 * (N if kind == "rough" else max(config.n_list))
    return _solve(kind, N, config, f"solve {kind}{'' if N is None else f' N={N}'}", log,
                  n=n, p=config.p, q=config.q, tau=1.0 / n)
