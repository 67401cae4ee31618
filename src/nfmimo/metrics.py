"""Reconstruction-quality and runtime metrics for benchmark sweeps.

PSNR is computed over peak-normalized reflectivity magnitudes, so it is
invariant to a global complex scale on either volume and hits +inf exactly
when the normalized magnitude volumes agree entrywise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .forward import ReflectivityVolume
from .geometry import ImagingScenario
from .solver import MinibatchComposition, SolverConfig, pgm_solve, spgm_solve

__all__ = [
    "PsnrResult",
    "SweepRecord",
    "psnr_vs_reference",
    "run_sweep",
    "write_sweep_csv",
    "spearman_rank",
]

SWEEP_CSV_HEADER = [
    "composition_f",
    "composition_tx",
    "composition_rx",
    "B",
    "seed",
    "iterations",
    "runtime_s",
    "psnr_db",
]


@dataclass(frozen=True)
class PsnrResult:
    psnr_db: float  # +inf exactly when rmse == 0
    rmse: float


def _normalized_magnitude(volume: ReflectivityVolume) -> np.ndarray:
    mag = np.abs(volume.values)
    peak = float(mag.max())
    return mag / peak if peak > 0 else mag


def psnr_vs_reference(recon: ReflectivityVolume, reference: ReflectivityVolume) -> PsnrResult:
    """PSNR (dB) of recon against reference over peak-normalized magnitudes.

    rmse = ||a - b||_2 / sqrt(N) for the two normalized magnitude volumes,
    psnr = 20*log10(1/rmse). An identically zero recon is treated as all-zero
    magnitudes; an identically zero reference has no normalization and errors.
    """
    if recon.grid != reference.grid:
        raise ValueError("reconstruction and reference grids differ")
    ref_mag = np.abs(reference.values)
    if float(ref_mag.max()) == 0.0:
        raise ValueError("reference volume is identically zero; PSNR undefined")
    a = _normalized_magnitude(recon)
    b = ref_mag / float(ref_mag.max())
    rmse = float(np.linalg.norm(a - b)) / math.sqrt(a.size)
    psnr = math.inf if rmse == 0.0 else 20.0 * math.log10(1.0 / rmse)
    return PsnrResult(psnr_db=psnr, rmse=rmse)


@dataclass(frozen=True)
class SweepRecord:
    composition: MinibatchComposition
    seed: int
    iterations: int
    runtime_s: float
    psnr_db: float

    @property
    def batch_size(self) -> int:
        return self.composition.batch_size


def run_sweep(
    y,
    scenario: ImagingScenario,
    base_config: SolverConfig,
    compositions: list[MinibatchComposition],
    seeds: list[int],
) -> list[SweepRecord]:
    """Run SPGM for every (composition, seed) pair and score each against a
    single full-batch PGM reference solved once with the same hyperparameters.

    Runtime is the solver wall time only (scenario setup and scoring are
    excluded); solves run serially to keep the timings comparable.
    """
    for comp in compositions:
        comp.validate_for(scenario)
    records: list[SweepRecord] = []
    if not compositions or not seeds:
        return records
    reference = pgm_solve(y, scenario, replace(base_config, composition=None)).volume
    for comp in compositions:
        for seed in seeds:
            cfg = replace(base_config, composition=comp, rng_seed=seed)
            report = spgm_solve(y, scenario, cfg)
            quality = psnr_vs_reference(report.volume, reference)
            records.append(
                SweepRecord(
                    composition=comp,
                    seed=int(seed),
                    iterations=report.iterations,
                    runtime_s=report.wall_time_s,
                    psnr_db=quality.psnr_db,
                )
            )
    return records


def _format_db(value: float) -> str:
    # JSON/CSV have no infinity literal; keep the sentinel spelled out
    return "inf" if math.isinf(value) else format(value, ".17g")


def write_sweep_csv(records: list[SweepRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_HEADER)
        for rec in records:
            writer.writerow(
                [
                    rec.composition.n_f,
                    rec.composition.n_tx,
                    rec.composition.n_rx,
                    rec.batch_size,
                    rec.seed,
                    rec.iterations,
                    format(rec.runtime_s, ".17g"),
                    _format_db(rec.psnr_db),
                ]
            )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_rank(x, y) -> float:
    """Spearman rank correlation with average ranks for ties."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1 or xa.size < 2:
        raise ValueError("spearman_rank needs two equal-length 1-D arrays of size >= 2")
    rx = _average_ranks(xa)
    ry = _average_ranks(ya)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(np.sum(rx**2)) * float(np.sum(ry**2)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(rx * ry)) / denom
