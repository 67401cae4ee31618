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

from .forward import ReflectivityVolume, _normalized_magnitude
from .geometry import ImagingScenario, _format_number
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


def psnr_vs_reference(recon: ReflectivityVolume, reference: ReflectivityVolume) -> PsnrResult:
    """PSNR (dB) of recon against reference over peak-normalized magnitudes.

    rmse = ||a - b||_2 / sqrt(N) for the two normalized magnitude volumes,
    psnr = 20*log10(1/rmse). An identically zero recon is treated as all-zero
    magnitudes; an identically zero reference has no normalization and errors.
    """
    if recon.grid != reference.grid:
        raise ValueError("reconstruction and reference grids differ")
    if not np.any(reference.values):
        raise ValueError("reference volume is identically zero; PSNR undefined")
    a = _normalized_magnitude(recon)
    b = _normalized_magnitude(reference)
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
    excluded); solves run serially to keep the timings comparable. SPGM with
    every channel is the reference bit for bit, whatever its seed, so a full
    composition reuses the reference's report instead of solving again.
    """
    for comp in compositions:
        comp.validate_for(scenario)
    # every config is checked before the reference solve, which can take minutes
    configs = [
        replace(base_config, composition=comp, rng_seed=seed)
        for comp in compositions
        for seed in seeds
    ]
    if not configs:
        return []
    ref_report = pgm_solve(y, scenario, replace(base_config, composition=None))
    reference = ref_report.volume
    records: list[SweepRecord] = []
    for cfg in configs:
        comp = cfg.composition
        if (comp.n_f, comp.n_tx, comp.n_rx) == scenario.channel_shape:
            report = ref_report
        else:
            report = spgm_solve(y, scenario, cfg)
        quality = psnr_vs_reference(report.volume, reference)
        records.append(
            SweepRecord(
                composition=comp,
                seed=cfg.rng_seed,
                iterations=report.iterations,
                runtime_s=report.wall_time_s,
                psnr_db=quality.psnr_db,
            )
        )
    return records


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
                    rec.composition.batch_size,
                    rec.seed,
                    rec.iterations,
                    _format_number(rec.runtime_s),
                    _format_number(rec.psnr_db),
                ]
            )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # rank of each group's last member
    return (last - 0.5 * (counts - 1))[group]


def spearman_rank(x, y) -> float:
    """Spearman rank correlation with average ranks for ties."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1 or xa.size < 2:
        raise ValueError("spearman_rank needs two equal-length 1-D arrays of size >= 2")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise ValueError("spearman_rank needs finite values")
    rx = _average_ranks(xa)
    ry = _average_ranks(ya)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(np.sum(rx**2)) * float(np.sum(ry**2)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(rx * ry)) / denom
