"""Synthetic test scenes for simulation runs.

A phantom spec is a short string:

  points:k   k unit-magnitude scatterers (random voxels, random phases)
  bar        a line of unit voxels along x through the scene center
  cross      two crossing lines (along x and along y) in the central z plane
  file:path  reflectivity loaded from a volume file (dims must match)
"""

from __future__ import annotations

import numpy as np

from .forward import ReflectivityVolume
from .geometry import VoxelGrid, _count

__all__ = ["make_phantom", "PHANTOM_KINDS"]

PHANTOM_KINDS = ("points", "bar", "cross", "file")


def _points(grid: VoxelGrid, k: int, rng: np.random.Generator) -> np.ndarray:
    k = _count("points phantom k", k)
    if k > grid.n_voxels:
        raise ValueError(f"cannot place {k} scatterers in {grid.n_voxels} voxels")
    values = np.zeros(grid.n_voxels, dtype=np.complex128)
    sites = rng.choice(grid.n_voxels, size=k, replace=False)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    values[sites] = np.exp(1j * phases)
    return values


def _bar(grid: VoxelGrid) -> np.ndarray:
    nx, ny, nz = grid.dims
    values = np.zeros(grid.n_voxels, dtype=np.complex128)
    iy, iz = ny // 2, nz // 2
    for ix in range(nx // 4, 3 * nx // 4 + 1):
        values[grid.flat_index(ix, iy, iz)] = 1.0
    return values


def _cross(grid: VoxelGrid) -> np.ndarray:
    nx, ny, nz = grid.dims
    values = _bar(grid)
    ix, iz = nx // 2, nz // 2
    for iy in range(ny // 4, 3 * ny // 4 + 1):
        values[grid.flat_index(ix, iy, iz)] = 1.0
    return values


def make_phantom(spec: str, grid: VoxelGrid, rng_seed: int = 0) -> ReflectivityVolume:
    """Build the reflectivity volume described by ``spec`` on ``grid``."""
    spec = spec.strip()
    if spec.startswith("points:"):
        k = int(spec.split(":", 1)[1])
        rng = np.random.default_rng(rng_seed)
        return ReflectivityVolume(_points(grid, k, rng), grid)
    if spec == "bar":
        return ReflectivityVolume(_bar(grid), grid)
    if spec == "cross":
        return ReflectivityVolume(_cross(grid), grid)
    if spec.startswith("file:"):
        from .io import read_volume

        path = spec.split(":", 1)[1]
        return read_volume(path, grid=grid)
    raise ValueError(
        f"unknown phantom spec {spec!r}; expected points:k, bar, cross, or file:path"
    )
