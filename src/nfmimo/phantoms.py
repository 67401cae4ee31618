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
from .geometry import VoxelGrid, _check_available, _count

__all__ = ["make_phantom"]


def _points(grid: VoxelGrid, k: int, rng: np.random.Generator) -> np.ndarray:
    if k > grid.n_voxels:
        raise ValueError(f"cannot place {k} scatterers in {grid.n_voxels} voxels")
    values = np.zeros(grid.n_voxels, dtype=np.complex128)
    sites = rng.choice(grid.n_voxels, size=k, replace=False)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    values[sites] = np.exp(1j * phases)
    return values


def _lines(grid: VoxelGrid, cross: bool) -> np.ndarray:
    """A bar along x through the scene center, plus one along y for a cross."""
    values = np.zeros(grid.n_voxels, dtype=np.complex128)
    volume = values.reshape(grid.shape)  # a view, indexed (iz, iy, ix)
    nz, ny, nx = grid.shape
    volume[nz // 2, ny // 2, nx // 4 : 3 * nx // 4 + 1] = 1.0
    if cross:
        volume[nz // 2, ny // 4 : 3 * ny // 4 + 1, nx // 2] = 1.0
    return values


def make_phantom(spec: str, grid: VoxelGrid, rng_seed: int = 0) -> ReflectivityVolume:
    """Build the reflectivity volume described by ``spec`` on ``grid``."""
    rng_seed = _count("rng_seed", rng_seed, minimum=0)
    _check_available("the phantom", 16 * grid.n_voxels)  # N complex values
    spec = spec.strip()
    if spec.startswith("points:"):
        text = spec.split(":", 1)[1]
        try:
            k = float(text)
        except ValueError:
            k = text  # not a number: _count refuses it by name
        k = _count(f"k of phantom spec {spec!r}", k)
        rng = np.random.default_rng(rng_seed)
        return ReflectivityVolume(_points(grid, k, rng), grid)
    if spec in ("bar", "cross"):
        return ReflectivityVolume(_lines(grid, cross=spec == "cross"), grid)
    if spec.startswith("file:"):
        from .io import read_volume

        path = spec.split(":", 1)[1]
        return read_volume(path, grid=grid)
    raise ValueError(
        f"unknown phantom spec {spec!r}; expected points:k, bar, cross, or file:path"
    )
