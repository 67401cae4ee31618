import tracemalloc

import numpy as np
import pytest

import nfmimo.forward
from nfmimo import PlanTooLargeError, ReflectivityVolume, Vec3, VoxelGrid, make_phantom
from nfmimo.io import write_volume
from conftest import random_complex

# 9 x 7 x 3 voxels: the bar runs ix = 2..6 at (iy, iz) = (3, 1); the cross
# adds iy = 1..5 at ix = 4, sharing one voxel with the bar
GRID = VoxelGrid(center=Vec3(0.0, 0.0, 0.3), extent=(0.08, 0.06, 0.02), dims=(9, 7, 3))


class TestPoints:
    def test_integral_float_k_gives_the_same_bytes(self):
        a = make_phantom("points:3", GRID, rng_seed=5).values
        b = make_phantom("points:3.0", GRID, rng_seed=5).values
        assert a.tobytes() == b.tobytes()
        assert np.count_nonzero(a) == 3
        assert np.allclose(np.abs(a[a != 0]), 1.0)

    @pytest.mark.parametrize("spec", ["points:2.5", "points:abc", "points:", "points:0"])
    def test_bad_k_refused_naming_the_spec(self, spec):
        with pytest.raises(ValueError, match=f"phantom spec '{spec}'"):
            make_phantom(spec, GRID)

    @pytest.mark.parametrize("seed", [True, -1, 2.5, "3"])
    def test_rng_seed_must_be_a_whole_number(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be"):
            make_phantom("points:3", GRID, rng_seed=seed)

    def test_more_points_than_voxels_refused(self):
        with pytest.raises(ValueError, match="cannot place"):
            make_phantom(f"points:{GRID.n_voxels + 1}", GRID)


class TestLines:
    def test_bar(self):
        values = make_phantom("bar", GRID).values
        assert np.flatnonzero(values).tolist() == [ix + 9 * (3 + 7 * 1) for ix in range(2, 7)]
        assert np.argwhere(values.reshape(GRID.shape)).tolist() == [[1, 3, ix] for ix in range(2, 7)]

    def test_cross(self):
        values = make_phantom("cross", GRID).values
        assert np.count_nonzero(values) == 9
        assert all(values[4 + 9 * (iy + 7 * 1)] == 1.0 for iy in range(1, 6))
        assert np.all(values.reshape(GRID.shape)[1, 1:6, 4] == 1.0)


class TestFile:
    def test_round_trip(self, tmp_path, rng):
        truth = ReflectivityVolume(random_complex(rng, GRID.n_voxels), GRID)
        write_volume(truth, tmp_path / "t.nfmv")
        back = make_phantom(f"file:{tmp_path / 't.nfmv'}", GRID)
        assert back.grid == GRID
        assert back.values.tobytes() == truth.values.tobytes()

    def test_other_dims_refused(self, tmp_path):
        other = VoxelGrid(center=Vec3(0.0, 0.0, 0.3), extent=(0.08, 0.06, 0.0), dims=(9, 7, 1))
        write_volume(ReflectivityVolume(np.zeros(other.n_voxels), other), tmp_path / "o.nfmv")
        with pytest.raises(ValueError, match="do not match grid"):
            make_phantom(f"file:{tmp_path / 'o.nfmv'}", GRID)


def test_unknown_spec_refused():
    with pytest.raises(ValueError, match="unknown phantom spec 'blob'"):
        make_phantom("blob", GRID)


@pytest.mark.parametrize("spec", ["points:1", "bar", "cross"])
def test_past_memavailable_refused_before_allocation(monkeypatch, spec):
    # 100 x 100 x 10 voxels: 1.6 MB of complex values
    grid = VoxelGrid(center=Vec3(0.0, 0.0, 0.3), extent=(0.1, 0.1, 0.02), dims=(100, 100, 10))
    monkeypatch.setattr(nfmimo.geometry, "_available_bytes", lambda: 10**6)
    named = r"^the phantom needs 0\.0016 GB, but only 0\.001 GB of memory is available$"
    tracemalloc.start()
    try:
        with pytest.raises(PlanTooLargeError, match=named):
            make_phantom(spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * grid.n_voxels
