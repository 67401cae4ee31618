import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfmimo import (
    ArrayGeometry,
    ChannelIndex,
    ConstantPulse,
    FrequencyGrid,
    ImagingScenario,
    SingularityError,
    TabulatedPulse,
    Vec3,
    VoxelGrid,
    channel_of,
    flat_channel,
    make_spiral_array,
    preset_scenario,
    scenario_fingerprint,
    voxel_center,
    voxel_centers,
)

PAPER_GRID = VoxelGrid(center=Vec3(0, 0, 0.5), extent=(0.3, 0.3, 0.1), dims=(61, 61, 21))


def test_vec3_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec3(0.0, math.nan, 0.0)
    with pytest.raises(ValueError):
        Vec3(math.inf, 0.0, 0.0)


class TestArrayGeometry:
    def test_rejects_empty_lists(self):
        with pytest.raises(ValueError):
            ArrayGeometry(transmitters=(), receivers=(Vec3(0, 0, 0),))

    def test_rejects_off_plane_antenna(self):
        with pytest.raises(ValueError, match="z=0"):
            ArrayGeometry(
                transmitters=(Vec3(0, 0, 0.01),), receivers=(Vec3(0.1, 0, 0),)
            )

    def test_rejects_duplicates_within_list(self):
        with pytest.raises(ValueError, match="duplicate"):
            ArrayGeometry(
                transmitters=(Vec3(0, 0, 0), Vec3(0, 0, 0)),
                receivers=(Vec3(0.1, 0, 0),),
            )


class TestFrequencyGrid:
    def test_paper_band_spacing_and_endpoints(self):
        grid = FrequencyGrid(4e9, 16e9, 11)
        assert grid.spacing == pytest.approx(1.2e9, rel=1e-15)
        vals = grid.values()
        assert vals[0] == 4e9 and vals[-1] == 16e9 and vals.size == 11

    def test_single_point_requires_equal_endpoints(self):
        assert FrequencyGrid(5e9, 5e9, 1).values().tolist() == [5e9]
        with pytest.raises(ValueError):
            FrequencyGrid(5e9, 6e9, 1)

    @pytest.mark.parametrize(
        "args", [(0.0, 1e9, 2), (-1e9, 1e9, 2), (2e9, 1e9, 2), (1e9, 2e9, 0), (4e9, 16e9, 2.7)]
    )
    def test_invalid_grids(self, args):
        with pytest.raises(ValueError):
            FrequencyGrid(*args)


class TestVoxelGrid:
    def test_corner_voxel_is_center_minus_half_extent(self):
        assert voxel_center(0, PAPER_GRID) == Vec3(-0.15, -0.15, 0.45)

    def test_middle_voxel_is_scene_center(self):
        n = 30 + 61 * (30 + 61 * 10)
        assert voxel_center(n, PAPER_GRID) == Vec3(0.0, 0.0, 0.5)

    def test_x_neighbor_spacing(self):
        v = voxel_center(1, PAPER_GRID)
        assert v.x == pytest.approx(-0.145, abs=1e-15)
        assert (v.y, v.z) == (-0.15, 0.45)

    def test_spacing_is_half_centimeter(self):
        assert PAPER_GRID.spacing == pytest.approx((0.005, 0.005, 0.005), rel=1e-12)

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            voxel_center(PAPER_GRID.n_voxels, PAPER_GRID)
        with pytest.raises(IndexError):
            voxel_center(-1, PAPER_GRID)

    def test_single_voxel_axis_needs_zero_extent(self):
        with pytest.raises(ValueError):
            VoxelGrid(center=Vec3(0, 0, 0), extent=(0.1, 0.1, 0.1), dims=(2, 2, 1))
        with pytest.raises(ValueError):
            VoxelGrid(center=Vec3(0, 0, 0), extent=(0.1, 0.0, 0.1), dims=(2, 2, 2))

    def test_fractional_dims_refused(self):
        with pytest.raises(ValueError, match=r"dims\[0\] must be a whole number"):
            VoxelGrid(center=Vec3(0, 0, 0), extent=(0.1, 0.1, 0.0), dims=(3.9, 3, 1))

    def test_exhaustive_flat_index_round_trip_at_paper_size(self):
        nx, ny, nz = PAPER_GRID.dims
        n = np.arange(PAPER_GRID.n_voxels)
        ix = n % nx
        iy = (n // nx) % ny
        iz = n // (nx * ny)
        assert np.array_equal(ix + nx * (iy + ny * iz), n)
        # spot-check the scalar API agrees with the vectorized decode
        for k in (0, 1, 61, 3720, 78140):
            assert PAPER_GRID.flat_index(*PAPER_GRID.indices_of(k)) == k

    def test_all_voxel_centers_distinct_at_paper_size(self):
        centers = voxel_centers(PAPER_GRID)
        assert centers.shape == (78141, 3)
        assert np.unique(centers, axis=0).shape[0] == 78141

    def test_voxel_centers_match_scalar_op(self):
        grid = VoxelGrid(center=Vec3(0.01, -0.02, 0.3), extent=(0.1, 0.2, 0.0), dims=(3, 4, 1))
        centers = voxel_centers(grid)
        for n in range(grid.n_voxels):
            assert np.allclose(centers[n], voxel_center(n, grid).as_array(), atol=0, rtol=0)


class TestChannelIndexing:
    def test_first_channel(self, tiny_scenario):
        assert channel_of(0, tiny_scenario) == ChannelIndex(0, 0, 0)

    def test_paper_examples(self):
        scn = preset_scenario("paper-v")
        assert channel_of(9, scn) == ChannelIndex(fi=0, ti=1, ri=0)
        assert channel_of(144, scn) == ChannelIndex(fi=1, ti=0, ri=0)

    def test_out_of_range(self, tiny_scenario):
        with pytest.raises(IndexError):
            channel_of(tiny_scenario.n_channels, tiny_scenario)
        with pytest.raises(IndexError):
            channel_of(-1, tiny_scenario)
        with pytest.raises(IndexError):
            flat_channel(ChannelIndex(0, 0, 99), tiny_scenario)

    def test_exhaustive_round_trip_at_paper_size(self):
        scn = preset_scenario("paper-v")
        assert scn.n_channels == 1584
        for m in range(1584):
            assert flat_channel(channel_of(m, scn), scn) == m

    @given(
        nf=st.integers(1, 5),
        nt=st.integers(1, 5),
        nr=st.integers(1, 5),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, nf, nt, nr, data):
        scn = ImagingScenario(
            array=make_spiral_array(nt, nr, 0.2, rng_seed=0),
            frequencies=FrequencyGrid(1e9, 2e9, nf) if nf > 1 else FrequencyGrid(1e9, 1e9, 1),
            voxels=VoxelGrid(center=Vec3(0, 0, 0.3), extent=(0, 0, 0), dims=(1, 1, 1)),
        )
        m = data.draw(st.integers(0, scn.n_channels - 1))
        assert flat_channel(channel_of(m, scn), scn) == m


class TestSpiralArray:
    def test_paper_contract(self):
        geo = make_spiral_array(16, 9, 0.25, rng_seed=7)
        assert geo.n_tx == 16 and geo.n_rx == 9
        for p in geo.transmitters + geo.receivers:
            assert math.hypot(p.x, p.y) <= 0.25 + 1e-12
            assert p.z == 0.0

    def test_two_antennas_distinct(self):
        geo = make_spiral_array(1, 1, 0.1, rng_seed=99)
        assert geo.transmitters[0] != geo.receivers[0]

    def test_deterministic_for_seed(self):
        assert make_spiral_array(5, 4, 0.3, rng_seed=11) == make_spiral_array(5, 4, 0.3, rng_seed=11)
        assert make_spiral_array(5, 4, 0.3, rng_seed=11) != make_spiral_array(5, 4, 0.3, rng_seed=12)

    @pytest.mark.parametrize("radius", [0.0, -0.5, math.nan])
    def test_bad_radius(self, radius):
        with pytest.raises(ValueError):
            make_spiral_array(2, 2, radius)

    def test_fractional_antenna_count(self):
        with pytest.raises(ValueError, match="n_tx must be a whole number"):
            make_spiral_array(2.5, 3, 0.25)


class TestPulseSpectrum:
    def test_constant_is_flat(self):
        p = ConstantPulse(2.0 - 1.0j)
        assert np.all(p.evaluate(np.array([1e9, 5e9, 9e9])) == 2.0 - 1.0j)

    def test_tabulated_linear_interpolation(self):
        p = TabulatedPulse(frequencies_hz=(1e9, 3e9), values=(1 + 0j, 3 + 4j))
        mid = p.evaluate(np.array([2e9]))[0]
        assert mid == pytest.approx(2 + 2j, rel=1e-15)

    def test_knots_must_increase(self):
        with pytest.raises(ValueError):
            TabulatedPulse(frequencies_hz=(2e9, 1e9), values=(1 + 0j, 1 + 0j))

    @pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.inf), complex(-np.inf, 1)])
    def test_tabulated_values_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TabulatedPulse(frequencies_hz=(1e9, 3e9), values=(1 + 0j, bad))

    def test_scenario_rejects_uncovered_band(self):
        pulse = TabulatedPulse(frequencies_hz=(5e9, 6e9), values=(1 + 0j, 1 + 0j))
        with pytest.raises(ValueError, match="cover"):
            ImagingScenario(
                array=make_spiral_array(1, 1, 0.1),
                frequencies=FrequencyGrid(4e9, 8e9, 3),
                voxels=VoxelGrid(center=Vec3(0, 0, 0.3), extent=(0, 0, 0), dims=(1, 1, 1)),
                pulse=pulse,
            )


class TestImagingScenario:
    def test_paper_preset_dimensions(self):
        scn = preset_scenario("paper-v")
        assert scn.n_channels == 11 * 16 * 9 == 1584
        assert scn.n_voxels == 61 * 61 * 21 == 78141

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_scenario("nope")

    def test_antenna_on_voxel_rejected(self):
        with pytest.raises(SingularityError):
            ImagingScenario(
                array=ArrayGeometry(
                    transmitters=(Vec3(0, 0, 0),), receivers=(Vec3(0.1, 0, 0),)
                ),
                frequencies=FrequencyGrid(1e9, 1e9, 1),
                # z=0 voxel plane passes through the transmitter
                voxels=VoxelGrid(center=Vec3(0, 0, 0), extent=(0, 0, 0), dims=(1, 1, 1)),
            )

    def test_fingerprint_is_stable_and_sensitive(self):
        a = preset_scenario("paper-v")
        b = preset_scenario("paper-v")
        assert scenario_fingerprint(a) == scenario_fingerprint(b)
        assert len(scenario_fingerprint(a)) == 32
        other = ImagingScenario(
            array=a.array,
            frequencies=FrequencyGrid(4e9, 16e9, 12),
            voxels=a.voxels,
            pulse=a.pulse,
        )
        assert scenario_fingerprint(other) != scenario_fingerprint(a)
