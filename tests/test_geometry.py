import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfmimo.forward
from nfmimo import (
    ArrayGeometry,
    ConstantPulse,
    FrequencyGrid,
    ImagingScenario,
    PlanTooLargeError,
    SPEED_OF_LIGHT,
    SingularityError,
    TabulatedPulse,
    Vec3,
    VoxelGrid,
    forward_apply,
    make_spiral_array,
    matrix_element,
    preset_scenario,
    scenario_fingerprint,
    voxel_centers,
)
from nfmimo.geometry import _axes, _center

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

    @pytest.mark.parametrize("name", ["transmitters", "receivers"])
    def test_rejects_a_point_that_is_not_a_vec3(self, name):
        points = {"transmitters": (Vec3(0, 0, 0),), "receivers": (Vec3(0.1, 0, 0),)}
        points[name] = (Vec3(0.2, 0, 0), (0.3, 0.0, 0.0))
        named = rf"^{name} must hold Vec3 points, got \(0.3, 0.0, 0.0\)$"
        with pytest.raises(ValueError, match=named):
            ArrayGeometry(**points)


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
        "args",
        [(0.0, 1e9, 2), (-1e9, 1e9, 2), (2e9, 1e9, 2), (1e9, 2e9, 0), (4e9, 16e9, 2.7),
         (5e9, 5e9, 2)],
    )
    def test_invalid_grids(self, args):
        with pytest.raises(ValueError):
            FrequencyGrid(*args)


class TestVoxelGrid:
    def test_corner_voxel_is_center_minus_half_extent(self):
        assert voxel_centers(PAPER_GRID)[0].tolist() == [-0.15, -0.15, 0.45]

    def test_middle_voxel_is_scene_center(self):
        n = 30 + 61 * (30 + 61 * 10)
        assert voxel_centers(PAPER_GRID)[n].tolist() == [0.0, 0.0, 0.5]

    def test_x_neighbor_spacing(self):
        x, y, z = voxel_centers(PAPER_GRID)[1]
        assert x == pytest.approx(-0.145, abs=1e-15)
        assert (y, z) == (-0.15, 0.45)

    def test_spacing_is_half_centimeter(self):
        assert PAPER_GRID.spacing == pytest.approx((0.005, 0.005, 0.005), rel=1e-12)

    def test_out_of_range_index(self):
        scn = preset_scenario("paper-v")
        for n in (scn.n_voxels, -1):
            with pytest.raises(IndexError, match=f"voxel index {n} out of range"):
                matrix_element(0, n, scn)

    def test_single_voxel_axis_needs_zero_extent(self):
        with pytest.raises(ValueError):
            VoxelGrid(center=Vec3(0, 0, 0), extent=(0.1, 0.1, 0.1), dims=(2, 2, 1))
        with pytest.raises(ValueError):
            VoxelGrid(center=Vec3(0, 0, 0), extent=(0.1, 0.0, 0.1), dims=(2, 2, 2))

    def test_fractional_dims_refused(self):
        with pytest.raises(ValueError, match=r"dims\[0\] must be a whole number"):
            VoxelGrid(center=Vec3(0, 0, 0), extent=(0.1, 0.1, 0.0), dims=(3.9, 3, 1))

    def test_center_must_be_a_vec3(self):
        with pytest.raises(ValueError, match=r"^center must be a Vec3, got \(0, 0, 0.5\)$"):
            VoxelGrid(center=(0, 0, 0.5), extent=(0.1, 0.1, 0.0), dims=(3, 3, 1))

    @pytest.mark.parametrize(
        "dims, fits",
        [((3_000_000,) * 3, False), ((2**21,) * 3, False), ((2**21, 2**21, 2**21 - 1), True)],
        ids=["3e6-per-axis", "2^63", "2^63-2^42"],
    )
    def test_voxel_count_is_one_numpy_can_index(self, dims, fits):
        # building a grid allocates nothing per voxel, so these sizes are safe
        build = lambda: VoxelGrid(center=Vec3(0, 0, 0.5), extent=(0.3, 0.3, 0.1), dims=dims)
        if fits:
            assert build().n_voxels == math.prod(dims)
        else:
            with pytest.raises(ValueError, match=rf"^dims \({dims[0]}, .* voxels"):
                build()

    def test_exhaustive_flat_numbering_round_trip_at_paper_size(self):
        nx, ny, nz = PAPER_GRID.dims
        n = np.arange(PAPER_GRID.n_voxels)
        ix = n % nx
        iy = (n // nx) % ny
        iz = n // (nx * ny)
        assert np.array_equal(ix + nx * (iy + ny * iz), n)
        decoded = np.unravel_index(n, PAPER_GRID.shape)
        assert all(np.array_equal(a, b) for a, b in zip(decoded, (iz, iy, ix)))
        assert np.array_equal(np.ravel_multi_index((iz, iy, ix), PAPER_GRID.shape), n)

    def test_all_voxel_centers_distinct_at_paper_size(self):
        centers = voxel_centers(PAPER_GRID)
        assert centers.shape == (78141, 3)
        assert np.unique(centers, axis=0).shape[0] == 78141

    def test_voxel_centers_match_scalar_op(self):
        # matrix_element takes one center from _center with int indices
        grid = VoxelGrid(center=Vec3(0.01, -0.02, 0.3), extent=(0.1, 0.2, 0.0), dims=(3, 4, 1))
        centers = voxel_centers(grid)
        for n in range(grid.n_voxels):
            iz, iy, ix = map(int, np.unravel_index(n, grid.shape))
            assert centers[n].tolist() == list(_center(grid, ix, iy, iz))

    @pytest.mark.parametrize(
        "grid",
        [
            PAPER_GRID,
            VoxelGrid(center=Vec3(0.01, -0.02, 0.3), extent=(0.1, 0.0, 0.07), dims=(3, 1, 5)),
            VoxelGrid(center=Vec3(-0.3, 0.1, 0.0), extent=(0.0, 0.3, 0.0), dims=(1, 7, 1)),
        ],
        ids=["paper", "dims-1-y", "dims-1-xz"],
    )
    def test_axes_are_the_columns_of_voxel_centers(self, grid):
        centers = voxel_centers(grid)
        iz, iy, ix = np.unravel_index(np.arange(grid.n_voxels), grid.shape)
        for col, (axis, i) in enumerate(zip(_axes(grid), (ix, iy, iz))):
            assert axis.shape == (grid.dims[col],)
            # the raw words, so a -0.0 against a 0.0 shows too
            assert axis[i].tobytes() == centers[:, col].tobytes()


class TestFlatOrderings:
    def test_shapes_are_c_order_of_the_flat_numbering(self):
        scn = preset_scenario("paper-v")
        assert scn.channel_shape == (11, 16, 9)
        assert scn.voxels.shape == (21, 61, 61)
        channels = np.arange(scn.n_channels).reshape(scn.channel_shape)
        assert channels[2, 5, 7] == 7 + 9 * (5 + 16 * 2)  # receiver fastest
        voxels = np.arange(scn.n_voxels).reshape(scn.voxels.shape)
        assert voxels[3, 4, 5] == 5 + 61 * (4 + 61 * 3)  # x fastest
        with pytest.raises(AttributeError):
            scn.channel_shape = (1, 1, 1)
        with pytest.raises(AttributeError):
            scn.voxels.shape = (1, 1, 1)


def _element(scn, fi, ti, ri, n):
    """A[m, n] from the propagation formula at (fi, ti, ri) and voxel n."""
    f = scn.frequencies.values()[fi]
    v = voxel_centers(scn.voxels)[n]
    d_t = np.linalg.norm(scn.array.transmitters[ti].as_array() - v)
    d_r = np.linalg.norm(scn.array.receivers[ri].as_array() - v)
    p = scn.pulse.evaluate(np.array([f]))[0]
    return p * np.exp(-2j * math.pi * f * (d_t + d_r) / scn.c) / (4 * math.pi * d_t * d_r)


class TestChannelNumbering:
    def test_first_channel(self, tiny_scenario):
        assert np.unravel_index(0, tiny_scenario.channel_shape) == (0, 0, 0)
        assert matrix_element(0, 3, tiny_scenario) == pytest.approx(
            _element(tiny_scenario, 0, 0, 0, 3), rel=1e-12
        )

    def test_paper_examples(self):
        scn = preset_scenario("paper-v")
        assert np.unravel_index(9, scn.channel_shape) == (0, 1, 0)
        assert np.unravel_index(144, scn.channel_shape) == (1, 0, 0)
        for m, fti in ((9, (0, 1, 0)), (144, (1, 0, 0))):
            assert matrix_element(m, 4321, scn) == pytest.approx(
                _element(scn, *fti, 4321), rel=1e-12
            )

    def test_out_of_range(self, tiny_scenario):
        for m in (tiny_scenario.n_channels, -1):
            with pytest.raises(IndexError, match=f"channel index {m} out of range"):
                matrix_element(m, 0, tiny_scenario)

    def test_exhaustive_round_trip_at_paper_size(self):
        scn = preset_scenario("paper-v")
        assert scn.n_channels == 1584
        m = np.arange(1584)
        fi, ti, ri = np.unravel_index(m, scn.channel_shape)
        assert np.array_equal(ri + 9 * (ti + 16 * fi), m)
        assert np.array_equal(np.ravel_multi_index((fi, ti, ri), scn.channel_shape), m)

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
        fti = np.unravel_index(m, scn.channel_shape)
        assert fti == (m // (nt * nr), m // nr % nt, m % nr)
        assert matrix_element(m, 0, scn) == pytest.approx(_element(scn, *fti, 0), rel=1e-12)


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

    @pytest.mark.parametrize("seed", [True, -1, 2.5, "3"])
    def test_rng_seed_must_be_a_whole_number(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be"):
            make_spiral_array(2, 2, 0.1, rng_seed=seed)


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

    @pytest.mark.parametrize(
        "knots, values, message",
        [((1e9, 2e9), (1 + 0j,), "frequencies_hz and values must have equal length"),
         ((), (), "tabulated pulse needs at least one knot")],
        ids=["length-mismatch", "no-knots"],
    )
    def test_tabulated_needs_one_value_per_knot(self, knots, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TabulatedPulse(frequencies_hz=knots, values=values)

    @pytest.mark.parametrize("bad", ["1", None, True], ids=["string", "none", "bool"])
    def test_pulse_value_must_be_a_number(self, bad):
        with pytest.raises(ValueError, match="^pulse value must be a number"):
            ConstantPulse(bad)

    def test_constant_value_too_large_for_a_float_refused(self):
        named = "^pulse value must be finite, got an integer too large for a float$"
        with pytest.raises(ValueError, match=named):
            ConstantPulse(10**400)

    @pytest.mark.parametrize(
        "bad", [complex(np.nan, 0), complex(0, np.inf), complex(-np.inf, 1), 10**400]
    )
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

    @pytest.mark.parametrize(
        "knots, covered",
        [((4e9, 7e9), False), ((5e9, 8e9), False), ((4e9, 8e9), True), ((1e9, 9e9), True)],
        ids=["low-end", "high-end", "exact", "wider"],
    )
    def test_scenario_needs_the_knots_to_cover_both_ends(self, knots, covered):
        pulse = TabulatedPulse(frequencies_hz=knots, values=(1 + 0j, 1 + 0j))
        build = lambda: ImagingScenario(
            array=make_spiral_array(1, 1, 0.1),
            frequencies=FrequencyGrid(4e9, 8e9, 3),
            voxels=VoxelGrid(center=Vec3(0, 0, 0.3), extent=(0, 0, 0), dims=(1, 1, 1)),
            pulse=pulse,
        )
        if covered:
            assert build().pulse == pulse
        else:
            with pytest.raises(ValueError, match="^tabulated pulse knots do not cover"):
                build()

    @pytest.mark.parametrize(
        "pulse", [1.0 + 0j, None, (1e9, 2e9)], ids=["complex", "none", "tuple"]
    )
    def test_scenario_refuses_a_pulse_of_neither_type(self, pulse):
        with pytest.raises(ValueError, match="^pulse must be a ConstantPulse or a TabulatedPulse"):
            ImagingScenario(
                array=make_spiral_array(1, 1, 0.1),
                frequencies=FrequencyGrid(4e9, 8e9, 3),
                voxels=VoxelGrid(center=Vec3(0, 0, 0.3), extent=(0, 0, 0), dims=(1, 1, 1)),
                pulse=pulse,
            )


# Grids with a z = 0 voxel plane, where the antennas are, and one without.
HIT_GRID = VoxelGrid(center=Vec3(0, 0, 0), extent=(0.4, 0.2, 0.2), dims=(5, 3, 3))
FLAT_Y_GRID = VoxelGrid(center=Vec3(0, 0.1, 0), extent=(0.4, 0, 0.2), dims=(5, 1, 3))
OFF_Z_GRID = VoxelGrid(center=Vec3(0, 0, 0.05), extent=(0.4, 0.2, 0.2), dims=(5, 3, 3))


def _node(grid: VoxelGrid, ix: int, iy: int, iz: int) -> np.ndarray:
    """The center of voxel (ix, iy, iz), bit for bit."""
    return voxel_centers(grid)[np.ravel_multi_index((iz, iy, ix), grid.shape)]


def _brute_force_hit(grid: VoxelGrid, antennas):
    """(first flat voxel at distance 0, antenna) for the first antenna in the
    list that coincides with a voxel center, or None, over all N centers."""
    centers = voxel_centers(grid)
    for antenna in antennas:
        d2 = np.sum((centers - antenna.as_array()) ** 2, axis=1)
        if np.any(d2 == 0.0):
            return int(np.argmin(d2)), antenna
    return None


FAR = Vec3(0.7, 0.7, 0)  # an antenna away from every test grid


def _check_agrees(grid: VoxelGrid, transmitters, receivers):
    """Build the scenario and assert that it raises the SingularityError the
    brute force names, or nothing; returns the brute force's answer."""
    expected = _brute_force_hit(grid, [*transmitters, *receivers])

    def build():
        return ImagingScenario(
            array=ArrayGeometry(transmitters=tuple(transmitters), receivers=tuple(receivers)),
            frequencies=FrequencyGrid(1e9, 1e9, 1),
            voxels=grid,
        )

    if expected is None:
        build()
    else:
        n, a = expected
        named = re.escape(f"voxel {n} coincides with antenna at ({a.x}, {a.y}, {a.z})")
        with pytest.raises(SingularityError, match=f"^{named}$"):
            build()
    return expected


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

    def test_first_hit_names_the_brute_force_voxel(self):
        # both antennas hit; the transmitter is reported though the
        # receiver's voxel comes first in the flat numbering
        tx, rx = Vec3(*_node(HIT_GRID, 3, 2, 1)), Vec3(*_node(HIT_GRID, 0, 0, 1))
        n, antenna = _check_agrees(HIT_GRID, [FAR, tx], [rx])
        assert antenna == tx
        assert n > _brute_force_hit(HIT_GRID, [rx])[0]

    @pytest.mark.parametrize(
        "grid, antenna, hit",
        [
            (HIT_GRID, _node(HIT_GRID, 4, 0, 1), True),
            (HIT_GRID, _node(HIT_GRID, 0, 2, 1), True),
            # a dims=1 axis
            (FLAT_Y_GRID, _node(FLAT_Y_GRID, 1, 0, 1), True),
            # -0.0 against the grid's 0.0 on every axis
            (HIT_GRID, (-0.0, -0.0, -0.0), True),
            # on two axes' nodes but not on the third: no voxel is hit
            (HIT_GRID, _node(HIT_GRID, 3, 1, 1) + (0, 0.05, 0), False),
            (HIT_GRID, _node(HIT_GRID, 3, 1, 1) + (1e-12, 0, 0), False),
            (OFF_Z_GRID, _node(OFF_Z_GRID, 3, 1, 0) * (1, 1, 0), False),
            (FLAT_Y_GRID, _node(FLAT_Y_GRID, 1, 0, 1) + (0, 0.05, 0), False),
        ],
        ids=["node", "node-edge", "dims-1", "negative-zero", "miss-y", "miss-x",
             "miss-z", "miss-dims-1"],
    )
    def test_check_agrees_with_the_brute_force(self, grid, antenna, hit):
        assert (_check_agrees(grid, [Vec3(*antenna)], [FAR]) is not None) == hit

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 5)] * 3),
        node=st.tuples(*[st.integers(0, 4)] * 2),
        # per axis: on the node, or off it by a fraction of the spacing
        offset=st.tuples(*[st.sampled_from([0.0, 0.0, 0.5, 1e-9])] * 2),
        # some of these put a voxel plane at z = 0, where the antennas are
        z_center=st.sampled_from([0.0, 0.005, 0.02]),
    )
    def test_check_agrees_with_the_brute_force_property(self, dims, node, offset, z_center):
        grid = VoxelGrid(
            center=Vec3(0.01, -0.02, z_center),
            extent=tuple(0.01 * (d - 1) for d in dims),
            dims=dims,
        )
        ix, iy = (min(i, d - 1) for i, d in zip(node, dims))
        x, y, _ = _node(grid, ix, iy, 0)
        _check_agrees(grid, [Vec3(x + 0.01 * offset[0], y + 0.01 * offset[1], 0.0)], [FAR])

    @pytest.mark.parametrize(
        "antenna_x, center, extent",
        [
            (1.35e154, (0.0, 0.0, 0.5), (0.3, 0.3, 0.1)),  # the square overflows
            (0.0, (1.7e308, 0.0, 0.5), (0.3, 0.3, 0.1)),
            (0.0, (-1.7e308, 0.0, 0.5), (1.7e308, 0.3, 0.1)),  # the axis overflows
        ],
        ids=["far-antenna", "far-voxels", "huge-extent"],
    )
    def test_distance_past_the_float_range_refused(self, antenna_x, center, extent):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning
            named = r"^the distance from the antenna at \(.*\) overflows$"
            with pytest.raises(ValueError, match=named):
                ImagingScenario(
                    array=ArrayGeometry(transmitters=(Vec3(antenna_x, 0, 0),), receivers=(FAR,)),
                    frequencies=FrequencyGrid(1e9, 1e9, 1),
                    voxels=VoxelGrid(center=Vec3(*center), extent=extent, dims=(3, 3, 2)),
                )

    @pytest.mark.parametrize(
        "c, band, named",
        [
            (1e-300, (4e9, 8e9, 3), r"f=8e\+09 Hz and speed of light 1e-300"),  # w_f is infinite
            (SPEED_OF_LIGHT, (1e308, 1e308, 1), r"f=1e\+308 Hz and speed of light 2\.99792e\+08"),
        ],
        ids=["tiny-speed-of-light", "huge-frequency"],
    )
    def test_phase_past_the_float_range_refused(self, c, band, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning
            with pytest.raises(ValueError, match=rf"^the phase 2\*pi\*f\*d/c overflows at {named}$"):
                ImagingScenario(
                    array=make_spiral_array(2, 2, 0.1, rng_seed=1),
                    frequencies=FrequencyGrid(*band),
                    voxels=VoxelGrid(center=Vec3(0, 0, 0.25), extent=(0.06, 0.06, 0), dims=(3, 3, 1)),
                    c=c,
                )

    @pytest.mark.parametrize("z, refused", [(1e-160, True), (1e-150, False)])
    def test_voxel_near_a_transmitter_and_a_receiver(self, z, refused):
        # the receiver is 1e-300 m from the transmitter, and the voxel z above
        # both: no distance is 0, and at 1e-160 m 1/(4*pi*dT*dR) is past the
        # float range
        def build():
            return ImagingScenario(
                array=ArrayGeometry(transmitters=(Vec3(0, 0, 0),), receivers=(Vec3(1e-300, 0, 0),)),
                frequencies=FrequencyGrid(4e9, 4e9, 1),
                voxels=VoxelGrid(center=Vec3(0, 0, z), extent=(0, 0, 0), dims=(1, 1, 1)),
            )

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning
            if refused:
                distances = r"dT=9\.99994e-161 m and dR=9\.99994e-161 m"
                named = rf"^the amplitude 1/\(4\*pi\*dT\*dR\) overflows at the nearest distances {distances}$"
                with pytest.raises(SingularityError, match=named):
                    build()
            else:
                assert np.all(np.isfinite(forward_apply(np.ones(1), build())))

    def test_voxel_axes_past_memavailable_refused_before_allocation(self, monkeypatch):
        grid = VoxelGrid(center=Vec3(0, 0, 0.5), extent=(0.3, 0, 0), dims=(10**6, 1, 1))
        monkeypatch.setattr(nfmimo.geometry, "_available_bytes", lambda: 10**6)
        named = r"^checking the voxel axes needs 0\.024 GB, but only 0\.001 GB of memory is available$"
        tracemalloc.start()
        try:
            with pytest.raises(PlanTooLargeError, match=named):
                ImagingScenario(
                    array=make_spiral_array(2, 2, 0.1), frequencies=FrequencyGrid(4e9, 8e9, 3), voxels=grid
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6  # less than one 10**6-entry axis

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
        # files written for paper-v pair with it by this digest
        assert scenario_fingerprint(a).hex() == (
            "1b2602e6c642c2288e26d343cf675a96291ae84e5bf261d2d4726f76f1a3ef08"
        )

    def test_equal_scenarios_hash_equal(self):
        a = preset_scenario("paper-v")
        b = preset_scenario("paper-v")
        assert a == b and a is not b
        assert hash(a) == hash(b)
