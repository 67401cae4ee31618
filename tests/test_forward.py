import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfmimo.forward
from nfmimo import (
    ArrayGeometry,
    ChannelSubset,
    DenseCapError,
    FrequencyGrid,
    ImagingScenario,
    MeasurementSet,
    MinibatchComposition,
    ReflectivityVolume,
    SPEED_OF_LIGHT,
    Vec3,
    VoxelGrid,
    adjoint_apply,
    channel_of,
    data_fidelity,
    forward_apply,
    materialize_dense,
    make_spiral_array,
    matrix_element,
    minibatch_gradient,
    sample_minibatch,
    simulate_measurements,
)
from conftest import oracle_dense_matrix, random_complex

# Frozen output of an independent math/cmath evaluation of the propagation
# formula for Tx=(0.1,0,0), Rx=(-0.1,0,0), voxel=(0,0,0.4), f=10 GHz, p=1.
GOLDEN_ELEMENT = -0.4677243613935091 + 0.018818304865202827j


def single_voxel_scenario(f_hz: float) -> ImagingScenario:
    """One co-located-ish pair of antennas and one voxel at 0.5 m."""
    return ImagingScenario(
        array=ArrayGeometry(
            transmitters=(Vec3(0, 0, 0),), receivers=(Vec3(0, 0, 0),)
        ),
        frequencies=FrequencyGrid(f_hz, f_hz, 1),
        voxels=VoxelGrid(center=Vec3(0, 0, 0.5), extent=(0, 0, 0), dims=(1, 1, 1)),
    )


class TestMatrixElement:
    def test_full_wavelength_phase_wraps(self):
        # dT + dR = 1 m and f = c Hz make the phase exactly -2*pi
        scn = single_voxel_scenario(SPEED_OF_LIGHT)
        val = matrix_element(0, 0, scn)
        assert val == pytest.approx(1.0 / np.pi, rel=1e-12)

    def test_quarter_wave_phase(self):
        scn = single_voxel_scenario(SPEED_OF_LIGHT / 4.0)
        val = matrix_element(0, 0, scn)
        assert val == pytest.approx(-1j / np.pi, rel=1e-12)

    def test_golden_value(self):
        scn = ImagingScenario(
            array=ArrayGeometry(
                transmitters=(Vec3(0.1, 0, 0),), receivers=(Vec3(-0.1, 0, 0),)
            ),
            frequencies=FrequencyGrid(10e9, 10e9, 1),
            voxels=VoxelGrid(center=Vec3(0, 0, 0.4), extent=(0, 0, 0), dims=(1, 1, 1)),
        )
        assert matrix_element(0, 0, scn) == pytest.approx(GOLDEN_ELEMENT, rel=1e-13)

    def test_magnitude_is_spreading_loss_only(self, small_scenario, rng):
        scn = small_scenario
        freqs = scn.frequencies.values()
        for m in rng.choice(scn.n_channels, size=6, replace=False):
            for n in rng.choice(scn.n_voxels, size=4, replace=False):
                ci = channel_of(int(m), scn)
                t = scn.array.transmitters[ci.ti].as_array()
                r = scn.array.receivers[ci.ri].as_array()
                from nfmimo import voxel_center

                v = voxel_center(int(n), scn.voxels).as_array()
                d_t = np.linalg.norm(t - v)
                d_r = np.linalg.norm(r - v)
                expect = 1.0 / (4 * np.pi * d_t * d_r)
                assert abs(matrix_element(int(m), int(n), scn)) == pytest.approx(
                    expect, rel=1e-12
                )

    def test_index_errors(self, tiny_scenario):
        with pytest.raises(IndexError):
            matrix_element(tiny_scenario.n_channels, 0, tiny_scenario)
        with pytest.raises(IndexError):
            matrix_element(0, tiny_scenario.n_voxels, tiny_scenario)


class TestMaterializeDense:
    def test_one_by_one_equals_matrix_element(self):
        scn = single_voxel_scenario(6e9)
        dense = materialize_dense(scn)
        assert dense.shape == (1, 1)
        assert dense[0, 0] == matrix_element(0, 0, scn)

    def test_matches_independent_scalar_oracle(self, tiny_scenario):
        dense = materialize_dense(tiny_scenario)
        oracle = oracle_dense_matrix(tiny_scenario)
        assert np.allclose(dense, oracle, rtol=1e-13, atol=0)

    def test_every_entry_equals_matrix_element(self, tiny_scenario):
        dense = materialize_dense(tiny_scenario)
        for m in range(tiny_scenario.n_channels):
            for n in range(tiny_scenario.n_voxels):
                assert dense[m, n] == matrix_element(m, n, tiny_scenario)

    def test_cap(self, small_scenario):
        with pytest.raises(DenseCapError):
            materialize_dense(small_scenario, cap=10)


class TestForwardApply:
    def test_zero_volume_maps_to_zero(self, small_scenario):
        y = forward_apply(np.zeros(small_scenario.n_voxels), small_scenario)
        assert np.array_equal(y, np.zeros(small_scenario.n_channels))

    def test_unit_voxel_extracts_column(self, small_scenario):
        n0 = 5
        s = np.zeros(small_scenario.n_voxels, dtype=complex)
        s[n0] = 1.0
        y = forward_apply(s, small_scenario)
        col = np.array(
            [matrix_element(m, n0, small_scenario) for m in range(small_scenario.n_channels)]
        )
        assert np.allclose(y, col, rtol=1e-12, atol=0)

    def test_matches_dense_oracle(self, small_scenario, rng):
        dense = materialize_dense(small_scenario)
        s = random_complex(rng, small_scenario.n_voxels)
        y = forward_apply(s, small_scenario)
        ref = dense @ s
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_linearity(self, small_scenario, rng):
        s1 = random_complex(rng, small_scenario.n_voxels)
        s2 = random_complex(rng, small_scenario.n_voxels)
        a, b = 0.7 - 0.2j, -1.3 + 0.4j
        lhs = forward_apply(a * s1 + b * s2, small_scenario)
        rhs = a * forward_apply(s1, small_scenario) + b * forward_apply(s2, small_scenario)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_subset_restriction_is_bit_exact(self, small_scenario, rng):
        s = random_complex(rng, small_scenario.n_voxels)
        full = forward_apply(s, small_scenario)
        for _ in range(5):
            size = int(rng.integers(1, small_scenario.n_channels + 1))
            sub = rng.choice(small_scenario.n_channels, size=size, replace=False)
            restricted = forward_apply(s, small_scenario, subset=sub)
            assert np.array_equal(restricted, full[sub])

    def test_thread_count_agreement(self, small_scenario, rng):
        s = random_complex(rng, small_scenario.n_voxels)
        y1 = forward_apply(s, small_scenario, threads=1)
        y4 = forward_apply(s, small_scenario, threads=4)
        assert np.linalg.norm(y1 - y4) <= 1e-12 * np.linalg.norm(y1)

    def test_grid_mismatch_rejected(self, small_scenario, tiny_scenario):
        vol = ReflectivityVolume.zeros(tiny_scenario.voxels)
        with pytest.raises(ValueError, match="grid"):
            forward_apply(vol, small_scenario)
        with pytest.raises(ValueError, match="voxel values"):
            forward_apply(np.zeros(3), small_scenario)


class TestAdjointApply:
    def test_zero_residual_maps_to_zero_volume(self, small_scenario):
        g = adjoint_apply(np.zeros(small_scenario.n_channels), small_scenario)
        assert np.array_equal(g, np.zeros(small_scenario.n_voxels))

    def test_unit_channel_extracts_conjugate_row(self, small_scenario):
        m0 = 7
        r = np.zeros(small_scenario.n_channels, dtype=complex)
        r[m0] = 1.0
        g = adjoint_apply(r, small_scenario)
        row = np.array(
            [matrix_element(m0, n, small_scenario) for n in range(small_scenario.n_voxels)]
        )
        assert np.allclose(g, np.conj(row), rtol=1e-12, atol=0)

    def test_matches_dense_oracle(self, small_scenario, rng):
        dense = materialize_dense(small_scenario)
        r = random_complex(rng, small_scenario.n_channels)
        g = adjoint_apply(r, small_scenario)
        ref = dense.conj().T @ r
        assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_subset_matches_dense(self, small_scenario, rng):
        dense = materialize_dense(small_scenario)
        sub = np.array([0, 3, 4, 11, 17])
        r = random_complex(rng, sub.size)
        g = adjoint_apply(r, small_scenario, subset=sub)
        ref = dense[sub].conj().T @ r
        assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_length_mismatch_rejected(self, small_scenario):
        with pytest.raises(ValueError, match="residual"):
            adjoint_apply(np.zeros(3), small_scenario, subset=np.array([0, 1]))

    def test_adjoint_identity_over_random_subsets(self, small_scenario, rng):
        m_count = small_scenario.n_channels
        for _ in range(100):
            size = int(rng.integers(1, m_count + 1))
            sub = rng.choice(m_count, size=size, replace=False)
            s = random_complex(rng, small_scenario.n_voxels)
            r = random_complex(rng, size)
            as_ = forward_apply(s, small_scenario, subset=sub)
            ahr = adjoint_apply(r, small_scenario, subset=sub)
            lhs = np.vdot(r, as_)  # <A s, r> with numpy's conjugate-first vdot
            rhs = np.vdot(ahr, s)
            bound = 1e-10 * (
                np.linalg.norm(as_) * np.linalg.norm(r)
                + np.linalg.norm(s) * np.linalg.norm(ahr)
            )
            assert abs(lhs - rhs) <= bound

    def test_thread_count_agreement(self, small_scenario, rng, monkeypatch):
        monkeypatch.setattr(nfmimo.forward, "_TILE", 5)  # 12 voxels: three tasks
        r = random_complex(rng, small_scenario.n_channels)
        g1 = adjoint_apply(r, small_scenario, threads=1)
        g4 = adjoint_apply(r, small_scenario, threads=4)
        assert np.array_equal(g1, g4)

    def test_thread_count_agreement_on_subset(self, small_scenario, rng, monkeypatch):
        monkeypatch.setattr(nfmimo.forward, "_TILE", 5)
        sub = np.array([0, 3, 4, 11, 17])
        r = random_complex(rng, sub.size)
        g1 = adjoint_apply(r, small_scenario, subset=sub, threads=1)
        g4 = adjoint_apply(r, small_scenario, subset=sub, threads=4)
        assert np.array_equal(g1, g4)


@pytest.fixture(scope="module")
def tiled_scenario() -> ImagingScenario:
    """18 channels over 29x29x5 = 4205 voxels: more than one adjoint tile and
    not a multiple of the tile size."""
    return ImagingScenario(
        array=make_spiral_array(3, 2, 0.15, rng_seed=3),
        frequencies=FrequencyGrid(4e9, 9e9, 3),
        voxels=VoxelGrid(center=Vec3(0.0, 0.0, 0.3), extent=(0.12, 0.12, 0.04), dims=(29, 29, 5)),
    )


def _adjoint_subsets(scenario: ImagingScenario) -> dict:
    return {
        "full": np.arange(scenario.n_channels),
        "cartesian": sample_minibatch(MinibatchComposition(2, 2, 1), scenario, 3).indices,
        "ragged": np.array([17, 0, 3, 4, 11, 12]),  # no (tx x rx) product per frequency
    }


class TestAdjointTiles:
    @pytest.mark.parametrize("name", ["full", "cartesian", "ragged"])
    def test_matches_dense_oracle(self, tiled_scenario, rng, name):
        assert tiled_scenario.n_voxels % nfmimo.forward._TILE not in (0, tiled_scenario.n_voxels)
        sub = _adjoint_subsets(tiled_scenario)[name]
        dense = materialize_dense(tiled_scenario)
        r = random_complex(rng, sub.size)
        g = adjoint_apply(r, tiled_scenario, subset=sub)
        ref = dense[sub].conj().T @ r
        assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", ["full", "cartesian", "ragged"])
    def test_bit_identical_across_aligned_tilings(self, tiled_scenario, rng, monkeypatch, name):
        sub = _adjoint_subsets(tiled_scenario)[name]
        r = random_complex(rng, sub.size)
        ref = adjoint_apply(r, tiled_scenario, subset=sub)
        # BLAS kernels unroll over columns, so only tiles that keep every
        # column's offset modulo the unroll are expected to agree bitwise
        for tile in (1024, 2048, 8192):
            monkeypatch.setattr(nfmimo.forward, "_TILE", tile)
            assert np.array_equal(adjoint_apply(r, tiled_scenario, subset=sub), ref), tile
            assert np.array_equal(
                adjoint_apply(r, tiled_scenario, subset=sub, threads=2), ref
            ), tile

    def test_minibatch_allocates_little_beyond_the_output(self, rng):
        # 41x41x24 = 40344 voxels; the tables are built before measuring
        scn = ImagingScenario(
            array=make_spiral_array(6, 5, 0.2, rng_seed=1),
            frequencies=FrequencyGrid(4e9, 8e9, 4),
            voxels=VoxelGrid(center=Vec3(0, 0, 0.5), extent=(0.2, 0.2, 0.1), dims=(41, 41, 24)),
        )
        forward_apply(np.zeros(scn.n_voxels), scn)
        sub = sample_minibatch(MinibatchComposition(3, 4, 3), scn, 0)
        r = random_complex(rng, len(sub))
        tracemalloc.start()
        try:
            adjoint_apply(r, scn, subset=sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * scn.n_voxels * 16


class TestChannelSubset:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChannelSubset(np.array([], dtype=int))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ChannelSubset(np.array([1, 2, 1]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ChannelSubset(np.array([-1, 0]))

    def test_out_of_range_at_use(self, tiny_scenario):
        with pytest.raises(IndexError):
            forward_apply(
                np.zeros(tiny_scenario.n_voxels),
                tiny_scenario,
                subset=ChannelSubset(np.array([tiny_scenario.n_channels])),
            )

    @pytest.mark.parametrize(
        "indices, error",
        [
            ([], ValueError),
            ([-1, 0], ValueError),
            ([1, 2, 1], ValueError),
            ([8], IndexError),  # tiny_scenario has 8 channels
        ],
        ids=["empty", "negative", "duplicate", "out-of-range"],
    )
    @pytest.mark.parametrize(
        "consumer",
        [
            lambda s, y, scn, sub: forward_apply(s, scn, subset=sub),
            lambda s, y, scn, sub: data_fidelity(s, y, scn, subset=sub),
            lambda s, y, scn, sub: minibatch_gradient(s, y, scn, sub),
        ],
        ids=["forward_apply", "data_fidelity", "minibatch_gradient"],
    )
    def test_bad_subset_rejected_alike(self, tiny_scenario, indices, error, consumer):
        s = np.zeros(tiny_scenario.n_voxels, dtype=complex)
        y = np.zeros(tiny_scenario.n_channels, dtype=complex)
        with pytest.raises(error) as excinfo:
            consumer(s, y, tiny_scenario, np.array(indices, dtype=int))
        assert excinfo.type is error

    def test_preserves_order(self):
        sub = ChannelSubset(np.array([5, 1, 3]))
        assert sub.indices.tolist() == [5, 1, 3]
        assert len(sub) == 3


class TestSimulateMeasurements:
    def test_zero_noise_is_exact_forward(self, small_scenario, rng):
        s = random_complex(rng, small_scenario.n_voxels)
        mset = simulate_measurements(s, small_scenario, noise_sigma=0.0, rng_seed=1)
        assert np.array_equal(mset.values, forward_apply(s, small_scenario))
        assert mset.matches(small_scenario)

    def test_seed_determinism(self, small_scenario, rng):
        s = random_complex(rng, small_scenario.n_voxels)
        a = simulate_measurements(s, small_scenario, noise_sigma=0.5, rng_seed=9)
        b = simulate_measurements(s, small_scenario, noise_sigma=0.5, rng_seed=9)
        c = simulate_measurements(s, small_scenario, noise_sigma=0.5, rng_seed=10)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_noise_variance_convention(self):
        # 10^4 channels, zero scene: sample mean of |y|^2 must approach sigma^2
        scn = ImagingScenario(
            array=ArrayGeometry(
                transmitters=tuple(Vec3(0.01 * k, 0, 0) for k in range(10)),
                receivers=tuple(Vec3(0.01 * k, 0.05, 0) for k in range(10)),
            ),
            frequencies=FrequencyGrid(1e9, 2e9, 100),
            voxels=VoxelGrid(center=Vec3(0, 0, 0.5), extent=(0, 0, 0), dims=(1, 1, 1)),
        )
        assert scn.n_channels == 10_000
        mset = simulate_measurements(
            np.zeros(1, dtype=complex), scn, noise_sigma=1.0, rng_seed=4
        )
        assert np.mean(np.abs(mset.values) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_negative_sigma_rejected(self, tiny_scenario):
        with pytest.raises(ValueError):
            simulate_measurements(
                np.zeros(tiny_scenario.n_voxels), tiny_scenario, noise_sigma=-1.0
            )


class TestDomainTypes:
    def test_volume_validates_length_and_finiteness(self, tiny_scenario):
        grid = tiny_scenario.voxels
        with pytest.raises(ValueError):
            ReflectivityVolume(np.zeros(3, dtype=complex), grid)
        bad = np.zeros(grid.n_voxels, dtype=complex)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            ReflectivityVolume(bad, grid)

    def test_measurement_set_validation(self, tiny_scenario):
        with pytest.raises(ValueError, match="fingerprint"):
            MeasurementSet(np.zeros(4, dtype=complex), b"short")
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            vals = np.zeros(tiny_scenario.n_channels, dtype=complex)
            vals[1] = bad
            with pytest.raises(ValueError, match="finite"):
                MeasurementSet.for_scenario(vals, tiny_scenario)
        with pytest.raises(ValueError, match="noise_sigma"):
            MeasurementSet(np.zeros(4, dtype=complex), bytes(32), noise_sigma=-2.0)

    def test_measurement_set_matches_only_its_scenario(self, tiny_scenario, small_scenario):
        mset = MeasurementSet.for_scenario(
            np.zeros(tiny_scenario.n_channels, dtype=complex), tiny_scenario
        )
        assert mset.matches(tiny_scenario)
        assert not mset.matches(small_scenario)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_forward_subset_consistency_property(seed):
    rng = np.random.default_rng(seed)
    scn = ImagingScenario(
        array=ArrayGeometry(
            transmitters=(Vec3(0.05, 0, 0), Vec3(-0.04, 0.01, 0)),
            receivers=(Vec3(0, 0.03, 0),),
        ),
        frequencies=FrequencyGrid(3e9, 5e9, 3),
        voxels=VoxelGrid(center=Vec3(0, 0, 0.25), extent=(0.08, 0, 0.04), dims=(3, 1, 2)),
    )
    s = random_complex(rng, scn.n_voxels)
    full = forward_apply(s, scn)
    size = int(rng.integers(1, scn.n_channels + 1))
    sub = rng.permutation(scn.n_channels)[:size]
    assert np.array_equal(forward_apply(s, scn, subset=sub), full[sub])
