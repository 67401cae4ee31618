import json
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfmimo.forward
import nfmimo.solver
from nfmimo import (
    ArrayGeometry,
    ChannelSubset,
    DenseCapError,
    FrequencyGrid,
    ImagingScenario,
    MeasurementSet,
    MinibatchComposition,
    PlanTooLargeError,
    ReflectivityVolume,
    SolverConfig,
    SPEED_OF_LIGHT,
    Vec3,
    VoxelGrid,
    adjoint_apply,
    data_fidelity,
    forward_apply,
    gradient,
    lipschitz_estimate,
    make_phantom,
    make_spiral_array,
    materialize_dense,
    matrix_element,
    pgm_solve,
    preset_scenario,
    sample_minibatch,
    scenario_fingerprint,
    simulate_measurements,
    spgm_solve,
    voxel_centers,
)
from nfmimo.io import read_scenario, write_scenario
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
        centers = voxel_centers(scn.voxels)
        for m in rng.choice(scn.n_channels, size=6, replace=False):
            for n in rng.choice(scn.n_voxels, size=4, replace=False):
                _, ti, ri = np.unravel_index(m, scn.channel_shape)
                t = scn.array.transmitters[ti].as_array()
                r = scn.array.receivers[ri].as_array()
                v = centers[n]
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

    @pytest.mark.parametrize(
        "m, n, name",
        [
            (True, 0, "channel"),
            (1.0, 0, "channel"),
            (np.float64(1.0), 0, "channel"),
            ("1", 0, "channel"),
            (0, False, "voxel"),
            (0, np.bool_(True), "voxel"),
            (0, 2.0, "voxel"),
        ],
        ids=["bool", "float", "np-float", "str", "voxel-bool", "voxel-np-bool", "voxel-float"],
    )
    def test_index_must_be_an_integer(self, tiny_scenario, m, n, name):
        # a bool would read as index 0 or 1, a float as whatever numpy makes of it
        with pytest.raises(ValueError, match=f"{name} index must be an integer"):
            matrix_element(m, n, tiny_scenario)

    def test_numpy_integers_are_indices(self, tiny_scenario):
        assert matrix_element(np.int64(5), np.int32(3), tiny_scenario) == matrix_element(
            5, 3, tiny_scenario
        )


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

    def test_cap(self):
        # 1584 x 78141 entries, refused before anything is allocated
        with pytest.raises(DenseCapError):
            materialize_dense(preset_scenario("paper-v"))


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

    def test_grid_mismatch_rejected(self, small_scenario, tiny_scenario):
        vol = ReflectivityVolume(np.zeros(tiny_scenario.n_voxels), tiny_scenario.voxels)
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


@pytest.mark.parametrize("threads", [0, -1, True, 2.5, "2"])
@pytest.mark.parametrize(
    "apply",
    [
        lambda scn, threads: forward_apply(np.zeros(scn.n_voxels), scn, threads=threads),
        lambda scn, threads: adjoint_apply(np.zeros(scn.n_channels), scn, threads=threads),
    ],
    ids=["forward_apply", "adjoint_apply"],
)
def test_threads_must_be_a_count(tiny_scenario, apply, threads):
    with pytest.raises(ValueError, match="threads must be"):
        apply(tiny_scenario, threads)


@pytest.mark.parametrize(
    "case",
    ["forward-dense", "forward-sparse", "forward-sparse-no-plan", "adjoint-full", "adjoint-subset"],
)
def test_threads_has_no_effect(case):
    # BLAS is the one parallelism layer; the keyword stays only while the
    # benchmark harness passes it
    scn = sparse_scenario()
    rng = np.random.default_rng(5)
    dense, sparse = random_complex(rng, scn.n_voxels), sparse_volume(scn.n_voxels, 16)
    r, sub = random_complex(rng, scn.n_channels), ragged_subset(scn)
    apply = {
        "forward-dense": lambda **kw: forward_apply(dense, scn, **kw),
        "forward-sparse": lambda **kw: forward_apply(sparse, scn, **kw),
        "forward-sparse-no-plan": lambda **kw: forward_apply(sparse, scn, **kw),
        "adjoint-full": lambda **kw: adjoint_apply(r, scn, **kw),
        "adjoint-subset": lambda **kw: adjoint_apply(r[: sub.size], scn, subset=sub, **kw),
    }[case]
    no_plan = case.endswith("no-plan")
    outputs = []
    for kw in ({}, {"threads": 2}):
        if no_plan:
            nfmimo.forward._slot = None
        else:
            nfmimo.forward._plan(scn)
        outputs.append(apply(**kw))
        assert (nfmimo.forward._cached(scn) is None) == no_plan
    assert_same_bits(*outputs)


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
        "cartesian": sample_minibatch(
            MinibatchComposition(2, 2, 1), scenario, np.random.default_rng(3)
        ).indices,
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

    def test_minibatch_allocates_little_beyond_the_output(self, rng):
        # 41x41x24 = 40344 voxels; the tables are built before measuring
        scn = ImagingScenario(
            array=make_spiral_array(6, 5, 0.2, rng_seed=1),
            frequencies=FrequencyGrid(4e9, 8e9, 4),
            voxels=VoxelGrid(center=Vec3(0, 0, 0.5), extent=(0.2, 0.2, 0.1), dims=(41, 41, 24)),
        )
        nfmimo.forward._plan(scn)
        sub = sample_minibatch(MinibatchComposition(3, 4, 3), scn, np.random.default_rng(0))
        r = random_complex(rng, len(sub))
        tracemalloc.start()
        try:
            adjoint_apply(r, scn, subset=sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * scn.n_voxels * 16


def stepped_scenario(count: int) -> ImagingScenario:
    """1 Tx x 2 Rx over ``count`` frequencies in 1-3 GHz, 4x3x2 voxels about
    0.12 m away. Phases stay within a few radians, so the direct formula's
    own rounding (about 1e-15) is far below the recurrence tests' bounds."""
    return ImagingScenario(
        array=make_spiral_array(1, 2, 0.05, rng_seed=5),
        frequencies=FrequencyGrid(1e9, 3e9 if count > 1 else 1e9, count),
        voxels=VoxelGrid(center=Vec3(0, 0, 0.12), extent=(0.04, 0.03, 0.02), dims=(4, 3, 2)),
    )


class TestPhasorRecurrence:
    """The plan builds most table rows by multiplying the previous frequency's
    row by a step phasor, re-evaluating the formula every _ANCHOR rows."""

    # F=1 has no step, 9 crosses one anchor, 257 and 4097 cross many; on this
    # scenario a recurrence that never re-anchors drifts by about 1e-16 per
    # row (2.5e-14 at F=257) and crosses the bound between F=1025 and 2049
    @pytest.mark.parametrize("count", [1, 2, 9, 257, 4097])
    def test_tables_match_the_direct_formula(self, count):
        scn = stepped_scenario(count)
        plan = nfmimo.forward._plan(scn)
        centers = voxel_centers(scn.voxels)
        f, t, r = np.unravel_index(np.arange(scn.n_channels), scn.channel_shape)
        got = plan.pulse_vals[f, None] * plan.tx_tab[f, t] * plan.rx_tab[f, r]
        ref = np.array(
            [nfmimo.forward._element_row(scn, m, centers) for m in range(scn.n_channels)]
        )
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    def test_operator_matches_dense_oracle(self, rng):
        scn = stepped_scenario(257)
        dense = materialize_dense(scn)
        s = random_complex(rng, scn.n_voxels)
        y = forward_apply(s, scn)
        assert np.linalg.norm(y - dense @ s) <= 1e-12 * np.linalg.norm(dense @ s)
        r = random_complex(rng, scn.n_channels)
        g = adjoint_apply(r, scn)
        ref = dense.conj().T @ r
        assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)


def tables_from_centers(scenario, positions, centers):
    """The phasor table (F, antennas, centers) with each distance from its
    voxel center, sqrt(sum((center - position) ** 2)), and the plan's
    anchored recurrence."""
    freqs = scenario.frequencies.values()
    w = 2.0 * np.pi * freqs / scenario.c
    dw = 2.0 * np.pi * scenario.frequencies.spacing / scenario.c
    tab = np.empty((freqs.size, positions.shape[0], centers.shape[0]), dtype=np.complex128)
    for a, position in enumerate(positions):
        d = np.sqrt(np.sum((centers - position) ** 2, axis=1))
        amp = 1.0 / (2.0 * np.sqrt(np.pi) * d)
        step = np.exp(-1j * dw * d)
        for fi in range(freqs.size):
            if fi % nfmimo.forward._ANCHOR == 0:
                tab[fi, a] = np.exp(-1j * w[fi] * d) * amp
            else:
                np.multiply(tab[fi - 1, a], step, out=tab[fi, a])
    return tab


class TestTablesOverIndices:
    """The builder takes flat voxel indices and forms each distance from
    per-axis squares, with the bits of the per-center formula."""

    def test_every_antenna_on_paper_v(self):
        scn = preset_scenario("paper-v")
        voxels = np.arange(scn.n_voxels)
        centers = voxel_centers(scn.voxels)
        antennas = np.vstack([scn.array.tx_positions(), scn.array.rx_positions()])
        assert antennas.shape[0] == 25
        for a in range(antennas.shape[0]):  # one antenna at a time: 14 MB a table
            one = antennas[a : a + 1]
            got = nfmimo.forward._tables(scn, one, voxels)
            assert_same_bits(got, tables_from_centers(scn, one, centers))

    @pytest.mark.parametrize(
        "scn",
        [
            preset_scenario("paper-v"),
            ImagingScenario(
                array=make_spiral_array(3, 2, 0.07, rng_seed=11),
                frequencies=FrequencyGrid(2e9, 7e9, 10),
                voxels=VoxelGrid(center=Vec3(0.013, -0.007, 0.21), extent=(0.06, 0, 0.045), dims=(7, 1, 4)),
            ),
        ],
        ids=["paper-v", "odd-grid"],
    )
    def test_ragged_support(self, scn):
        rng = np.random.default_rng(4)
        voxels = np.sort(rng.choice(scn.n_voxels, size=min(scn.n_voxels // 3, 500), replace=False))
        centers = voxel_centers(scn.voxels)[voxels]
        for positions in (scn.array.tx_positions(), scn.array.rx_positions()):
            got = nfmimo.forward._tables(scn, positions, voxels)
            assert_same_bits(got, tables_from_centers(scn, positions, centers))


def sparse_scenario(array_seed: int = 6) -> ImagingScenario:
    """3 Tx x 2 Rx over 10 frequencies (rows 8 and 9 follow an anchor),
    8x8x4 = 256 voxels, so N/16 = 16."""
    return ImagingScenario(
        array=make_spiral_array(3, 2, 0.1, rng_seed=array_seed),
        frequencies=FrequencyGrid(2e9, 6e9, 10),
        voxels=VoxelGrid(center=Vec3(0, 0, 0.3), extent=(0.1, 0.1, 0.05), dims=(8, 8, 4)),
    )


def sparse_volume(n_voxels: int, support: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    s = np.zeros(n_voxels, dtype=complex)
    s[rng.choice(n_voxels, size=support, replace=False)] = random_complex(rng, support)
    return s


def ragged_subset(scn: ImagingScenario) -> np.ndarray:
    """An unsorted third of the channels: each frequency touches its own
    transmitters and receivers."""
    return np.random.default_rng(3).choice(scn.n_channels, size=scn.n_channels // 3, replace=False)


def forward_both_ways(s, scn, subset=None):
    """(support-column output with no plan cached, output on the cached plan)."""
    nfmimo.forward._slot = None
    columns = forward_apply(s, scn, subset=subset)
    assert nfmimo.forward._slot is None  # the support columns were enough
    nfmimo.forward._plan(scn)
    return columns, forward_apply(s, scn, subset=subset)


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    # the raw words: +0.0 and -0.0 differ here, as they do not for array_equal on floats
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSupportColumns:
    """Before a plan is cached, a forward of a volume with at most N/_SPARSE
    nonzero voxels builds its support's table columns only, with the plan's
    bits."""

    @pytest.mark.parametrize("support", [0, 1, 5, 16], ids=["zero", "one", "few", "cut"])
    @pytest.mark.parametrize("ragged", [False, True], ids=["all", "ragged"])
    def test_same_bits_as_the_plan(self, support, ragged):
        scn = sparse_scenario()
        assert nfmimo.forward._SPARSE * support <= scn.n_voxels
        s = sparse_volume(scn.n_voxels, support)
        columns, planned = forward_both_ways(s, scn, ragged_subset(scn) if ragged else None)
        assert_same_bits(columns, planned)

    @pytest.mark.parametrize("ragged", [False, True], ids=["all", "ragged"])
    def test_same_bits_as_the_plan_on_paper_v(self, ragged):
        scn = preset_scenario("paper-v")
        s = make_phantom("points:5", scn.voxels, rng_seed=42)
        columns, planned = forward_both_ways(s, scn, ragged_subset(scn) if ragged else None)
        assert_same_bits(columns, planned)

    def test_subset_is_a_slice(self):
        scn = sparse_scenario()
        s = sparse_volume(scn.n_voxels, 5, seed=1)
        sub = ragged_subset(scn)
        nfmimo.forward._slot = None
        restricted = forward_apply(s, scn, subset=sub)
        full = forward_apply(s, scn)
        assert nfmimo.forward._slot is None
        assert_same_bits(restricted, full[sub])

    def test_a_denser_volume_builds_the_plan(self):
        scn = sparse_scenario()
        nfmimo.forward._slot = None
        forward_apply(sparse_volume(scn.n_voxels, 17), scn)
        assert nfmimo.forward._slot[0] is scn

    def test_simulate_builds_no_plan(self):
        scn = sparse_scenario(array_seed=7)
        nfmimo.forward._slot = None
        simulate_measurements(make_phantom("points:3", scn.voxels, rng_seed=1), scn, 0.1, 2)
        assert nfmimo.forward._slot is None


def whole_row_forward(s, scenario, subset=None):
    """Each channel as p * dot(u_t * s, v_r) over whole length-N rows of the
    cached plan, zero voxels included."""
    plan = nfmimo.forward._plan(scenario)
    if subset is None:
        subset = np.arange(scenario.n_channels)
    idx = getattr(subset, "indices", subset)  # the solver passes a ChannelSubset
    out = np.empty(len(idx), dtype=np.complex128)
    for k, (f, t, r) in enumerate(zip(*np.unravel_index(idx, scenario.channel_shape))):
        out[k] = plan.pulse_vals[f] * np.dot(plan.tx_tab[f, t] * s, plan.rx_tab[f, r])
    return out


class TestSupportProducts:
    """On a cached plan, a volume with at most N/_SPARSE nonzero voxels is
    multiplied into the transmitter rows on its support only, with the bits
    of whole-row products."""

    @pytest.mark.parametrize(
        "support", [0, 1, 5, 16, 17, 256], ids=["zero", "one", "few", "cut", "cut+1", "dense"]
    )
    @pytest.mark.parametrize("channels", ["full", "minibatch", "ragged"])
    # threads has no effect; its cases go with the keyword (ROADMAP item 1)
    @pytest.mark.parametrize("threads", [1, 2])
    def test_same_bits_as_whole_rows(self, support, channels, threads):
        scn = sparse_scenario()
        assert scn.n_voxels // nfmimo.forward._SPARSE == 16
        s = sparse_volume(scn.n_voxels, support, seed=support)
        subset = {
            "full": None,
            "minibatch": sample_minibatch(
                MinibatchComposition(4, 2, 1), scn, np.random.default_rng(0)
            ).indices,
            "ragged": ragged_subset(scn),
        }[channels]
        nfmimo.forward._plan(scn)
        got = forward_apply(s, scn, subset=subset, threads=threads)
        assert_same_bits(got, whole_row_forward(s, scn, subset))

    @pytest.mark.parametrize("extra", [0, 1], ids=["cut", "cut+1"])
    def test_same_bits_as_whole_rows_on_paper_v(self, extra):
        scn = preset_scenario("paper-v")
        s = sparse_volume(scn.n_voxels, scn.n_voxels // nfmimo.forward._SPARSE + extra)
        sub = sample_minibatch(MinibatchComposition(4, 4, 3), scn, np.random.default_rng(0))
        nfmimo.forward._plan(scn)
        assert_same_bits(forward_apply(s, scn, subset=sub), whole_row_forward(s, scn, sub))

    @pytest.mark.parametrize(
        "composition", [None, MinibatchComposition(8, 3, 2)], ids=["pgm", "spgm"]
    )
    def test_solve_has_the_iterates_of_whole_rows(self, composition, monkeypatch):
        scn = sparse_scenario()
        y = forward_apply(make_phantom("points:3", scn.voxels, rng_seed=1), scn)
        eta = 1.0 / lipschitz_estimate(scn)
        # a weight near the largest first gradient entry keeps the iterates
        # sparse: their supports cross the cut of 16 voxels
        alpha = 0.9 * eta * np.max(np.abs(adjoint_apply(y, scn))) / scn.n_channels
        config = SolverConfig(
            eta=eta, alpha=alpha, max_iters=20, tol=1e-300, composition=composition, rng_seed=3
        )
        solve = pgm_solve if composition is None else spgm_solve

        def iterates():
            out = []
            solve(y, scn, config, progress=lambda k, s: out.append(s.copy()))
            return out

        shipped = iterates()
        seen = []

        def reference(s, scenario, subset=None):
            seen.append(np.count_nonzero(s))
            return whole_row_forward(s, scenario, subset)

        monkeypatch.setattr(nfmimo.solver, "forward_apply", reference)
        expected = iterates()
        assert len(shipped) == len(expected) == 20
        assert min(seen) <= 16 < max(seen)
        for a, b in zip(shipped, expected):
            assert_same_bits(a, b)


# Prints the SHA-256 of each operator output as JSON. 41x41x11 = 18491 voxels
# make the forward's length-N dots long enough for OpenBLAS to split them
# across its threads. The sparse volume comes first, before a plan exists,
# so it takes the support-column path.
_BLAS_CHILD = """
import hashlib, json
import numpy as np
from nfmimo import (FrequencyGrid, ImagingScenario, MinibatchComposition, Vec3, VoxelGrid,
                    adjoint_apply, forward_apply, make_spiral_array, sample_minibatch)
scn = ImagingScenario(
    array=make_spiral_array(5, 4, 0.2, rng_seed=1),
    frequencies=FrequencyGrid(4e9, 8e9, 5),
    voxels=VoxelGrid(center=Vec3(0, 0, 0.5), extent=(0.2, 0.2, 0.1), dims=(41, 41, 11)),
)
rng = np.random.default_rng(0)
n = scn.n_voxels
sparse = np.zeros(n, dtype=complex)
sparse[rng.choice(n, size=40, replace=False)] = rng.standard_normal(40) + 1j
dense = rng.standard_normal(n) + 1j * rng.standard_normal(n)
batch = sample_minibatch(MinibatchComposition(4, 4, 3), scn, np.random.default_rng(0))
r = rng.standard_normal(scn.n_channels) + 1j * rng.standard_normal(scn.n_channels)
out = {
    "forward.sparse": forward_apply(sparse, scn),
    "forward.full": forward_apply(dense, scn),
    "forward.443": forward_apply(dense, scn, subset=batch),
    "adjoint.full": adjoint_apply(r, scn),
    "adjoint.443": adjoint_apply(r[: len(batch)], scn, subset=batch),
}
print(json.dumps({k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in out.items()}))
"""


@pytest.fixture(scope="module")
def digests_by_blas_threads() -> dict:
    """Operator output digests from fresh processes under 1 and 2 OpenBLAS
    threads; the variable has to be set before numpy is imported."""
    src = str(Path(nfmimo.__file__).resolve().parents[1])
    digests = {}
    for count in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": count, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_CHILD],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        digests[count] = json.loads(proc.stdout)
    return digests


class TestBlasThreadCount:
    @pytest.mark.parametrize("name", ["adjoint.full", "adjoint.443"])
    def test_adjoint_has_the_same_bytes(self, digests_by_blas_threads, name):
        assert digests_by_blas_threads["1"][name] == digests_by_blas_threads["2"][name]

    @pytest.mark.xfail(
        strict=False,
        reason="ROADMAP item 3: OpenBLAS splits the forward's length-N dots across its threads",
    )
    @pytest.mark.parametrize("name", ["forward.sparse", "forward.full", "forward.443"])
    def test_forward_has_the_same_bytes(self, digests_by_blas_threads, name):
        assert digests_by_blas_threads["1"][name] == digests_by_blas_threads["2"][name]


class TestPlanCache:
    def test_keeps_only_the_last_scenarios_plan(self):
        a, b = sparse_scenario(array_seed=20), sparse_scenario(array_seed=21)
        plan = nfmimo.forward._plan(a)
        assert nfmimo.forward._plan(a) is plan
        nfmimo.forward._plan(b)
        assert nfmimo.forward._slot[0] is b and nfmimo.forward._cached(a) is None

    def test_frees_the_old_plan_before_building_the_next(self, monkeypatch):
        a, b = sparse_scenario(array_seed=22), sparse_scenario(array_seed=23)
        old = weakref.ref(nfmimo.forward._plan(a))
        build = nfmimo.forward._build
        alive = []

        def build_and_look(scenario, voxels):
            alive.append(old() is not None)
            return build(scenario, voxels)

        monkeypatch.setattr(nfmimo.forward, "_build", build_and_look)
        nfmimo.forward._plan(b)
        assert alive == [False]

    def test_threads_on_two_scenarios_get_their_own_plans(self):
        # different voxel counts, so a plan handed to the wrong thread shows in its shape
        scenarios = [sparse_scenario(array_seed=24), stepped_scenario(9)] * 3
        shapes = [[] for _ in scenarios]

        def ask(k):
            for _ in range(20):
                plan = nfmimo.forward._plan(scenarios[k])
                shapes[k].append((plan.tx_tab.shape, plan.rx_tab.shape))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=ask, args=(k,)) for k in range(len(scenarios))]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for scn, seen in zip(scenarios, shapes):
            f, t, r = scn.channel_shape
            assert seen == [((f, t, scn.n_voxels), (f, r, scn.n_voxels))] * 20
        assert nfmimo.forward._slot[0] in scenarios

    def test_a_scenario_read_back_from_json_finds_the_plan(self, tmp_path):
        scn = sparse_scenario(array_seed=30)
        plan = nfmimo.forward._plan(scn)
        write_scenario(scn, tmp_path / "scn.json")
        again = read_scenario(tmp_path / "scn.json")
        assert again == scn and again is not scn and hash(again) == hash(scn)
        assert nfmimo.forward._cached(again) is plan
        assert nfmimo.forward._plan(again) is plan

    def test_a_lookup_matches_by_identity_then_equality_and_never_hashes(self, monkeypatch):
        scn = sparse_scenario(array_seed=31)
        again = sparse_scenario(array_seed=31)
        plan = nfmimo.forward._plan(scn)
        compared = []
        field_eq = ImagingScenario.__eq__

        def counted(a, b):
            compared.append((a, b))
            return field_eq(a, b)

        def unhashable(_):
            raise AssertionError("a plan lookup hashed the scenario")

        monkeypatch.setattr(ImagingScenario, "__eq__", counted)
        monkeypatch.setattr(ImagingScenario, "__hash__", unhashable)
        assert nfmimo.forward._plan(scn) is plan
        forward_apply(sparse_volume(scn.n_voxels, 5), scn)
        pgm_solve(np.zeros(scn.n_channels, dtype=complex), scn, SolverConfig(max_iters=1))
        assert compared == []  # the slot holds scn itself
        assert nfmimo.forward._plan(again) is plan
        assert compared == [(scn, again)]


def built_nbytes(plan) -> int:
    """The summed ``nbytes`` of the arrays a plan holds."""
    return sum(getattr(plan, f.name).nbytes for f in fields(plan))


class TestPlanSizeRefusal:
    def test_message_names_both_sizes(self, tiny_scenario, monkeypatch):
        nfmimo.forward._slot = None
        monkeypatch.setattr(nfmimo.geometry, "_available_bytes", lambda: 100)
        # 16 bytes x 2 frequencies x (1 + 4 antennas x 4 voxels) = 544 bytes
        with pytest.raises(PlanTooLargeError, match=r"needs 5\.44e-07 GB.* 1e-07 GB"):
            adjoint_apply(np.zeros(tiny_scenario.n_channels, dtype=complex), tiny_scenario)

    def test_refused_before_any_table_is_allocated(self, monkeypatch):
        # 40x40x10 voxels: each table is megabytes, far above the check's own allocations
        scn = ImagingScenario(
            array=make_spiral_array(3, 2, 0.15, rng_seed=2),
            frequencies=FrequencyGrid(4e9, 8e9, 3),
            voxels=VoxelGrid(center=Vec3(0, 0, 0.3), extent=(0.2, 0.2, 0.05), dims=(40, 40, 10)),
        )
        smallest_table = 16 * 3 * 2 * scn.n_voxels
        nfmimo.forward._plan(sparse_scenario(array_seed=40))  # freed before the refusal
        need, zeros = nfmimo.forward._plan_nbytes(scn), np.zeros(scn.n_channels, dtype=complex)
        monkeypatch.setattr(nfmimo.geometry, "_available_bytes", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(PlanTooLargeError):
                adjoint_apply(zeros, scn)
            refused_peak = tracemalloc.get_traced_memory()[1]
            assert nfmimo.forward._slot is None
            # the same measure sees the tables of a plan that fits
            monkeypatch.setattr(nfmimo.geometry, "_available_bytes", lambda: need)
            tracemalloc.reset_peak()
            adjoint_apply(zeros, scn)
            built_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refused_peak < smallest_table <= need <= built_peak

    @pytest.mark.parametrize("name", ["tiny", "sparse", "paper-v"])
    def test_size_is_the_built_plans_nbytes(self, tiny_scenario, name):
        scn = {
            "tiny": tiny_scenario,
            "sparse": sparse_scenario(array_seed=41),
            "paper-v": preset_scenario("paper-v"),
        }[name]
        assert nfmimo.forward._plan_nbytes(scn) == built_nbytes(nfmimo.forward._plan(scn))

    @pytest.mark.parametrize(
        "meminfo", [None, "MemTotal: 100 kB\n", "MemAvailable: many kB\n"],
        ids=["unreadable", "no-line", "not-a-number"],
    )
    def test_no_reading_skips_the_check(self, tmp_path, monkeypatch, meminfo):
        fake = tmp_path / "meminfo"
        if meminfo is not None:
            fake.write_text(meminfo)
        monkeypatch.setattr(nfmimo.geometry, "open", lambda _: open(fake), raising=False)
        assert nfmimo.geometry._available_bytes() is None
        scn = sparse_scenario(array_seed=42)
        nfmimo.forward._slot = None
        assert built_nbytes(nfmimo.forward._plan(scn)) == nfmimo.forward._plan_nbytes(scn)

    def test_reads_memavailable(self, tmp_path, monkeypatch):
        fake = tmp_path / "meminfo"
        fake.write_text("MemTotal: 900 kB\nMemAvailable: 512 kB\n")
        monkeypatch.setattr(nfmimo.geometry, "open", lambda _: open(fake), raising=False)
        assert nfmimo.geometry._available_bytes() == 512 * 1024


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
        "indices, error, match",
        [
            ([], ValueError, "non-empty"),
            ([-1, 0], ValueError, "non-negative"),
            ([1, 2, 1], ValueError, "duplicates"),
            ([8], IndexError, "out of range"),  # tiny_scenario has 8 channels
            ([0.5, 1.7], ValueError, "dtype float64"),
            ([True, False] * 4, ValueError, "dtype bool"),
        ],
        ids=["empty", "negative", "duplicate", "out-of-range", "float", "bool-mask"],
    )
    @pytest.mark.parametrize(
        "consumer",
        [
            lambda s, y, scn, sub: forward_apply(s, scn, subset=sub),
            lambda s, y, scn, sub: data_fidelity(s, y, scn, subset=sub),
            lambda s, y, scn, sub: gradient(s, y, scn, sub),
        ],
        ids=["forward_apply", "data_fidelity", "gradient"],
    )
    def test_bad_subset_rejected_alike(self, tiny_scenario, indices, error, match, consumer):
        s = np.zeros(tiny_scenario.n_voxels, dtype=complex)
        y = np.zeros(tiny_scenario.n_channels, dtype=complex)
        with pytest.raises(error, match=match) as excinfo:
            consumer(s, y, tiny_scenario, np.array(indices))
        assert excinfo.type is error

    def test_preserves_order(self):
        sub = ChannelSubset(np.array([5, 1, 3]))
        assert sub.indices.tolist() == [5, 1, 3]
        assert len(sub) == 3

    def test_owns_its_indices(self, tiny_scenario, rng):
        source = np.array([0, 5])
        sub = ChannelSubset(source)
        source[1] = 0  # a view of source would now hold channel 0 twice
        r = random_complex(rng, 2)
        assert sub.indices.tolist() == [0, 5]
        assert np.array_equal(
            adjoint_apply(r, tiny_scenario, subset=sub),
            adjoint_apply(r, tiny_scenario, subset=np.array([0, 5])),
        )


class TestChannelSplit:
    def test_split_decodes_every_channel_once(self, small_scenario, rng):
        idx = rng.choice(small_scenario.n_channels, size=11, replace=False)  # unsorted
        seen, freqs = [], []
        for f, pos, ts, tpos, rs, rpos in nfmimo.forward._by_frequency(idx, small_scenario):
            freqs.append(f)
            seen.extend(pos)
            # ts and rs are the touched transmitters and receivers, ascending
            _, t_all, r_all = np.unravel_index(idx[pos], small_scenario.channel_shape)
            assert ts.tolist() == sorted(set(t_all.tolist()))
            assert rs.tolist() == sorted(set(r_all.tolist()))
            for k, t, r in zip(pos, ts[tpos], rs[rpos]):
                assert np.unravel_index(idx[k], small_scenario.channel_shape) == (f, t, r)
        assert freqs == sorted(set(freqs))
        assert sorted(seen) == list(range(idx.size))

    def test_forward_and_adjoint_share_the_split(self, small_scenario, rng, monkeypatch):
        calls = []
        split = nfmimo.forward._by_frequency

        def counted(idx, scenario):
            calls.append(idx.size)
            return split(idx, scenario)

        monkeypatch.setattr(nfmimo.forward, "_by_frequency", counted)
        sub = rng.choice(small_scenario.n_channels, size=10, replace=False)
        forward_apply(random_complex(rng, small_scenario.n_voxels), small_scenario, subset=sub)
        adjoint_apply(random_complex(rng, 10), small_scenario, subset=sub)
        assert calls == [10, 10]


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

    @pytest.mark.parametrize("seed", [True, -1, 2.5, "3"])
    def test_rng_seed_must_be_a_whole_number(self, tiny_scenario, seed):
        with pytest.raises(ValueError, match="rng_seed must be"):
            simulate_measurements(
                np.zeros(tiny_scenario.n_voxels), tiny_scenario, noise_sigma=0.1, rng_seed=seed
            )

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

    def test_volume_value_too_large_for_a_float_refused(self):
        grid = VoxelGrid(center=Vec3(0, 0, 0.3), extent=(0.1, 0, 0), dims=(2, 1, 1))
        named = "^voxel values must be finite, got an integer too large for a float$"
        with pytest.raises(ValueError, match=named):
            ReflectivityVolume([10**400, 0], grid)

    def test_measurement_set_validation(self, tiny_scenario):
        with pytest.raises(ValueError, match="fingerprint"):
            MeasurementSet(np.zeros(4, dtype=complex), b"short")
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            vals = np.zeros(tiny_scenario.n_channels, dtype=complex)
            vals[1] = bad
            with pytest.raises(ValueError, match="finite"):
                MeasurementSet(vals, scenario_fingerprint(tiny_scenario))
        named = r"^measurement values must be 1-D, got shape \(2, 2\)$"
        with pytest.raises(ValueError, match=named):
            MeasurementSet(np.zeros((2, 2), dtype=complex), bytes(32))


    @pytest.mark.parametrize("fingerprint", ["0" * 32, [0] * 32], ids=["str", "list"])
    def test_measurement_fingerprint_must_be_bytes(self, tiny_scenario, fingerprint):
        # 32 long, but never equal to a scenario's and unwritable to a file
        kind = type(fingerprint).__name__
        with pytest.raises(ValueError, match=f"fingerprint must be bytes, got {kind}"):
            MeasurementSet(np.zeros(tiny_scenario.n_channels, dtype=complex), fingerprint)

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-infj"]
    )
    @pytest.mark.parametrize(
        "apply", ["forward_apply", "data_fidelity", "gradient", "gradient_subset"]
    )
    def test_raw_volume_must_be_finite(self, tiny_scenario, apply, bad):
        s = np.zeros(tiny_scenario.n_voxels, dtype=complex)
        s[1] = bad
        y = np.zeros(tiny_scenario.n_channels, dtype=complex)
        calls = {
            "forward_apply": lambda: forward_apply(s, tiny_scenario),
            "data_fidelity": lambda: data_fidelity(s, y, tiny_scenario),
            "gradient": lambda: gradient(s, y, tiny_scenario),
            "gradient_subset": lambda: gradient(s, y, tiny_scenario, [0, 3]),
        }
        with pytest.raises(ValueError, match="voxel values must be finite"):
            calls[apply]()

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-infj"]
    )
    @pytest.mark.parametrize("subset", [None, [0, 3]], ids=["full", "subset"])
    def test_raw_residual_must_be_finite(self, tiny_scenario, subset, bad):
        r = np.zeros(tiny_scenario.n_channels if subset is None else len(subset), dtype=complex)
        r[1] = bad
        with pytest.raises(ValueError, match="residual values must be finite"):
            adjoint_apply(r, tiny_scenario, subset=subset)

    def test_measurement_set_matches_only_its_scenario(self, tiny_scenario, small_scenario):
        mset = MeasurementSet(
            np.zeros(tiny_scenario.n_channels, dtype=complex), scenario_fingerprint(tiny_scenario)
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
