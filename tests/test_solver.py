import dataclasses
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfmimo.forward
from nfmimo import (
    DivergenceError,
    MinibatchComposition,
    SolverConfig,
    data_fidelity,
    forward_apply,
    full_gradient,
    lipschitz_estimate,
    make_phantom,
    make_spiral_array,
    materialize_dense,
    matrix_element,
    minibatch_gradient,
    pgm_solve,
    relative_magnitude_change,
    sample_minibatch,
    simulate_measurements,
    soft_threshold,
    spgm_solve,
)
from nfmimo.geometry import (
    ArrayGeometry,
    ConstantPulse,
    FrequencyGrid,
    ImagingScenario,
    Vec3,
    VoxelGrid,
)
from conftest import fd_gradient, golden_section_prox, random_complex

# chi-square upper critical value at p = 0.01 for 11 degrees of freedom
CHI2_CRIT_P01_DOF11 = 24.725


@pytest.fixture(scope="module")
def sampling_scenario():
    """2 freqs x 3 Tx x 2 Rx = 12 channels for sampling statistics."""
    return ImagingScenario(
        array=ArrayGeometry(
            transmitters=(Vec3(0.02, 0, 0), Vec3(-0.03, 0.01, 0), Vec3(0.0, -0.04, 0)),
            receivers=(Vec3(0.01, 0.03, 0), Vec3(-0.01, -0.02, 0)),
        ),
        frequencies=FrequencyGrid(2e9, 4e9, 2),
        voxels=VoxelGrid(center=Vec3(0, 0, 0.3), extent=(0.05, 0, 0), dims=(2, 1, 1)),
    )


class TestDataFidelity:
    def test_exact_measurements_give_zero(self, small_scenario, rng):
        s = random_complex(rng, small_scenario.n_voxels)
        y = forward_apply(s, small_scenario)
        assert data_fidelity(s, y, small_scenario) == 0.0

    def test_zero_volume(self, small_scenario, rng):
        y = random_complex(rng, small_scenario.n_channels)
        expect = float(np.sum(np.abs(y) ** 2)) / (2 * small_scenario.n_channels)
        got = data_fidelity(np.zeros(small_scenario.n_voxels), y, small_scenario)
        assert got == pytest.approx(expect, rel=1e-13)

    def test_matches_dense_evaluation(self, small_scenario, rng):
        dense = materialize_dense(small_scenario)
        s = random_complex(rng, small_scenario.n_voxels)
        y = random_complex(rng, small_scenario.n_channels)
        expect = float(np.linalg.norm(y - dense @ s) ** 2) / (2 * small_scenario.n_channels)
        assert data_fidelity(s, y, small_scenario) == pytest.approx(expect, rel=1e-12)

    def test_subset_form(self, small_scenario, rng):
        dense = materialize_dense(small_scenario)
        s = random_complex(rng, small_scenario.n_voxels)
        y = random_complex(rng, small_scenario.n_channels)
        sub = np.array([2, 5, 11])
        resid = y[sub] - dense[sub] @ s
        expect = float(np.sum(np.abs(resid) ** 2)) / (2 * sub.size)
        assert data_fidelity(s, y, small_scenario, subset=sub) == pytest.approx(expect, rel=1e-12)


class TestFullGradient:
    def test_zero_at_exact_fit(self, small_scenario, rng):
        s = random_complex(rng, small_scenario.n_voxels)
        y = forward_apply(s, small_scenario)
        assert np.array_equal(
            full_gradient(s, y, small_scenario), np.zeros(small_scenario.n_voxels)
        )

    def test_scalar_case(self):
        scn = ImagingScenario(
            array=ArrayGeometry(transmitters=(Vec3(0, 0, 0),), receivers=(Vec3(0.02, 0, 0),)),
            frequencies=FrequencyGrid(3e9, 3e9, 1),
            voxels=VoxelGrid(center=Vec3(0, 0, 0.2), extent=(0, 0, 0), dims=(1, 1, 1)),
        )
        a00 = matrix_element(0, 0, scn)
        s = np.array([0.3 - 0.8j])
        y = np.array([1.1 + 0.4j])
        expect = np.conj(a00) * (a00 * s[0] - y[0])
        got = full_gradient(s, y, scn)[0]
        assert got == pytest.approx(expect, rel=1e-12)

    def test_matches_finite_differences(self, small_scenario, rng):
        dense = materialize_dense(small_scenario)
        s = random_complex(rng, small_scenario.n_voxels)
        y = random_complex(rng, small_scenario.n_channels)
        g = full_gradient(s, y, small_scenario)
        g_fd = fd_gradient(dense, s, y)
        rel = np.abs(g - g_fd) / np.abs(g_fd)
        assert np.max(rel) < 1e-5


class TestSampleMinibatch:
    def test_full_composition_yields_all_channels_in_order(self, sampling_scenario):
        comp = MinibatchComposition(2, 3, 2)
        sub = sample_minibatch(comp, sampling_scenario, np.random.default_rng(0))
        assert np.array_equal(sub.indices, np.arange(12))

    def test_single_channel_uniformity(self, sampling_scenario):
        # 1e5 draws of a (1,1,1) batch: chi-square against uniform at p > 0.01
        rng = np.random.default_rng(2024)
        comp = MinibatchComposition(1, 1, 1)
        counts = np.zeros(12, dtype=int)
        draws = 100_000
        for _ in range(draws):
            counts[sample_minibatch(comp, sampling_scenario, rng).indices[0]] += 1
        expected = draws / 12.0
        chi2 = float(np.sum((counts - expected) ** 2) / expected)
        assert chi2 < CHI2_CRIT_P01_DOF11

    def test_seed_determinism(self, sampling_scenario):
        comp = MinibatchComposition(1, 2, 1)
        a = sample_minibatch(comp, sampling_scenario, np.random.default_rng(5)).indices
        b = sample_minibatch(comp, sampling_scenario, np.random.default_rng(5)).indices
        assert np.array_equal(a, b)

    def test_composition_exceeding_axis_rejected(self, sampling_scenario):
        with pytest.raises(ValueError, match="exceeds"):
            sample_minibatch(
                MinibatchComposition(3, 1, 1), sampling_scenario, np.random.default_rng(0)
            )

    @pytest.mark.parametrize("seed", [True, -1, 2.5, "3"])
    def test_seed_must_be_a_whole_number(self, sampling_scenario, seed):
        with pytest.raises(ValueError, match="rng must be"):
            sample_minibatch(MinibatchComposition(1, 1, 1), sampling_scenario, seed)

    def test_composition_validation(self):
        with pytest.raises(ValueError):
            MinibatchComposition(0, 1, 1)
        with pytest.raises(ValueError, match="n_f must be a whole number"):
            MinibatchComposition(1.9, 1, 1)
        with pytest.raises(ValueError, match="n_rx must be a whole number"):
            MinibatchComposition(1, 1, float("nan"))
        comp = MinibatchComposition(np.int64(2), 3.0, 1)
        assert (comp.n_f, comp.n_tx, comp.n_rx) == (2, 3, 1)
        assert all(type(v) is int for v in (comp.n_f, comp.n_tx, comp.n_rx))


class TestMinibatchGradient:
    def test_full_subset_is_bitwise_full_gradient(self, small_scenario, rng):
        s = random_complex(rng, small_scenario.n_voxels)
        y = random_complex(rng, small_scenario.n_channels)
        sub = np.arange(small_scenario.n_channels)
        assert np.array_equal(
            minibatch_gradient(s, y, small_scenario, sub),
            full_gradient(s, y, small_scenario),
        )

    def test_single_component(self, small_scenario, rng):
        s = random_complex(rng, small_scenario.n_voxels)
        y = random_complex(rng, small_scenario.n_channels)
        m0 = 4
        row = np.array(
            [matrix_element(m0, n, small_scenario) for n in range(small_scenario.n_voxels)]
        )
        expect = np.conj(row) * (row @ s - y[m0])
        got = minibatch_gradient(s, y, small_scenario, np.array([m0]))
        assert np.allclose(got, expect, rtol=1e-12, atol=0)

    def test_requires_subset(self, small_scenario, rng):
        s = random_complex(rng, small_scenario.n_voxels)
        y = random_complex(rng, small_scenario.n_channels)
        with pytest.raises(ValueError):
            minibatch_gradient(s, y, small_scenario, None)

    def test_unbiasedness_monte_carlo(self, sampling_scenario, rng):
        s = random_complex(rng, sampling_scenario.n_voxels)
        y = random_complex(rng, sampling_scenario.n_channels)
        target = full_gradient(s, y, sampling_scenario)
        draw_rng = np.random.default_rng(77)
        comp = MinibatchComposition(1, 1, 1)
        total = np.zeros(sampling_scenario.n_voxels, dtype=np.complex128)
        draws = 10_000
        for _ in range(draws):
            sub = sample_minibatch(comp, sampling_scenario, draw_rng)
            total += minibatch_gradient(s, y, sampling_scenario, sub)
        avg = total / draws
        assert np.linalg.norm(avg - target) <= 0.02 * np.linalg.norm(target)


class TestSoftThreshold:
    def test_phase_preserving_shrinkage(self):
        out = soft_threshold(np.array([3 + 4j]), 2.0)[0]
        assert out == pytest.approx(1.8 + 2.4j, rel=1e-15)

    def test_small_magnitudes_map_to_zero(self):
        v = np.array([0.5 + 0.5j, -0.1j, 0.0 + 0.0j])
        assert np.array_equal(soft_threshold(v, 1.0), np.zeros(3, dtype=complex))

    def test_zero_alpha_is_identity(self, rng):
        v = random_complex(rng, 100)
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.array([1.0 + 0j]), -0.1)

    @pytest.mark.parametrize("alpha", ["0.1", True])
    def test_non_number_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a real number"):
            soft_threshold(np.array([1.0 + 0j]), alpha)

    def test_against_golden_section_oracle(self, rng):
        # A value-comparison search pins the minimizer only to ~sqrt(eps), so
        # the 1e-9 agreement is asserted on the achieved objective values.
        for _ in range(1000):
            v = complex(rng.standard_normal(), rng.standard_normal()) * rng.uniform(0.1, 5)
            alpha = float(rng.uniform(0, 3))
            ours = soft_threshold(np.array([v]), alpha)[0]
            oracle = golden_section_prox(v, alpha)

            def objective(u):
                return 0.5 * abs(u - v) ** 2 + alpha * abs(u)

            assert abs(objective(ours) - objective(oracle)) <= 1e-9
            assert objective(ours) <= objective(oracle) + 1e-12
            assert abs(ours - oracle) <= 1e-6

    @given(st.integers(0, 2**32 - 1), st.floats(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_nonexpansive(self, seed, alpha):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, 32)
        b = random_complex(rng, 32)
        lhs = np.linalg.norm(soft_threshold(a, alpha) - soft_threshold(b, alpha))
        assert lhs <= np.linalg.norm(a - b) * (1 + 1e-12)


class TestTermination:
    def test_identical_iterates(self, rng):
        s = random_complex(rng, 10)
        assert relative_magnitude_change(s, s) < 1e-12

    def test_all_zero_iterates_guarded(self):
        z = np.zeros(5, dtype=complex)
        assert relative_magnitude_change(z, z) < 1e-3

    def test_phase_only_change_counts_as_converged(self, rng):
        s = random_complex(rng, 10)
        rotated = s * np.exp(1j * rng.uniform(0, 2 * np.pi, 10))
        assert relative_magnitude_change(s, rotated) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            relative_magnitude_change(np.zeros(3), np.zeros(4))

    def test_relative_change_value(self):
        prev = np.array([1.0 + 0j, 0.0])
        nxt = np.array([1.1 + 0j, 0.0])
        assert relative_magnitude_change(prev, nxt) == pytest.approx(0.1, rel=1e-12)


class TestDivergence:
    def test_pgm_stops_at_first_non_finite_change(self):
        # 12 voxels solved with eta = 100/L, far past the stability limit 2/L
        scn = ImagingScenario(
            array=make_spiral_array(2, 2, 0.25, rng_seed=7),
            frequencies=FrequencyGrid(4e9, 16e9, 2),
            voxels=VoxelGrid(center=Vec3(0, 0, 0.5), extent=(0.02, 0.02, 0.0), dims=(3, 4, 1)),
            pulse=ConstantPulse(1.0 + 0.0j),
        )
        y = simulate_measurements(make_phantom("points:2", scn.voxels, rng_seed=1), scn)
        eta = 100.0 / lipschitz_estimate(scn, n_iters=500, tol=1e-13)
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the typed error is the report
            with pytest.raises(DivergenceError, match=f"iteration 78\\b.*eta={eta:g}") as exc:
                pgm_solve(
                    y, scn, SolverConfig(eta=eta, alpha=0.0, max_iters=3000),
                    progress=lambda k, s: seen.append(k),
                )
        assert exc.value.iteration == 78
        assert exc.value.eta == eta
        assert seen == list(range(1, 78))


class TestPgmSolve:
    def test_zero_measurements_fixed_point(self, small_scenario):
        y = np.zeros(small_scenario.n_channels, dtype=complex)
        report = pgm_solve(y, small_scenario, SolverConfig(max_iters=50))
        assert report.iterations == 1
        assert report.termination == "tolerance_reached"
        assert np.array_equal(report.volume.values, np.zeros(small_scenario.n_voxels))
        assert report.per_iteration[0].magnitude_change == 0.0
        assert report.per_iteration[0].batch_size == small_scenario.n_channels

    def test_threshold_dominates_from_zero(self, small_scenario, rng):
        y = random_complex(rng, small_scenario.n_channels)
        eta = 1e-3
        g0 = full_gradient(np.zeros(small_scenario.n_voxels), y, small_scenario)
        alpha = eta * float(np.max(np.abs(g0))) * 1.01
        report = pgm_solve(
            y, small_scenario, SolverConfig(eta=eta, alpha=alpha, max_iters=20)
        )
        assert np.array_equal(report.volume.values, np.zeros(small_scenario.n_voxels))
        assert report.iterations == 1

    def test_monotone_fidelity_below_lipschitz_step(self, small_scenario):
        rng = np.random.default_rng(3)
        s_true = np.zeros(small_scenario.n_voxels, dtype=complex)
        s_true[4] = 1.0 + 0.5j
        y = forward_apply(s_true, small_scenario)
        lip = lipschitz_estimate(small_scenario, n_iters=200, tol=1e-12)
        history = []
        pgm_solve(
            y,
            small_scenario,
            SolverConfig(eta=0.9 / lip, alpha=0.0, max_iters=25, tol=1e-30),
            progress=lambda k, s: history.append(data_fidelity(s, y, small_scenario)),
        )
        values = np.array(history)
        assert np.all(np.diff(values) <= 1e-12 * values[:-1] + 1e-30)

    def test_rejects_partial_composition(self, small_scenario):
        cfg = SolverConfig(composition=MinibatchComposition(1, 1, 1))
        with pytest.raises(ValueError, match="full-batch"):
            pgm_solve(np.zeros(small_scenario.n_channels), small_scenario, cfg)

    def test_rejects_full_composition(self, small_scenario):
        # a composition means SPGM, even one that covers every channel
        cfg = SolverConfig(composition=MinibatchComposition(*small_scenario.channel_shape))
        with pytest.raises(ValueError, match="full-batch"):
            pgm_solve(np.zeros(small_scenario.n_channels), small_scenario, cfg)

    def test_time_budget_termination(self, small_scenario, rng):
        y = random_complex(rng, small_scenario.n_channels)
        report = pgm_solve(
            y,
            small_scenario,
            SolverConfig(max_iters=100_000, tol=1e-300, time_budget_s=0.05),
        )
        assert report.termination == "time_budget"
        assert report.iterations >= 1

    def test_clock_starts_after_the_plan_is_ready(self, rng, monkeypatch):
        # a scenario of its own, so its plan is built inside the solve
        scn = ImagingScenario(
            array=make_spiral_array(2, 2, 0.1, rng_seed=8),
            frequencies=FrequencyGrid(3e9, 5e9, 2),
            voxels=VoxelGrid(center=Vec3(0, 0, 0.2), extent=(0.02, 0.02, 0), dims=(3, 3, 1)),
        )
        centers = nfmimo.forward.voxel_centers

        def slow_centers(grid):
            time.sleep(0.3)
            return centers(grid)

        nfmimo.forward._PLANS.clear()
        monkeypatch.setattr(nfmimo.forward, "voxel_centers", slow_centers)
        y = random_complex(rng, scn.n_channels)
        cfg = SolverConfig(max_iters=3, tol=1e-300, time_budget_s=0.25)
        report = pgm_solve(y, scn, cfg)
        assert report.plan_s >= 0.3
        assert report.wall_time_s < 0.25
        # the build does not use up the time budget
        assert report.termination == "max_iters" and report.iterations == 3
        assert pgm_solve(y, scn, cfg).plan_s < 0.3  # cached

    def test_report_says_whether_the_plan_was_cached_and_its_size(self, rng):
        scn = ImagingScenario(
            array=make_spiral_array(3, 2, 0.1, rng_seed=9),
            frequencies=FrequencyGrid(3e9, 5e9, 4),
            voxels=VoxelGrid(center=Vec3(0, 0, 0.2), extent=(0.02, 0.02, 0), dims=(5, 3, 1)),
        )
        nfmimo.forward._PLANS.pop(scn, None)
        y = random_complex(rng, scn.n_channels)
        cfg = SolverConfig(max_iters=2, tol=1e-300)
        first, second = pgm_solve(y, scn, cfg), pgm_solve(y, scn, cfg)
        assert (first.plan_cached, second.plan_cached) == (False, True)
        # 16 bytes per complex entry: (T + R) table rows and one pulse value per frequency
        assert first.plan_bytes == second.plan_bytes == 16 * 4 * ((3 + 2) * 15 + 1)

    def test_max_iters_termination(self, small_scenario, rng):
        y = random_complex(rng, small_scenario.n_channels)
        report = pgm_solve(y, small_scenario, SolverConfig(max_iters=3, tol=1e-300))
        assert report.termination == "max_iters"
        assert report.iterations == 3
        assert len(report.per_iteration) == 3

    def test_non_finite_measurement_array_rejected(self, small_scenario):
        y = np.ones(small_scenario.n_channels, dtype=complex)
        y[2] = np.nan
        with pytest.raises(ValueError, match="measurement values must be finite"):
            pgm_solve(y, small_scenario, SolverConfig(max_iters=2))

    def test_raw_array_hashes_no_scenario(self, small_scenario, rng, monkeypatch):
        calls = []
        fingerprint = nfmimo.forward.scenario_fingerprint
        monkeypatch.setattr(
            nfmimo.forward, "scenario_fingerprint", lambda scn: calls.append(1) or fingerprint(scn)
        )
        y = random_complex(rng, small_scenario.n_channels)
        full_gradient(np.zeros(small_scenario.n_voxels), y, small_scenario)
        assert calls == []
        with pytest.raises(ValueError, match="fingerprint or size does not match"):
            full_gradient(np.zeros(small_scenario.n_voxels), y[:-1], small_scenario)

    def test_fingerprint_checked_for_measurement_sets(self, small_scenario, tiny_scenario, rng):
        mset = simulate_measurements(
            np.zeros(tiny_scenario.n_voxels), tiny_scenario, noise_sigma=1.0, rng_seed=0
        )
        with pytest.raises(ValueError, match="fingerprint"):
            pgm_solve(mset, small_scenario, SolverConfig(max_iters=2))


class TestSpgmSolve:
    def test_full_composition_matches_pgm_bitwise(self, small_scenario, rng):
        y = random_complex(rng, small_scenario.n_channels)
        comp = MinibatchComposition(
            small_scenario.frequencies.count,
            small_scenario.array.n_tx,
            small_scenario.array.n_rx,
        )
        pgm_iterates, spgm_iterates = [], []
        pgm_solve(
            y, small_scenario,
            SolverConfig(max_iters=25, tol=1e-300),
            progress=lambda k, s: pgm_iterates.append(s.copy()),
        )
        spgm_solve(
            y, small_scenario,
            SolverConfig(max_iters=25, tol=1e-300, composition=comp, rng_seed=123),
            progress=lambda k, s: spgm_iterates.append(s.copy()),
        )
        assert len(pgm_iterates) == len(spgm_iterates) == 25
        for a, b in zip(pgm_iterates, spgm_iterates):
            assert np.array_equal(a, b)

    def test_seed_determinism(self, small_scenario, rng):
        y = random_complex(rng, small_scenario.n_channels)
        cfg = SolverConfig(
            max_iters=30, tol=1e-300, composition=MinibatchComposition(2, 2, 1), rng_seed=9
        )
        a = spgm_solve(y, small_scenario, cfg)
        b = spgm_solve(y, small_scenario, cfg)
        assert np.array_equal(a.volume.values, b.volume.values)
        assert [r.batch_size for r in a.per_iteration] == [4] * 30

    def test_requires_composition(self, small_scenario):
        with pytest.raises(ValueError, match="composition"):
            spgm_solve(np.zeros(small_scenario.n_channels), small_scenario, SolverConfig())


class TestLipschitzEstimate:
    def test_matches_dense_svd(self, small_scenario):
        dense = materialize_dense(small_scenario)
        sigma_max = np.linalg.svd(dense, compute_uv=False)[0]
        expect = sigma_max**2 / small_scenario.n_channels
        got = lipschitz_estimate(small_scenario, n_iters=500, tol=1e-13)
        assert got == pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("n_iters", [0, 2.5])
    def test_n_iters_must_be_a_count(self, tiny_scenario, n_iters):
        # 0 used to return an estimate of 0.0 and 2.5 a bare TypeError
        with pytest.raises(ValueError, match="n_iters must be"):
            lipschitz_estimate(tiny_scenario, n_iters=n_iters)

    @pytest.mark.parametrize("seed", [True, -1, 2.5, "3"])
    def test_rng_seed_must_be_a_whole_number(self, tiny_scenario, seed):
        with pytest.raises(ValueError, match="rng_seed must be"):
            lipschitz_estimate(tiny_scenario, n_iters=2, rng_seed=seed)

    @pytest.mark.parametrize("tol", [True, "x", float("nan"), -1.0, 0.0])
    def test_tol_must_be_a_positive_number(self, tiny_scenario, tol):
        # NaN and negative values used to turn off early stopping silently
        with pytest.raises(ValueError, match="tol must be"):
            lipschitz_estimate(tiny_scenario, n_iters=2, tol=tol)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0},
            {"eta": -1.0},
            {"alpha": -1e-9},
            {"max_iters": 0},
            {"tol": 0.0},
            {"time_budget_s": 0.0},
            {"max_iters": 2.7},
            {"max_iters": float("inf")},
            {"tol": True},
            {"eta": "0.1"},
            {"rng_seed": 2.5},
            {"rng_seed": True},
            {"rng_seed": -1},
            {"rng_seed": "3"},
            {"composition": (4, 4, 3)},
            {"composition": [4, 4, 3]},
            {"composition": "4,4,3"},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("eta", -5.0),
            ("alpha", -1.0),
            ("max_iters", 0),
            ("tol", float("nan")),
            ("rng_seed", -1),
            ("time_budget_s", 0.0),
            ("composition", None),
        ],
    )
    def test_fields_cannot_be_reassigned(self, name, value):
        cfg = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)

    @pytest.mark.parametrize("seed", [0, 3.0, np.int64(3)])
    def test_whole_number_rng_seed_accepted(self, seed):
        cfg = SolverConfig(rng_seed=seed)
        assert cfg.rng_seed == seed and type(cfg.rng_seed) is int

    @pytest.mark.parametrize("max_iters", [3, 3.0, np.int64(3)])
    def test_integral_max_iters_accepted(self, max_iters):
        cfg = SolverConfig(max_iters=max_iters)
        assert cfg.max_iters == 3 and type(cfg.max_iters) is int

    def test_paper_defaults(self):
        cfg = SolverConfig()
        assert cfg.eta == 1e-3 and cfg.alpha == 4e-5 and cfg.tol == 1e-3
