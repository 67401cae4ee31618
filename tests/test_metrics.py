import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfmimo.metrics
from nfmimo import (
    MinibatchComposition,
    ReflectivityVolume,
    SolverConfig,
    Vec3,
    VoxelGrid,
    forward_apply,
    psnr_vs_reference,
    run_sweep,
    spearman_rank,
    write_sweep_csv,
)
from nfmimo.metrics import SWEEP_CSV_HEADER, _average_ranks
from conftest import random_complex

GRID4 = VoxelGrid(center=Vec3(0, 0, 0), extent=(0.3, 0, 0), dims=(4, 1, 1))


def vol(values, grid=GRID4) -> ReflectivityVolume:
    return ReflectivityVolume(np.asarray(values, dtype=complex), grid)


class TestPsnr:
    def test_identical_volumes_are_infinite(self, rng):
        v = vol(random_complex(rng, 4))
        result = psnr_vs_reference(v, v)
        assert math.isinf(result.psnr_db) and result.rmse == 0.0

    def test_global_complex_scale_is_removed(self, rng):
        # general complex rescaling perturbs magnitudes by ~1 ulp, so the
        # invariance holds at machine-noise level (numerically infinite)
        ref = vol(random_complex(rng, 4))
        scaled = vol(ref.values * (3.7 * np.exp(1j * 1.234)))
        result = psnr_vs_reference(scaled, ref)
        assert math.isinf(result.psnr_db) or result.psnr_db > 250.0

    def test_exact_power_of_two_scale_is_exactly_infinite(self, rng):
        mags = np.abs(random_complex(rng, 4)) + 0.1
        result = psnr_vs_reference(vol(mags), vol(4.0 * mags))
        assert math.isinf(result.psnr_db) and result.rmse == 0.0

    def test_hand_computed_forty_db(self):
        # normalized magnitudes differ by 0.02 in one of four voxels:
        # rmse = 0.02/2 = 0.01  ->  20*log10(1/0.01) = 40 dB
        recon = vol([1.0, 0.0, 0.0, 0.0])
        reference = vol([1.0, 0.02, 0.0, 0.0])
        result = psnr_vs_reference(recon, reference)
        assert result.rmse == pytest.approx(0.01, rel=1e-12)
        assert result.psnr_db == pytest.approx(40.0, abs=1e-9)

    def test_grid_mismatch_rejected(self, rng):
        other = VoxelGrid(center=Vec3(0, 0, 0), extent=(0.1, 0, 0), dims=(4, 1, 1))
        with pytest.raises(ValueError, match="grid"):
            psnr_vs_reference(vol(np.ones(4)), vol(np.ones(4), grid=other))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            psnr_vs_reference(vol(np.ones(4)), vol(np.zeros(4)))

    def test_zero_recon_is_allowed(self):
        result = psnr_vs_reference(vol(np.zeros(4)), vol([1, 0, 0, 0]))
        assert result.rmse == pytest.approx(0.5)

    def test_symmetric_when_both_peak_normalized(self, rng):
        a = np.abs(random_complex(rng, 4))
        b = np.abs(random_complex(rng, 4))
        a /= a.max()
        b /= b.max()
        fwd = psnr_vs_reference(vol(a), vol(b))
        rev = psnr_vs_reference(vol(b), vol(a))
        assert fwd.rmse == pytest.approx(rev.rmse, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        a = vol(random_complex(rng, 4))
        b = vol(random_complex(rng, 4))
        base = psnr_vs_reference(a, b)
        c1 = complex(*rng.standard_normal(2))
        c2 = complex(*rng.standard_normal(2))
        if abs(c1) == 0 or abs(c2) == 0:
            return
        scaled = psnr_vs_reference(vol(a.values * c1), vol(b.values * c2))
        assert scaled.rmse == pytest.approx(base.rmse, rel=1e-9, abs=1e-12)

    def test_rmse_zero_iff_normalized_magnitudes_equal(self, rng):
        mags = np.abs(random_complex(rng, 4)) + 0.1
        a = vol(mags)
        b = vol(2.0 * mags)  # same magnitudes after peak normalization
        assert psnr_vs_reference(a, b).rmse == 0.0
        c = vol(mags * [1, 1, 1, 1.5])
        assert psnr_vs_reference(c, b).rmse > 0.0


class TestRunSweep:
    def test_empty_seed_list(self, tiny_scenario):
        y = forward_apply(np.ones(tiny_scenario.n_voxels, dtype=complex), tiny_scenario)
        records = run_sweep(
            y, tiny_scenario, SolverConfig(max_iters=3), [MinibatchComposition(1, 1, 1)], []
        )
        assert records == []

    def test_full_composition_self_comparison(self, tiny_scenario, rng):
        s = np.zeros(tiny_scenario.n_voxels, dtype=complex)
        s[1] = 1.0
        y = forward_apply(s, tiny_scenario)
        full = MinibatchComposition(2, 2, 2)
        records = run_sweep(
            y, tiny_scenario, SolverConfig(max_iters=40, tol=1e-8), [full], [0]
        )
        assert len(records) == 1
        # same algorithm, same iterates: self-comparison is exact or near-exact
        assert math.isinf(records[0].psnr_db) or records[0].psnr_db >= 120.0

    def test_record_grid_shape(self, tiny_scenario, rng):
        y = forward_apply(random_complex(rng, tiny_scenario.n_voxels), tiny_scenario)
        comps = [MinibatchComposition(1, 1, 1), MinibatchComposition(2, 2, 2)]
        records = run_sweep(
            y, tiny_scenario, SolverConfig(max_iters=5, tol=1e-30), comps, [3, 4]
        )
        assert len(records) == 4
        assert [r.seed for r in records] == [3, 4, 3, 4]
        assert [r.composition.batch_size for r in records] == [1, 1, 8, 8]
        assert all(r.runtime_s >= 0 and r.iterations == 5 for r in records)

    def test_full_composition_reuses_the_reference(self, tiny_scenario, rng, monkeypatch):
        y = forward_apply(random_complex(rng, tiny_scenario.n_voxels), tiny_scenario)
        references, solved = [], []
        pgm, spgm = nfmimo.metrics.pgm_solve, nfmimo.metrics.spgm_solve

        def counting_pgm(*args):
            references.append(pgm(*args))
            return references[-1]

        def counting_spgm(y, scenario, config):
            solved.append(config.composition)
            return spgm(y, scenario, config)

        monkeypatch.setattr(nfmimo.metrics, "pgm_solve", counting_pgm)
        monkeypatch.setattr(nfmimo.metrics, "spgm_solve", counting_spgm)
        full, one = MinibatchComposition(2, 2, 2), MinibatchComposition(1, 1, 1)
        cfg = SolverConfig(max_iters=5, tol=1e-30)
        records = run_sweep(y, tiny_scenario, cfg, [full, one], [0, 1, 2])
        assert solved == [one] * 3
        (ref,) = references
        assert [(r.iterations, r.runtime_s, r.psnr_db) for r in records[:3]] == [
            (ref.iterations, ref.wall_time_s, math.inf)
        ] * 3
        assert [r.seed for r in records] == [0, 1, 2] * 2

    def test_determinism_of_quality_across_repeats(self, tiny_scenario, rng):
        y = forward_apply(random_complex(rng, tiny_scenario.n_voxels), tiny_scenario)
        comps = [MinibatchComposition(1, 2, 1)]
        a = run_sweep(y, tiny_scenario, SolverConfig(max_iters=10, tol=1e-30), comps, [5])
        b = run_sweep(y, tiny_scenario, SolverConfig(max_iters=10, tol=1e-30), comps, [5])
        assert a[0].psnr_db == b[0].psnr_db

    @pytest.mark.parametrize("comp", [(1, 1, 1), (2, 2, 2)], ids=["minibatch", "full"])
    def test_bad_seed_refused_before_the_reference(self, tiny_scenario, monkeypatch, comp):
        solved = []
        monkeypatch.setattr(nfmimo.metrics, "pgm_solve", lambda *args: solved.append(args))
        y = np.zeros(tiny_scenario.n_channels, dtype=complex)
        with pytest.raises(ValueError, match="rng_seed must be >= 0, got -1"):
            run_sweep(y, tiny_scenario, SolverConfig(), [MinibatchComposition(*comp)], [1, -1])
        assert solved == []


class TestSweepCsv:
    def test_header_and_inf_sentinel(self, tmp_path, tiny_scenario):
        from nfmimo.metrics import SweepRecord

        records = [
            SweepRecord(MinibatchComposition(1, 2, 2), seed=7, iterations=12,
                        runtime_s=0.5, psnr_db=math.inf),
            SweepRecord(MinibatchComposition(2, 2, 2), seed=8, iterations=9,
                        runtime_s=1.25, psnr_db=38.75),
        ]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SWEEP_CSV_HEADER
        assert rows[1] == ["1", "2", "2", "4", "7", "12", "0.5", "inf"]
        assert rows[2][:6] == ["2", "2", "2", "8", "8", "9"]
        assert float(rows[2][7]) == pytest.approx(38.75)


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman_rank([1, 2, 3, 4], [10, 20, 40, 80]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        assert spearman_rank([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_average(self):
        assert spearman_rank([1, 2, 2, 3], [1, 2, 2, 3]) == pytest.approx(1.0)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            spearman_rank([1.0], [2.0])

    def test_constant_input_has_no_rank_order(self):
        # every rank ties, so the correlation's denominator is 0
        assert spearman_rank([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    @pytest.mark.parametrize(
        "x", [[np.nan] * 4, [1, np.nan, 3, 4], [1, 2, np.inf, 4]], ids=["all-nan", "nan", "inf"]
    )
    def test_non_finite_rejected(self, x):
        # NaN used to rank as a value: all-NaN input scored 1.0, one NaN 0.4
        with pytest.raises(ValueError, match="finite"):
            spearman_rank(x, [1, 2, 3, 4])

    def test_ranks_match_the_sorted_scan(self, rng):
        def scan(values):
            order = np.argsort(values, kind="mergesort")
            ranks = np.empty(values.size)
            i = 0
            while i < values.size:
                j = i
                while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
                    j += 1
                ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
                i = j + 1
            return ranks

        for size in (2, 7, 50):
            values = rng.integers(0, 5, size=size).astype(float)  # many ties
            assert np.array_equal(_average_ranks(values), scan(values))
