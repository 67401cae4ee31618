import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nfmimo
import nfmimo.forward
from nfmimo import (
    ReflectivityVolume,
    SolveReport,
    SolverConfig,
    forward_apply,
    lipschitz_estimate,
    simulate_measurements,
)
from nfmimo.cli import main
from nfmimo.io import (
    read_measurements,
    read_scenario,
    read_volume,
    write_measurements,
    write_volume,
)


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """Scenario JSON, simulated measurements, and ground-truth volume for a
    fast 3x3x3-channel, 5x5x2-voxel setup."""
    root = tmp_path_factory.mktemp("cli")
    scn_path = root / "scn.json"
    code = main(
        [
            "scenario-init", "--custom",
            "--tx", "3", "--rx", "3", "--radius", "0.15",
            "--f-start", "4e9", "--f-stop", "16e9", "--f-count", "3",
            "--center", "0,0,0.25", "--extent", "0.1,0.1,0.02", "--dims", "5,5,2",
            "--out", str(scn_path),
        ]
    )
    assert code == 0
    meas_path = root / "meas.nfms"
    code = main(
        [
            "simulate", "--scenario", str(scn_path), "--phantom", "points:1",
            "--noise", "0", "--seed", "3", "--out", str(meas_path),
        ]
    )
    assert code == 0
    return {
        "root": root,
        "scenario": scn_path,
        "measurements": meas_path,
        "truth": root / "meas_truth.nfmv",
    }


class TestScenarioInit:
    def test_paper_preset_dimensions(self, tmp_path, capsys):
        out = tmp_path / "paper.json"
        assert main(["scenario-init", "--preset", "paper-v", "--out", str(out)]) == 0
        assert main(["info", "--scenario", str(out)]) == 0
        text = capsys.readouterr().out
        assert "M=1584" in text and "N=78141" in text

    def test_file_hashes_to_the_printed_fingerprint(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["scenario-init", "--preset", "paper-v", "--out", str(out)]) == 0
        assert main(["info", "--scenario", str(out)]) == 0
        (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("fingerprint=")]
        assert line == f"fingerprint={hashlib.sha256(out.read_bytes()).hexdigest()}"

    def test_single_voxel_custom(self, tmp_path):
        out = tmp_path / "one.json"
        assert main(["scenario-init", "--custom", "--dims", "1,1,1", "--out", str(out)]) == 0
        scn = read_scenario(out)
        assert scn.n_voxels == 1

    def test_missing_out_is_usage_error(self):
        assert main(["scenario-init", "--preset", "paper-v"]) == 2

    def test_conflicting_modes(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["scenario-init", "--preset", "paper-v", "--custom", "--out", str(out)]) == 2
        assert main(["scenario-init", "--out", str(out)]) == 2

    def test_invalid_custom_geometry_fails_with_one(self, tmp_path):
        out = tmp_path / "x.json"
        code = main(
            ["scenario-init", "--custom", "--dims", "2,2,1", "--extent", "0,0.1,0",
             "--out", str(out)]
        )
        assert code == 1

    def test_repro_line_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        main(["scenario-init", "--preset", "paper-v", "--out", str(out)])
        err = capsys.readouterr().err
        assert "# nfmimo" in err and "config=" in err


# The flag hash formats list and tuple values with str(), so these pin the
# container types the list flags parse into as well as their values.
@pytest.mark.parametrize(
    "argv, config",
    [
        (["scenario-init", "--custom", "--dims", "2,2,1", "--extent", "0.1,0.1,0",
          "--center", "0,0,0.5", "--out", "scenario.json"], "bad1687f4abe"),
        (["benchmark", "--scenario", "scenario.json", "--measurements", "meas.nfms",
          "--compositions", "1,1,1;2,2,1", "--seeds", "1,2", "--out", "sweep.csv"],
         "48f65bd97fe6"),
        (["reconstruct", "--scenario", "scenario.json", "--measurements", "meas.nfms",
          "--method", "spgm", "--batch", "4,4,3", "--out", "r.nfmv"], "55a50d069c8e"),
    ],
    ids=["scenario-init", "benchmark", "reconstruct"],
)
def test_flag_hash_is_stable(argv, config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main(argv)  # benchmark exits 1 here (no input files), after the repro line
    assert f" config={config}\n" in capsys.readouterr().err


class TestSimulate:
    def test_sparse_phantom_on_paper_v_builds_no_plan(self, tmp_path):
        # with the 344 MB phasor-table plan the process peaks near 376 MB
        scn_path = tmp_path / "paper-v.json"
        assert main(["scenario-init", "--preset", "paper-v", "--out", str(scn_path)]) == 0
        src = str(Path(nfmimo.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        # A child's peak RSS starts at what it was forked from, and this test
        # process may hold cached plans, so a small interpreter spawns the
        # command and reports its exit code and peak (KiB on Linux).
        runner = (
            "import os, sys; pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ); "
            "_, status, usage = os.wait4(pid, 0); "
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", runner, sys.executable, "-m", "nfmimo.cli", "simulate",
             "--scenario", str(scn_path), "--phantom", "points:5", "--seed", "42",
             "--snr-db", "30", "--out", str(tmp_path / "m.nfms")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        exit_code, peak_kib = map(int, proc.stdout.split()[-2:])
        assert exit_code == 0
        assert peak_kib < 150 * 1024

    def test_zero_noise_measurements_equal_forward_of_truth(self, small_files):
        scn = read_scenario(small_files["scenario"])
        mset = read_measurements(small_files["measurements"], scenario=scn)
        truth = read_volume(small_files["truth"], grid=scn.voxels)
        assert np.array_equal(mset.values, forward_apply(truth, scn))

    def test_same_seed_is_byte_identical(self, small_files, tmp_path):
        scn_path = small_files["scenario"]
        a, b = tmp_path / "a.nfms", tmp_path / "b.nfms"
        for out in (a, b):
            assert main(
                ["simulate", "--scenario", str(scn_path), "--phantom", "points:2",
                 "--noise", "0.1", "--seed", "11", "--out", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_truth.nfmv").read_bytes() == (tmp_path / "b_truth.nfmv").read_bytes()

    def test_snr_db_writes_the_bytes_of_its_sigma(self, small_files, tmp_path):
        scn_path = small_files["scenario"]
        by_snr, by_sigma = tmp_path / "snr.nfms", tmp_path / "sigma.nfms"
        common = ["simulate", "--scenario", str(scn_path), "--phantom", "points:2", "--seed", "11"]
        assert main(common + ["--snr-db", "30", "--out", str(by_snr)]) == 0
        scn = read_scenario(scn_path)
        clean = forward_apply(read_volume(tmp_path / "snr_truth.nfmv", grid=scn.voxels), scn)
        sigma = float(np.sqrt(np.mean(np.abs(clean) ** 2) * 10 ** (-30 / 10)))
        assert sigma > 0
        assert main(common + ["--noise", repr(sigma), "--out", str(by_sigma)]) == 0
        assert by_snr.read_bytes() == by_sigma.read_bytes()
        assert not np.array_equal(read_measurements(by_snr, scenario=scn).values, clean)

    def test_snr_db_runs_one_forward_and_writes_simulate_measurements(
        self, small_files, tmp_path, monkeypatch
    ):
        forward_values = nfmimo.forward._forward_values
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2].size)
            return forward_values(*args, **kwargs)

        monkeypatch.setattr(nfmimo.forward, "_forward_values", counted)
        out = tmp_path / "snr.nfms"
        assert main(["simulate", "--scenario", str(small_files["scenario"]), "--phantom",
                     "points:2", "--seed", "11", "--snr-db", "30", "--out", str(out)]) == 0
        scn = read_scenario(small_files["scenario"])
        assert calls == [scn.n_channels]
        truth = read_volume(tmp_path / "snr_truth.nfmv", grid=scn.voxels)
        clean = forward_apply(truth, scn)
        sigma = float(np.sqrt(np.mean(np.abs(clean) ** 2) * 10 ** (-30 / 10)))
        write_measurements(simulate_measurements(truth, scn, sigma, 11), tmp_path / "ref.nfms")
        assert out.read_bytes() == (tmp_path / "ref.nfms").read_bytes()

    def test_snr_db_and_noise_are_exclusive(self, small_files, tmp_path):
        code = main(
            ["simulate", "--scenario", str(small_files["scenario"]), "--phantom", "points:1",
             "--noise", "0.1", "--snr-db", "30", "--out", str(tmp_path / "x.nfms")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "phantom, snr_db",
        [("points:1", "nan"), ("points:1", "-4000"), ("zero", "30")],
        ids=["nan", "overflow", "zero-phantom"],
    )
    def test_undefined_snr_exits_one(self, small_files, tmp_path, capsys, phantom, snr_db):
        if phantom == "zero":
            scn = read_scenario(small_files["scenario"])
            write_volume(ReflectivityVolume.zeros(scn.voxels), tmp_path / "zero.nfmv")
            phantom = f"file:{tmp_path / 'zero.nfmv'}"
        out = tmp_path / "x.nfms"
        code = main(
            ["simulate", "--scenario", str(small_files["scenario"]), "--phantom", phantom,
             "--snr-db", snr_db, "--out", str(out)]
        )
        assert code == 1
        assert "--snr-db" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_recipe(self, small_files, tmp_path):
        scn = str(small_files["scenario"])
        phantom, meas, sweep = tmp_path / "phantom.nfms", tmp_path / "meas.nfms", tmp_path / "sweep.csv"
        assert main(["simulate", "--scenario", scn, "--phantom", "points:2", "--seed", "42",
                     "--noise", "0", "--out", str(phantom)]) == 0
        assert main(["simulate", "--scenario", scn,
                     "--phantom", f"file:{tmp_path / 'phantom_truth.nfmv'}",
                     "--snr-db", "30", "--seed", "7", "--out", str(meas)]) == 0
        assert main(["benchmark", "--scenario", scn, "--measurements", str(meas),
                     "--compositions", "1,1,1;2,2,2;3,3,3", "--seeds", "1,2",
                     "--max-iters", "10", "--out", str(sweep)]) == 0
        rows = sweep.read_text().strip().split("\n")
        assert rows[0].startswith("composition_f,")
        assert len(rows) == 1 + 3 * 2

    def test_bad_phantom_spec(self, small_files, tmp_path):
        code = main(
            ["simulate", "--scenario", str(small_files["scenario"]), "--phantom", "blob",
             "--out", str(tmp_path / "x.nfms")]
        )
        assert code == 1

    def test_phantom_file_with_wrong_dims(self, small_files, tmp_path):
        # a truth volume from another grid cannot seed this scenario
        other = tmp_path / "other.json"
        main(["scenario-init", "--custom", "--dims", "2,2,1", "--extent", "0.1,0.1,0",
              "--tx", "2", "--rx", "2", "--f-count", "2", "--out", str(other)])
        main(["simulate", "--scenario", str(other), "--phantom", "points:1",
              "--out", str(tmp_path / "o.nfms")])
        code = main(
            ["simulate", "--scenario", str(small_files["scenario"]),
             "--phantom", f"file:{tmp_path / 'o_truth.nfmv'}",
             "--out", str(tmp_path / "bad.nfms")]
        )
        assert code == 1


class TestReconstruct:
    def test_pgm_end_to_end_localizes_scatterer(self, small_files, tmp_path):
        out = tmp_path / "recon.nfmv"
        report = tmp_path / "report.json"
        code = main(
            ["reconstruct", "--scenario", str(small_files["scenario"]),
             "--measurements", str(small_files["measurements"]),
             "--method", "pgm", "--max-iters", "60", "--tol", "1e-4",
             "--out", str(out), "--report", str(report)]
        )
        assert code == 0
        scn = read_scenario(small_files["scenario"])
        recon = read_volume(out, grid=scn.voxels)
        truth = read_volume(small_files["truth"], grid=scn.voxels)
        assert np.argmax(np.abs(recon.values)) == np.argmax(np.abs(truth.values))
        doc = json.loads(report.read_text())
        assert doc["method"] == "pgm"
        assert doc["termination"] in {"tolerance_reached", "max_iters"}
        assert len(doc["per_iteration"]) == doc["iterations"]
        assert {"iter", "magnitude_change", "elapsed_seconds", "batch_size"} <= set(
            doc["per_iteration"][0]
        )
        assert doc["plan_s"] >= 0.0
        assert isinstance(doc["plan_cached"], bool)
        # 3 frequencies, 3 + 3 antennas, 50 voxels, 16 bytes per complex entry
        assert doc["plan_bytes"] == 16 * 3 * (6 * 50 + 1)

    def test_plan_too_large_exits_one(self, small_files, tmp_path, monkeypatch, capsys):
        nfmimo.forward._PLANS.clear()
        monkeypatch.setattr(nfmimo.forward, "_available_bytes", lambda: 1000)
        out = tmp_path / "recon.nfmv"
        code = main(
            ["reconstruct", "--scenario", str(small_files["scenario"]),
             "--measurements", str(small_files["measurements"]), "--method", "pgm",
             "--out", str(out)]
        )
        assert code == 1 and not out.exists()
        # 16 bytes x 3 frequencies x (1 + 6 antennas x 50 voxels) = 14448 bytes
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == (
            "error: the operator plan needs 1.44e-05 GB, but only 1e-06 GB of memory is available"
        )

    def test_report_is_the_flags_then_the_solve_report(self, small_files, tmp_path, monkeypatch):
        reports, solve = [], nfmimo.cli.spgm_solve
        monkeypatch.setattr(
            nfmimo.cli, "spgm_solve", lambda *args: reports.append(solve(*args)) or reports[-1]
        )
        report = tmp_path / "report.json"
        code = main(
            ["reconstruct", "--scenario", str(small_files["scenario"]),
             "--measurements", str(small_files["measurements"]),
             "--method", "spgm", "--batch", "1,2,2", "--max-iters", "4", "--tol", "1e-30",
             "--out", str(tmp_path / "x.nfmv"), "--report", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        flags = {
            "method": "spgm", "eta": SolverConfig.eta, "alpha": SolverConfig.alpha,
            "tol": 1e-30, "max_iters": 4, "seed": 0, "batch": [1, 2, 2], "time_budget_s": None,
        }
        (solved,) = reports
        fields = {
            f.name: getattr(solved, f.name)
            for f in dataclasses.fields(SolveReport)
            if f.name != "volume"
        }
        fields["per_iteration"] = [dataclasses.asdict(r) for r in solved.per_iteration]
        assert doc == {**flags, **fields}
        # the benchmark harness reads these three
        assert {"wall_time_s", "termination"} <= set(doc)
        assert "elapsed_seconds" in doc["per_iteration"][0]

    def test_spgm_requires_batch(self, small_files, tmp_path):
        code = main(
            ["reconstruct", "--scenario", str(small_files["scenario"]),
             "--measurements", str(small_files["measurements"]),
             "--method", "spgm", "--out", str(tmp_path / "x.nfmv")]
        )
        assert code == 2

    def test_pgm_rejects_batch(self, small_files, tmp_path):
        code = main(
            ["reconstruct", "--scenario", str(small_files["scenario"]),
             "--measurements", str(small_files["measurements"]),
             "--method", "pgm", "--batch", "1,1,1", "--out", str(tmp_path / "x.nfmv")]
        )
        assert code == 2

    def test_spgm_full_batch_matches_pgm(self, small_files, tmp_path):
        args_common = [
            "--scenario", str(small_files["scenario"]),
            "--measurements", str(small_files["measurements"]),
            "--max-iters", "25", "--tol", "1e-30",
        ]
        pgm_out = tmp_path / "pgm.nfmv"
        spgm_out = tmp_path / "spgm.nfmv"
        assert main(["reconstruct", *args_common, "--method", "pgm", "--out", str(pgm_out)]) == 0
        assert main(
            ["reconstruct", *args_common, "--method", "spgm", "--batch", "3,3,3",
             "--seed", "5", "--out", str(spgm_out)]
        ) == 0
        a = read_volume(pgm_out).values
        b = read_volume(spgm_out).values
        assert np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(a), 1e-30)

    def test_fingerprint_mismatch_refused(self, small_files, tmp_path, capsys):
        def other_scenario(n_tx):
            path = tmp_path / f"other{n_tx}.json"
            main(["scenario-init", "--custom", "--tx", str(n_tx), "--rx", "3", "--f-count", "3",
                  "--center", "0,0,0.25", "--extent", "0.1,0.1,0.02", "--dims", "5,5,2",
                  "--radius", "0.12", "--out", str(path)])
            return path

        def reconstruct(scenario, out, *flags):
            capsys.readouterr()
            return main(
                ["reconstruct", "--scenario", str(scenario),
                 "--measurements", str(small_files["measurements"]),
                 "--method", "pgm", "--max-iters", "5", "--out", str(out), *flags]
            )

        # same 27 channels as the file, another scenario: refused unless allowed
        same_size = other_scenario(3)
        assert reconstruct(same_size, tmp_path / "x.nfmv") == 1
        assert not (tmp_path / "x.nfmv").exists()
        allowed = tmp_path / "allowed.nfmv"
        assert reconstruct(same_size, allowed, "--allow-fingerprint-mismatch") == 0
        assert read_volume(allowed).grid.dims == (5, 5, 2)
        # 18 channels: the flag cannot pair 27 values with them
        code = reconstruct(other_scenario(2), tmp_path / "y.nfmv", "--allow-fingerprint-mismatch")
        assert code == 1
        assert "27 values for 18 channels" in capsys.readouterr().err
        assert not (tmp_path / "y.nfmv").exists()

    def test_time_budget_cause(self, small_files, tmp_path):
        report = tmp_path / "report.json"
        code = main(
            ["reconstruct", "--scenario", str(small_files["scenario"]),
             "--measurements", str(small_files["measurements"]),
             "--method", "pgm", "--max-iters", "100000", "--tol", "1e-300",
             "--time-budget-s", "0.05",
             "--out", str(tmp_path / "x.nfmv"), "--report", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["termination"] == "time_budget"
        assert doc["iterations"] >= 1

    def test_slices_export(self, small_files, tmp_path):
        prefix = tmp_path / "sl"
        code = main(
            ["reconstruct", "--scenario", str(small_files["scenario"]),
             "--measurements", str(small_files["measurements"]),
             "--method", "pgm", "--max-iters", "5", "--tol", "1e-30",
             "--out", str(tmp_path / "x.nfmv"), "--slices", str(prefix)]
        )
        assert code == 0
        assert (tmp_path / "sl_z0.csv").exists() and (tmp_path / "sl_z1.csv").exists()


class TestPsnrCommand:
    def test_identical_files_print_inf(self, small_files, capsys):
        truth = str(small_files["truth"])
        assert main(["psnr", "--recon", truth, "--reference", truth]) == 0
        out = capsys.readouterr().out
        assert "psnr_db=inf" in out and "rmse=0" in out

    def test_global_phase_rotation_prints_inf(self, small_files, tmp_path, capsys):
        # rotation by exactly 90 degrees is lossless in floats (swap+negate),
        # so the magnitude volumes match bitwise
        from nfmimo import ReflectivityVolume
        from nfmimo.io import write_volume

        truth = read_volume(small_files["truth"])
        rotated = tmp_path / "rot.nfmv"
        write_volume(ReflectivityVolume(truth.values * 1j, truth.grid), rotated)
        assert main(
            ["psnr", "--recon", str(rotated), "--reference", str(small_files["truth"])]
        ) == 0
        assert "psnr_db=inf" in capsys.readouterr().out

    def test_missing_flag_is_usage_error(self, small_files):
        assert main(["psnr", "--recon", str(small_files["truth"])]) == 2

    def test_fixture_pair_matches_formula(self, tmp_path, capsys):
        from nfmimo import ReflectivityVolume, Vec3, VoxelGrid
        from nfmimo.io import write_volume

        grid = VoxelGrid(center=Vec3(0, 0, 0), extent=(0.3, 0, 0), dims=(4, 1, 1))
        write_volume(
            ReflectivityVolume(np.array([1, 0, 0, 0], dtype=complex), grid),
            tmp_path / "a.nfmv",
        )
        write_volume(
            ReflectivityVolume(np.array([1, 0.02, 0, 0], dtype=complex), grid),
            tmp_path / "b.nfmv",
        )
        assert main(
            ["psnr", "--recon", str(tmp_path / "a.nfmv"), "--reference", str(tmp_path / "b.nfmv")]
        ) == 0
        out = capsys.readouterr().out
        value = float(out.split("psnr_db=")[1].split()[0])
        assert abs(value - 40.0) <= 1e-6

    def test_grid_mismatch_exits_one(self, small_files, tmp_path):
        from nfmimo import ReflectivityVolume, Vec3, VoxelGrid
        from nfmimo.io import write_volume

        grid = VoxelGrid(center=Vec3(0, 0, 0), extent=(0.1, 0, 0), dims=(2, 1, 1))
        write_volume(ReflectivityVolume(np.ones(2, dtype=complex), grid), tmp_path / "c.nfmv")
        code = main(
            ["psnr", "--recon", str(tmp_path / "c.nfmv"), "--reference", str(small_files["truth"])]
        )
        assert code == 1


class TestBenchmark:
    def test_two_composition_sweep(self, small_files, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["benchmark", "--scenario", str(small_files["scenario"]),
             "--measurements", str(small_files["measurements"]),
             "--compositions", "1,1,1;3,3,3", "--seeds", "0",
             "--max-iters", "15", "--tol", "1e-30", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0].startswith("composition_f,")
        assert len(rows) == 3
        table = capsys.readouterr().out
        assert "(1,1,1)" in table and "(3,3,3)" in table

    def test_empty_compositions_usage_error(self, small_files, tmp_path):
        code = main(
            ["benchmark", "--scenario", str(small_files["scenario"]),
             "--measurements", str(small_files["measurements"]),
             "--compositions", ";", "--seeds", "0", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_fingerprint_mismatch_is_runtime_error(self, small_files, tmp_path):
        other = tmp_path / "other.json"
        main(["scenario-init", "--custom", "--dims", "2,2,1", "--extent", "0.1,0.1,0",
              "--tx", "2", "--rx", "2", "--f-count", "2", "--out", str(other)])
        code = main(
            ["benchmark", "--scenario", str(other),
             "--measurements", str(small_files["measurements"]),
             "--compositions", "1,1,1", "--seeds", "0", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1

    def test_repeat_gives_identical_psnr_column(self, small_files, tmp_path):
        cols = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert main(
                ["benchmark", "--scenario", str(small_files["scenario"]),
                 "--measurements", str(small_files["measurements"]),
                 "--compositions", "1,2,2;2,2,3", "--seeds", "1,2",
                 "--max-iters", "10", "--tol", "1e-30", "--out", str(out)]
            ) == 0
            rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
            cols.append([row[7] for row in rows])
        assert cols[0] == cols[1]


NFMS_HEADER = struct.calcsize("<4sHI32s")
NFMV_HEADER = struct.calcsize("<4sHIII")


def _with_payload(blob: bytes, header_size: int, values) -> bytes:
    """The file ``blob`` with its payload replaced by ``values`` and a
    matching byte-sum checksum."""
    payload = b"".join(struct.pack("<dd", v.real, v.imag) for v in values)
    assert len(payload) == len(blob) - header_size - 8
    return blob[:header_size] + payload + struct.pack("<Q", sum(payload))


class TestNonFiniteInput:
    def test_nan_measurements_exit_one(self, small_files, tmp_path, capsys):
        blob = small_files["measurements"].read_bytes()
        values = [1 + 0j] * ((len(blob) - NFMS_HEADER - 8) // 16)
        values[0] = complex(float("nan"), 0.0)
        bad = tmp_path / "nan.nfms"
        bad.write_bytes(_with_payload(blob, NFMS_HEADER, values))
        code = main(
            ["reconstruct", "--scenario", str(small_files["scenario"]),
             "--measurements", str(bad), "--method", "pgm", "--out", str(tmp_path / "x.nfmv")]
        )
        assert code == 1
        assert "measurement payload holds non-finite values" in capsys.readouterr().err

    def test_nan_volume_exit_one(self, small_files, tmp_path, capsys):
        blob = small_files["truth"].read_bytes()
        values = [1 + 0j] * ((len(blob) - NFMV_HEADER - 8) // 16)
        values[-1] = complex(0.0, float("inf"))
        bad = tmp_path / "nan.nfmv"
        bad.write_bytes(_with_payload(blob, NFMV_HEADER, values))
        code = main(["psnr", "--recon", str(bad), "--reference", str(small_files["truth"])])
        assert code == 1
        assert "volume payload holds non-finite values" in capsys.readouterr().err

    def test_nan_pulse_scenario_exit_one(self, small_files, tmp_path, capsys):
        doc = json.loads(small_files["scenario"].read_text())
        doc["pulse"] = {
            "mode": "tabulated",
            "frequencies_hz": [1e9, 2e10],
            "values": [[1.0, 0.0], [float("nan"), 0.0]],
        }
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert main(["info", "--scenario", str(bad)]) == 1
        assert "pulse values must be finite" in capsys.readouterr().err


@pytest.fixture(scope="module")
def diverging_case(tmp_path_factory):
    """12-voxel scenario, its measurements and eta = 100/L, far past the
    stability limit 2/L."""
    root = tmp_path_factory.mktemp("diverge")
    scn = root / "scn.json"
    meas = root / "meas.nfms"
    assert main(
        ["scenario-init", "--custom", "--tx", "2", "--rx", "2", "--f-count", "2",
         "--extent", "0.02,0.02,0", "--dims", "3,4,1", "--out", str(scn)]
    ) == 0
    assert main(
        ["simulate", "--scenario", str(scn), "--phantom", "points:2", "--seed", "1",
         "--out", str(meas)]
    ) == 0
    eta = 100.0 / lipschitz_estimate(read_scenario(scn), n_iters=500, tol=1e-13)
    return ["reconstruct", "--scenario", str(scn), "--measurements", str(meas),
            "--method", "pgm", "--eta", repr(eta), "--alpha", "0", "--max-iters", "3000"]


class TestDivergence:
    def test_exit_one_names_iteration(self, diverging_case, tmp_path, capsys):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*diverging_case, "--out", str(tmp_path / "x.nfmv")])
        assert code == 1
        assert "diverged at iteration 78" in capsys.readouterr().err
        assert not (tmp_path / "x.nfmv").exists()

    def test_stderr_has_the_error_and_no_numpy_warning(self, diverging_case, tmp_path):
        src = str(Path(nfmimo.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "nfmimo.cli", *diverging_case,
             "--out", str(tmp_path / "x.nfmv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "solve diverged at iteration 78" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "overflow" not in proc.stderr


class TestExitCodes:
    @pytest.mark.parametrize("command", ["simulate", "reconstruct", "benchmark"])
    def test_threads_flag_is_gone(self, small_files, tmp_path, command):
        common = ["--scenario", str(small_files["scenario"]), "--out", str(tmp_path / "x")]
        extra = {
            "simulate": ["--phantom", "points:1"],
            "reconstruct": ["--measurements", str(small_files["measurements"]), "--method", "pgm"],
            "benchmark": ["--measurements", str(small_files["measurements"]),
                          "--compositions", "1,1,1", "--seeds", "0"],
        }[command]
        assert main([command, *common, *extra]) == 0
        assert main([command, *common, *extra, "--threads", "1"]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, tmp_path):
        assert main(["scenario-init", "--preset", "paper-v", "--nope", "--out", "x"]) == 2

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert main(["info", "--scenario", str(tmp_path / "absent.json")]) == 1

    def test_scenario_that_is_not_json_text_exits_one(self, tmp_path):
        # 200 000 nested arrays overflow the JSON decoder's recursion limit
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200_000)
        src = str(Path(nfmimo.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "nfmimo.cli", "info", "--scenario", str(bad)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "scenario file is not valid JSON" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_info_requires_scenario_flag(self):
        assert main(["info"]) == 2

    @pytest.mark.parametrize(
        "command, flag",
        [("reconstruct", "--out"), ("reconstruct", "--report"), ("reconstruct", "--slices"),
         ("benchmark", "--out")],
        ids=["out", "report", "slices", "benchmark-out"],
    )
    def test_missing_output_directory_refused_before_reading(
        self, small_files, tmp_path, capsys, monkeypatch, command, flag
    ):
        def unread(*args, **kwargs):
            raise AssertionError("the measurements were read")

        monkeypatch.setattr(nfmimo.cli, "read_measurements", unread)
        argv = [command, "--scenario", str(small_files["scenario"]),
                "--measurements", str(small_files["measurements"]), "--max-iters", "2"]
        if command == "reconstruct":
            argv += ["--method", "pgm"]
            outs = {"--out": "x.nfmv", "--report": "r.json", "--slices": "sl"}
        else:
            argv += ["--compositions", "1,1,1", "--seeds", "0"]
            outs = {"--out": "x.csv"}
        outs[flag] = "nodir/x"
        for name, path in outs.items():
            argv += [name, str(tmp_path / path)]
        capsys.readouterr()
        assert main(argv) == 1
        assert str(tmp_path / "nodir/x") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("noise", [["--noise", "0.1"], ["--snr-db", "30"]], ids=["noise", "snr-db"])
    def test_simulate_refuses_a_missing_output_directory_before_simulating(
        self, small_files, tmp_path, capsys, monkeypatch, noise
    ):
        def unsimulated(*args, **kwargs):
            raise AssertionError("the measurements were simulated")

        monkeypatch.setattr(nfmimo.cli, "simulate_measurements", unsimulated)
        monkeypatch.setattr(nfmimo.cli, "forward_apply", unsimulated)
        out = tmp_path / "nodir" / "m.nfms"
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(small_files["scenario"]), "--phantom",
                     "points:2", "--seed", "11", *noise, "--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, code, named",
        [
            (["reconstruct", "--method", "spgm"], 2, "--batch"),
            (["reconstruct", "--method", "pgm", "--batch", "1,1,1"], 2, "--batch"),
            (["reconstruct", "--method", "spgm", "--batch", "0,1,1"], 1, "n_f"),
            (["reconstruct", "--method", "pgm", "--eta", "0"], 1, "eta"),
            (["reconstruct", "--method", "pgm", "--seed", "-1"], 1, "seed"),
            (["reconstruct", "--method", "pgm", "--time-budget-s", "-1"], 1, "time_budget_s"),
            (["benchmark", "--compositions", "1,0,1", "--seeds", "0"], 1, "n_tx"),
            (["benchmark", "--compositions", "1,1,1", "--seeds", "0", "--eta", "0"], 1, "eta"),
            (["benchmark", "--compositions", "1,1,1", "--seeds", "0,-1"], 1, "seed"),
            (["simulate", "--phantom", "points:1", "--snr-db", "nan"], 1, "--snr-db"),
            (["simulate", "--phantom", "points:1", "--noise", "-1"], 1, "--noise"),
            (["simulate", "--phantom", "points:1", "--seed", "-1"], 1, "--seed"),
        ],
        ids=["spgm-no-batch", "pgm-batch", "batch", "eta", "seed", "time-budget",
             "benchmark-composition", "benchmark-eta", "benchmark-seed",
             "snr-db", "noise", "simulate-seed"],
    )
    def test_flags_are_checked_before_the_first_read(
        self, tmp_path, capsys, monkeypatch, argv, code, named
    ):
        def unread(*args, **kwargs):
            raise AssertionError("the scenario was read")

        monkeypatch.setattr(nfmimo.cli, "read_scenario", unread)
        argv = [*argv, "--scenario", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")]
        if argv[0] != "simulate":
            argv += ["--measurements", str(tmp_path / "absent.nfms")]
        capsys.readouterr()
        assert main(argv) == code
        assert named in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
