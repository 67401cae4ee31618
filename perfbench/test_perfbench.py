"""Fast tests of the benchmark itself, on a tiny custom scenario.

  python -m pytest perfbench

Each workload keeps its shape (method, termination rule, CLI or library)
but runs on 4 Tx x 3 Rx x 3 frequencies and 9x9x3 voxels.
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import harness  # noqa: E402
import run  # noqa: E402

TINY = {"custom": {"tx": 4, "rx": 3, "f_count": 3, "dims": [9, 9, 3]}}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> harness.Workload:
    w = harness.WORKLOADS[name]
    return dataclasses.replace(
        w, scene=TINY, psnr_floor_db=10.0, batch=(2, 2, 2) if w.batch else None,
        min_units=2 if w.via_cli else 1,
    )


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(harness, "WORKLOADS", {name: tiny(name) for name in harness.WORKLOADS})
    monkeypatch.chdir(ROOT)


def _run_cli(argv) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(argv) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "time_to_tol_s", "iter_ms.p50", "psnr_truth_db", "setup_s", "pipeline_s",
        "peak_rss_mb", "success_frac",
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tiny_workloads, workload, trace):
    result = _run_cli(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace and workload == "cli-cold":
        # one plan per process that applies the operator: simulate, reconstruct
        assert result["metrics"]["forward.plan_builds"]["value"] == 2


def test_custom_scene_matches_scenario_init(tmp_path):
    out = tmp_path / "scenario.json"
    proc = subprocess.run(
        [sys.executable, "-m", "nfmimo.cli", "scenario-init", *harness.scenario_init_args(TINY),
         "--out", str(out)],
        env=harness.child_env(ROOT), cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert harness.nio.read_scenario(out) == harness.build_scenario(TINY)


def test_corrupt_file_and_failed_exit_are_counted(tiny_workloads):
    w = dataclasses.replace(tiny("cli-cold"), min_units=3)
    default = harness.default_runner(ROOT)
    calls = {"simulate": 0, "psnr": 0}

    def faulty(command, argv, log_stem):
        if command in calls:
            calls[command] += 1
        if command == "psnr" and calls["psnr"] == 2:
            argv = [sys.executable, "-c", "import sys; sys.exit(3)"]
        proc = default(command, argv, log_stem)
        if command == "simulate" and calls["simulate"] == 1:
            meas = Path(argv[argv.index("--out") + 1])
            data = bytearray(meas.read_bytes())
            data[40] ^= 0xFF
            meas.write_bytes(bytes(data))
        return proc

    result = harness.run(w, 3, 0.1, False, ROOT, runner=faulty)
    failed_ops = [r.split(":")[0] for r in result["detail"]["failures"]]
    # pass 1: the corrupt file fails simulate's read-back, then reconstruct
    # and psnr exit 1; pass 2: psnr exits 3; pass 3 is clean
    assert calls["simulate"] >= 3
    assert failed_ops.count("cli.simulate") == 1
    assert failed_ops.count("cli.reconstruct") == 1
    assert failed_ops.count("cli.psnr") == 2
    assert result["failed"] == 4 and result["correct"] is False
    assert result["metrics"]["success_frac"] == pytest.approx(1 - 4 / result["attempted"])
    assert result["metrics"]["pipeline_s"] > 0


def test_traced_phases_add_up_to_the_solve_span(tiny_workloads):
    m = harness.run(tiny("spgm-paper"), 3, 0.1, True, ROOT)["metrics"]
    phases = [m[f"solver.{p}_s"] for p in ("forward", "adjoint", "prox", "check", "sample")]
    assert all(p > 0 for p in phases)
    assert sum(phases) + m["solver.self_s"] == pytest.approx(m["solver.solve_s"], rel=1e-9)
    # the solver's own code (axpy, bookkeeping) is the small remainder
    assert 0 <= m["solver.self_s"] < 0.5 * m["solver.solve_s"]
    assert m["solver.iterations"] == m["forward.adj_calls"]
    assert 0.8 < m["trace.overhead_frac"] < 3.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pgm-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
