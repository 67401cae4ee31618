"""Workloads of the nfmimo benchmark and the code that runs them.

Every workload is a closed loop with one client: one solve or one CLI
command at a time, the next only after the previous returns, because a user
starts a reconstruction and waits for it.

The scene is the acceptance study's: the ``paper-v`` preset (M = 1584
channels, N = 78141 voxels), a ``points:5`` phantom drawn with seed 42, and
complex noise at 30 dB SNR. The workload seed draws the noise. The SPGM
minibatch sequence is fixed (sampling seed 1, the acceptance study's first
run): with the sampling seed drawn too, the iteration count to tolerance
spreads by about 20% across seeds, which is as wide as any bound the
benchmark may set, while the noise realisation moves it little.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nfmimo.forward as nforward
import nfmimo.geometry as ngeometry
import nfmimo.io as nio
import nfmimo.metrics as nmetrics
import nfmimo.phantoms as nphantoms
import nfmimo.solver as nsolver

import tracing

BENCH_DIR = Path(__file__).resolve().parent
PAPER = {"preset": "paper-v"}
PROBE_BATCH = (4, 4, 3)
SAMPLING_SEED = 1
SETUP_SAMPLES = 3  # cold set-ups per untraced run of a solve workload
PROCESS_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict  # {"preset": name} or {"custom": {"tx", "rx", "f_count", "dims"}}
    method: str  # "pgm" or "spgm"
    tol: float
    max_iters: int
    batch: tuple | None
    expect: str  # termination reason every solve must report
    psnr_floor_db: float  # correctness floor for PSNR against the truth
    via_cli: bool = False
    min_units: int = 1  # solves (or CLI passes) per untraced run, at least
    eta: float = 1e-3
    alpha: float = 4e-5
    phantom: str = "points:5"
    phantom_seed: int = 42
    snr_db: float = 30.0


# Tolerances are chosen so that one solve fits a run of the benchmark:
# PGM to 1e-2 takes 86 iterations (1e-3 takes 590), SPGM to 1e-3 takes 1449
# at sampling seed 1. PSNR floors sit about 1.3 dB under the values measured at
# seeds 21-30 (32.8, 35.4 and 32.8 dB).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pgm-paper", PAPER, "pgm", tol=1e-2, max_iters=1000, batch=None,
                 expect="tolerance_reached", psnr_floor_db=31.5),
        Workload("spgm-paper", PAPER, "spgm", tol=1e-3, max_iters=4000, batch=(4, 4, 3),
                 expect="tolerance_reached", psnr_floor_db=34.0),
        Workload("cli-cold", PAPER, "spgm", tol=1e-3, max_iters=100, batch=(4, 4, 3),
                 expect="max_iters", psnr_floor_db=31.5, via_cli=True, min_units=4),
    )
}


def workload_from_json(text: str) -> Workload:
    doc = json.loads(text)
    if doc.get("batch") is not None:
        doc["batch"] = tuple(doc["batch"])
    return Workload(**doc)


def workload_to_json(w: Workload) -> str:
    return json.dumps(dataclasses.asdict(w))


# --- inputs ----------------------------------------------------------------


def build_scenario(scene: dict):
    """The workload's scenario, built the way ``scenario-init`` builds it."""
    if "preset" in scene:
        return ngeometry.preset_scenario(scene["preset"])
    c = scene["custom"]
    return ngeometry.ImagingScenario(
        array=ngeometry.make_spiral_array(c["tx"], c["rx"], 0.25, rng_seed=7),
        frequencies=ngeometry.FrequencyGrid(4e9, 16e9, c["f_count"]),
        voxels=ngeometry.VoxelGrid(
            center=ngeometry.Vec3(0.0, 0.0, 0.5), extent=(0.3, 0.3, 0.1), dims=tuple(c["dims"])
        ),
        pulse=ngeometry.ConstantPulse(1.0 + 0.0j),
    )


def scenario_init_args(scene: dict) -> list[str]:
    if "preset" in scene:
        return ["--preset", scene["preset"]]
    c = scene["custom"]
    return ["--custom", "--tx", str(c["tx"]), "--rx", str(c["rx"]),
            "--f-count", str(c["f_count"]), "--dims", ",".join(map(str, c["dims"]))]


def snr_sigma(clean: np.ndarray, snr_db: float) -> float:
    """Noise sigma giving ``snr_db`` against the mean clean channel power."""
    return float(np.sqrt(np.mean(np.abs(clean) ** 2) * 10 ** (-snr_db / 10)))


def sparse_clean_power_sigma(scenario, truth, snr_db: float) -> float:
    """``snr_sigma`` of the clean measurements of a sparse phantom, from the
    operator entries of its nonzero voxels alone (no phasor tables)."""
    nz = np.flatnonzero(truth.values)
    cols = np.array(
        [[nforward.matrix_element(m, int(n), scenario) for n in nz] for m in range(scenario.n_channels)]
    )
    return snr_sigma(cols @ truth.values[nz], snr_db)


def probe_composition(scenario):
    """The minibatch the layer probe times: (4,4,3), clipped to the axes."""
    f, t, r = PROBE_BATCH
    return nsolver.MinibatchComposition(
        min(f, scenario.frequencies.count), min(t, scenario.array.n_tx), min(r, scenario.array.n_rx)
    )


@dataclass
class Inputs:
    scenario: object
    truth: object
    scenario_path: Path
    measurements_path: Path


def setup(w: Workload, seed: int, workdir: Path) -> tuple[Inputs, float]:
    """Scenario, phantom and noisy measurements, written to disk as a user
    would keep them. In a fresh process the first forward builds the plan,
    so the returned seconds include the cold plan build."""
    t0 = time.perf_counter()
    scenario = build_scenario(w.scene)
    truth = nphantoms.make_phantom(w.phantom, scenario.voxels, rng_seed=w.phantom_seed)
    clean = nforward.forward_apply(truth, scenario)
    y = nforward.simulate_measurements(
        truth, scenario, noise_sigma=snr_sigma(clean, w.snr_db), rng_seed=seed
    )
    scenario_path, measurements_path = workdir / "scenario.json", workdir / "meas.nfms"
    nio.write_scenario(scenario, scenario_path)
    nio.write_measurements(y, measurements_path)
    seconds = time.perf_counter() - t0
    return Inputs(scenario, truth, scenario_path, measurements_path), seconds


# --- outcome bookkeeping ---------------------------------------------------


@dataclass
class Outcome:
    """Operations attempted and failed; a failed operation keeps its reasons."""

    attempted: int = 0
    failed_ops: list[str] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def record(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed_ops.append(op)
            self.reasons.extend(f"{op}: {p}" for p in problems)
        return not problems


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# --- solve workloads -------------------------------------------------------


def solve_unit(w: Workload, inputs: Inputs, workdir: Path, tracer=None) -> tuple[list[str], dict]:
    """Read the inputs back, solve on a warm plan, write the volume, read it
    back and score it. Returns (problems, measurements)."""
    # warm plan: the timed solve must not pay for the plan build
    nforward.forward_apply(inputs.truth, inputs.scenario)
    nforward.adjoint_apply(np.ones(inputs.scenario.n_channels, dtype=np.complex128), inputs.scenario)

    problems: list[str] = []
    out_path = workdir / "recon.nfmv"
    ticks: list[float] = []
    with tracing.instrument(tracer, tracing.LIBRARY_TARGETS):
        t0 = time.perf_counter()
        scenario = nio.read_scenario(inputs.scenario_path)
        y = nio.read_measurements(inputs.measurements_path, scenario=scenario)
        if y.fingerprint != ngeometry.scenario_fingerprint(scenario):
            problems.append("measurement fingerprint does not match the scenario")
        config = nsolver.SolverConfig(
            eta=w.eta, alpha=w.alpha, tol=w.tol, max_iters=w.max_iters, rng_seed=SAMPLING_SEED,
            composition=nsolver.MinibatchComposition(*w.batch) if w.batch else None,
        )
        solve = nsolver.spgm_solve if w.method == "spgm" else nsolver.pgm_solve
        t1 = time.perf_counter()
        report = solve(y.values, scenario, config, progress=lambda k, s: ticks.append(time.perf_counter()))
        t2 = time.perf_counter()
        nio.write_volume(report.volume, out_path)
        volume = nio.read_volume(out_path, grid=scenario.voxels)
        psnr = nmetrics.psnr_vs_reference(volume, inputs.truth).psnr_db
        t3 = time.perf_counter()

    if report.termination != w.expect:
        problems.append(f"termination {report.termination}, expected {w.expect}")
    if not np.all(np.isfinite(volume.values)):
        problems.append("volume is not finite")
    if not np.array_equal(volume.values, report.volume.values):
        problems.append("volume read back differs from the solve result")
    if not psnr >= w.psnr_floor_db:
        problems.append(f"psnr {psnr:.3f} dB below the floor {w.psnr_floor_db} dB")
    iter_ms = 1e3 * np.diff([t1] + ticks)
    return problems, {
        "time_to_tol_s": t2 - t1,
        "pipeline_s": t3 - t0,
        "iter_ms": iter_ms.tolist(),
        "psnr_truth_db": psnr,
        "iterations": report.iterations,
    }


# --- subprocesses ----------------------------------------------------------


@dataclass
class Proc:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float


def child_env(root: Path, **extra: str) -> dict:
    """Environment for child processes: the checkout's ``src`` (and the
    benchmark directory) first on the path, so no other nfmimo is imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH_DIR)])
    env.update(extra)
    return env


def run_process(argv: list[str], env: dict, cwd: Path, log_stem: Path,
                timeout_s: float = PROCESS_TIMEOUT_S) -> Proc:
    """Run a child to completion and reap it with its own resource usage.
    A child still running after ``timeout_s`` is killed."""
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        returncode=proc.returncode,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


def setup_in_child(w: Workload, seed: int, root: Path, workdir: Path, tag: str) -> float:
    """One cold set-up in a fresh process; returns its seconds."""
    child_dir = workdir / tag
    child_dir.mkdir()
    proc = run_process(
        [sys.executable, str(BENCH_DIR / "probe.py"), "setup", "--workload", workload_to_json(w),
         "--seed", str(seed), "--workdir", str(child_dir)],
        child_env(root), root, workdir / tag,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def import_probe(root: Path, workdir: Path, reps: int) -> tuple[list[str], list[float]]:
    """Fresh-process import time of ``nfmimo.cli``; also checks that the
    child imports the checkout's package. Returns (problems, seconds)."""
    code = (
        "import time; t = time.perf_counter(); import nfmimo.cli, nfmimo; "
        "print(time.perf_counter() - t); print(nfmimo.__file__)"
    )
    problems, times = [], []
    for i in range(reps):
        proc = run_process([sys.executable, "-c", code], child_env(root), root, workdir / f"import{i}")
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2:
            problems.append(f"import probe exited {proc.returncode}")
            continue
        if Path(lines[1]).resolve() != (root / "src" / "nfmimo" / "__init__.py").resolve():
            problems.append(f"child imported nfmimo from {lines[1]}")
        times.append(float(lines[0]))
    return problems, times


# --- layer probe -----------------------------------------------------------


def layer_probe(tracer, scenario, variant: str, threads: int, paths, reps_full: int = 3,
                reps_sub: int = 10) -> None:
    """Time direct operator calls under a ``probe`` span, one span per call.
    The plan must already be built in this process."""
    rng = np.random.default_rng(0)
    m, n = scenario.n_channels, scenario.n_voxels
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sub = nsolver.sample_minibatch(probe_composition(scenario), scenario, rng).indices
    with tracer.span("probe", variant=variant, threads=threads):
        for path in paths:
            full = path.startswith("full")
            idx = None if full else sub
            r = rng.standard_normal(m if full else sub.size) + 0j
            attrs = {"variant": variant, "channels": m if full else int(sub.size),
                     "table_bytes": tracing.table_bytes(scenario, idx)}
            for _ in range(reps_full if full else reps_sub):
                with tracer.span(f"forward.{path}", **attrs):
                    if path.endswith("fwd"):
                        nforward.forward_apply(x, scenario, subset=idx, threads=threads)
                    else:
                        nforward.adjoint_apply(r, scenario, subset=idx, threads=threads)


ALL_PATHS = ("full.fwd", "full.adj", "sub.fwd", "sub.adj")
THREAD_PATHS = ("full.fwd", "full.adj", "sub.adj")


def thread_probes(tracer, scenario) -> None:
    """Default settings for every operator path, and ``threads=2``."""
    layer_probe(tracer, scenario, "default", 1, ALL_PATHS)
    layer_probe(tracer, scenario, "t2", 2, THREAD_PATHS)


def blas1_probe(tracer, w: Workload, root: Path, workdir: Path) -> list[str]:
    """The thread probe with OPENBLAS_NUM_THREADS=1, which must be set before
    numpy loads, so it runs in a fresh process. Returns problems."""
    spans_path = workdir / "blas1.spans.jsonl"
    proc = run_process(
        [sys.executable, str(BENCH_DIR / "probe.py"), "blas1", "--scene", json.dumps(w.scene),
         "--spans", str(spans_path), "--run-id", tracer.run_id, "--parent", tracer.current or ""],
        child_env(root, OPENBLAS_NUM_THREADS="1"), root, workdir / "blas1",
    )
    if proc.returncode != 0:
        return [f"blas1 probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    tracer.spans.extend(tracing.read_spans(spans_path))
    return []


# --- CLI workload ------------------------------------------------------------


def cli_argv(root: Path, args: list[str], traced: dict | None) -> list[str]:
    if traced is None:
        return [sys.executable, "-m", "nfmimo.cli", *args]
    return [sys.executable, str(BENCH_DIR / "cli_traced.py"), "--spans", traced["spans"],
            "--run-id", traced["run_id"], "--parent", traced["parent"], "--", *args]


def default_runner(root: Path):
    def run(command: str, argv: list[str], log_stem: Path) -> Proc:
        return run_process(argv, child_env(root), root, log_stem)

    return run


_PSNR_LINE = re.compile(r"psnr_db=(\S+)")


def cli_pass(w: Workload, seed: int, root: Path, workdir: Path, phantom_path: Path, sigma: float,
             outcome: Outcome, runner, tracer=None) -> dict | None:
    """scenario-init -> simulate -> reconstruct -> psnr, four fresh
    processes. Returns per-pass measurements, or None if any command failed."""
    d = workdir
    sc, meas, recon, report = d / "scenario.json", d / "meas.nfms", d / "recon.nfmv", d / "report.json"
    truth = meas.with_name(meas.stem + "_truth.nfmv")
    for path in (sc, meas, recon, report, truth):
        path.unlink(missing_ok=True)
    batch = ",".join(map(str, w.batch))
    commands = {
        "scenario_init": ["scenario-init", *scenario_init_args(w.scene), "--out", str(sc)],
        "simulate": ["simulate", "--scenario", str(sc), "--phantom", f"file:{phantom_path}",
                     "--noise", repr(sigma), "--seed", str(seed), "--out", str(meas)],
        "reconstruct": ["reconstruct", "--scenario", str(sc), "--measurements", str(meas),
                        "--method", w.method, "--batch", batch, "--eta", repr(w.eta),
                        "--alpha", repr(w.alpha), "--tol", repr(w.tol), "--max-iters", str(w.max_iters),
                        "--seed", str(SAMPLING_SEED), "--out", str(recon), "--report", str(report)],
        "psnr": ["psnr", "--recon", str(recon), "--reference", str(truth)],
    }
    procs: dict[str, Proc] = {}
    state: dict = {}
    all_ok = True
    for command, args in commands.items():
        problems: list[str] = []
        spans_path = d / f"{command}.spans.jsonl"
        spans_path.unlink(missing_ok=True)
        try:
            with tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext():
                traced = tracer and {"spans": str(spans_path), "run_id": tracer.run_id,
                                     "parent": tracer.current}
                proc = runner(command, cli_argv(root, args, traced), d / command)
            procs[command] = proc
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            else:
                problems += _check_cli_output(command, w, state, sc, meas, truth, recon, report,
                                              phantom_path, proc)
            if spans_path.exists():
                tracer.spans.extend(tracing.read_spans(spans_path))
        except Exception as exc:  # a broken command must not end the run
            problems.append(_error(exc))
        all_ok &= outcome.record(f"cli.{command}", problems)
    if not all_ok:
        return None
    rep = state["report"]
    return {
        "setup_s": procs["scenario_init"].wall_s + procs["simulate"].wall_s,
        "pipeline_s": procs["reconstruct"].wall_s + procs["psnr"].wall_s,
        "time_to_tol_s": rep["wall_time_s"],
        "iter_ms": [1e3 * r["elapsed_seconds"] for r in rep["per_iteration"]],
        "psnr_truth_db": state["psnr"],
        "peak_rss_mb": max(p.maxrss_mb for p in procs.values()),
        "walls": {c: p.wall_s for c, p in procs.items()},
    }


def _check_cli_output(command, w, state, sc, meas, truth, recon, report, phantom_path, proc) -> list[str]:
    """Read each command's outputs back through the checksummed readers."""
    problems: list[str] = []
    if command == "scenario_init":
        state["scenario"] = nio.read_scenario(sc)
    elif command == "simulate":
        y = nio.read_measurements(meas, scenario=state["scenario"])
        if not np.all(np.isfinite(y.values)):
            problems.append("measurements are not finite")
        written = nio.read_volume(truth, grid=state["scenario"].voxels)
        if not np.array_equal(written.values, nio.read_volume(phantom_path).values):
            problems.append("truth volume differs from the phantom")
    elif command == "reconstruct":
        volume = nio.read_volume(recon, grid=state["scenario"].voxels)
        if not np.all(np.isfinite(volume.values)):
            problems.append("volume is not finite")
        rep = json.loads(report.read_text())
        if rep["termination"] != w.expect:
            problems.append(f"termination {rep['termination']}, expected {w.expect}")
        state["report"], state["volume"] = rep, volume
    elif command == "psnr":
        match = _PSNR_LINE.search(proc.stdout)
        if match is None:
            return ["no psnr_db in the output"]
        psnr = float(match.group(1))
        expected = nmetrics.psnr_vs_reference(
            state["volume"], nio.read_volume(truth, grid=state["scenario"].voxels)
        ).psnr_db
        if not math.isclose(psnr, expected, rel_tol=1e-9):
            problems.append(f"printed psnr {psnr} differs from the volumes' {expected}")
        if not psnr >= w.psnr_floor_db:
            problems.append(f"psnr {psnr:.3f} dB below the floor {w.psnr_floor_db} dB")
        state["psnr"] = psnr
    return problems


# --- runs ------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values))


def _fits(started: float, durations: list[float], seconds: float, min_units: int) -> bool:
    """Start another unit while the minimum is not met or the next unit, at
    the median length so far, still ends within ``seconds``."""
    if len(durations) < min_units:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + _median(durations) <= seconds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_solve_workload(w, seed, seconds, root, workdir, outcome) -> tuple[dict, dict]:
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        try:
            setups.append(setup_in_child(w, seed, root, workdir, f"setup{i}"))
            outcome.record("setup", [])
        except Exception as exc:
            outcome.record("setup", [_error(exc)])
    try:
        inputs, seconds_in_process = setup(w, seed, workdir)
    except Exception as exc:
        outcome.record("setup", [_error(exc)])
        return {}, {"setup_samples_s": setups}
    outcome.record("setup", [])
    setups.append(seconds_in_process)

    units, durations = [], []
    started = time.perf_counter()
    while _fits(started, durations, seconds, w.min_units):
        t0 = time.perf_counter()
        try:
            problems, unit = solve_unit(w, inputs, workdir)
        except Exception as exc:
            problems, unit = [_error(exc)], None
        if outcome.record("solve", problems):
            units.append(unit)
        durations.append(time.perf_counter() - t0)
        if unit is None:
            break
    metrics = {}
    if units:
        metrics = {
            "time_to_tol_s": _median(u["time_to_tol_s"] for u in units),
            "iter_ms.p50": _median([t for u in units for t in u["iter_ms"]]),
            "psnr_truth_db": _median(u["psnr_truth_db"] for u in units),
            "setup_s": _median(setups),
            "pipeline_s": _median(u["pipeline_s"] for u in units),
            "peak_rss_mb": _peak_rss_mb(),
        }
    detail = {
        "setup_samples_s": setups,
        "solves": [{k: v for k, v in u.items() if k != "iter_ms"} for u in units],
        "iter_samples": sum(len(u["iter_ms"]) for u in units),
    }
    return metrics, detail


def cli_inputs(w: Workload, workdir: Path) -> tuple[Path, float]:
    """The phantom file the CLI simulates from and the 30 dB noise sigma."""
    scenario = build_scenario(w.scene)
    truth = nphantoms.make_phantom(w.phantom, scenario.voxels, rng_seed=w.phantom_seed)
    phantom_path = workdir / "phantom.nfmv"
    nio.write_volume(truth, phantom_path)
    return phantom_path, sparse_clean_power_sigma(scenario, truth, w.snr_db)


def run_cli_workload(w, seed, seconds, root, workdir, outcome, runner) -> tuple[dict, dict]:
    problems, _ = import_probe(root, workdir, reps=1)
    outcome.record("cli.import", problems)
    phantom_path, sigma = cli_inputs(w, workdir)
    passes, durations = [], []
    started = time.perf_counter()
    while _fits(started, durations, seconds, w.min_units):
        t0 = time.perf_counter()
        result = cli_pass(w, seed, root, workdir, phantom_path, sigma, outcome, runner)
        durations.append(time.perf_counter() - t0)
        if result is not None:
            passes.append(result)
    metrics = {}
    if passes:
        metrics = {
            "time_to_tol_s": _median(p["time_to_tol_s"] for p in passes),
            "iter_ms.p50": _median([t for p in passes for t in p["iter_ms"]]),
            "psnr_truth_db": _median(p["psnr_truth_db"] for p in passes),
            "setup_s": _median(p["setup_s"] for p in passes),
            "pipeline_s": _median(p["pipeline_s"] for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
    detail = {
        "passes": [{k: v for k, v in p.items() if k != "iter_ms"} for p in passes],
        "iter_samples": sum(len(p["iter_ms"]) for p in passes),
        "noise_sigma": sigma,
    }
    return metrics, detail


def run_traced_solve_workload(w, seed, root, workdir, outcome, tracer) -> dict:
    """One traced set-up, one untraced and one traced solve, then the probes."""
    with tracing.instrument(tracer, tracing.LIBRARY_TARGETS):
        with tracer.span("setup"):
            inputs, _ = setup(w, seed, workdir)
    outcome.record("setup", [])
    walls = {}
    for traced in (False, True):
        try:
            problems, unit = solve_unit(w, inputs, workdir, tracer if traced else None)
            walls[traced] = unit["time_to_tol_s"]
        except Exception as exc:
            problems = [_error(exc)]
        outcome.record("solve", problems)
    thread_probes(tracer, inputs.scenario)
    outcome.record("probe.blas1", blas1_probe(tracer, w, root, workdir))
    problems, import_s = import_probe(root, workdir, reps=3)
    outcome.record("cli.import", problems)
    extra = {
        "cli.import_s": _median(import_s) if import_s else 0.0,
        "cli.scenario_init_s": 0.0, "cli.simulate_s": 0.0, "cli.reconstruct_s": 0.0, "cli.psnr_s": 0.0,
        "cli.failed": 0,
    }
    if len(walls) == 2:
        extra["trace.overhead_frac"] = walls[True] / walls[False]
    return extra


def run_traced_cli_workload(w, seed, root, workdir, outcome, tracer, runner) -> dict:
    """One untraced pass (process wall times, overhead base), one traced pass."""
    problems, import_s = import_probe(root, workdir, reps=3)
    outcome.record("cli.import", problems)
    phantom_path, sigma = cli_inputs(w, workdir)
    plain = cli_pass(w, seed, root, workdir, phantom_path, sigma, outcome, runner)
    traced = cli_pass(w, seed, root, workdir, phantom_path, sigma, outcome, runner, tracer)
    outcome.record("probe.blas1", blas1_probe(tracer, w, root, workdir))
    extra = {
        "cli.import_s": _median(import_s) if import_s else 0.0,
        "cli.failed": sum(op.startswith("cli.") for op in outcome.failed_ops),
    }
    if plain is not None:
        extra.update({f"cli.{command}_s": wall for command, wall in plain["walls"].items()})
    if plain is not None and traced is not None:
        extra["trace.overhead_frac"] = traced["time_to_tol_s"] / plain["time_to_tol_s"]
    return extra


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path, runner=None) -> dict:
    """Run one workload; returns the result line plus a ``detail`` record."""
    runner = runner or default_runner(root)
    workdir = BENCH_DIR / "out" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outcome = Outcome()
    try:
        if not trace:
            if w.via_cli:
                metrics, detail = run_cli_workload(w, seed, seconds, root, workdir, outcome, runner)
            else:
                metrics, detail = run_solve_workload(w, seed, seconds, root, workdir, outcome)
            metrics["success_frac"] = 1.0 - outcome.failed / max(outcome.attempted, 1)
        else:
            tracer = tracing.Tracer(run_id=f"{w.name}-{seed}-{os.getpid()}")
            with tracer.span("workload", workload=w.name, seed=seed):
                if w.via_cli:
                    extra = run_traced_cli_workload(w, seed, root, workdir, outcome, tracer, runner)
                else:
                    extra = run_traced_solve_workload(w, seed, root, workdir, outcome, tracer)
            metrics = layer_metrics(tracer.spans, w)
            metrics.update(extra)
            detail = {"spans": len(tracer.spans)}
            trace_path = BENCH_DIR / "out" / f"{w.name}-seed{seed}.spans.jsonl"
            tracer.write(trace_path)
            detail["trace_file"] = str(trace_path.relative_to(root))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["failures"] = outcome.reasons
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "detail": detail,
    }


def layer_metrics(spans: list[dict], w: Workload) -> dict:
    """Per-layer metrics of a traced run from its spans."""
    out = tracing.operator_metrics(spans)
    out.update(tracing.solver_metrics(spans))
    out.update(tracing.small_layer_metrics(spans))
    # 16 bytes per complex entry, one table row per (frequency, antenna)
    scenario = build_scenario(w.scene)
    rows = scenario.frequencies.count * (scenario.array.n_tx + scenario.array.n_rx)
    out["forward.plan_mb"] = 16 * rows * scenario.n_voxels / 1e6
    return out
