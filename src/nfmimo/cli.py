"""Command-line front end: simulate -> reconstruct -> evaluate -> benchmark.

Exit codes: 0 success, 1 runtime/validation failure, 2 usage error. Every
run prints a reproducibility line (version, seed, flag hash) on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .forward import forward_apply, simulate_measurements
from .geometry import (
    _PAPER_V,
    _count,
    _real,
    _spiral_scenario,
    dumps_canonical,
    preset_scenario,
    scenario_fingerprint,
)
from .io import (
    FormatError,
    export_slices_csv,
    read_measurements,
    read_scenario,
    read_volume,
    write_measurements,
    write_scenario,
    write_volume,
)
from .metrics import psnr_vs_reference, run_sweep, write_sweep_csv
from .phantoms import make_phantom
from .solver import MinibatchComposition, SolverConfig, pgm_solve, spgm_solve

__all__ = ["main", "app"]


class _UsageError(Exception):
    pass


def _list_arg(parse, n: int | None = None, sep: str = ","):
    """argparse type for ``sep``-separated values, each read by ``parse``:
    exactly ``n`` of them as a tuple or, with ``n`` None, a non-empty list
    (blank items skipped). The flag hash prints these containers, so their
    types are part of every ``config=`` value."""

    def read(text: str):
        parts = text.split(sep)
        if n is None:
            parts = [part for part in parts if part.strip()]
        if not parts or (n is not None and len(parts) != n):
            raise argparse.ArgumentTypeError(
                f"expected {n or 'one or more'} {sep!r}-separated values, got {text!r}"
            )
        try:
            values = [parse(part.strip()) for part in parts]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return tuple(values) if n else values

    return read


_INT_TRIPLE = _list_arg(int, 3)
_FLOAT_TRIPLE = _list_arg(float, 3)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    """The step and stopping flags of every solving command, with
    SolverConfig's defaults."""
    p.add_argument("--eta", type=float, default=SolverConfig.eta, help="gradient step size")
    p.add_argument("--alpha", type=float, default=SolverConfig.alpha, help="per-iteration l1 weight")
    p.add_argument("--tol", type=float, default=SolverConfig.tol, help="relative magnitude-change stop")
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfmimo",
        description="Near-field MIMO radar simulation and l1-regularized 3D reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario-init", help="write a scenario JSON document")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--preset", choices=["paper-v"], help="named preset scenario")
    mode.add_argument("--custom", action="store_true", help="build a scenario from the flags below")
    # every default but --extent's is paper-v's value; absent, --extent is
    # paper-v's scene collapsed on single-voxel axes
    p.add_argument("--tx", type=int, default=_PAPER_V["tx"], help="transmitter count (custom)")
    p.add_argument("--rx", type=int, default=_PAPER_V["rx"], help="receiver count (custom)")
    p.add_argument("--radius", type=float, default=_PAPER_V["radius"], help="spiral array radius, m (custom)")
    p.add_argument("--array-seed", type=int, default=_PAPER_V["array_seed"], help="spiral layout seed (custom)")
    p.add_argument("--f-start", type=float, default=_PAPER_V["f_start"], help="sweep start, Hz (custom)")
    p.add_argument("--f-stop", type=float, default=_PAPER_V["f_stop"], help="sweep stop, Hz (custom)")
    p.add_argument("--f-count", type=int, default=_PAPER_V["f_count"], help="frequency count (custom)")
    p.add_argument("--center", type=_FLOAT_TRIPLE, default=_PAPER_V["center"], help="scene center x,y,z m (custom)")
    p.add_argument("--extent", type=_FLOAT_TRIPLE, default=None, help="scene extent Lx,Ly,Lz m (custom)")
    p.add_argument("--dims", type=_INT_TRIPLE, default=_PAPER_V["dims"], help="voxel counts nx,ny,nz (custom)")
    p.add_argument("--out", required=True, help="output scenario JSON path")
    p.set_defaults(handler=_cmd_scenario_init)

    p = sub.add_parser("info", help="print scenario dimensions")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("simulate", help="simulate measurements for a synthetic phantom")
    p.add_argument("--scenario", required=True)
    p.add_argument("--phantom", required=True, help="points:k | bar | cross | file:path")
    noise = p.add_mutually_exclusive_group()
    noise.add_argument("--noise", type=float, default=0.0, help="complex noise std per channel")
    # absent unless given, so a --noise run keeps its flag hash
    noise.add_argument("--snr-db", type=float, default=argparse.SUPPRESS,
                       help="set the noise std from this measurement SNR, dB")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output measurement file")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="solve for the reflectivity volume")
    p.add_argument("--scenario", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument("--method", choices=["pgm", "spgm"], required=True)
    p.add_argument("--batch", type=_INT_TRIPLE, default=None, help="minibatch f,tx,rx (spgm)")
    _add_solver_flags(p)
    p.add_argument("--time-budget-s", type=float, default=SolverConfig.time_budget_s)
    p.add_argument("--seed", type=int, default=SolverConfig.rng_seed)
    p.add_argument("--allow-fingerprint-mismatch", action="store_true")
    p.add_argument("--out", required=True, help="output volume file")
    p.add_argument("--report", default=None, help="optional JSON solve report path")
    p.add_argument("--slices", default=None, help="optional CSV slice export prefix")
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("psnr", help="PSNR between two volume files")
    p.add_argument("--recon", required=True)
    p.add_argument("--reference", required=True)
    p.set_defaults(handler=_cmd_psnr)

    p = sub.add_parser("benchmark", help="minibatch-composition sweep")
    p.add_argument("--scenario", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument("--compositions", type=_list_arg(_INT_TRIPLE, sep=";"), required=True,
                   help="semicolon-separated f,tx,rx triples, e.g. '4,4,3;11,16,9'")
    p.add_argument("--seeds", type=_list_arg(int), required=True, help="comma-separated seeds")
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_benchmark)

    return parser


def _flag_hash(args: argparse.Namespace) -> str:
    doc = {
        k: v if (v is None or isinstance(v, (bool, int, float, str))) else str(v)
        for k, v in vars(args).items()
        if k != "handler"
    }
    return hashlib.sha256(dumps_canonical(doc).encode()).hexdigest()[:12]


def _print_repro_line(args: argparse.Namespace) -> None:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = getattr(args, "seeds", None)
    if isinstance(seed, list):
        seed = ",".join(str(s) for s in seed)
    print(
        f"# nfmimo {__version__} command={args.command} seed={seed} config={_flag_hash(args)}",
        file=sys.stderr,
    )


def _cmd_scenario_init(args) -> int:
    if args.preset:
        scenario = preset_scenario(args.preset)
    else:
        scenario = _spiral_scenario(**{key: getattr(args, key) for key in _PAPER_V})
    write_scenario(scenario, args.out)
    print(
        f"wrote {args.out}: M={scenario.n_channels} N={scenario.n_voxels} "
        f"fingerprint={scenario_fingerprint(scenario).hex()[:16]}"
    )
    return 0


def _cmd_info(args) -> int:
    scenario = read_scenario(args.scenario)
    fg = scenario.frequencies
    print(f"channels M={scenario.n_channels}")
    print(f"voxels N={scenario.n_voxels}")
    print(f"transmitters={scenario.array.n_tx} receivers={scenario.array.n_rx}")
    print(f"frequencies={fg.count} from {fg.f_start:g} Hz to {fg.f_stop:g} Hz (spacing {fg.spacing:g} Hz)")
    print(f"grid dims={scenario.voxels.dims} extent={scenario.voxels.extent} m "
          f"spacing={tuple(round(s, 12) for s in scenario.voxels.spacing)} m")
    print(f"scene center=({scenario.voxels.center.x:g}, {scenario.voxels.center.y:g}, "
          f"{scenario.voxels.center.z:g}) m")
    print(f"fingerprint={scenario_fingerprint(scenario).hex()}")
    return 0


def _truth_path(out: str) -> Path:
    p = Path(out)
    return p.with_name(p.stem + "_truth.nfmv")


def _noise_to_signal(snr_db: float) -> float:
    """The noise-to-signal power ratio of a measurement SNR of ``snr_db`` dB."""
    try:
        ratio = 10 ** (-snr_db / 10)
    except OverflowError:
        ratio = math.inf
    if not (math.isfinite(ratio) and ratio > 0):
        raise ValueError(f"--snr-db {snr_db} gives no finite, nonzero noise power")
    return ratio


def _snr_sigma(clean: np.ndarray, noise_to_signal: float) -> float:
    """The noise std that puts the clean measurements ``clean`` at the given
    noise-to-signal power ratio."""
    power = float(np.mean(np.abs(clean) ** 2))
    if power == 0.0:
        raise ValueError("--snr-db is undefined: the phantom's clean measurements are all zero")
    return float(np.sqrt(power * noise_to_signal))


def _cmd_simulate(args) -> int:
    _check_out_dirs(args.out)  # the truth volume goes next to --out
    # every flag is checked before the first read
    _count("--seed", args.seed, minimum=0)
    _real("--noise", args.noise, at_least=0)
    ratio = _noise_to_signal(args.snr_db) if hasattr(args, "snr_db") else None
    scenario = read_scenario(args.scenario)
    phantom = make_phantom(args.phantom, scenario.voxels, rng_seed=args.seed)
    # --snr-db takes the signal power from a clean forward of its own
    sigma = args.noise if ratio is None else _snr_sigma(forward_apply(phantom, scenario), ratio)
    measurements = simulate_measurements(phantom, scenario, noise_sigma=sigma, rng_seed=args.seed)
    write_measurements(measurements, args.out)
    truth = _truth_path(args.out)
    write_volume(phantom, truth)
    print(f"wrote {args.out} ({measurements.values.size} channels, noise sigma {sigma:g})")
    print(f"wrote {truth} (ground truth)")
    return 0


def _check_out_dirs(*paths) -> None:
    """Refuse, before any work, an output path whose directory is missing."""
    for path in paths:
        # dirname, not Path.parent: a slice prefix "d/" writes into d
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"the directory of output path {path} does not exist")


# the flags a solve report starts with, in its key order. Each report key
# is its flag's argparse dest by design: renaming a flag renames its key,
# and a new flag enters the report only when it is added here.
_REPORT_FLAGS = ("method", "eta", "alpha", "tol", "max_iters", "seed", "batch", "time_budget_s")


def _cmd_reconstruct(args) -> int:
    _check_out_dirs(args.out, args.report, args.slices)
    # every flag is checked before the first read
    if args.method == "spgm" and args.batch is None:
        raise _UsageError("--method spgm requires --batch f,tx,rx")
    if args.method == "pgm" and args.batch is not None:
        raise _UsageError("--batch only applies to --method spgm")
    composition = MinibatchComposition(*args.batch) if args.batch else None
    config = SolverConfig(
        eta=args.eta,
        alpha=args.alpha,
        max_iters=args.max_iters,
        tol=args.tol,
        rng_seed=args.seed,
        composition=composition,
        time_budget_s=args.time_budget_s,
    )
    scenario = read_scenario(args.scenario)
    measurements = read_measurements(
        args.measurements, scenario=None if args.allow_fingerprint_mismatch else scenario
    )
    solve = pgm_solve if composition is None else spgm_solve
    report = solve(measurements.values, scenario, config)  # fingerprint enforced at load
    write_volume(report.volume, args.out)
    if args.report:
        doc = {name: getattr(args, name) for name in _REPORT_FLAGS}  # a tuple writes as a list
        doc.update((f.name, getattr(report, f.name)) for f in fields(report) if f.name != "volume")
        Path(args.report).write_text(json.dumps(doc, indent=2, default=asdict) + "\n")
    if args.slices:
        export_slices_csv(report.volume, args.slices)
    print(
        f"wrote {args.out}: iterations={report.iterations} "
        f"termination={report.termination} wall_time_s={report.wall_time_s:.3f}"
    )
    return 0


def _cmd_psnr(args) -> int:
    recon = read_volume(args.recon)
    reference = read_volume(args.reference)
    result = psnr_vs_reference(recon, reference)
    print(f"psnr_db={result.psnr_db:.12g} rmse={result.rmse:.12g}")
    return 0


def _cmd_benchmark(args) -> int:
    _check_out_dirs(args.out)
    # every flag is checked before the first read
    compositions = [MinibatchComposition(*c) for c in args.compositions]
    base = SolverConfig(eta=args.eta, alpha=args.alpha, tol=args.tol, max_iters=args.max_iters)
    for seed in args.seeds:
        replace(base, rng_seed=seed)
    scenario = read_scenario(args.scenario)
    measurements = read_measurements(args.measurements, scenario=scenario)
    records = run_sweep(measurements.values, scenario, base, compositions, args.seeds)
    write_sweep_csv(records, args.out)
    print(f"{'composition':>14} {'B':>6} {'seed':>6} {'iters':>6} {'runtime_s':>10} {'psnr_db':>9}")
    for rec in records:
        comp = f"({rec.composition.n_f},{rec.composition.n_tx},{rec.composition.n_rx})"
        print(
            f"{comp:>14} {rec.composition.batch_size:>6} {rec.seed:>6} {rec.iterations:>6} "
            f"{rec.runtime_s:>10.3f} {rec.psnr_db:>9.12g}"
        )
    print(f"wrote {args.out} ({len(records)} records)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _print_repro_line(args)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ValueError, IndexError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
