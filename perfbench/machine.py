"""Machine facts recorded with every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def calib_ms(reps: int = 9) -> float:
    """Median time of a fixed numpy kernel shaped like the operator's inner
    work on ``paper-v`` rows (N = 78141): 48 elementwise complex products with
    a dot each, as in the forward, and one (16 x 9) @ (9 x N) complex product,
    as in the adjoint. Host drift shows up here."""
    rng = np.random.default_rng(0)
    n = 78141
    u, v, x = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3))
    r = rng.standard_normal((16, 9)) + 1j * rng.standard_normal((16, 9))
    rows = rng.standard_normal((9, n)) + 1j * rng.standard_normal((9, n))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(48):
            np.dot(u * x, v)
        r @ rows
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _git_commit(root: Path) -> str | None:
    """HEAD of ``root`` when ``root`` is itself the top of a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def _tree_digest(src: Path) -> str:
    """SHA-256 over the package sources, so results from a checkout that is
    not a git repository still name the code they measured."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints only
        return {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threading": blas.get("openblas configuration"),
    }


def machine_facts(root: Path, nfmimo_file: str) -> dict:
    return {
        "commit": _git_commit(root),
        "src_sha256": _tree_digest(root / "src"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "env": {name: os.environ.get(name) for name in BLAS_ENV},
        "nfmimo_file": os.path.relpath(nfmimo_file, root),
        "solver_threads": 1,
        "calib_ms": calib_ms(),
    }
