"""Spans recorded from outside the nfmimo package.

A span is one timed call at a layer boundary: run id, span id, parent span
id, name, start and end (seconds on the wall clock, read through
``perf_counter`` so durations keep its resolution) and a few attributes.
Spans stay in memory until the run ends. Child processes write theirs to a
JSON file that the parent merges.

``instrument`` swaps module attributes (the names a module looks up at call
time, such as ``nfmimo.solver.forward_apply``) for timing wrappers and puts
the originals back afterwards; the package itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import statistics
import time

import numpy as np


class Tracer:
    """In-memory span recorder for one process of one benchmark run."""

    def __init__(self, run_id: str, parent: str | None = None):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack = [parent]
        self._ids = itertools.count()
        self._prefix = f"{os.getpid()}-"
        self._wall0 = time.time()
        self._pc0 = time.perf_counter()
        self._forward_seen = False

    def now(self) -> float:
        return self._wall0 + (time.perf_counter() - self._pc0)

    @property
    def current(self) -> str | None:
        return self._stack[-1]

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block; ``attrs`` may be updated inside it."""
        sid = self._prefix + str(next(self._ids))
        rec = {"run": self.run_id, "id": sid, "parent": self._stack[-1], "name": name}
        self._stack.append(sid)
        start = self.now()
        try:
            yield attrs
        finally:
            end = self.now()
            self._stack.pop()
            rec.update(start=start, end=end, **attrs)
            self.spans.append(rec)

    def first_forward(self) -> bool:
        """True exactly once per process: the call that builds the plan."""
        first = not self._forward_seen
        self._forward_seen = True
        return first

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# --- wrappers ------------------------------------------------------------


def table_bytes(scenario, idx) -> int:
    """Phasor-table bytes a channel set touches (computed, not measured):
    16 bytes per voxel for every distinct (frequency, transmitter) row and
    every distinct (frequency, receiver) row."""
    n_tx, n_rx = scenario.array.n_tx, scenario.array.n_rx
    if idx is None:
        rows = scenario.frequencies.count * (n_tx + n_rx)
    else:
        idx = np.asarray(getattr(idx, "indices", idx))
        fi = idx // (n_tx * n_rx)
        rows = np.unique(fi * n_tx + (idx // n_rx) % n_tx).size
        rows += np.unique(fi * n_rx + idx % n_rx).size
    return 16 * scenario.n_voxels * int(rows)


def _operator_wrapper(tracer: Tracer, fn, kind: str):
    @functools.wraps(fn)
    def wrapper(x, scenario, subset=None, threads=1):
        n = scenario.n_channels if subset is None else int(np.size(getattr(subset, "indices", subset)))
        path = "full" if n == scenario.n_channels else "sub"
        attrs = {"channels": n, "table_bytes": table_bytes(scenario, subset)}
        if kind == "fwd" and tracer.first_forward():
            attrs["first_in_process"] = True
        with tracer.span(f"forward.{path}.{kind}", **attrs):
            return fn(x, scenario, subset=subset, threads=threads)

    return wrapper


def _check_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(s_prev, s_next):
        nnz = np.count_nonzero(s_next) / max(np.size(s_next), 1)
        with tracer.span("solver.check", nnz_frac=float(nnz)):
            return fn(s_prev, s_next)

    return wrapper


def _io_write_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(obj, path, *args, **kwargs):
        with tracer.span(name) as attrs:
            out = fn(obj, path, *args, **kwargs)
            attrs["bytes"] = os.path.getsize(path)
            return out

    return wrapper


def _plain_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _make_wrapper(tracer: Tracer, fn, name: str):
    if name in ("forward.fwd", "forward.adj"):
        return _operator_wrapper(tracer, fn, name.rsplit(".", 1)[1])
    if name == "solver.check":
        return _check_wrapper(tracer, fn)
    if name.startswith("io.write_"):
        return _io_write_wrapper(tracer, fn, name)
    return _plain_wrapper(tracer, fn, name)


# Layer functions the benchmark times, as (module, attribute, span name).
# "forward.fwd"/"forward.adj" spans are renamed by channel count to
# forward.full.* or forward.sub.*.
SOLVER_TARGETS = [
    ("nfmimo.solver", "forward_apply", "forward.fwd"),
    ("nfmimo.solver", "adjoint_apply", "forward.adj"),
    ("nfmimo.solver", "soft_threshold", "solver.prox"),
    ("nfmimo.solver", "relative_magnitude_change", "solver.check"),
    ("nfmimo.solver", "sample_minibatch", "solver.sample"),
]
LIBRARY_TARGETS = SOLVER_TARGETS + [
    ("nfmimo.forward", "forward_apply", "forward.fwd"),
    ("nfmimo.forward", "simulate_measurements", "forward.simulate"),
    ("nfmimo.geometry", "preset_scenario", "geometry.preset"),
    ("nfmimo.geometry", "scenario_fingerprint", "geometry.fingerprint"),
    ("nfmimo.phantoms", "make_phantom", "phantoms.make"),
    ("nfmimo.io", "read_scenario", "io.read_scenario"),
    ("nfmimo.io", "write_scenario", "io.write_scenario"),
    ("nfmimo.io", "read_measurements", "io.read_measurements"),
    ("nfmimo.io", "write_measurements", "io.write_measurements"),
    ("nfmimo.io", "read_volume", "io.read_volume"),
    ("nfmimo.io", "write_volume", "io.write_volume"),
    ("nfmimo.metrics", "psnr_vs_reference", "metrics.psnr"),
    ("nfmimo.solver", "pgm_solve", "solver.solve"),
    ("nfmimo.solver", "spgm_solve", "solver.solve"),
]
CLI_TARGETS = LIBRARY_TARGETS + [
    ("nfmimo.cli", attr, name)
    for _, attr, name in LIBRARY_TARGETS
    if not name.startswith(("forward.", "solver.prox", "solver.check", "solver.sample"))
] + [("nfmimo.cli", "simulate_measurements", "forward.simulate")]


@contextlib.contextmanager
def instrument(tracer: Tracer | None, targets):
    """Replace each target attribute by a span-recording wrapper while the
    block runs; with no tracer, leave everything untouched."""
    if tracer is None:
        yield
        return
    saved = []
    try:
        for mod_name, attr, name in targets:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _make_wrapper(tracer, fn, name))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# --- per-layer metrics ---------------------------------------------------


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def _duration(rec) -> float:
    return rec["end"] - rec["start"]


def _process(rec) -> str:
    return rec["id"].split("-", 1)[0]


def _under(spans: list[dict], root_ids: set[str]) -> list[dict]:
    """Spans that descend from any of ``root_ids``."""
    children: dict[str | None, list[dict]] = {}
    for rec in spans:
        children.setdefault(rec["parent"], []).append(rec)
    out, todo = [], list(root_ids)
    while todo:
        for rec in children.get(todo.pop(), []):
            out.append(rec)
            todo.append(rec["id"])
    return out


def operator_metrics(spans: list[dict]) -> dict:
    """forward.* per-layer metrics.

    Operator spans recorded while the workload ran take precedence over the
    layer probe's default-variant spans, which fill in paths the workload
    never takes (the full path in SPGM, the minibatch path in PGM).
    """
    probe_ids = {r["id"] for r in spans if r["name"] == "probe"}
    probed = {r["id"] for r in _under(spans, probe_ids)}
    ops = [r for r in spans if r["name"].startswith(("forward.full.", "forward.sub."))]
    workload_ops = [r for r in ops if r["id"] not in probed]
    out: dict[str, float] = {}

    # plan build: the first forward of a process minus a warm call on the
    # same channel count, at default settings, in the same process
    builds = []
    for rec in workload_ops:
        if rec.get("first_in_process"):
            warm = [
                _duration(r)
                for r in ops
                if r["name"] == rec["name"]
                and r["channels"] == rec["channels"]
                and _process(r) == _process(rec)
                and r.get("variant", "default") == "default"
                and not r.get("first_in_process")
            ]
            if warm:
                builds.append(_duration(rec) - _median(warm))
    out["forward.plan_build_s"] = _median(builds)
    out["forward.plan_builds"] = len(builds)

    for path in ("full", "sub"):
        for kind in ("fwd", "adj"):
            name = f"forward.{path}.{kind}"
            own = [r for r in workload_ops if r["name"] == name and not r.get("first_in_process")]
            recs = own or [
                r for r in ops if r["id"] in probed and r["name"] == name and r.get("variant") == "default"
            ]
            out[f"{name}_ms"] = 1e3 * _median(_duration(r) for r in recs)
            out[f"{name}_table_gbs"] = _median(r["table_bytes"] / _duration(r) / 1e9 for r in recs)
            for variant in ("t2", "blas1"):
                recs = [r for r in ops if r["name"] == name and r.get("variant") == variant]
                if recs:
                    out[f"{name}_ms.{variant}"] = 1e3 * _median(_duration(r) for r in recs)
    out["forward.fwd_calls"] = sum(r["name"].endswith(".fwd") for r in workload_ops)
    out["forward.adj_calls"] = sum(r["name"].endswith(".adj") for r in workload_ops)
    return out


def solver_metrics(spans: list[dict]) -> dict:
    """solver.* per-layer metrics of the first traced solve."""
    solves = [r for r in spans if r["name"] == "solver.solve"]
    if not solves:
        return {}
    solve = min(solves, key=lambda r: r["start"])
    children = [r for r in spans if r["parent"] == solve["id"]]
    phase = {
        "forward": ("forward.full.fwd", "forward.sub.fwd"),
        "adjoint": ("forward.full.adj", "forward.sub.adj"),
        "prox": ("solver.prox",),
        "check": ("solver.check",),
        "sample": ("solver.sample",),
    }
    out: dict[str, float] = {}
    for key, names in phase.items():
        out[f"solver.{key}_s"] = sum(_duration(r) for r in children if r["name"] in names)
    out["solver.self_s"] = _duration(solve) - sum(_duration(r) for r in children)
    checks = sorted((r for r in children if r["name"] == "solver.check"), key=lambda r: r["end"])
    prox = [r for r in children if r["name"] == "solver.prox"]
    out["solver.iterations"] = len(checks)
    out["solver.prox_ms"] = 1e3 * _median(_duration(r) for r in prox)
    out["solver.check_ms"] = 1e3 * _median(_duration(r) for r in checks)
    # an iteration ends with its convergence check
    ends = [solve["start"]] + [r["end"] for r in checks]
    iter_ms = [1e3 * (b - a) for a, b in zip(ends[:-1], ends[1:])]
    out["solver.iter_ms.p90"] = float(np.percentile(iter_ms, 90)) if iter_ms else 0.0
    out["solver.nnz_frac.p50"] = _median(r["nnz_frac"] for r in checks)
    out["solver.solve_s"] = _duration(solve)
    return out


def small_layer_metrics(spans: list[dict]) -> dict:
    """io, geometry, phantoms and metrics layers: median ms per call."""
    names = {
        "io.read_scenario_ms": "io.read_scenario",
        "io.read_measurements_ms": "io.read_measurements",
        "io.write_measurements_ms": "io.write_measurements",
        "io.write_volume_ms": "io.write_volume",
        "io.read_volume_ms": "io.read_volume",
        "geometry.preset_ms": "geometry.preset",
        "geometry.fingerprint_ms": "geometry.fingerprint",
        "phantoms.make_ms": "phantoms.make",
        "metrics.psnr_ms": "metrics.psnr",
    }
    out = {
        key: 1e3 * _median(_duration(r) for r in spans if r["name"] == name)
        for key, name in names.items()
    }
    out["io.bytes_written"] = sum(r.get("bytes", 0) for r in spans if r["name"].startswith("io.write_"))
    return out
