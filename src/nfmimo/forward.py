"""Matrix-free observation operator for near-field MIMO imaging.

The operator entry for channel m = (frequency, transmitter, receiver) and
voxel n is

    A[m, n] = p(f_m) * exp(-j*(2*pi/c)*f_m*(dT + dR)) / (4*pi*dT*dR)

with dT, dR the transmitter-to-voxel and receiver-to-voxel distances. The
forward and adjoint applications never materialize A. They factor each entry
into per-transmitter and per-receiver phasor tables

    u[f,t,n] = exp(-j*w_f*dT[t,n]) / (2*sqrt(pi)*dT[t,n]),   w_f = 2*pi*f/c

(and v[f,r,n] likewise), cached per scenario, so an application costs one
elementwise product plus one length-N dot per channel.

Subset applications reuse the exact same cached rows and the same per-channel
reduction as the full application, so restricting to a subset is bit-exact.
The adjoint runs over tiles of a few thousand voxels, one task each. Per
frequency, a (touched Tx) x (touched Rx) matrix of residual coefficients,
zero where a pair is absent, multiplies the tile's receiver rows, and the
transmitter rows reduce the product; no whole table row is copied. Each voxel
is summed by one task in ascending frequency order, so the adjoint is
bit-identical for every worker-thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (
    ImagingScenario,
    SingularityError,
    VoxelGrid,
    _real,
    channel_of,
    scenario_fingerprint,
    voxel_center,
    voxel_centers,
)

__all__ = [
    "ReflectivityVolume",
    "MeasurementSet",
    "ChannelSubset",
    "DenseCapError",
    "matrix_element",
    "forward_apply",
    "adjoint_apply",
    "simulate_measurements",
    "materialize_dense",
]


class DenseCapError(RuntimeError):
    """Dense materialization would exceed the configured entry cap."""


@dataclass(eq=False)
class ReflectivityVolume:
    """Complex reflectivity per voxel, flat x-fastest order."""

    values: np.ndarray
    grid: VoxelGrid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1:
            raise ValueError(f"volume values must be 1-D, got shape {vals.shape}")
        if vals.size != self.grid.n_voxels:
            raise ValueError(
                f"volume has {vals.size} values but grid holds {self.grid.n_voxels} voxels"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("volume values must be finite")
        self.values = vals

    @classmethod
    def zeros(cls, grid: VoxelGrid) -> "ReflectivityVolume":
        return cls(np.zeros(grid.n_voxels, dtype=np.complex128), grid)


@dataclass(eq=False)
class MeasurementSet:
    """Flat complex measurement vector plus the fingerprint of the scenario
    that produced it."""

    values: np.ndarray
    fingerprint: bytes
    noise_sigma: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1:
            raise ValueError(f"measurement values must be 1-D, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("measurement values must be finite")
        self.values = vals
        if len(self.fingerprint) != 32:
            raise ValueError("fingerprint must be 32 bytes")
        if self.noise_sigma is not None:
            self.noise_sigma = _real("noise_sigma", self.noise_sigma, at_least=0)

    def matches(self, scenario: ImagingScenario) -> bool:
        return (
            self.values.size == scenario.n_channels
            and self.fingerprint == scenario_fingerprint(scenario)
        )

    @classmethod
    def for_scenario(
        cls, values, scenario: ImagingScenario, noise_sigma: float | None = None
    ) -> "MeasurementSet":
        return cls(values, scenario_fingerprint(scenario), noise_sigma)


@dataclass(eq=False)
class ChannelSubset:
    """Ordered, duplicate-free list of flat channel indices."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices).ravel()
        if idx.size < 1:
            raise ValueError("channel subset must be non-empty")
        if not np.issubdtype(idx.dtype, np.integer):
            # a cast would truncate fractions and read a boolean mask as 0/1 indices
            raise ValueError(f"channel indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        if np.any(idx < 0):
            raise ValueError("channel indices must be non-negative")
        if np.unique(idx).size != idx.size:
            raise ValueError("channel subset contains duplicates")
        idx.setflags(write=False)
        self.indices = idx

    def __len__(self) -> int:
        return int(self.indices.size)


# --- direct element evaluation (reference path, also the dense oracle) ----


def _element_row(scenario: ImagingScenario, m: int, centers: np.ndarray) -> np.ndarray:
    """Operator entries A[m, n] for the given voxel centers, straight from the
    propagation formula (no cached tables)."""
    ci = channel_of(m, scenario)
    f = scenario.frequencies.values()[ci.fi]
    p = scenario.pulse.evaluate(np.array([f]))[0]
    tpos = scenario.array.transmitters[ci.ti].as_array()
    rpos = scenario.array.receivers[ci.ri].as_array()
    d_t = np.sqrt(np.sum((centers - tpos) ** 2, axis=1))
    d_r = np.sqrt(np.sum((centers - rpos) ** 2, axis=1))
    if np.any(d_t == 0.0) or np.any(d_r == 0.0):
        raise SingularityError(f"voxel coincides with an antenna of channel {m}")
    phase = np.exp(-1j * (2.0 * math.pi / scenario.c) * f * (d_t + d_r))
    return p * phase / (4.0 * math.pi * d_t * d_r)


def matrix_element(m: int, n: int, scenario: ImagingScenario) -> complex:
    """Single operator entry A[m, n]."""
    if not 0 <= n < scenario.n_voxels:
        raise IndexError(f"voxel index {n} out of range [0, {scenario.n_voxels})")
    center = voxel_center(n, scenario.voxels).as_array()[None, :]
    return complex(_element_row(scenario, m, center)[0])


def materialize_dense(scenario: ImagingScenario, cap: int = 10_000_000) -> np.ndarray:
    """Dense M x N operator matrix. Test oracle only; refuses big scenarios."""
    m_count, n_count = scenario.n_channels, scenario.n_voxels
    if m_count * n_count > cap:
        raise DenseCapError(
            f"dense operator would hold {m_count * n_count} entries (cap {cap})"
        )
    centers = voxel_centers(scenario.voxels)
    out = np.empty((m_count, n_count), dtype=np.complex128)
    for m in range(m_count):
        out[m] = _element_row(scenario, m, centers)
    return out


# --- cached phasor tables ---------------------------------------------------


@dataclass(eq=False)
class _OperatorPlan:
    pulse_vals: np.ndarray  # (F,) complex
    tx_tab: np.ndarray  # (F, T, N) complex
    rx_tab: np.ndarray  # (F, R, N) complex


@lru_cache(maxsize=4)
def _plan(scenario: ImagingScenario) -> _OperatorPlan:
    freqs = scenario.frequencies.values()
    pulse_vals = scenario.pulse.evaluate(freqs)
    centers = voxel_centers(scenario.voxels)
    w = 2.0 * math.pi * freqs / scenario.c

    def tables(positions: np.ndarray) -> np.ndarray:
        k, n = positions.shape[0], centers.shape[0]
        tab = np.empty((freqs.size, k, n), dtype=np.complex128)
        for a in range(k):
            d = np.sqrt(np.sum((centers - positions[a]) ** 2, axis=1))
            amp = 1.0 / (2.0 * math.sqrt(math.pi) * d)
            for fi in range(freqs.size):
                tab[fi, a] = np.exp(-1j * w[fi] * d) * amp
        return tab

    return _OperatorPlan(
        pulse_vals=pulse_vals,
        tx_tab=tables(scenario.array.tx_positions()),
        rx_tab=tables(scenario.array.rx_positions()),
    )


def _volume_values(s, scenario: ImagingScenario) -> np.ndarray:
    if isinstance(s, ReflectivityVolume):
        if s.grid != scenario.voxels:
            raise ValueError("volume grid does not match the scenario voxel grid")
        return s.values
    vals = np.asarray(s, dtype=np.complex128)
    if vals.shape != (scenario.n_voxels,):
        raise ValueError(
            f"expected {scenario.n_voxels} voxel values, got shape {vals.shape}"
        )
    return vals


def _channel_subset(subset, scenario: ImagingScenario) -> ChannelSubset:
    """``subset`` as a range-checked ChannelSubset; None means all channels."""
    if subset is None:
        subset = np.arange(scenario.n_channels, dtype=np.int64)
    if not isinstance(subset, ChannelSubset):
        subset = ChannelSubset(np.asarray(subset))
    idx = subset.indices
    if np.any(idx >= scenario.n_channels):
        raise IndexError(
            f"channel index {int(idx.max())} out of range [0, {scenario.n_channels})"
        )
    return subset


def _channel_groups(idx: np.ndarray, n_tx: int, n_rx: int):
    """Split flat channel indices into per-(frequency, transmitter) runs.

    Returns (fi, ti, ri_array, out_positions) tuples in deterministic order:
    ascending frequency, then transmitter, then receiver.
    """
    fi = idx // (n_tx * n_rx)
    rem = idx % (n_tx * n_rx)
    ti = rem // n_rx
    ri = rem % n_rx
    order = np.lexsort((ri, ti, fi))
    key = (fi * n_tx + ti)[order]
    starts = np.flatnonzero(np.r_[True, np.diff(key) != 0])
    bounds = np.r_[starts, key.size]
    groups = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        pos = order[a:b]
        groups.append((int(fi[pos[0]]), int(ti[pos[0]]), ri[pos], pos))
    return groups


_TILE = 4096  # voxels per adjoint task


def _rows(sel: np.ndarray):
    """Sorted table-row indices; a contiguous run becomes a slice (no copy)."""
    if sel[-1] - sel[0] + 1 == sel.size:
        return slice(int(sel[0]), int(sel[-1]) + 1)
    return sel


def _run_maybe_parallel(tasks, threads: int):
    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            return list(pool.map(lambda fn: fn(), tasks))
    return [fn() for fn in tasks]


def _forward_values(
    values: np.ndarray, scenario: ImagingScenario, idx: np.ndarray, threads: int
) -> np.ndarray:
    plan = _plan(scenario)
    n_tx, n_rx = scenario.array.n_tx, scenario.array.n_rx
    out = np.empty(idx.size, dtype=np.complex128)
    groups = _channel_groups(idx, n_tx, n_rx)

    def make_task(group):
        fi, ti, ri, pos = group

        def task():
            p = plan.pulse_vals[fi]
            w_row = plan.tx_tab[fi, ti] * values
            rx_rows = plan.rx_tab[fi]
            for r, k in zip(ri, pos):
                out[k] = p * np.dot(w_row, rx_rows[r])

        return task

    _run_maybe_parallel([make_task(g) for g in groups], threads)
    return out


def _adjoint_values(
    rvals: np.ndarray, scenario: ImagingScenario, idx: np.ndarray, threads: int
) -> np.ndarray:
    plan = _plan(scenario)
    n_tx, n_rx = scenario.array.n_tx, scenario.array.n_rx
    n = scenario.n_voxels
    fi, rem = np.divmod(idx, n_tx * n_rx)
    ti, ri = np.divmod(rem, n_rx)

    # The target is sum over channels of conj(p * u * v) * r. Conjugation
    # distributes exactly over complex multiply/add, so conjugate the small
    # residual coefficients instead of the big phasor tables and un-conjugate
    # the accumulated result once at the end. Per frequency the coefficients
    # form a (touched tx) x (touched rx) matrix, zero where a pair is absent.
    terms = []
    for f in np.unique(fi):
        sel = fi == f
        ts, tpos = np.unique(ti[sel], return_inverse=True)
        rs, rpos = np.unique(ri[sel], return_inverse=True)
        coeffs = np.zeros((ts.size, rs.size), dtype=np.complex128)
        coeffs[tpos, rpos] = np.conj(rvals[sel] * np.conj(plan.pulse_vals[f]))
        terms.append((f, _rows(ts), _rows(rs), coeffs))

    out = np.zeros(n, dtype=np.complex128)

    def make_task(a, b):
        # each voxel is summed by one task in ascending frequency order, so
        # the result does not depend on the thread count
        def task():
            for f, ts, rs, coeffs in terms:
                inner = coeffs @ plan.rx_tab[f, rs, a:b]
                out[a:b] += np.einsum("tn,tn->n", plan.tx_tab[f, ts, a:b], inner)

        return task

    tiles = [make_task(a, min(a + _TILE, n)) for a in range(0, n, _TILE)]
    _run_maybe_parallel(tiles, threads)
    return np.conj(out, out=out)


# --- public operator API ----------------------------------------------------


def forward_apply(s, scenario: ImagingScenario, subset=None, threads: int = 1) -> np.ndarray:
    """Apply the observation operator: entry k is sum_n A[m_k, n] * s_n.

    ``subset`` restricts to the given flat channels (None means all M); the
    restricted result is bit-identical to slicing the full result. ``threads``
    spreads the channel groups over a thread pool; the result does not
    depend on it.
    """
    values = _volume_values(s, scenario)
    idx = _channel_subset(subset, scenario).indices
    return _forward_values(values, scenario, idx, threads)


def adjoint_apply(r, scenario: ImagingScenario, subset=None, threads: int = 1) -> np.ndarray:
    """Apply the conjugate transpose: entry n is sum_k conj(A[m_k, n]) * r_k."""
    idx = _channel_subset(subset, scenario).indices
    rvals = np.asarray(r, dtype=np.complex128)
    if rvals.shape != (idx.size,):
        raise ValueError(f"expected {idx.size} residual values, got shape {rvals.shape}")
    return _adjoint_values(rvals, scenario, idx, threads)


def simulate_measurements(
    s,
    scenario: ImagingScenario,
    noise_sigma: float = 0.0,
    rng_seed: int = 0,
) -> MeasurementSet:
    """Noisy measurements y = A s + w.

    w is circularly symmetric complex Gaussian with per-entry E|w|^2 equal to
    noise_sigma^2 (real and imaginary parts each N(0, sigma^2/2)). With
    noise_sigma=0 the clean forward application is returned bit-exactly.
    """
    sigma = _real("noise_sigma", noise_sigma, at_least=0)
    y = forward_apply(s, scenario)
    if sigma > 0:
        rng = np.random.default_rng(rng_seed)
        m = scenario.n_channels
        noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        y = y + (sigma / math.sqrt(2.0)) * noise
    return MeasurementSet(
        values=y, fingerprint=scenario_fingerprint(scenario), noise_sigma=sigma
    )
