"""Matrix-free observation operator for near-field MIMO imaging.

The operator entry for channel m = (frequency, transmitter, receiver) and
voxel n is

    A[m, n] = p(f_m) * exp(-j*(2*pi/c)*f_m*(dT + dR)) / (4*pi*dT*dR)

with dT, dR the transmitter-to-voxel and receiver-to-voxel distances. The
forward and adjoint applications never materialize A. They factor each entry
into per-transmitter and per-receiver phasor tables

    u[f,t,n] = exp(-j*w_f*dT[t,n]) / (2*sqrt(pi)*dT[t,n]),   w_f = 2*pi*f/c

(and v[f,r,n] likewise), cached per scenario. The frequency grid is evenly
spaced, so the tables are built by recurrence: row f+1 is row f times the
step phasor exp(-j*dw*d), dw = 2*pi*spacing/c, and every 8th row is
evaluated from the formula, so the rounding error cannot grow with F.

One builder makes the tables over a set of flat voxel indices, with each
distance from the antenna's squared offsets along the grid's three axes. The
tables of every voxel (the plan, 16*F*(T+R)*N bytes) are built by the first
adjoint on a scenario, by a solve before its clock starts, and by a forward
of a volume with more than N/256 nonzero voxels. The plan is cached in one
slot, a (scenario, plan) pair that a lookup matches by identity first and by
equality next: a plan for another scenario empties the slot first, so a
process never holds two. A plan larger than the memory the OS reports
available is refused before it is allocated.

The forward takes one of three paths, by the volume's nonzero count alone:

- At most N/256 (a simulated point phantom): per frequency, one (T, R)
  block (u * s) @ v.T over the support's table columns, those of the cached
  plan or, with none cached, built over the support only. Every channel
  reads its entry of the block, so its bits depend neither on the subset
  nor on the plan, nor on the BLAS thread count.
- At most N/16 (the solver's iterates, mostly): per transmitter, the row
  w = u_t * s is formed on the support only and stays zero elsewhere; one
  length-N dot of w with each receiver row v_r gives a channel.
- Denser: the same dots, with w multiplied over the whole row of the plan.

The dots are the same on the last two paths, and so are the bits of the
output, for a given BLAS thread count: OpenBLAS may split a long dot into
partial sums whose order depends on that count, so their bits can differ
between BLAS settings. The adjoint's do not.

Subset applications reuse the exact same cached rows and the same per-channel
reduction as the full application, so restricting to a subset is bit-exact.
The adjoint runs over tiles of a few thousand voxels. Per frequency, a
(touched Tx) x (touched Rx) matrix of residual coefficients, zero where a
pair is absent, multiplies the tile's receiver rows; the product is scaled in
place by the tile's transmitter rows and summed over the transmitters. No
whole table row is copied, and each voxel is summed in ascending frequency
order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ImagingScenario,
    VoxelGrid,
    _axes,
    _center,
    _check_available,
    _count,
    _is_integer,
    _real,
    scenario_fingerprint,
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
    """Dense materialization would exceed the entry cap."""


def _complex_vector(what: str, values, size: int | None = None) -> np.ndarray:
    """``values`` as a finite 1-D complex array, of ``size`` entries when given;
    an error calls them ``what`` values."""
    try:
        vals = np.asarray(values, dtype=np.complex128)
    except OverflowError:
        raise ValueError(f"{what} values must be finite, got an integer too large for a float") from None
    if size is None and vals.ndim != 1:
        raise ValueError(f"{what} values must be 1-D, got shape {vals.shape}")
    if size is not None and vals.shape != (size,):
        raise ValueError(f"expected {size} {what} values, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{what} values must be finite")
    return vals


@dataclass(eq=False)
class ReflectivityVolume:
    """Complex reflectivity per voxel, in the grid's flat order (``grid.shape``)."""

    values: np.ndarray
    grid: VoxelGrid

    def __post_init__(self):
        self.values = _complex_vector("voxel", self.values, self.grid.n_voxels)


def _normalized_magnitude(volume: ReflectivityVolume) -> np.ndarray:
    """|s| over its largest entry, in flat order; an all-zero volume stays zero."""
    mag = np.abs(volume.values)
    peak = float(mag.max())
    return mag / peak if peak > 0 else mag


@dataclass(eq=False)
class MeasurementSet:
    """Flat complex measurement vector plus the fingerprint of the scenario
    that produced it."""

    values: np.ndarray
    fingerprint: bytes

    def __post_init__(self):
        self.values = _complex_vector("measurement", self.values)
        if not isinstance(self.fingerprint, bytes):
            raise ValueError(f"fingerprint must be bytes, got {type(self.fingerprint).__name__}")
        if len(self.fingerprint) != 32:
            raise ValueError("fingerprint must be 32 bytes")

    def matches(self, scenario: ImagingScenario) -> bool:
        return (
            self.values.size == scenario.n_channels
            and self.fingerprint == scenario_fingerprint(scenario)
        )


@dataclass(eq=False)
class ChannelSubset:
    """Ordered, duplicate-free list of flat channel indices."""

    indices: np.ndarray

    def __post_init__(self):
        # a copy, so that a caller's later edit cannot undo the checks below
        idx = np.array(self.indices).ravel()
        if idx.size < 1:
            raise ValueError("channel subset must be non-empty")
        if not np.issubdtype(idx.dtype, np.integer):
            # a cast would truncate fractions and read a boolean mask as 0/1 indices
            raise ValueError(f"channel indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        if np.any(idx < 0):
            raise ValueError("channel indices must be non-negative")
        ordered = np.sort(idx)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("channel subset contains duplicates")
        idx.setflags(write=False)
        self.indices = idx

    def __len__(self) -> int:
        return int(self.indices.size)


# --- direct element evaluation (reference path, also the dense oracle) ----


def _element_row(scenario: ImagingScenario, m: int, centers: np.ndarray) -> np.ndarray:
    """Operator entries A[m, n] for the given voxel centers, straight from the
    propagation formula (no cached tables)."""
    fi, ti, ri = np.unravel_index(m, scenario.channel_shape)
    f = scenario.frequencies.values()[fi]
    p = scenario.pulse.evaluate(np.array([f]))[0]
    tpos = scenario.array.transmitters[ti].as_array()
    rpos = scenario.array.receivers[ri].as_array()
    d_t = np.sqrt(np.sum((centers - tpos) ** 2, axis=1))
    d_r = np.sqrt(np.sum((centers - rpos) ** 2, axis=1))
    phase = np.exp(-1j * (2.0 * math.pi / scenario.c) * f * (d_t + d_r))
    return p * phase / (4.0 * math.pi * d_t * d_r)


def matrix_element(m: int, n: int, scenario: ImagingScenario) -> complex:
    """Single operator entry A[m, n]."""
    for name, i, count in (("channel", m, scenario.n_channels), ("voxel", n, scenario.n_voxels)):
        if not _is_integer(i):
            raise ValueError(f"{name} index must be an integer, got {i!r}")
        if not 0 <= i < count:
            raise IndexError(f"{name} index {i} out of range [0, {count})")
    iz, iy, ix = map(int, np.unravel_index(n, scenario.voxels.shape))
    center = np.array([_center(scenario.voxels, ix, iy, iz)])
    return complex(_element_row(scenario, m, center)[0])


_DENSE_CAP = 10_000_000  # entries; 160 MB of complex128


def materialize_dense(scenario: ImagingScenario) -> np.ndarray:
    """Dense M x N operator matrix. Test oracle only; refuses big scenarios."""
    m_count, n_count = scenario.n_channels, scenario.n_voxels
    if m_count * n_count > _DENSE_CAP:
        raise DenseCapError(
            f"dense operator would hold {m_count * n_count} entries (cap {_DENSE_CAP})"
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


_ANCHOR = 8  # table rows per directly evaluated row; the rest by recurrence


def _tables(scenario: ImagingScenario, positions: np.ndarray, voxels: np.ndarray) -> np.ndarray:
    """Phasor table (F, antennas, voxels) over flat voxel indices, by the
    anchored frequency recurrence.

    Each distance is sqrt(sqx[ix] + sqy[iy] + sqz[iz]), from the antenna's
    squared offsets along the grid's three axes, summed in x, y, z order: the
    same bits as the per-center sqrt(sum((center - position) ** 2)). Every
    entry depends on its own antenna and voxel alone, so a table over some of
    the voxels holds the same bits as those columns of a table over all of
    them.
    """
    freqs = scenario.frequencies.values()
    w = 2.0 * math.pi * freqs / scenario.c
    dw = 2.0 * math.pi * scenario.frequencies.spacing / scenario.c
    axes = _axes(scenario.voxels)
    iz, iy, ix = np.unravel_index(voxels, scenario.voxels.shape)
    tab = np.empty((freqs.size, positions.shape[0], voxels.size), dtype=np.complex128)
    for a, position in enumerate(positions):
        sqx, sqy, sqz = ((axis - p) ** 2 for axis, p in zip(axes, position))
        d = np.sqrt(sqx[ix] + sqy[iy] + sqz[iz])
        amp = 1.0 / (2.0 * math.sqrt(math.pi) * d)
        step = np.exp(-1j * dw * d)
        for fi in range(freqs.size):
            if fi % _ANCHOR == 0:
                # re-anchor so the recurrence's rounding error cannot grow with F
                tab[fi, a] = np.exp(-1j * w[fi] * d) * amp
            else:
                np.multiply(tab[fi - 1, a], step, out=tab[fi, a])
    return tab


# the one cached plan, as (scenario, plan): the one ``_plan`` built last
_slot: tuple[ImagingScenario, _OperatorPlan] | None = None
_SLOT_LOCK = threading.Lock()


def _cached(scenario: ImagingScenario) -> _OperatorPlan | None:
    """The cached plan of ``scenario``, or None; builds nothing."""
    slot = _slot
    if slot is not None and (slot[0] is scenario or slot[0] == scenario):
        return slot[1]
    return None


def _build(scenario: ImagingScenario, voxels: np.ndarray) -> _OperatorPlan:
    """Pulse values and the phasor tables over the given flat voxel indices."""
    return _OperatorPlan(
        pulse_vals=scenario.pulse.evaluate(scenario.frequencies.values()),
        tx_tab=_tables(scenario, scenario.array.tx_positions(), voxels),
        rx_tab=_tables(scenario, scenario.array.rx_positions(), voxels),
    )


def _plan_nbytes(scenario: ImagingScenario) -> int:
    """The summed ``nbytes`` of the arrays ``_plan`` builds: F pulse values and
    F*(T+R)*N table entries, 16 bytes each."""
    f, t, r = scenario.channel_shape
    return 16 * f * (1 + (t + r) * scenario.n_voxels)


def _plan(scenario: ImagingScenario) -> _OperatorPlan:
    global _slot
    # one lock around the lookup, the eviction and the build: a second thread
    # neither sees the slot mid-update nor builds the same plan again
    with _SLOT_LOCK:
        plan = _cached(scenario)
        if plan is None:
            # free the old plan before the new one is sized and allocated
            _slot = None
            _check_available("the operator plan", _plan_nbytes(scenario))
            plan = _build(scenario, np.arange(scenario.n_voxels))
            _slot = (scenario, plan)
        return plan


def _volume_values(s, scenario: ImagingScenario) -> np.ndarray:
    if not isinstance(s, ReflectivityVolume):
        s = ReflectivityVolume(s, scenario.voxels)
    elif s.grid != scenario.voxels:
        raise ValueError("volume grid does not match the scenario voxel grid")
    return s.values


def _channel_subset(subset, scenario: ImagingScenario) -> ChannelSubset:
    """``subset`` as a range-checked ChannelSubset; None means all channels."""
    if subset is None:
        subset = np.arange(scenario.n_channels, dtype=np.int64)
    if not isinstance(subset, ChannelSubset):
        subset = ChannelSubset(subset)
    idx = subset.indices
    if np.any(idx >= scenario.n_channels):
        raise IndexError(
            f"channel index {int(idx.max())} out of range [0, {scenario.n_channels})"
        )
    return subset


def _by_frequency(idx: np.ndarray, scenario: ImagingScenario):
    """Split flat channel indices by frequency, in ascending order.

    Yields (f, pos, ts, tpos, rs, rpos) per touched frequency f: ``pos`` are
    the channels' positions in ``idx``, ``ts``/``rs`` the touched transmitters
    and receivers (ascending), and channel ``idx[pos[k]]`` is
    (f, ts[tpos[k]], rs[rpos[k]]). The forward and the adjoint both split a
    subset here, so they map every channel to the same triple.
    """
    fi, ti, ri = np.unravel_index(idx, scenario.channel_shape)
    for f in _touched(fi):
        pos = np.flatnonzero(fi == f)
        t, r = ti[pos], ri[pos]
        ts, rs = _touched(t), _touched(r)
        # each channel's row in ts and rs, by binary search in the sorted list
        yield int(f), pos, ts, np.searchsorted(ts, t), rs, np.searchsorted(rs, r)


def _touched(v: np.ndarray) -> np.ndarray:
    """The distinct values of the non-negative indices ``v``, ascending. A
    plain ``unique`` call would import ``numpy.ma`` on numpy >= 2.3, about
    10 ms of every process's first channel split."""
    return np.flatnonzero(np.bincount(v))


_TILE = 4096  # voxels per adjoint tile; it bounds the temporaries


def _rows(sel: np.ndarray):
    """Sorted table-row indices; a contiguous run becomes a slice (no copy)."""
    if sel[-1] - sel[0] + 1 == sel.size:
        return slice(int(sel[0]), int(sel[-1]) + 1)
    return sel


# A volume with at most N/_SPARSE nonzero voxels is sparse: it is multiplied
# into the plan's rows on its support only. Past it, gathering and scattering
# the support costs more than a whole-row product: a (4,4,3) forward on
# `paper-v` took 4.6 ms against 6.0 ms whole-row at 6.25% random nonzeros,
# and 6.0 against 5.5 ms at 7%.
_SPARSE = 16
# A volume with at most N/_TINY nonzero voxels (a simulated point phantom;
# the solves' iterates on `paper-v` hold hundreds) is forwarded by one T x R
# product per frequency over its support's columns, with no length-N dot and
# no plan: a `points:5` forward on `paper-v` with no plan cached took
# 1.2-1.3 ms against 28-37 ms by length-N dots over its support's columns.
# Every denser volume is forwarded on the plan, and builds it if none is
# cached.
_TINY = 256


def _forward_values(values: np.ndarray, scenario: ImagingScenario, idx: np.ndarray) -> np.ndarray:
    n = scenario.n_voxels
    nonzero = values != 0
    count = np.count_nonzero(nonzero)
    if _TINY * count <= n:
        return _forward_block(values, scenario, idx, np.flatnonzero(nonzero))
    support = np.flatnonzero(nonzero) if _SPARSE * count <= n else None
    plan = _plan(scenario)
    on_support = None if support is None else values[support]
    out = np.empty(idx.size, dtype=np.complex128)

    # w = u_t * s, one row for the whole call. On the support it holds the
    # same elementwise products as a whole-row multiply; off the support it
    # stays +0, zeroed once, where the whole-row products are +-0. Every dot
    # keeps its length N, and a signed zero added to a partial sum leaves it
    # as it was (a zero sum is +0 either way), so both give the same bits.
    w = (np.empty if support is None else np.zeros)(n, dtype=np.complex128)
    for f, pos, ts, tpos, rs, rpos in _by_frequency(idx, scenario):
        p = plan.pulse_vals[f]
        for j, t in enumerate(ts):
            if support is None:
                np.multiply(plan.tx_tab[f, t], values, out=w)
            else:
                w[support] = plan.tx_tab[f, t, support] * on_support
            mine = tpos == j
            for r, k in zip(rs[rpos[mine]], pos[mine]):
                out[k] = p * np.dot(w, plan.rx_tab[f, r])
    return out


def _forward_block(
    values: np.ndarray, scenario: ImagingScenario, idx: np.ndarray, support: np.ndarray
) -> np.ndarray:
    """The forward of a volume nonzero on ``support`` only, by the whole
    (T, R) block (u * s) @ v.T per touched frequency over the support's table
    columns: those of the cached plan, or built over the support alone. The
    block depends on neither the subset nor the plan, so neither do the bits
    of any channel. OpenBLAS splits a product between its threads by blocks
    of the output, so no thread count changes the order of an entry's sum."""
    plan = _cached(scenario)
    tabs, cols = (_build(scenario, support), slice(None)) if plan is None else (plan, support)
    on_support = values[support]
    out = np.empty(idx.size, dtype=np.complex128)
    for f, pos, ts, tpos, rs, rpos in _by_frequency(idx, scenario):
        block = (tabs.tx_tab[f][:, cols] * on_support) @ tabs.rx_tab[f][:, cols].T
        out[pos] = tabs.pulse_vals[f] * block[ts[tpos], rs[rpos]]
    return out


def _adjoint_values(rvals: np.ndarray, scenario: ImagingScenario, idx: np.ndarray) -> np.ndarray:
    plan = _plan(scenario)
    n = scenario.n_voxels

    # The target is sum over channels of conj(p * u * v) * r. Conjugation
    # distributes exactly over complex multiply/add, so conjugate the small
    # residual coefficients instead of the big phasor tables and un-conjugate
    # the accumulated result once at the end. Per frequency the coefficients
    # form a (touched tx) x (touched rx) matrix, zero where a pair is absent.
    terms = []
    for f, pos, ts, tpos, rs, rpos in _by_frequency(idx, scenario):
        coeffs = np.zeros((ts.size, rs.size), dtype=np.complex128)
        coeffs[tpos, rpos] = np.conj(rvals[pos] * np.conj(plan.pulse_vals[f]))
        terms.append((f, _rows(ts), _rows(rs), coeffs))

    out = np.zeros(n, dtype=np.complex128)
    for a in range(0, n, _TILE):
        b = min(a + _TILE, n)
        for f, ts, rs, coeffs in terms:
            inner = coeffs @ plan.rx_tab[f, rs, a:b]
            inner *= plan.tx_tab[f, ts, a:b]
            out[a:b] += inner.sum(axis=0)
    return np.conj(out, out=out)


# --- public operator API ----------------------------------------------------


def forward_apply(s, scenario: ImagingScenario, subset=None, threads: int = 1) -> np.ndarray:
    """Apply the observation operator: entry k is sum_n A[m_k, n] * s_n.

    ``subset`` restricts to the given flat channels (None means all M); the
    restricted result is bit-identical to slicing the full result. ``threads``
    is checked as a count but has no effect: BLAS is the one parallelism
    layer, and ROADMAP item 1's benchmark change removes the keyword.
    """
    _count("threads", threads)
    values = _volume_values(s, scenario)
    idx = _channel_subset(subset, scenario).indices
    return _forward_values(values, scenario, idx)


def adjoint_apply(r, scenario: ImagingScenario, subset=None, threads: int = 1) -> np.ndarray:
    """Apply the conjugate transpose: entry n is sum_k conj(A[m_k, n]) * r_k;
    ``threads`` has no effect, as in ``forward_apply``."""
    _count("threads", threads)
    idx = _channel_subset(subset, scenario).indices
    rvals = _complex_vector("residual", r, idx.size)
    return _adjoint_values(rvals, scenario, idx)


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
    rng_seed = _count("rng_seed", rng_seed, minimum=0)
    y = forward_apply(s, scenario)
    if sigma > 0:
        rng = np.random.default_rng(rng_seed)
        noise = rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)
        y = y + (sigma / math.sqrt(2.0)) * noise
    return MeasurementSet(y, scenario_fingerprint(scenario))
