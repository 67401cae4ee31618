"""Antenna arrays, frequency grids, voxel grids, and the index maps between
flat measurement/voxel numbering and structured coordinates.

All types here are immutable after construction, so they are safe to share.
Distances are meters, frequencies Hz.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value


class SingularityError(ValueError):
    """A voxel center coincides with an antenna (propagation term blows up)."""


# One validator per kind of scalar input. Each refuses with a ValueError that
# names the input; none coerces a bool or a string into a number.


def _real(name: str, value, above: float | None = None, at_least: float | None = None) -> float:
    """``value`` as a finite float, optionally > ``above`` or >= ``at_least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v!r}")
    if above is not None and not v > above:
        raise ValueError(f"{name} must be > {above:g}, got {v!r}")
    if at_least is not None and not v >= at_least:
        raise ValueError(f"{name} must be >= {at_least:g}, got {v!r}")
    return v


def _count(name: str, value) -> int:
    """``value`` as an int >= 1: integers and integral floats pass, a fraction
    is refused rather than truncated."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    v = int(value)
    if v < 1:
        raise ValueError(f"{name} must be >= 1, got {v}")
    return v


def _complex(name: str, value) -> complex:
    """``value`` as a complex number with finite real and imaginary parts."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise ValueError(f"{name} must be a number, got {value!r}")
    v = complex(value)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return v


@dataclass(frozen=True)
class Vec3:
    """Point in 3D space, meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, _real(f"Vec3.{name}", getattr(self, name)))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


def _as_vec3(value) -> Vec3:
    if isinstance(value, Vec3):
        return value
    x, y, z = value
    return Vec3(x, y, z)


@dataclass(frozen=True)
class ArrayGeometry:
    """Transmit and receive antenna positions, all in the z=0 plane."""

    transmitters: tuple[Vec3, ...]
    receivers: tuple[Vec3, ...]

    def __post_init__(self):
        tx = tuple(_as_vec3(p) for p in self.transmitters)
        rx = tuple(_as_vec3(p) for p in self.receivers)
        object.__setattr__(self, "transmitters", tx)
        object.__setattr__(self, "receivers", rx)
        for name, ants in (("transmitters", tx), ("receivers", rx)):
            if not ants:
                raise ValueError(f"{name} must be non-empty")
            for p in ants:
                if p.z != 0.0:
                    raise ValueError(f"all {name} must lie in the z=0 plane, got z={p.z}")
            if len({(p.x, p.y, p.z) for p in ants}) != len(ants):
                raise ValueError(f"duplicate positions in {name}")

    @property
    def n_tx(self) -> int:
        return len(self.transmitters)

    @property
    def n_rx(self) -> int:
        return len(self.receivers)

    def tx_positions(self) -> np.ndarray:
        """(n_tx, 3) float64 array."""
        return np.array([p.as_array() for p in self.transmitters])

    def rx_positions(self) -> np.ndarray:
        """(n_rx, 3) float64 array."""
        return np.array([p.as_array() for p in self.receivers])


@dataclass(frozen=True)
class FrequencyGrid:
    """Equally spaced stepped-frequency sweep, inclusive of both endpoints."""

    f_start: float
    f_stop: float
    count: int

    def __post_init__(self):
        f_start = _real("f_start", self.f_start, above=0)
        object.__setattr__(self, "f_start", f_start)
        object.__setattr__(self, "f_stop", _real("f_stop", self.f_stop, at_least=f_start))
        object.__setattr__(self, "count", _count("count", self.count))
        if self.count == 1 and self.f_start != self.f_stop:
            raise ValueError("single-point grid requires f_start == f_stop")
        if self.count > 1 and self.f_start == self.f_stop:
            raise ValueError("multi-point grid requires f_stop > f_start")

    @property
    def spacing(self) -> float:
        if self.count == 1:
            return 0.0
        return (self.f_stop - self.f_start) / (self.count - 1)

    def values(self) -> np.ndarray:
        """All frequencies, ascending, both endpoints included."""
        return np.linspace(self.f_start, self.f_stop, self.count)


@dataclass(frozen=True)
class VoxelGrid:
    """Regular voxel grid given by scene center, total extent, and dims.

    Spacing per axis is extent/(dims-1); a dims=1 axis must have extent 0.
    Voxel (ix, iy, iz) sits at center - extent/2 + (ix*dx, iy*dy, iz*dz) and
    flattens x-fastest: n = ix + nx*(iy + ny*iz).
    """

    center: Vec3
    extent: tuple[float, float, float]
    dims: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vec3(self.center))
        ext = tuple(_real(f"extent[{i}]", e, at_least=0) for i, e in enumerate(self.extent))
        dims = tuple(_count(f"dims[{i}]", d) for i, d in enumerate(self.dims))
        object.__setattr__(self, "extent", ext)
        object.__setattr__(self, "dims", dims)
        for axis, (e, d) in enumerate(zip(ext, dims)):
            if d == 1 and e != 0.0:
                raise ValueError(f"axis {axis} has a single voxel; extent must be 0, got {e}")
            if d > 1 and e == 0.0:
                raise ValueError(f"axis {axis} has {d} voxels; extent must be > 0")

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(
            e / (d - 1) if d > 1 else 0.0 for e, d in zip(self.extent, self.dims)
        )

    @property
    def corner(self) -> Vec3:
        c, e = self.center, self.extent
        return Vec3(c.x - e[0] / 2.0, c.y - e[1] / 2.0, c.z - e[2] / 2.0)

    def indices_of(self, n: int) -> tuple[int, int, int]:
        """Flat voxel index -> (ix, iy, iz)."""
        nx, ny, _ = self.dims
        if not 0 <= n < self.n_voxels:
            raise IndexError(f"voxel index {n} out of range [0, {self.n_voxels})")
        ix = n % nx
        iy = (n // nx) % ny
        iz = n // (nx * ny)
        return ix, iy, iz

    def flat_index(self, ix: int, iy: int, iz: int) -> int:
        """(ix, iy, iz) -> flat voxel index, x fastest."""
        nx, ny, nz = self.dims
        if not (0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz):
            raise IndexError(f"voxel index ({ix},{iy},{iz}) out of range for dims {self.dims}")
        return ix + nx * (iy + ny * iz)


def voxel_center(n: int, grid: VoxelGrid) -> Vec3:
    """Center of the voxel with flat index ``n``."""
    ix, iy, iz = grid.indices_of(n)
    corner = grid.corner
    dx, dy, dz = grid.spacing
    return Vec3(corner.x + ix * dx, corner.y + iy * dy, corner.z + iz * dz)


def voxel_centers(grid: VoxelGrid) -> np.ndarray:
    """(N, 3) array of all voxel centers in flat order (x fastest)."""
    nx, ny, nz = grid.dims
    n = np.arange(grid.n_voxels)
    ix = n % nx
    iy = (n // nx) % ny
    iz = n // (nx * ny)
    corner = grid.corner.as_array()
    dx, dy, dz = grid.spacing
    out = np.empty((grid.n_voxels, 3))
    out[:, 0] = corner[0] + ix * dx
    out[:, 1] = corner[1] + iy * dy
    out[:, 2] = corner[2] + iz * dz
    return out


@dataclass(frozen=True)
class ChannelIndex:
    """Structured measurement channel: frequency, transmitter, receiver."""

    fi: int
    ti: int
    ri: int


@dataclass(frozen=True)
class ConstantPulse:
    """Flat pulse spectrum p(f) = value for every frequency."""

    value: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "value", _complex("pulse value", self.value))

    def evaluate(self, freqs: np.ndarray) -> np.ndarray:
        return np.full(np.shape(freqs), self.value, dtype=np.complex128)

    def covers(self, f_lo: float, f_hi: float) -> bool:
        return True


@dataclass(frozen=True)
class TabulatedPulse:
    """Pulse spectrum sampled at strictly increasing frequency knots.

    Evaluation interpolates real and imaginary parts linearly; the knot range
    must cover the scenario's frequency band.
    """

    frequencies_hz: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        fr = tuple(_real("pulse knot frequencies", f) for f in self.frequencies_hz)
        vals = tuple(_complex("pulse values", v) for v in self.values)
        object.__setattr__(self, "frequencies_hz", fr)
        object.__setattr__(self, "values", vals)
        if len(fr) != len(vals):
            raise ValueError("frequencies_hz and values must have equal length")
        if len(fr) < 1:
            raise ValueError("tabulated pulse needs at least one knot")
        if any(b <= a for a, b in zip(fr, fr[1:])):
            raise ValueError("pulse knot frequencies must be strictly increasing")

    def evaluate(self, freqs: np.ndarray) -> np.ndarray:
        f = np.asarray(freqs, dtype=np.float64)
        knots = np.array(self.frequencies_hz)
        vals = np.array(self.values, dtype=np.complex128)
        re = np.interp(f, knots, vals.real)
        im = np.interp(f, knots, vals.imag)
        return re + 1j * im

    def covers(self, f_lo: float, f_hi: float) -> bool:
        return self.frequencies_hz[0] <= f_lo and self.frequencies_hz[-1] >= f_hi


PulseSpectrum = ConstantPulse | TabulatedPulse


@dataclass(frozen=True)
class ImagingScenario:
    """Everything that defines the observation operator: array, sweep, scene,
    pulse spectrum, and propagation speed."""

    array: ArrayGeometry
    frequencies: FrequencyGrid
    voxels: VoxelGrid
    pulse: PulseSpectrum = field(default_factory=ConstantPulse)
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        object.__setattr__(self, "c", _real("speed of light", self.c, above=0))
        if not self.pulse.covers(self.frequencies.f_start, self.frequencies.f_stop):
            raise ValueError("tabulated pulse knots do not cover the frequency band")
        # Fail fast on antenna/voxel coincidence so the element evaluation
        # never has to branch on a vanishing denominator.
        centers = voxel_centers(self.voxels)
        ants = np.vstack([self.array.tx_positions(), self.array.rx_positions()])
        for pos in ants:
            d2 = np.sum((centers - pos) ** 2, axis=1)
            if np.any(d2 == 0.0):
                n = int(np.argmin(d2))
                raise SingularityError(
                    f"voxel {n} coincides with antenna at ({pos[0]}, {pos[1]}, {pos[2]})"
                )

    @property
    def n_channels(self) -> int:
        return self.frequencies.count * self.array.n_tx * self.array.n_rx

    @property
    def n_voxels(self) -> int:
        return self.voxels.n_voxels


def channel_of(m: int, scenario: ImagingScenario) -> ChannelIndex:
    """Flat measurement index -> (fi, ti, ri). Receiver varies fastest."""
    n_tx, n_rx = scenario.array.n_tx, scenario.array.n_rx
    if not 0 <= m < scenario.n_channels:
        raise IndexError(f"channel index {m} out of range [0, {scenario.n_channels})")
    ri = m % n_rx
    ti = (m // n_rx) % n_tx
    fi = m // (n_rx * n_tx)
    return ChannelIndex(fi=fi, ti=ti, ri=ri)


def flat_channel(index: ChannelIndex, scenario: ImagingScenario) -> int:
    """(fi, ti, ri) -> flat measurement index m = ri + #Rx*(ti + #Tx*fi)."""
    n_tx, n_rx = scenario.array.n_tx, scenario.array.n_rx
    n_f = scenario.frequencies.count
    if not (0 <= index.fi < n_f and 0 <= index.ti < n_tx and 0 <= index.ri < n_rx):
        raise IndexError(f"channel {index} out of range for ({n_f},{n_tx},{n_rx})")
    return index.ri + n_rx * (index.ti + n_tx * index.fi)


_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def make_spiral_array(n_tx: int, n_rx: int, radius: float, rng_seed: int = 0) -> ArrayGeometry:
    """Planar spiral MIMO array: Tx on an outer spiral band, Rx on an inner one.

    Deterministic for a fixed seed (the seed only rotates the two spirals).
    This is a generic stand-in layout, not a replica of any measured array.
    """
    n_tx, n_rx = _count("n_tx", n_tx), _count("n_rx", n_rx)
    radius = _real("radius", radius, above=0)
    rng = np.random.default_rng(rng_seed)
    theta_tx, theta_rx = rng.uniform(0.0, 2.0 * math.pi, size=2)

    def band(n, r_in, r_out, theta0):
        pts = []
        for k in range(n):
            r = r_in + (r_out - r_in) * (k + 0.5) / n
            th = theta0 + k * _GOLDEN_ANGLE
            pts.append(Vec3(r * math.cos(th), r * math.sin(th), 0.0))
        return tuple(pts)

    tx = band(n_tx, 0.50 * radius, radius, theta_tx)
    rx = band(n_rx, 0.10 * radius, 0.45 * radius, theta_rx)
    return ArrayGeometry(transmitters=tx, receivers=rx)


# --- canonical JSON document and fingerprint ------------------------------
#
# The JSON schema is owned by nfmimo.io; the canonical serialization lives
# here because the scenario fingerprint (used to pair measurement files with
# the scenario that produced them) must not depend on file-level concerns.


def _complex_pair(v: complex) -> list[float]:
    return [float(v.real), float(v.imag)]


def scenario_to_document(scenario: ImagingScenario) -> dict:
    """Plain-JSON-able dict describing the scenario losslessly."""
    pulse = scenario.pulse
    if isinstance(pulse, ConstantPulse):
        pulse_doc = {"mode": "constant", "value": _complex_pair(pulse.value)}
    else:
        pulse_doc = {
            "mode": "tabulated",
            "frequencies_hz": list(pulse.frequencies_hz),
            "values": [_complex_pair(v) for v in pulse.values],
        }
    return {
        "speed_of_light": scenario.c,
        "frequencies": {
            "start_hz": scenario.frequencies.f_start,
            "stop_hz": scenario.frequencies.f_stop,
            "count": scenario.frequencies.count,
        },
        "voxels": {
            "center": [scenario.voxels.center.x, scenario.voxels.center.y, scenario.voxels.center.z],
            "extent": list(scenario.voxels.extent),
            "dims": list(scenario.voxels.dims),
        },
        "pulse": pulse_doc,
        "transmitters": [[p.x, p.y, p.z] for p in scenario.array.transmitters],
        "receivers": [[p.x, p.y, p.z] for p in scenario.array.receivers],
    }


def _format_number(x) -> str:
    if isinstance(x, int):
        return str(x)
    # 17 significant digits round-trip any float64 exactly
    return format(float(x), ".17g")


def dumps_canonical(obj) -> str:
    """Compact JSON with sorted keys and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f'"{k}":{dumps_canonical(v)}' for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (int, float)):
        return _format_number(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def scenario_fingerprint(scenario: ImagingScenario) -> bytes:
    """32-byte SHA-256 of the canonical scenario document."""
    doc = scenario_to_document(scenario)
    return hashlib.sha256(dumps_canonical(doc).encode("utf-8")).digest()


# --- presets ---------------------------------------------------------------

_DESK_ARRAY_SEED = 7  # fixes the stand-in spiral layout of the paper-v preset


def preset_scenario(name: str) -> ImagingScenario:
    """Named scenario presets for the CLI and benchmarks.

    ``paper-v``: 16 Tx / 9 Rx spiral stand-in array of 0.25 m radius, 11
    frequencies across 4-16 GHz, a 30x30x10 cm scene 50 cm from the array
    sampled every 0.5 cm (61x61x21 voxels), flat unit pulse spectrum.
    """
    if name == "paper-v":
        return ImagingScenario(
            array=make_spiral_array(16, 9, 0.25, rng_seed=_DESK_ARRAY_SEED),
            frequencies=FrequencyGrid(4.0e9, 16.0e9, 11),
            voxels=VoxelGrid(center=Vec3(0.0, 0.0, 0.5), extent=(0.3, 0.3, 0.1), dims=(61, 61, 21)),
            pulse=ConstantPulse(1.0 + 0.0j),
        )
    raise ValueError(f"unknown preset {name!r} (available: paper-v)")
