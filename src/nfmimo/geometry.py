"""Antenna arrays, frequency grids, voxel grids and the scenario that joins
them. ``ImagingScenario.channel_shape`` and ``VoxelGrid.shape`` define the flat
channel and voxel numberings.

The scenario document is written (``scenario_to_document``, ``scenario_bytes``),
fingerprinted and read back (``document_to_scenario``) here, and the reader
checks each value with the types' own validators, naming its key path.

All types here are immutable after construction, so they are safe to share.
Distances are meters, frequencies Hz.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "SingularityError",
    "PlanTooLargeError",
    "Vec3",
    "ArrayGeometry",
    "FrequencyGrid",
    "VoxelGrid",
    "voxel_centers",
    "ConstantPulse",
    "TabulatedPulse",
    "PulseSpectrum",
    "ImagingScenario",
    "make_spiral_array",
    "scenario_fingerprint",
    "preset_scenario",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value


class SingularityError(ValueError):
    """A voxel center coincides with an antenna, or lies so near a transmitter
    and a receiver that the propagation term overflows."""


class PlanTooLargeError(ValueError):
    """The operator plan, or another array sized by the scenario, would not fit
    in the memory the OS reports available."""


_INDEX_MAX = int(np.iinfo(np.intp).max)  # the largest count numpy can index


def _available_bytes() -> int | None:
    """``MemAvailable`` from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_available(what: str, need: int) -> None:
    """Refuse, before it is allocated, ``need`` bytes for ``what`` beyond the
    memory the OS reports available; nothing is refused where it cannot be read."""
    available = _available_bytes()
    if available is not None and need > available:
        raise PlanTooLargeError(
            f"{what} needs {need / 1e9:.3g} GB, but only "
            f"{available / 1e9:.3g} GB of memory is available"
        )


# One validator per kind of scalar input. Each refuses with a ValueError that
# names the input; none coerces a bool or a string into a number.


def _real(name: str, value, above: float | None = None, at_least: float | None = None) -> float:
    """``value`` as a finite float, optionally > ``above`` or >= ``at_least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v!r}")
    if above is not None and not v > above:
        raise ValueError(f"{name} must be > {above:g}, got {v!r}")
    if at_least is not None and not v >= at_least:
        raise ValueError(f"{name} must be >= {at_least:g}, got {v!r}")
    return v


def _is_integer(value) -> bool:
    """Python and numpy integers; a bool is not one. The exact-type test comes
    first because an ABC check costs about 1 us, and matrix_element runs
    this per call."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _count(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int >= ``minimum``: integers and integral floats pass, a
    fraction is refused rather than truncated."""
    if not (_is_integer(value) or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    v = int(value)
    if v < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {v}")
    return v


def _complex(name: str, value) -> complex:
    """``value`` as a complex number with finite real and imaginary parts."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        v = complex(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large for a float") from None
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


@dataclass(frozen=True)
class ArrayGeometry:
    """Transmit and receive antenna positions, all in the z=0 plane."""

    transmitters: tuple[Vec3, ...]
    receivers: tuple[Vec3, ...]

    def __post_init__(self):
        for name in ("transmitters", "receivers"):
            ants = tuple(getattr(self, name))
            object.__setattr__(self, name, ants)
            if not ants:
                raise ValueError(f"{name} must be non-empty")
            for p in ants:
                if not isinstance(p, Vec3):
                    raise ValueError(f"{name} must hold Vec3 points, got {p!r}")
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
    Voxel (ix, iy, iz) sits at center - extent/2 + (ix*dx, iy*dy, iz*dz);
    ``shape`` gives its flat numbering.
    """

    center: Vec3
    extent: tuple[float, float, float]
    dims: tuple[int, int, int]

    def __post_init__(self):
        if not isinstance(self.center, Vec3):
            raise ValueError(f"center must be a Vec3, got {self.center!r}")
        ext = tuple(_real(f"extent[{i}]", e, at_least=0) for i, e in enumerate(self.extent))
        dims = tuple(_count(f"dims[{i}]", d) for i, d in enumerate(self.dims))
        if math.prod(dims) > _INDEX_MAX:
            raise ValueError(
                f"dims {dims} hold more than {_INDEX_MAX} voxels, numpy's largest index"
            )
        object.__setattr__(self, "extent", ext)
        object.__setattr__(self, "dims", dims)
        for axis, (e, d) in enumerate(zip(ext, dims)):
            if d == 1 and e != 0.0:
                raise ValueError(f"axis {axis} has a single voxel; extent must be 0, got {e}")
            if d > 1 and e == 0.0:
                raise ValueError(f"axis {axis} has {d} voxels; extent must be > 0")

    @property
    def shape(self) -> tuple[int, int, int]:
        """(nz, ny, nx): voxels flatten in C order over this shape, x fastest."""
        nx, ny, nz = self.dims
        return nz, ny, nx

    @property
    def n_voxels(self) -> int:
        return math.prod(self.dims)

    @property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(
            e / (d - 1) if d > 1 else 0.0 for e, d in zip(self.extent, self.dims)
        )


def _center(grid: VoxelGrid, ix, iy, iz) -> tuple:
    """(x, y, z) of voxel (ix, iy, iz), for scalar or array indices alike."""
    c, e = grid.center, grid.extent
    dx, dy, dz = grid.spacing
    return c.x - e[0] / 2.0 + ix * dx, c.y - e[1] / 2.0 + iy * dy, c.z - e[2] / 2.0 + iz * dz


def voxel_centers(grid: VoxelGrid) -> np.ndarray:
    """(N, 3) array of all voxel centers in flat order (x fastest)."""
    iz, iy, ix = np.unravel_index(np.arange(grid.n_voxels), grid.shape)
    return np.stack(_center(grid, ix, iy, iz), axis=1)


def _axes(grid: VoxelGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, z) coordinate axes: voxel (ix, iy, iz) sits at (x[ix], y[iy],
    z[iz]), with the same bits as its row of ``voxel_centers``."""
    return _center(grid, *(np.arange(d) for d in grid.dims))


@dataclass(frozen=True)
class ConstantPulse:
    """Flat pulse spectrum p(f) = value for every frequency."""

    value: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "value", _complex("pulse value", self.value))

    def evaluate(self, freqs: np.ndarray) -> np.ndarray:
        return np.full(np.shape(freqs), self.value, dtype=np.complex128)


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
        pulse, fg = self.pulse, self.frequencies
        if isinstance(pulse, TabulatedPulse):
            if not pulse.frequencies_hz[0] <= fg.f_start <= fg.f_stop <= pulse.frequencies_hz[-1]:
                raise ValueError("tabulated pulse knots do not cover the frequency band")
        elif not isinstance(pulse, ConstantPulse):
            raise ValueError(f"pulse must be a ConstantPulse or a TabulatedPulse, got {pulse!r}")
        # the axes, one antenna's squares and a temporary, 8 bytes each per
        # entry, are refused before they are allocated if they cannot fit
        _check_available("checking the voxel axes", 24 * sum(self.voxels.dims))
        # Fail fast on antenna/voxel coincidence so the element evaluation
        # never has to branch on a vanishing denominator, and on a distance, an
        # amplitude or a phase past the float range, which would make table
        # entries infinite or NaN. A squared distance is a sum of three
        # non-negative per-axis squares, so it is 0 exactly when each of them
        # is, and its smallest and largest values are the sums of their minima
        # and maxima: the checks cost O(nx + ny + nz) per antenna, not O(N),
        # and name the first flat voxel that is at distance 0.
        ants = np.vstack([self.array.tx_positions(), self.array.rx_positions()])
        nearest, farthest = [], []  # each antenna's smallest and largest squared distance
        with np.errstate(over="ignore"):  # an overflow is refused below
            axes = _axes(self.voxels)
            for x, y, z in ants:
                squares = [(axis - p) ** 2 for axis, p in zip(axes, (x, y, z))]
                farthest.append(sum(float(sq.max()) for sq in squares))
                if not math.isfinite(farthest[-1]):
                    raise ValueError(f"the distance from the antenna at ({x}, {y}, {z}) overflows")
                nearest.append(sum(float(sq.min()) for sq in squares))
                if nearest[-1] == 0.0:
                    ix, iy, iz = (int(np.flatnonzero(sq == 0.0)[0]) for sq in squares)
                    n = int(np.ravel_multi_index((iz, iy, ix), self.voxels.shape))
                    raise SingularityError(f"voxel {n} coincides with antenna at ({x}, {y}, {z})")
        # the largest amplitude 1/(4 pi dT dR), bounded by the nearest
        # transmitter and receiver distances; a denominator that underflows to
        # 0 is refused, not divided by. Its square is refused too: the
        # Lipschitz estimate and the gradient multiply an entry by its
        # conjugate.
        n_tx, f_max = self.array.n_tx, fg.f_stop
        d_tx, d_rx = math.sqrt(min(nearest[:n_tx])), math.sqrt(min(nearest[n_tx:]))
        at = f"at the nearest distances dT={d_tx:g} m and dR={d_rx:g} m"
        denominator = 4.0 * math.pi * d_tx * d_rx
        if denominator == 0.0 or not math.isfinite(1.0 / denominator):
            raise SingularityError(f"the amplitude 1/(4*pi*dT*dR) overflows {at}")
        if not math.isfinite((1.0 / denominator) * (1.0 / denominator)):
            raise SingularityError(f"the squared amplitude (1/(4*pi*dT*dR))**2 overflows {at}")
        # the largest phases the operator forms, each as it forms them: a
        # table's w_f * d (forward._tables) and an element's (2 pi / c) * f *
        # (dT + dR) (forward._element_row)
        d_tx, d_rx = math.sqrt(max(farthest[:n_tx])), math.sqrt(max(farthest[n_tx:]))
        table = 2.0 * math.pi * f_max / self.c * max(d_tx, d_rx)
        element = 2.0 * math.pi / self.c * f_max * (d_tx + d_rx)
        if not math.isfinite(max(table, element)):
            raise ValueError(
                f"the phase 2*pi*f*d/c overflows at f={f_max:g} Hz and speed of light {self.c:g}"
            )

    @property
    def channel_shape(self) -> tuple[int, int, int]:
        """(F, T, R): channels flatten in C order over this shape, receiver
        fastest."""
        return self.frequencies.count, self.array.n_tx, self.array.n_rx

    @property
    def n_channels(self) -> int:
        return math.prod(self.channel_shape)

    @property
    def n_voxels(self) -> int:
        return self.voxels.n_voxels


_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def make_spiral_array(n_tx: int, n_rx: int, radius: float, rng_seed: int = 0) -> ArrayGeometry:
    """Planar spiral MIMO array: Tx on an outer spiral band, Rx on an inner one.

    Deterministic for a fixed seed (the seed only rotates the two spirals).
    This is a generic stand-in layout, not a replica of any measured array.
    """
    n_tx, n_rx = _count("n_tx", n_tx), _count("n_rx", n_rx)
    radius = _real("radius", radius, above=0)
    rng = np.random.default_rng(_count("rng_seed", rng_seed, minimum=0))
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


# --- scenario document: writer, canonical text, fingerprint, reader ------
#
# The one serialization of a scenario and the fingerprint that pairs
# measurement files with it; nfmimo.io writes and reads files through these.


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
    # 17 significant digits round-trip any float64 exactly; adding 0.0 turns
    # -0.0 into 0.0, which JSON would read back as the int 0 from "-0"
    return format(float(x) + 0.0, ".17g")


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


def scenario_bytes(scenario: ImagingScenario) -> bytes:
    """The canonical document as UTF-8: a scenario file's exact bytes."""
    return dumps_canonical(scenario_to_document(scenario)).encode("utf-8")


def scenario_fingerprint(scenario: ImagingScenario) -> bytes:
    """32-byte SHA-256 of the canonical scenario document."""
    return hashlib.sha256(scenario_bytes(scenario)).digest()


def _object(doc, keys: set[str], path: str) -> dict:
    """A JSON object at ``path`` ("" for the whole document) holding exactly
    ``keys``; the message names the offending key by its full path."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path or 'scenario document'} must be a JSON object")
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown key {prefix}{key}")
    for key in sorted(keys):  # the same key is named on every run
        if key not in doc:
            raise ValueError(f"missing key {prefix}{key}")
    return doc


def _json_integer(path: str, value) -> int:
    """An integer leaf (a count or a dim) that numpy can index; the scenario
    types check its lower bound."""
    if not _is_integer(value):
        raise ValueError(f"{path} must be an integer, got {value!r}")
    if value > _INDEX_MAX:
        raise ValueError(f"{path} must be at most {_INDEX_MAX}, the largest numpy index")
    return value


def _numbers(value, path: str, n: int | None = None, leaf=_real) -> list:
    """A list of ``n`` leaves (any length when ``n`` is None), each checked by
    ``leaf`` under its own key path."""
    if not isinstance(value, list) or (n is not None and len(value) != n):
        count = f"{n} " if n else ""
        raise ValueError(f"{path} must be a list of {count}numbers")
    return [leaf(f"{path}[{i}]", v) for i, v in enumerate(value)]


def _parse_pulse(doc) -> PulseSpectrum:
    # the mode picks the key set, so it is checked first
    if not isinstance(doc, dict):
        raise ValueError("pulse must be a JSON object")
    if "mode" not in doc:
        raise ValueError("missing key pulse.mode")
    if doc["mode"] == "constant":
        _object(doc, {"mode", "value"}, "pulse")
        return ConstantPulse(complex(*_numbers(doc["value"], "pulse.value", 2)))
    if doc["mode"] == "tabulated":
        _object(doc, {"mode", "frequencies_hz", "values"}, "pulse")
        vals = doc["values"]
        if not isinstance(vals, list):
            raise ValueError("pulse.values must be a list of [re, im] pairs")
        return TabulatedPulse(
            tuple(_numbers(doc["frequencies_hz"], "pulse.frequencies_hz")),
            tuple(complex(*_numbers(v, f"pulse.values[{i}]", 2)) for i, v in enumerate(vals)),
        )
    raise ValueError("pulse.mode must be 'constant' or 'tabulated'")


def _parse_antennas(doc, key: str) -> tuple[Vec3, ...]:
    v = doc[key]
    if not isinstance(v, list) or not v:
        raise ValueError(f"{key} must be a non-empty list of [x, y, z] positions")
    return tuple(Vec3(*_numbers(pos, f"{key}[{i}]", 3)) for i, pos in enumerate(v))


def document_to_scenario(doc) -> ImagingScenario:
    """The scenario a decoded JSON document describes; a value that breaks the
    schema is a ``ValueError`` naming its key path."""
    top = {"speed_of_light", "frequencies", "voxels", "pulse", "transmitters", "receivers"}
    _object(doc, top, "")
    freq_doc = _object(doc["frequencies"], {"start_hz", "stop_hz", "count"}, "frequencies")
    vox_doc = _object(doc["voxels"], {"center", "extent", "dims"}, "voxels")
    return ImagingScenario(
        array=ArrayGeometry(
            transmitters=_parse_antennas(doc, "transmitters"),
            receivers=_parse_antennas(doc, "receivers"),
        ),
        frequencies=FrequencyGrid(
            f_start=_real("frequencies.start_hz", freq_doc["start_hz"]),
            f_stop=_real("frequencies.stop_hz", freq_doc["stop_hz"]),
            count=_json_integer("frequencies.count", freq_doc["count"]),
        ),
        voxels=VoxelGrid(
            center=Vec3(*_numbers(vox_doc["center"], "voxels.center", 3)),
            extent=tuple(_numbers(vox_doc["extent"], "voxels.extent", 3)),
            dims=tuple(_numbers(vox_doc["dims"], "voxels.dims", 3, _json_integer)),
        ),
        pulse=_parse_pulse(doc["pulse"]),
        c=_real("speed_of_light", doc["speed_of_light"]),
    )


# --- presets ---------------------------------------------------------------

# The paper-v values, stated once. The keys are ``scenario-init --custom``'s
# flag names and each flag takes its default from here, so each value keeps
# the type its flag parses into. The array seed fixes the stand-in spiral
# layout.
_PAPER_V = {
    "tx": 16, "rx": 9, "radius": 0.25, "array_seed": 7,
    "f_start": 4e9, "f_stop": 16e9, "f_count": 11,
    "center": (0.0, 0.0, 0.5), "extent": (0.3, 0.3, 0.1), "dims": (61, 61, 21),
}


def _spiral_scenario(
    *, tx, rx, radius, array_seed, f_start, f_stop, f_count, center, extent, dims
) -> ImagingScenario:
    """A spiral-array scenario with a flat unit pulse; the paper-v preset and
    ``scenario-init --custom`` are both built here. ``extent`` None is
    paper-v's scene extent, collapsed to 0 on single-voxel axes."""
    if extent is None:
        extent = tuple(0.0 if d == 1 else e for e, d in zip(_PAPER_V["extent"], dims))
    return ImagingScenario(
        array=make_spiral_array(tx, rx, radius, rng_seed=array_seed),
        frequencies=FrequencyGrid(f_start, f_stop, f_count),
        voxels=VoxelGrid(center=Vec3(*center), extent=extent, dims=dims),
    )


def preset_scenario(name: str) -> ImagingScenario:
    """Named scenario presets for the CLI and benchmarks.

    ``paper-v``: 16 Tx / 9 Rx spiral stand-in array of 0.25 m radius, 11
    frequencies across 4-16 GHz, a 30x30x10 cm scene 50 cm from the array
    sampled every 0.5 cm (61x61x21 voxels), flat unit pulse spectrum.
    """
    if name == "paper-v":
        return _spiral_scenario(**_PAPER_V)
    raise ValueError(f"unknown preset {name!r} (available: paper-v)")
