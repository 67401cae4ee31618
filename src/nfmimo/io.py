"""Bit-exact file formats: binary volumes and measurements, JSON scenarios,
and CSV slice export for plotting.

Both binary formats share one container (all little-endian):

  magic | u16 version | header fields | N complex entries as float64
  (re, im) pairs | u64 checksum

  volume       magic "NFMV", header u32 nx, ny, nz; N = nx*ny*nz entries
               in flat x-fastest order
  measurements magic "NFMS", header u32 M | 32-byte scenario fingerprint;
               N = M entries in flat channel order

The checksum is the sum of the payload bytes modulo 2^64. Readers validate
lengths before touching the payload and reject non-finite payload values, so
corrupt or truncated files raise a FormatError subclass instead of crashing.

A scenario file is its canonical document (``dumps_canonical``: compact, sorted
keys, 17 significant digits, no trailing newline), so its SHA-256 is the
fingerprint NFMS headers carry; the reader takes any JSON layout of it.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .forward import MeasurementSet, ReflectivityVolume, _normalized_magnitude
from .geometry import (
    ArrayGeometry,
    ConstantPulse,
    FrequencyGrid,
    ImagingScenario,
    TabulatedPulse,
    Vec3,
    VoxelGrid,
    dumps_canonical,
    scenario_to_document,
)

__all__ = [
    "FormatError",
    "BadMagicError",
    "VersionError",
    "TruncatedFileError",
    "ChecksumError",
    "SchemaError",
    "FingerprintMismatchError",
    "write_volume",
    "read_volume",
    "write_measurements",
    "read_measurements",
    "write_scenario",
    "read_scenario",
    "export_slices_csv",
]

VOLUME_MAGIC = b"NFMV"
MEASUREMENT_MAGIC = b"NFMS"
FORMAT_VERSION = 1

_VOL_HEADER = struct.Struct("<4sHIII")
_MEAS_HEADER = struct.Struct("<4sHI32s")
_CHECKSUM = struct.Struct("<Q")


class FormatError(Exception):
    """Base class for all file-format failures."""


class BadMagicError(FormatError):
    pass


class VersionError(FormatError):
    pass


class TruncatedFileError(FormatError):
    pass


class ChecksumError(FormatError):
    pass


class SchemaError(FormatError):
    """Scenario document violates the schema; the message names the key path."""


class FingerprintMismatchError(FormatError):
    """Measurement file was produced by a different scenario."""


def _checksum(payload: bytes) -> int:
    return int(np.frombuffer(payload, dtype=np.uint8).sum(dtype=np.uint64))


def _write(path, header: bytes, values: np.ndarray) -> None:
    payload = np.ascontiguousarray(values, dtype="<c16").tobytes()
    Path(path).write_bytes(header + payload + _CHECKSUM.pack(_checksum(payload)))


def _read(path, layout: struct.Struct, magic: bytes, what: str, count):
    """Check a container file and return ``(header fields, values)``.

    ``layout`` unpacks magic, version and the header fields; ``count`` maps
    the header fields to the number of complex entries."""
    data = Path(path).read_bytes()
    if len(data) < layout.size:
        raise TruncatedFileError(f"{what} file too short for its header")
    file_magic, version, *fields = layout.unpack_from(data)
    if file_magic != magic:
        raise BadMagicError(f"not a {what} file (magic {file_magic!r})")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported {what} format version {version}")
    end = layout.size + 16 * count(fields)
    if len(data) != end + _CHECKSUM.size:
        raise TruncatedFileError(
            f"{what} file holds {len(data)} bytes, expected {end + _CHECKSUM.size}"
        )
    payload = data[layout.size : end]
    (stored,) = _CHECKSUM.unpack_from(data, end)
    if stored != _checksum(payload):
        raise ChecksumError(f"{what} payload checksum mismatch")
    values = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{what} payload holds non-finite values")
    return fields, values


def _voxel_count(dims) -> int:
    nx, ny, nz = dims
    if min(dims) < 1:
        raise SchemaError(f"volume dims must be >= 1, got ({nx},{ny},{nz})")
    return nx * ny * nz


def write_volume(volume: ReflectivityVolume, path) -> None:
    _write(path, _VOL_HEADER.pack(VOLUME_MAGIC, FORMAT_VERSION, *volume.grid.dims), volume.values)


def read_volume(path, grid: VoxelGrid | None = None) -> ReflectivityVolume:
    """Load a volume file.

    The format stores only the grid dims; pass ``grid`` to attach full scene
    geometry (dims are checked), otherwise a unit-spacing grid centered at
    the origin is used.
    """
    (nx, ny, nz), values = _read(path, _VOL_HEADER, VOLUME_MAGIC, "volume", _voxel_count)
    if grid is None:
        grid = VoxelGrid(
            center=Vec3(0.0, 0.0, 0.0),
            extent=(float(nx - 1), float(ny - 1), float(nz - 1)),
            dims=(nx, ny, nz),
        )
    elif grid.dims != (nx, ny, nz):
        raise ValueError(f"file dims ({nx},{ny},{nz}) do not match grid {grid.dims}")
    return ReflectivityVolume(values, grid)


def write_measurements(measurements: MeasurementSet, path) -> None:
    header = _MEAS_HEADER.pack(
        MEASUREMENT_MAGIC, FORMAT_VERSION, measurements.values.size, measurements.fingerprint
    )
    _write(path, header, measurements.values)


def read_measurements(path, scenario: ImagingScenario | None = None) -> MeasurementSet:
    """Load a measurement file; with ``scenario`` given, refuse a file whose
    fingerprint or channel count differs (the measurements were made for a
    different scenario)."""
    (_, fingerprint), values = _read(
        path, _MEAS_HEADER, MEASUREMENT_MAGIC, "measurement", lambda fields: fields[0]
    )
    measurements = MeasurementSet(values=values, fingerprint=fingerprint)
    if scenario is not None and not measurements.matches(scenario):
        raise FingerprintMismatchError(
            f"measurements ({values.size} channels) were made for a different scenario"
        )
    return measurements


# --- scenario JSON documents ------------------------------------------------


def _object(doc, keys: set[str], path: str) -> dict:
    """A JSON object at ``path`` ("" for the whole document) holding exactly
    ``keys``; the message names the offending key by its full path."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path or 'scenario document'} must be a JSON object")
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in keys:
            raise SchemaError(f"unknown key {prefix}{key}")
    for key in sorted(keys):  # the same key is named on every run
        if key not in doc:
            raise SchemaError(f"missing key {prefix}{key}")
    return doc


def _number(value, path: str, integer: bool = False):
    """A numeric leaf of a scenario document: a JSON number (an integer when
    asked), never a bool or a string. The scenario types check its value."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise SchemaError(f"{path} must be {kind}, got {value!r}")
    return value if integer else float(value)


def _numbers(value, path: str, n: int | None = None, integer: bool = False) -> list:
    """A list of ``n`` numeric leaves (any length when ``n`` is None)."""
    if not isinstance(value, list) or (n is not None and len(value) != n):
        count = f"{n} " if n else ""
        raise SchemaError(f"{path} must be a list of {count}numbers")
    return [_number(v, f"{path}[{i}]", integer) for i, v in enumerate(value)]


def _parse_pulse(doc):
    mode = doc.get("mode") if isinstance(doc, dict) else None
    if mode == "constant":
        _object(doc, {"mode", "value"}, "pulse")
        return ConstantPulse(complex(*_numbers(doc["value"], "pulse.value", 2)))
    if mode == "tabulated":
        _object(doc, {"mode", "frequencies_hz", "values"}, "pulse")
        vals = doc["values"]
        if not isinstance(vals, list):
            raise SchemaError("pulse.values must be a list of [re, im] pairs")
        return TabulatedPulse(
            tuple(_numbers(doc["frequencies_hz"], "pulse.frequencies_hz")),
            tuple(complex(*_numbers(v, f"pulse.values[{i}]", 2)) for i, v in enumerate(vals)),
        )
    _object(doc, {"mode"}, "pulse")  # a pulse that is no object or has no mode
    raise SchemaError("pulse.mode must be 'constant' or 'tabulated'")


def _parse_antennas(doc, key: str) -> tuple[Vec3, ...]:
    v = doc[key]
    if not isinstance(v, list) or not v:
        raise SchemaError(f"{key} must be a non-empty list of [x, y, z] positions")
    return tuple(Vec3(*_numbers(pos, f"{key}[{i}]", 3)) for i, pos in enumerate(v))


def document_to_scenario(doc: dict) -> ImagingScenario:
    top = {"speed_of_light", "frequencies", "voxels", "pulse", "transmitters", "receivers"}
    _object(doc, top, "")
    freq_doc = _object(doc["frequencies"], {"start_hz", "stop_hz", "count"}, "frequencies")
    vox_doc = _object(doc["voxels"], {"center", "extent", "dims"}, "voxels")
    try:
        return ImagingScenario(
            array=ArrayGeometry(
                transmitters=_parse_antennas(doc, "transmitters"),
                receivers=_parse_antennas(doc, "receivers"),
            ),
            frequencies=FrequencyGrid(
                f_start=_number(freq_doc["start_hz"], "frequencies.start_hz"),
                f_stop=_number(freq_doc["stop_hz"], "frequencies.stop_hz"),
                count=_number(freq_doc["count"], "frequencies.count", integer=True),
            ),
            voxels=VoxelGrid(
                center=Vec3(*_numbers(vox_doc["center"], "voxels.center", 3)),
                extent=tuple(_numbers(vox_doc["extent"], "voxels.extent", 3)),
                dims=tuple(_numbers(vox_doc["dims"], "voxels.dims", 3, integer=True)),
            ),
            pulse=_parse_pulse(doc["pulse"]),
            c=_number(doc["speed_of_light"], "speed_of_light"),
        )
    except FormatError:
        raise
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"invalid scenario document: {exc}") from exc


def write_scenario(scenario: ImagingScenario, path) -> None:
    """Write the canonical document, the text ``scenario_fingerprint`` hashes."""
    Path(path).write_bytes(dumps_canonical(scenario_to_document(scenario)).encode("utf-8"))


def read_scenario(path) -> ImagingScenario:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
    return document_to_scenario(doc)


# --- CSV slice export ---------------------------------------------------------


def export_slices_csv(volume: ReflectivityVolume, path_prefix) -> list[Path]:
    """One CSV per z slice of |s| normalized to the volume-wide peak.

    Rows run over y, columns over x; files are named <prefix>_z<k>.csv.
    """
    mag = _normalized_magnitude(volume).reshape(volume.grid.shape)
    prefix = str(path_prefix)
    paths = []
    for k, plane in enumerate(mag):
        out = Path(f"{prefix}_z{k}.csv")
        lines = [
            ",".join(format(v, ".17g") for v in row)
            for row in plane
        ]
        out.write_text("\n".join(lines) + "\n")
        paths.append(out)
    return paths
