"""Bit-exact file formats: binary volumes and measurements, the scenario
file, and CSV slice export for plotting.

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

A scenario file is the canonical document that ``nfmimo.geometry`` writes,
reads and fingerprints (compact, sorted keys, 17 significant digits), so its
SHA-256 is the fingerprint NFMS headers carry; a refused one is a SchemaError.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .forward import MeasurementSet, ReflectivityVolume, _normalized_magnitude
from .geometry import ImagingScenario, Vec3, VoxelGrid, _format_number, document_to_scenario, scenario_bytes

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
        raise FormatError(f"volume header dims must be >= 1, got ({nx},{ny},{nz})")
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


# --- scenario files -----------------------------------------------------------


def write_scenario(scenario: ImagingScenario, path) -> None:
    """Write the canonical document, the bytes ``scenario_fingerprint`` hashes."""
    Path(path).write_bytes(scenario_bytes(scenario))


def read_scenario(path) -> ImagingScenario:
    """Read a scenario file of any JSON layout; any refusal is a SchemaError."""
    # ValueError covers bad JSON, bad UTF-8 and an integer past Python's
    # 4300-digit conversion limit; RecursionError, nesting too deep to decode
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
    try:
        return document_to_scenario(doc)
    except (ValueError, TypeError) as exc:
        raise SchemaError(str(exc)) from exc


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
        lines = [",".join(_format_number(v) for v in row) for row in plane]
        out.write_text("\n".join(lines) + "\n")
        paths.append(out)
    return paths
