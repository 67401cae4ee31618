"""Bit-exact file formats: binary volumes and measurements, JSON scenarios,
and CSV slice export for plotting.

Binary layout (all little-endian):

  volume       "NFMV" | u16 version | u32 nx, ny, nz | N complex entries as
               float64 (re, im) pairs in flat x-fastest order | u64 checksum
  measurements "NFMS" | u16 version | u32 M | 32-byte scenario fingerprint |
               M complex float64 pairs in flat channel order | u64 checksum

The checksum is the sum of the payload bytes modulo 2^64. Readers validate
lengths before touching the payload and reject non-finite payload values, so
corrupt or truncated files raise a FormatError subclass instead of crashing.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .forward import MeasurementSet, ReflectivityVolume
from .geometry import (
    ArrayGeometry,
    ConstantPulse,
    FrequencyGrid,
    ImagingScenario,
    TabulatedPulse,
    Vec3,
    VoxelGrid,
    dumps_canonical,
    scenario_fingerprint,
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
    if not payload:
        return 0
    return int(np.frombuffer(payload, dtype=np.uint8).sum(dtype=np.uint64))


def _complex_payload(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<c16").tobytes()


def _split_file(data: bytes, header_size: int, count: int, what: str):
    expected = header_size + 16 * count + _CHECKSUM.size
    if len(data) != expected:
        raise TruncatedFileError(
            f"{what} file holds {len(data)} bytes, expected {expected}"
        )
    payload = data[header_size : header_size + 16 * count]
    (stored,) = _CHECKSUM.unpack_from(data, header_size + 16 * count)
    if stored != _checksum(payload):
        raise ChecksumError(f"{what} payload checksum mismatch")
    values = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{what} payload holds non-finite values")
    return values


def _check_header(data: bytes, magic: bytes, header_size: int, what: str) -> None:
    if len(data) < header_size:
        raise TruncatedFileError(f"{what} file too short for its header")
    if data[:4] != magic:
        raise BadMagicError(f"not a {what} file (magic {data[:4]!r})")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported {what} format version {version}")


def write_volume(volume: ReflectivityVolume, path) -> None:
    nx, ny, nz = volume.grid.dims
    payload = _complex_payload(volume.values)
    blob = (
        _VOL_HEADER.pack(VOLUME_MAGIC, FORMAT_VERSION, nx, ny, nz)
        + payload
        + _CHECKSUM.pack(_checksum(payload))
    )
    Path(path).write_bytes(blob)


def read_volume(path, grid: VoxelGrid | None = None) -> ReflectivityVolume:
    """Load a volume file.

    The format stores only the grid dims; pass ``grid`` to attach full scene
    geometry (dims are checked), otherwise a unit-spacing grid centered at
    the origin is used.
    """
    data = Path(path).read_bytes()
    _check_header(data, VOLUME_MAGIC, _VOL_HEADER.size, "volume")
    _, _, nx, ny, nz = _VOL_HEADER.unpack_from(data)
    if min(nx, ny, nz) < 1:
        raise SchemaError(f"volume dims must be >= 1, got ({nx},{ny},{nz})")
    values = _split_file(data, _VOL_HEADER.size, nx * ny * nz, "volume")
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
    payload = _complex_payload(measurements.values)
    blob = (
        _MEAS_HEADER.pack(
            MEASUREMENT_MAGIC,
            FORMAT_VERSION,
            measurements.values.size,
            measurements.fingerprint,
        )
        + payload
        + _CHECKSUM.pack(_checksum(payload))
    )
    Path(path).write_bytes(blob)


def read_measurements(path, scenario: ImagingScenario | None = None) -> MeasurementSet:
    """Load a measurement file; with ``scenario`` given, refuse fingerprint
    mismatches (the measurements were made for a different scenario)."""
    data = Path(path).read_bytes()
    _check_header(data, MEASUREMENT_MAGIC, _MEAS_HEADER.size, "measurement")
    _, _, m_count, fingerprint = _MEAS_HEADER.unpack_from(data)
    values = _split_file(data, _MEAS_HEADER.size, m_count, "measurement")
    if scenario is not None:
        if fingerprint != scenario_fingerprint(scenario):
            raise FingerprintMismatchError(
                "measurement fingerprint does not match the scenario"
            )
        if m_count != scenario.n_channels:
            raise FingerprintMismatchError(
                f"file holds {m_count} channels, scenario defines {scenario.n_channels}"
            )
    return MeasurementSet(values=values, fingerprint=fingerprint)


# --- scenario JSON documents ------------------------------------------------


def _require_keys(doc: dict, allowed: set[str], required: set[str], path: str) -> None:
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"unknown key {path}{key}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"missing key {path}{key}")


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


def _parse_pulse(doc, path: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path[:-1]} must be an object")
    mode = doc.get("mode")
    if mode == "constant":
        _require_keys(doc, {"mode", "value"}, {"mode", "value"}, path)
        return ConstantPulse(complex(*_numbers(doc["value"], path + "value", 2)))
    if mode == "tabulated":
        _require_keys(
            doc, {"mode", "frequencies_hz", "values"}, {"mode", "frequencies_hz", "values"}, path
        )
        vals = doc["values"]
        if not isinstance(vals, list):
            raise SchemaError(f"{path}values must be a list of [re, im] pairs")
        return TabulatedPulse(
            tuple(_numbers(doc["frequencies_hz"], path + "frequencies_hz")),
            tuple(complex(*_numbers(v, f"{path}values[{i}]", 2)) for i, v in enumerate(vals)),
        )
    raise SchemaError(f"{path}mode must be 'constant' or 'tabulated'")


def _parse_antennas(doc, key: str) -> tuple[Vec3, ...]:
    v = doc[key]
    if not isinstance(v, list) or not v:
        raise SchemaError(f"{key} must be a non-empty list of [x, y, z] positions")
    return tuple(Vec3(*_numbers(pos, f"{key}[{i}]", 3)) for i, pos in enumerate(v))


def document_to_scenario(doc: dict) -> ImagingScenario:
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a JSON object")
    top = {"speed_of_light", "frequencies", "voxels", "pulse", "transmitters", "receivers"}
    _require_keys(doc, top, top, "")
    freq_doc = doc["frequencies"]
    if not isinstance(freq_doc, dict):
        raise SchemaError("frequencies must be an object")
    _require_keys(
        freq_doc, {"start_hz", "stop_hz", "count"}, {"start_hz", "stop_hz", "count"}, "frequencies."
    )
    vox_doc = doc["voxels"]
    if not isinstance(vox_doc, dict):
        raise SchemaError("voxels must be an object")
    _require_keys(vox_doc, {"center", "extent", "dims"}, {"center", "extent", "dims"}, "voxels.")
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
            pulse=_parse_pulse(doc["pulse"], "pulse."),
            c=_number(doc["speed_of_light"], "speed_of_light"),
        )
    except FormatError:
        raise
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"invalid scenario document: {exc}") from exc


def _pretty_json(doc, indent: int = 0) -> str:
    # hand-rolled writer so floats keep 17 significant digits
    pad = "  " * indent
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_pretty_json(v, indent + 1)}' for k, v in doc.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(doc, list):
        if all(not isinstance(v, (dict, list)) for v in doc):
            return "[" + ", ".join(_pretty_json(v) for v in doc) + "]"
        items = ",\n".join(f"{pad}  {_pretty_json(v, indent + 1)}" for v in doc)
        return "[\n" + items + "\n" + pad + "]"
    return dumps_canonical(doc)


def write_scenario(scenario: ImagingScenario, path) -> None:
    Path(path).write_text(_pretty_json(scenario_to_document(scenario)) + "\n")


def read_scenario(path) -> ImagingScenario:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
    return document_to_scenario(doc)


# --- CSV slice export ---------------------------------------------------------


def export_slices_csv(volume: ReflectivityVolume, path_prefix) -> list[Path]:
    """One CSV per z slice of |s| normalized to the volume-wide peak.

    Rows run over y, columns over x; files are named <prefix>_z<k>.csv.
    """
    mag = np.abs(volume.values).reshape(volume.grid.shape)
    peak = float(mag.max())
    if peak > 0:
        mag = mag / peak
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
