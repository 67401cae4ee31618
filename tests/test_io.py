import hashlib
import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import nfmimo.forward
from nfmimo import (
    ArrayGeometry,
    ConstantPulse,
    FrequencyGrid,
    ImagingScenario,
    MeasurementSet,
    ReflectivityVolume,
    TabulatedPulse,
    Vec3,
    VoxelGrid,
    make_spiral_array,
    preset_scenario,
    scenario_fingerprint,
    simulate_measurements,
)
from nfmimo.io import (
    BadMagicError,
    ChecksumError,
    FingerprintMismatchError,
    FormatError,
    SchemaError,
    TruncatedFileError,
    VersionError,
    export_slices_csv,
    read_measurements,
    read_scenario,
    read_volume,
    write_measurements,
    write_scenario,
    write_volume,
)
from nfmimo.geometry import dumps_canonical, scenario_bytes
from conftest import random_complex


@pytest.fixture
def volume(rng):
    grid = VoxelGrid(center=Vec3(0.01, -0.02, 0.4), extent=(0.1, 0.15, 0.05), dims=(3, 4, 2))
    return ReflectivityVolume(random_complex(rng, grid.n_voxels), grid)


class TestVolumeFile:
    def test_round_trip_bit_exact(self, volume, tmp_path):
        path = tmp_path / "v.nfmv"
        write_volume(volume, path)
        back = read_volume(path, grid=volume.grid)
        assert np.array_equal(back.values, volume.values)
        assert back.grid == volume.grid

    def test_read_without_grid_uses_unit_spacing(self, volume, tmp_path):
        path = tmp_path / "v.nfmv"
        write_volume(volume, path)
        back = read_volume(path)
        assert back.grid.dims == volume.grid.dims
        assert np.array_equal(back.values, volume.values)

    def test_grid_dims_mismatch(self, volume, tmp_path):
        path = tmp_path / "v.nfmv"
        write_volume(volume, path)
        wrong = VoxelGrid(center=Vec3(0, 0, 0), extent=(0.1, 0.1, 0), dims=(2, 2, 1))
        with pytest.raises(ValueError, match="dims"):
            read_volume(path, grid=wrong)

    def test_truncated_file(self, volume, tmp_path):
        path = tmp_path / "v.nfmv"
        write_volume(volume, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])
        with pytest.raises(TruncatedFileError):
            read_volume(path)

    def test_flipped_payload_byte(self, volume, tmp_path):
        path = tmp_path / "v.nfmv"
        write_volume(volume, path)
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF  # inside the complex payload
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            read_volume(path)

    def test_bad_magic(self, volume, tmp_path):
        path = tmp_path / "v.nfmv"
        write_volume(volume, path)
        blob = bytearray(path.read_bytes())
        blob[0:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            read_volume(path)

    def test_version_mismatch(self, volume, tmp_path):
        path = tmp_path / "v.nfmv"
        write_volume(volume, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            read_volume(path)

    def test_zero_dim_in_the_header_is_a_format_error(self, tmp_path):
        # no payload for 0 voxels, so the checksum is 0; this is a volume
        # header fault, not a scenario document's SchemaError
        path = tmp_path / "v.nfmv"
        path.write_bytes(struct.pack("<4sHIII", b"NFMV", 1, 2, 0, 2) + struct.pack("<Q", 0))
        named = r"^volume header dims must be >= 1, got \(2,0,2\)$"
        with pytest.raises(FormatError, match=named) as info:
            read_volume(path)
        assert not isinstance(info.value, SchemaError)


class TestMeasurementFile:
    def test_round_trip_bit_exact(self, small_scenario, rng, tmp_path):
        mset = simulate_measurements(
            random_complex(rng, small_scenario.n_voxels), small_scenario,
            noise_sigma=0.1, rng_seed=3,
        )
        path = tmp_path / "m.nfms"
        write_measurements(mset, path)
        back = read_measurements(path, scenario=small_scenario)
        assert np.array_equal(back.values, mset.values)
        assert back.fingerprint == mset.fingerprint

    def test_fingerprint_mismatch_detected(self, small_scenario, tiny_scenario, rng, tmp_path):
        mset = MeasurementSet(
            random_complex(rng, tiny_scenario.n_channels), scenario_fingerprint(tiny_scenario)
        )
        path = tmp_path / "m.nfms"
        write_measurements(mset, path)
        with pytest.raises(FingerprintMismatchError):
            read_measurements(path, scenario=small_scenario)
        # loading without a scenario skips the check
        assert read_measurements(path).values.size == tiny_scenario.n_channels

    def test_extra_bytes_rejected(self, small_scenario, rng, tmp_path):
        mset = MeasurementSet(
            random_complex(rng, small_scenario.n_channels), scenario_fingerprint(small_scenario)
        )
        path = tmp_path / "m.nfms"
        write_measurements(mset, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TruncatedFileError):
            read_measurements(path)


class TestWrittenBytes:
    """Read-back alone cannot see a writer that changes bytes both ways, so
    the files written from fixed inputs are pinned by digest."""

    @pytest.mark.parametrize(
        "write, digest",
        [
            (
                lambda scn, path: write_volume(
                    ReflectivityVolume(np.arange(scn.n_voxels) * (0.5 - 0.25j), scn.voxels), path
                ),
                "a16c4bc05aa41d9f9ed513a560e3d157e1f22f4a8feb6266b7f49e1c7b117d6f",
            ),
            (
                lambda scn, path: write_measurements(
                    MeasurementSet(np.arange(scn.n_channels) * (1 - 2j) / 3, scenario_fingerprint(scn)),
                    path,
                ),
                "0d7443fc3f15159bb600de7cd35c22d9e930df5372ca5a1cc9460f0bf0276817",
            ),
            # the canonical document, so this is scenario_fingerprint(tiny_scenario).hex()
            (write_scenario, "38a1d4af25d31a282a5bb36ce308f244dc3ffb4f0b816c9007ab05555af7dcaa"),
        ],
        ids=["volume", "measurements", "scenario"],
    )
    def test_sha256_is_pinned(self, tiny_scenario, tmp_path, write, digest):
        path = tmp_path / "out"
        write(tiny_scenario, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _nfmv_bytes(payload: bytes, dims: tuple[int, int, int]) -> bytes:
    """NFMV file assembled field by field, with a valid byte-sum checksum."""
    return struct.pack("<4sHIII", b"NFMV", 1, *dims) + payload + struct.pack("<Q", sum(payload))


def _nfms_bytes(payload: bytes, fingerprint: bytes) -> bytes:
    count = len(payload) // 16
    return (
        struct.pack("<4sHI32s", b"NFMS", 1, count, fingerprint)
        + payload
        + struct.pack("<Q", sum(payload))
    )


def _payload(values) -> bytes:
    return b"".join(struct.pack("<dd", v.real, v.imag) for v in values)


class TestNonFinitePayload:
    @pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.inf), complex(-np.inf, 0)])
    def test_volume_rejected(self, tmp_path, bad):
        path = tmp_path / "v.nfmv"
        path.write_bytes(_nfmv_bytes(_payload([1 + 0j, bad, 0j, 2j]), (2, 2, 1)))
        with pytest.raises(FormatError, match="non-finite"):
            read_volume(path)

    @pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.inf), complex(-np.inf, 0)])
    def test_measurements_rejected(self, small_scenario, tmp_path, bad):
        values = [1 + 0j] * small_scenario.n_channels
        values[3] = bad
        path = tmp_path / "m.nfms"
        path.write_bytes(_nfms_bytes(_payload(values), scenario_fingerprint(small_scenario)))
        with pytest.raises(FormatError, match="non-finite"):
            read_measurements(path)
        with pytest.raises(FormatError, match="non-finite"):
            read_measurements(path, scenario=small_scenario)

    def test_byte_swap_to_nan_survives_checksum_but_is_rejected(self, tmp_path):
        # bytes ...7F F8 little-endian are a finite double (about -1e272);
        # swapping the top two bytes gives ...F8 7F, a quiet NaN, with the
        # same byte sum
        finite = struct.unpack("<d", bytes(6) + b"\x7f\xf8")[0]
        payload = bytearray(_payload([complex(finite, 0.0), 1j]))
        path = tmp_path / "v.nfmv"
        path.write_bytes(_nfmv_bytes(bytes(payload), (2, 1, 1)))
        assert read_volume(path).values[0] == finite
        payload[6], payload[7] = payload[7], payload[6]
        path.write_bytes(_nfmv_bytes(bytes(payload), (2, 1, 1)))
        with pytest.raises(FormatError, match="non-finite"):
            read_volume(path)


class TestFuzzing:
    def test_mutated_files_error_instead_of_crashing(self, volume, small_scenario, rng, tmp_path):
        vol_path = tmp_path / "v.nfmv"
        write_volume(volume, vol_path)
        meas_path = tmp_path / "m.nfms"
        write_measurements(
            MeasurementSet(
                random_complex(rng, small_scenario.n_channels), scenario_fingerprint(small_scenario)
            ),
            meas_path,
        )
        # measurements are read with the scenario attached: the checksum does
        # not cover the header fingerprint, so only the pairing check can
        # surface mutations there
        seeds = [
            (vol_path.read_bytes(), read_volume),
            (meas_path.read_bytes(), lambda p: read_measurements(p, scenario=small_scenario)),
        ]
        target = tmp_path / "fuzz.bin"
        for blob, reader in seeds:
            for trial in range(500):
                data = bytearray(blob)
                op = rng.integers(0, 3)
                if op == 0 and len(data) > 1:  # point mutation
                    pos = int(rng.integers(0, len(data)))
                    data[pos] ^= int(rng.integers(1, 256))
                elif op == 1:  # truncate
                    data = data[: int(rng.integers(0, len(data)))]
                else:  # extend with noise
                    data += bytes(rng.integers(0, 256, size=int(rng.integers(1, 64))).tolist())
                target.write_bytes(bytes(data))
                with pytest.raises(FormatError):
                    reader(target)

    def test_megabyte_of_noise_is_rejected(self, rng, tmp_path):
        target = tmp_path / "noise.bin"
        target.write_bytes(bytes(rng.integers(0, 256, size=1_000_000, dtype=np.uint8)))
        with pytest.raises(FormatError):
            read_volume(target)
        with pytest.raises(FormatError):
            read_measurements(target)

    def test_huge_claimed_dims_rejected_before_allocation(self, tmp_path):
        import struct

        # header claims ~7e22 voxels; the reader must fail on length, not allocate
        blob = struct.pack("<4sHIII", b"NFMV", 1, 2**32 - 1, 2**32 - 1, 4) + b"\0" * 64
        target = tmp_path / "huge.nfmv"
        target.write_bytes(blob)
        with pytest.raises(TruncatedFileError):
            read_volume(target)


def _tabulated_scenario():
    return ImagingScenario(
        array=ArrayGeometry(
            transmitters=(Vec3(0.02, 0, 0),), receivers=(Vec3(-0.02, 0, 0),)
        ),
        frequencies=FrequencyGrid(2e9, 3e9, 2),
        voxels=VoxelGrid(center=Vec3(0, 0, 0.2), extent=(0, 0, 0), dims=(1, 1, 1)),
        pulse=TabulatedPulse(
            frequencies_hz=(1e9, 2.5e9, 4e9), values=(1 + 0j, 0.5 - 0.25j, 0.1 + 0j)
        ),
    )


def _scenario_file(tmp_path, scenario, pointer, value):
    """A scenario file holding ``scenario`` with the leaf at ``pointer`` (keys
    and list indices from the document's root) set to ``value``."""
    path = tmp_path / "scn.json"
    write_scenario(scenario, path)
    doc = json.loads(path.read_text())
    parent = doc
    for key in pointer[:-1]:
        parent = parent[key]
    parent[pointer[-1]] = value
    path.write_text(json.dumps(doc))  # NaN and Infinity literals json.loads accepts
    return path


class TestScenarioJson:
    def test_round_trip_preserves_fingerprint(self, tmp_path):
        scn = preset_scenario("paper-v")
        path = tmp_path / "scn.json"
        write_scenario(scn, path)
        back = read_scenario(path)
        assert back == scn
        assert scenario_fingerprint(back) == scenario_fingerprint(scn)

    def test_negative_zero_round_trip_keeps_fingerprint(self, tmp_path):
        # "-0" in a file reads back as the int 0; the canonical form writes 0
        scn = ImagingScenario(
            array=ArrayGeometry(
                transmitters=(Vec3(-0.0, 0.05, 0.0),), receivers=(Vec3(0.04, -0.0, 0.0),)
            ),
            frequencies=FrequencyGrid(4e9, 5e9, 2),
            voxels=VoxelGrid(center=Vec3(0.0, -0.0, 0.3), extent=(0.02, 0.02, 0.0), dims=(3, 3, 1)),
        )
        write_scenario(scn, tmp_path / "scn.json")
        back = read_scenario(tmp_path / "scn.json")
        assert scenario_fingerprint(back) == scenario_fingerprint(scn)
        mset = simulate_measurements(np.ones(scn.n_voxels, dtype=complex), scn)
        write_measurements(mset, tmp_path / "m.nfms")
        read = read_measurements(tmp_path / "m.nfms", scenario=back)
        assert read.values.tobytes() == mset.values.tobytes()

    def test_round_trip_small_scenario(self, small_scenario, tmp_path):
        path = tmp_path / "scn.json"
        write_scenario(small_scenario, path)
        assert read_scenario(path) == small_scenario

    def test_missing_receivers_named(self, tmp_path):
        scn = preset_scenario("paper-v")
        path = tmp_path / "scn.json"
        write_scenario(scn, path)
        doc = json.loads(path.read_text())
        del doc["receivers"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="receivers"):
            read_scenario(path)

    def test_unknown_key_named_with_path(self, tmp_path):
        scn = preset_scenario("paper-v")
        path = tmp_path / "scn.json"
        write_scenario(scn, path)
        doc = json.loads(path.read_text())
        doc["frequencies"]["stray"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="frequencies.stray"):
            read_scenario(path)

    def test_zero_count_rejected(self, tmp_path):
        scn = preset_scenario("paper-v")
        path = tmp_path / "scn.json"
        write_scenario(scn, path)
        doc = json.loads(path.read_text())
        doc["frequencies"]["count"] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            read_scenario(path)

    def test_invalid_json_is_schema_error(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            read_scenario(path)

    def test_non_utf8_file_is_schema_error(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_bytes(b'{"version": "\xff"}')
        with pytest.raises(SchemaError, match="not valid JSON"):
            read_scenario(path)

    def test_deeply_nested_json_is_schema_error(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text("[" * 200_000)
        with pytest.raises(SchemaError, match="not valid JSON"):
            read_scenario(path)

    def test_nan_pulse_value_is_schema_error(self, tmp_path):
        path = tmp_path / "scn.json"
        write_scenario(_tabulated_scenario(), path)
        doc = json.loads(path.read_text())
        doc["pulse"]["values"][1] = [float("nan"), 0.0]
        path.write_text(json.dumps(doc))  # the bare NaN literal that json.loads accepts
        assert "NaN" in path.read_text()
        with pytest.raises(SchemaError, match="finite"):
            read_scenario(path)

    @pytest.mark.parametrize(
        "bad", [True, "0.2", float("nan"), float("inf")], ids=["bool", "string", "nan", "inf"]
    )
    @pytest.mark.parametrize(
        "key_path, pointer",
        [
            ("transmitters[0][0]", ("transmitters", 0, 0)),
            ("pulse.frequencies_hz[1]", ("pulse", "frequencies_hz", 1)),
            ("voxels.center[2]", ("voxels", "center", 2)),
            ("voxels.extent[0]", ("voxels", "extent", 0)),
            ("speed_of_light", ("speed_of_light",)),
            ("frequencies.count", ("frequencies", "count")),
            ("voxels.dims[1]", ("voxels", "dims", 1)),
        ],
        ids=["antenna", "pulse-knot", "center", "extent", "speed-of-light", "count", "dims"],
    )
    def test_number_leaf_must_be_a_json_number(self, tmp_path, key_path, pointer, bad):
        path = _scenario_file(tmp_path, _tabulated_scenario(), pointer, bad)
        with pytest.raises(SchemaError, match=re.escape(key_path)):
            read_scenario(path)

    @pytest.mark.parametrize(
        "key_path, pointer, big",
        [
            ("speed_of_light", ("speed_of_light",), 10**400),
            ("frequencies.start_hz", ("frequencies", "start_hz"), 10**400),
            ("transmitters[0][0]", ("transmitters", 0, 0), 10**400),
            ("voxels.dims[0]", ("voxels", "dims", 0), 10**30),
            ("frequencies.count", ("frequencies", "count"), 10**30),
            ("frequencies.count", ("frequencies", "count"), 2**63),
        ],
        ids=["speed-of-light", "start-hz", "antenna", "dims", "count", "count-2^63"],
    )
    def test_integer_out_of_range_names_key_path(self, tmp_path, key_path, pointer, big):
        # a real past the float range, or a count or dim numpy cannot index
        path = _scenario_file(tmp_path, _tabulated_scenario(), pointer, big)
        with pytest.raises(SchemaError, match=f"^{re.escape(key_path)} must be "):
            read_scenario(path)

    @pytest.mark.parametrize(
        "pointer, value, attr, expected",
        [
            (("frequencies", "count"), 10**9, "n_channels", 144 * 10**9),
            (("frequencies", "count"), 2**63 - 1, "n_channels", 144 * (2**63 - 1)),
            (("voxels", "dims"), [10**6] * 3, "n_voxels", 10**18),
        ],
        ids=["1e9-frequencies", "largest-index", "1e6-voxels-per-axis"],
    )
    def test_large_indexable_sizes_still_read(self, tmp_path, pointer, value, attr, expected):
        path = _scenario_file(tmp_path, preset_scenario("paper-v"), pointer, value)
        assert getattr(read_scenario(path), attr) == expected

    def test_voxel_count_past_the_largest_index_is_schema_error(self, tmp_path):
        dims = [3 * 10**6] * 3
        path = _scenario_file(tmp_path, preset_scenario("paper-v"), ("voxels", "dims"), dims)
        with pytest.raises(SchemaError, match=r"^dims \(3000000, 3000000, 3000000\) hold more than"):
            read_scenario(path)

    @pytest.mark.parametrize(
        "pointer, value, message",
        [
            (("voxels", "center"), [0, 0], "voxels.center must be a list of 3 numbers"),
            (("voxels", "dims"), 3, "voxels.dims must be a list of 3 numbers"),
            (("pulse", "frequencies_hz"), 1e9, "pulse.frequencies_hz must be a list of numbers"),
            (("pulse", "values"), {"re": 1}, "pulse.values must be a list of [re, im] pairs"),
            (("pulse", "values", 0), [1.0], "pulse.values[0] must be a list of 2 numbers"),
            (("transmitters",), [], "transmitters must be a non-empty list of [x, y, z] positions"),
            (("receivers",), "rx", "receivers must be a non-empty list of [x, y, z] positions"),
            (("transmitters", 0), [0.02, 0], "transmitters[0] must be a list of 3 numbers"),
        ],
        ids=["center-length", "dims-scalar", "knots-scalar", "values-object", "value-pair",
             "no-transmitters", "receivers-string", "antenna-length"],
    )
    def test_malformed_list_is_named(self, tmp_path, pointer, value, message):
        path = _scenario_file(tmp_path, _tabulated_scenario(), pointer, value)
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            read_scenario(path)

    def test_integer_past_the_digit_limit_is_schema_error(self, tmp_path):
        # json.loads refuses an integer of more than 4300 digits with a ValueError
        path = _scenario_file(tmp_path, _tabulated_scenario(), ("speed_of_light",), "BIG")
        path.write_text(path.read_text().replace('"BIG"', "1" * 5000))
        with pytest.raises(SchemaError, match="not valid JSON"):
            read_scenario(path)

    @pytest.mark.parametrize("name", ["scenario document", "frequencies", "voxels", "pulse"])
    def test_non_object_is_named(self, tmp_path, name):
        path = tmp_path / "scn.json"
        write_scenario(_tabulated_scenario(), path)
        doc = json.loads(path.read_text())
        if name == "scenario document":
            doc = [doc]
        else:
            doc[name] = [doc[name]]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"^{name} must be a JSON object$"):
            read_scenario(path)

    @pytest.mark.parametrize(
        "pulse, message",
        [
            ({"mode": "gaussian", "value": [1, 0]}, "pulse.mode must be 'constant' or 'tabulated'"),
            ({"value": [1, 0]}, "missing key pulse.mode"),
        ],
        ids=["unknown-mode", "no-mode"],
    )
    def test_pulse_mode_is_checked_before_its_keys(self, tmp_path, pulse, message):
        path = tmp_path / "scn.json"
        write_scenario(_tabulated_scenario(), path)
        doc = json.loads(path.read_text())
        doc["pulse"] = pulse
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            read_scenario(path)

    def test_tabulated_pulse_round_trip(self, tmp_path):
        scn = _tabulated_scenario()
        path = tmp_path / "scn.json"
        write_scenario(scn, path)
        assert read_scenario(path) == scn


# A scenario file as the multi-line writer of earlier versions laid it out
# (two-space indent, keys in document order, a trailing newline), for
# _multi_line_scenario(); its fingerprint is pinned below.
_MULTI_LINE_FILE = """\
{
  "speed_of_light": 299792458,
  "frequencies": {
    "start_hz": 2000000000,
    "stop_hz": 3000000000,
    "count": 2
  },
  "voxels": {
    "center": [0, 0, 0.20000000000000001],
    "extent": [0.01, 0, 0],
    "dims": [2, 1, 1]
  },
  "pulse": {
    "mode": "tabulated",
    "frequencies_hz": [1000000000, 2500000000, 4000000000],
    "values": [
      [1, 0],
      [0.5, -0.25],
      [0.10000000000000001, 0]
    ]
  },
  "transmitters": [
    [0, 0.02, 0]
  ],
  "receivers": [
    [-0.02, 0, 0]
  ]
}
"""


def _multi_line_scenario():
    return ImagingScenario(
        array=ArrayGeometry(
            transmitters=(Vec3(-0.0, 0.02, 0.0),), receivers=(Vec3(-0.02, 0.0, 0.0),)
        ),
        frequencies=FrequencyGrid(2e9, 3e9, 2),
        voxels=VoxelGrid(center=Vec3(0, 0, 0.2), extent=(0.01, 0, 0), dims=(2, 1, 1)),
        pulse=TabulatedPulse(
            frequencies_hz=(1e9, 2.5e9, 4e9), values=(1 + 0j, 0.5 - 0.25j, 0.1 + 0j)
        ),
    )


_coordinate = st.one_of(st.just(-0.0), st.floats(-0.2, 0.2))
_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _scenarios(draw):
    """Custom scenarios: signed zeros in the antenna and voxel coordinates,
    constant or tabulated pulses, voxels at least 0.2 m off the array plane."""
    positions = st.lists(
        st.tuples(_coordinate, _coordinate, st.sampled_from([-0.0, 0.0])),
        min_size=1,
        max_size=3,
        unique_by=lambda p: (p[0] + 0.0, p[1] + 0.0),
    )
    count = draw(st.integers(1, 4))
    f_start = draw(st.floats(1e8, 2e10))
    f_stop = f_start if count == 1 else f_start + draw(st.floats(1e6, 1e10))
    if draw(st.booleans()):
        lo, hi = f_start * draw(st.floats(0.5, 1.0)), f_stop * draw(st.floats(1.0, 2.0))
        knots = sorted({lo, hi, *draw(st.lists(st.floats(lo, hi), max_size=3))})
        values = draw(st.lists(st.complex_numbers(max_magnitude=10, **_finite),
                               min_size=len(knots), max_size=len(knots)))
        pulse = TabulatedPulse(tuple(knots), tuple(values))
    else:
        pulse = ConstantPulse(draw(st.complex_numbers(max_magnitude=10, **_finite)))
    dims = draw(st.tuples(*[st.integers(1, 3)] * 3))
    extent = tuple(0.0 if d == 1 else draw(st.floats(1e-3, 0.2)) for d in dims)
    return ImagingScenario(
        array=ArrayGeometry(
            transmitters=tuple(Vec3(*p) for p in draw(positions)),
            receivers=tuple(Vec3(*p) for p in draw(positions)),
        ),
        frequencies=FrequencyGrid(f_start, f_stop, count),
        voxels=VoxelGrid(
            center=Vec3(draw(_coordinate), draw(_coordinate), draw(st.floats(0.3, 1.0))),
            extent=extent,
            dims=dims,
        ),
        pulse=pulse,
        c=draw(st.floats(1e8, 4e8)),
    )


class TestOneSerialization:
    """A scenario file is the canonical document its fingerprint hashes."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(scn=_scenarios())
    @example(scn=_multi_line_scenario())
    def test_write_read_write_gives_the_fingerprints_preimage(self, tmp_path, scn):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        write_scenario(scn, first)
        back = read_scenario(first)
        write_scenario(back, second)
        assert back == scn
        assert second.read_bytes() == first.read_bytes()
        assert hashlib.sha256(first.read_bytes()).digest() == scenario_fingerprint(scn)

    @pytest.mark.parametrize("value", [{1, 2}, 1j, b"x"], ids=["set", "complex", "bytes"])
    def test_canonical_text_refuses_other_types(self, value):
        with pytest.raises(TypeError, match=f"^cannot serialize {type(value).__name__}$"):
            dumps_canonical({"key": [value]})

    def test_multi_line_file_of_earlier_versions_still_pairs(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(_MULTI_LINE_FILE)
        scn = read_scenario(path)
        assert scn == _multi_line_scenario()
        # the fingerprint the measurement files of earlier versions carry
        pinned = "c9f1784f028e2afb795068a980e95666d3f374144b82153b2e8af0a59c203a67"
        assert scenario_fingerprint(scn).hex() == pinned
        write_scenario(scn, tmp_path / "new.json")
        assert hashlib.sha256((tmp_path / "new.json").read_bytes()).hexdigest() == pinned


_PAPER_DOCUMENT = scenario_bytes(preset_scenario("paper-v")).decode()
_NESTED = "@nested@"  # a string leaf that _mutants swaps for deep nesting


def _paths(node, path=()):
    """Every node's path in a decoded JSON document, the root's first."""
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _paths(child, (*path, key))


# Every integer drawn is at most 64 in size or at least 2**63: the first
# allocates nothing worth measuring when it is a count or a dim, and the
# second is past numpy's index range and must be refused before any
# allocation.
_integers = st.one_of(
    st.integers(-64, 64), st.integers(2**63, 10**400), st.integers(-(10**400), -(2**63))
)
_leaves = st.one_of(
    _integers,
    st.floats(),  # NaN and Infinity included: json writes them as bare literals
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.just(_NESTED),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutants(draw):
    """The paper-v scenario document as text, after one to three mutations:
    a node replaced, a key removed or a key added."""
    doc = json.loads(_PAPER_DOCUMENT)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(_values)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        how = draw(st.sampled_from(["replace", "remove", "add"]))
        if how == "replace" or not isinstance(parent, dict):
            parent[path[-1]] = value
        elif how == "remove":
            del parent[path[-1]]
        else:
            parent[draw(st.text(max_size=8))] = value
    depth = draw(st.sampled_from([1, 64, 5000]))
    return json.dumps(doc).replace(f'"{_NESTED}"', "[" * depth + "0" + "]" * depth)


class TestScenarioFuzz:
    """Any malformed scenario file is refused as a SchemaError and nothing
    else; a mutant that still describes a scenario reads."""

    @settings(
        max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(text=_mutants())
    def test_mutated_paper_document_reads_or_is_a_schema_error(self, tmp_path, text):
        path = tmp_path / "scn.json"
        path.write_text(text)
        try:
            read_scenario(path)
        except SchemaError:
            pass

    def test_distance_past_the_float_range_is_schema_error(self, tmp_path):
        # the fuzz's first find: the squared distance overflowed with numpy's
        # RuntimeWarning, and the scenario read with infinite distances
        pointer = ("transmitters", 3, 0)
        path = _scenario_file(tmp_path, preset_scenario("paper-v"), pointer, 1.35e154)
        with pytest.raises(SchemaError, match=r"^the distance from the antenna at \(1.35e\+154, "):
            read_scenario(path)

    def test_phase_past_the_float_range_is_schema_error(self, tmp_path):
        # 2 Tx / 2 Rx and 3x3x1 voxels: at c = 1e-300 each phase w_f * d overflows
        scn = ImagingScenario(
            array=make_spiral_array(2, 2, 0.1, rng_seed=1),
            frequencies=FrequencyGrid(4e9, 8e9, 3),
            voxels=VoxelGrid(center=Vec3(0, 0, 0.25), extent=(0.06, 0.06, 0), dims=(3, 3, 1)),
        )
        path = _scenario_file(tmp_path, scn, ("speed_of_light",), 1e-300)
        named = r"^the phase 2\*pi\*f\*d/c overflows at f=8e\+09 Hz and speed of light 1e-300$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning
            with pytest.raises(SchemaError, match=named):
                read_scenario(path)

    def test_voxel_near_a_transmitter_and_a_receiver_is_schema_error(self, tmp_path):
        # antennas 1e-300 m apart and a voxel 1e-160 m above both: no distance
        # is 0, but 1/(4*pi*dT*dR) is past the float range
        scn = ImagingScenario(
            array=ArrayGeometry(transmitters=(Vec3(0, 0, 0),), receivers=(Vec3(1e-300, 0, 0),)),
            frequencies=FrequencyGrid(4e9, 4e9, 1),
            voxels=VoxelGrid(center=Vec3(0, 0, 1e-100), extent=(0, 0, 0), dims=(1, 1, 1)),
        )
        path = _scenario_file(tmp_path, scn, ("voxels", "center", 2), 1e-160)
        named = r"^the amplitude 1/\(4\*pi\*dT\*dR\) overflows at the nearest distances dT="
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning
            with pytest.raises(SchemaError, match=named):
                read_scenario(path)

    def test_voxel_axes_past_memavailable_are_schema_error(self, tmp_path, monkeypatch):
        # 24 bytes per axis entry: 24 MB for 10**6 + 61 + 21 entries
        path = _scenario_file(tmp_path, preset_scenario("paper-v"), ("voxels", "dims", 0), 10**6)
        monkeypatch.setattr(nfmimo.geometry, "_available_bytes", lambda: 10**6)
        named = r"^checking the voxel axes needs 0\.024 GB, but only 0\.001 GB of memory is available$"
        with pytest.raises(SchemaError, match=named):
            read_scenario(path)


class TestSlicesCsv:
    def test_single_voxel_normalizes_to_one(self, tmp_path):
        grid = VoxelGrid(center=Vec3(0, 0, 0.1), extent=(0, 0, 0), dims=(1, 1, 1))
        vol = ReflectivityVolume(np.array([2.0 + 0.0j]), grid)
        paths = export_slices_csv(vol, tmp_path / "slice")
        assert [p.name for p in paths] == ["slice_z0.csv"]
        assert paths[0].read_text().strip() == "1"

    def test_zero_volume_stays_zero(self, tmp_path):
        grid = VoxelGrid(center=Vec3(0, 0, 0.1), extent=(0.1, 0.1, 0), dims=(2, 2, 1))
        vol = ReflectivityVolume(np.zeros(grid.n_voxels), grid)
        paths = export_slices_csv(vol, tmp_path / "z")
        rows = paths[0].read_text().strip().split("\n")
        assert rows == ["0,0", "0,0"]

    def test_paper_sized_volume_shape(self, tmp_path, rng):
        grid = VoxelGrid(center=Vec3(0, 0, 0.5), extent=(0.3, 0.3, 0.1), dims=(61, 61, 21))
        vol = ReflectivityVolume(random_complex(rng, grid.n_voxels), grid)
        paths = export_slices_csv(vol, tmp_path / "s")
        assert len(paths) == 21
        first = paths[0].read_text().strip().split("\n")
        assert len(first) == 61 and all(len(line.split(",")) == 61 for line in first)

    def test_values_follow_flat_order(self, tmp_path):
        grid = VoxelGrid(center=Vec3(0, 0, 0.1), extent=(0.1, 0.1, 0.1), dims=(2, 2, 2))
        values = np.arange(1, 9, dtype=float).astype(complex)  # |s| = 1..8, peak 8
        vol = ReflectivityVolume(values, grid)
        paths = export_slices_csv(vol, tmp_path / "o")
        z0 = [line.split(",") for line in paths[0].read_text().strip().split("\n")]
        assert float(z0[0][0]) == pytest.approx(1 / 8)  # (ix=0, iy=0, iz=0)
        assert float(z0[0][1]) == pytest.approx(2 / 8)  # x varies along columns
        assert float(z0[1][0]) == pytest.approx(3 / 8)  # y varies along rows
        z1 = [line.split(",") for line in paths[1].read_text().strip().split("\n")]
        assert float(z1[0][0]) == pytest.approx(5 / 8)
