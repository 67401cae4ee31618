import json
import re
import struct

import numpy as np
import pytest

from nfmimo import (
    MeasurementSet,
    ReflectivityVolume,
    Vec3,
    VoxelGrid,
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
        mset = MeasurementSet.for_scenario(
            random_complex(rng, tiny_scenario.n_channels), tiny_scenario
        )
        path = tmp_path / "m.nfms"
        write_measurements(mset, path)
        with pytest.raises(FingerprintMismatchError):
            read_measurements(path, scenario=small_scenario)
        # loading without a scenario skips the check
        assert read_measurements(path).values.size == tiny_scenario.n_channels

    def test_extra_bytes_rejected(self, small_scenario, rng, tmp_path):
        mset = MeasurementSet.for_scenario(
            random_complex(rng, small_scenario.n_channels), small_scenario
        )
        path = tmp_path / "m.nfms"
        write_measurements(mset, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TruncatedFileError):
            read_measurements(path)


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
            MeasurementSet.for_scenario(
                random_complex(rng, small_scenario.n_channels), small_scenario
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
    from nfmimo import ArrayGeometry, FrequencyGrid, ImagingScenario, TabulatedPulse

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


class TestScenarioJson:
    def test_round_trip_preserves_fingerprint(self, tmp_path):
        scn = preset_scenario("paper-v")
        path = tmp_path / "scn.json"
        write_scenario(scn, path)
        back = read_scenario(path)
        assert back == scn
        assert scenario_fingerprint(back) == scenario_fingerprint(scn)

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

    def test_nan_pulse_value_is_schema_error(self, tmp_path):
        path = tmp_path / "scn.json"
        write_scenario(_tabulated_scenario(), path)
        doc = json.loads(path.read_text())
        doc["pulse"]["values"][1] = [float("nan"), 0.0]
        path.write_text(json.dumps(doc))  # the bare NaN literal that json.loads accepts
        assert "NaN" in path.read_text()
        with pytest.raises(SchemaError, match="finite"):
            read_scenario(path)

    @pytest.mark.parametrize("bad", [True, "0.2"], ids=["bool", "string"])
    @pytest.mark.parametrize(
        "key_path, pointer",
        [
            ("transmitters[0][0]", ("transmitters", 0, 0)),
            ("pulse.frequencies_hz[1]", ("pulse", "frequencies_hz", 1)),
            ("voxels.center[2]", ("voxels", "center", 2)),
            ("voxels.extent[0]", ("voxels", "extent", 0)),
            ("speed_of_light", ("speed_of_light",)),
        ],
        ids=["antenna", "pulse-knot", "center", "extent", "speed-of-light"],
    )
    def test_number_leaf_must_be_a_json_number(self, tmp_path, key_path, pointer, bad):
        path = tmp_path / "scn.json"
        write_scenario(_tabulated_scenario(), path)
        doc = json.loads(path.read_text())
        parent = doc
        for key in pointer[:-1]:
            parent = parent[key]
        parent[pointer[-1]] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(key_path)):
            read_scenario(path)

    def test_tabulated_pulse_round_trip(self, tmp_path):
        scn = _tabulated_scenario()
        path = tmp_path / "scn.json"
        write_scenario(scn, path)
        assert read_scenario(path) == scn


class TestSlicesCsv:
    def test_single_voxel_normalizes_to_one(self, tmp_path):
        grid = VoxelGrid(center=Vec3(0, 0, 0.1), extent=(0, 0, 0), dims=(1, 1, 1))
        vol = ReflectivityVolume(np.array([2.0 + 0.0j]), grid)
        paths = export_slices_csv(vol, tmp_path / "slice")
        assert [p.name for p in paths] == ["slice_z0.csv"]
        assert paths[0].read_text().strip() == "1"

    def test_zero_volume_stays_zero(self, tmp_path):
        grid = VoxelGrid(center=Vec3(0, 0, 0.1), extent=(0.1, 0.1, 0), dims=(2, 2, 1))
        vol = ReflectivityVolume.zeros(grid)
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
