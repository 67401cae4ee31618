"""The package namespace: ``nfmimo`` re-exports each library module's
``__all__`` and nothing else."""

import types

import nfmimo
import nfmimo.forward
import nfmimo.geometry
import nfmimo.metrics
import nfmimo.phantoms
import nfmimo.solver

LIBRARY_MODULES = (nfmimo.geometry, nfmimo.forward, nfmimo.solver, nfmimo.metrics, nfmimo.phantoms)

PUBLIC_NAMES = [
    "ArrayGeometry", "ChannelSubset", "ConstantPulse", "DenseCapError", "DivergenceError",
    "FrequencyGrid", "ImagingScenario", "IterationRecord", "MeasurementSet",
    "MinibatchComposition", "PlanTooLargeError", "PsnrResult", "PulseSpectrum",
    "ReflectivityVolume", "SPEED_OF_LIGHT", "SingularityError", "SolveReport", "SolverConfig",
    "SweepRecord", "TabulatedPulse", "Vec3", "VoxelGrid", "adjoint_apply", "data_fidelity",
    "forward_apply", "gradient", "lipschitz_estimate", "make_phantom", "make_spiral_array",
    "materialize_dense", "matrix_element", "pgm_solve", "preset_scenario", "psnr_vs_reference",
    "relative_magnitude_change", "run_sweep", "sample_minibatch", "scenario_fingerprint",
    "simulate_measurements", "soft_threshold", "spearman_rank", "spgm_solve", "voxel_centers",
    "write_sweep_csv",
]


def _exported() -> list[str]:
    """The public names of ``nfmimo``, without its submodules."""
    return sorted(
        name
        for name, value in vars(nfmimo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_package_exports_the_pinned_names():
    assert _exported() == PUBLIC_NAMES


def test_exports_are_the_library_modules_all():
    declared = [name for module in LIBRARY_MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))  # no name is declared twice
    assert sorted(declared) == _exported()
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(nfmimo, name) is getattr(module, name), f"{module.__name__}.{name}"
