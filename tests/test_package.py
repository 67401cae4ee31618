"""The package namespace: ``nfmimo`` re-exports each library module's
``__all__`` and nothing else."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

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


def _modules_loaded_by(statement: str) -> tuple[set[str], set[str]]:
    """(modules loaded before, modules loaded by) ``statement``, run in a
    fresh interpreter that imports the checkout's package."""
    src = str(Path(nfmimo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = (
        "import json, sys; before = set(sys.modules); " + statement + "; "
        "print(json.dumps([sorted(before), sorted(set(sys.modules) - before)]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    before, loaded = json.loads(proc.stdout)
    return set(before), set(loaded)


def test_the_cli_imports_numpy_and_no_worker_pool():
    # numpy is the only non-stdlib module, and BLAS the only parallelism layer
    _, loaded = _modules_loaded_by("import nfmimo.cli")
    tops = {name.split(".")[0] for name in loaded}
    assert tops - set(sys.stdlib_module_names) - {"nfmimo", "numpy"} == set()
    assert tops & {"concurrent", "multiprocessing"} == set()


def test_import_nfmimo_loads_neither_io_nor_cli():
    before, loaded = _modules_loaded_by("import nfmimo")
    assert {"nfmimo.io", "nfmimo.cli"} & (before | loaded) == set()


def test_io_holds_no_scenario_document_keys():
    # nfmimo.geometry reads, writes and fingerprints the scenario document;
    # a document key in io would be a second reader of it
    source = Path(nfmimo.__file__).with_name("io.py").read_text(encoding="utf-8")
    for key in ('"start_hz"', '"stop_hz"', '"frequencies_hz"', '"speed_of_light"'):
        assert key not in source, key


def _relative_imports(path: Path) -> set[str]:
    """The package modules the module at ``path`` imports relatively, at any
    depth; ``from . import name`` of a name that is no module is ``__init__``."""
    targets = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                targets.add(node.module.split(".")[0])
            else:
                targets.update(
                    a.name if path.with_name(f"{a.name}.py").exists() else "__init__"
                    for a in node.names
                )
    return targets


def test_package_imports_form_no_cycle():
    # imports inside functions count too; phantoms' function-level import of
    # io, which keeps io out of `import nfmimo`, closes no cycle
    graph = {path.stem: _relative_imports(path) for path in Path(nfmimo.__file__).parent.glob("*.py")}

    def cycle_from(module: str, path: list[str]) -> list[str] | None:
        if module in path:
            return path[path.index(module):] + [module]
        for target in sorted(graph.get(module, ())):
            cycle = cycle_from(target, path + [module])
            if cycle:
                return cycle
        return None

    for module in sorted(graph):
        cycle = cycle_from(module, [])
        assert cycle is None, " -> ".join(cycle)


def test_operator_path_does_not_import_numpy_ma():
    # a plain np.unique imports numpy.ma on numpy >= 2.3, about 10 ms of every
    # cold process; the channel bookkeeping keeps to integer primitives
    before, loaded = _modules_loaded_by(
        "import numpy as np; from nfmimo import *; "
        "scn = ImagingScenario(array=make_spiral_array(3, 2, 0.15, rng_seed=3), "
        "frequencies=FrequencyGrid(4e9, 9e9, 3), voxels=VoxelGrid(center=Vec3(0, 0, 0.3), "
        "extent=(0.12, 0.08, 0.06), dims=(8, 8, 4))); "
        "y = simulate_measurements(make_phantom('points:3', scn.voxels), scn, 1e-3); "
        "comp = MinibatchComposition(2, 2, 1); "
        "sample_minibatch(comp, scn, np.random.default_rng(0)); "
        "spgm_solve(y, scn, SolverConfig(composition=comp, max_iters=3))"
    )
    assert "numpy.ma" not in before | loaded
