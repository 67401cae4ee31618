"""nfmimo: matrix-free near-field MIMO radar simulation and l1-regularized
3D reconstruction via proximal gradient iterations, full-batch or stochastic."""

__version__ = "0.1.0"

from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    ChannelIndex,
    ConstantPulse,
    FrequencyGrid,
    ImagingScenario,
    PulseSpectrum,
    SingularityError,
    TabulatedPulse,
    Vec3,
    VoxelGrid,
    channel_of,
    flat_channel,
    make_spiral_array,
    preset_scenario,
    scenario_fingerprint,
    voxel_center,
    voxel_centers,
)
from .forward import (
    ChannelSubset,
    DenseCapError,
    MeasurementSet,
    ReflectivityVolume,
    adjoint_apply,
    forward_apply,
    materialize_dense,
    matrix_element,
    simulate_measurements,
)
from .solver import (
    DivergenceError,
    IterationRecord,
    MinibatchComposition,
    SolveReport,
    SolverConfig,
    check_termination,
    data_fidelity,
    full_gradient,
    lipschitz_estimate,
    minibatch_gradient,
    pgm_solve,
    relative_magnitude_change,
    sample_minibatch,
    soft_threshold,
    spgm_solve,
)
from .metrics import (
    PsnrResult,
    SweepRecord,
    psnr_vs_reference,
    run_sweep,
    spearman_rank,
    write_sweep_csv,
)
from .phantoms import make_phantom
