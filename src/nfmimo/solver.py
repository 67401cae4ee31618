"""l1-regularized reconstruction by the proximal gradient method (PGM) and
its randomly sampled minibatch variant (SPGM).

The data-fidelity objective is the per-channel mean squared error

    D(s) = (1/2M) * ||y - A s||^2,

the corresponding descent direction for complex s is the conjugate
(Wirtinger) gradient (1/M) * A^H (A s - y), and the l1 proximal step is
complex magnitude soft-thresholding. SPGM replaces the gradient with an
unbiased estimate over a structured minibatch: per iteration it draws n_f
frequencies, n_tx transmitters and n_rx receivers uniformly without
replacement per axis and uses the B = n_f*n_tx*n_rx channels of their
Cartesian product.

Convention fixed here and verified by finite differences in the tests: for
g = (1/M) A^H (A s - y), dD/dRe(s_n) = Re(g_n) and dD/dIm(s_n) = Im(g_n).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .forward import (
    ChannelSubset,
    MeasurementSet,
    ReflectivityVolume,
    _cached,
    _channel_subset,
    _complex_vector,
    _plan,
    _plan_nbytes,
    adjoint_apply,
    forward_apply,
)
from .geometry import ImagingScenario, _count, _real

__all__ = [
    "DivergenceError",
    "MinibatchComposition",
    "SolverConfig",
    "IterationRecord",
    "SolveReport",
    "data_fidelity",
    "gradient",
    "sample_minibatch",
    "soft_threshold",
    "relative_magnitude_change",
    "pgm_solve",
    "spgm_solve",
    "lipschitz_estimate",
]

TERMINATION_TOLERANCE = "tolerance_reached"
TERMINATION_MAX_ITERS = "max_iters"
TERMINATION_TIME_BUDGET = "time_budget"

_ZERO_NORM_GUARD = 1e-12


class DivergenceError(ValueError):
    """The iterate stopped being finite: the step size is too large."""

    def __init__(self, iteration: int, eta: float):
        super().__init__(
            f"solve diverged at iteration {iteration}: the magnitude change is "
            f"not finite with eta={eta:g}; use a smaller step size"
        )
        self.iteration = iteration
        self.eta = eta


@dataclass(frozen=True)
class MinibatchComposition:
    """Per-iteration sampling plan (#frequencies, #transmitters, #receivers)."""

    n_f: int
    n_tx: int
    n_rx: int

    def __post_init__(self):
        for name in ("n_f", "n_tx", "n_rx"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))

    @property
    def batch_size(self) -> int:
        return self.n_f * self.n_tx * self.n_rx

    def validate_for(self, scenario: ImagingScenario) -> None:
        for name, cap in zip(("n_f", "n_tx", "n_rx"), scenario.channel_shape):
            v = getattr(self, name)
            if v > cap:
                raise ValueError(f"{name}={v} exceeds the scenario axis size {cap}")


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters and run controls shared by PGM and SPGM.

    ``composition`` alone picks the method: None is full batch (plain PGM),
    a MinibatchComposition draws a fresh minibatch per iteration (SPGM).
    ``alpha`` is the per-iteration regularization weight (step size times
    the l1 weight).
    """

    eta: float = 1e-3
    alpha: float = 4e-5
    max_iters: int = 1000
    tol: float = 1e-3
    rng_seed: int = 0
    composition: MinibatchComposition | None = None
    time_budget_s: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "eta", _real("eta", self.eta, above=0))
        object.__setattr__(self, "alpha", _real("alpha", self.alpha, at_least=0))
        object.__setattr__(self, "max_iters", _count("max_iters", self.max_iters))
        object.__setattr__(self, "rng_seed", _count("rng_seed", self.rng_seed, minimum=0))
        object.__setattr__(self, "tol", _real("tol", self.tol, above=0))
        if not isinstance(self.composition, (MinibatchComposition, type(None))):
            raise ValueError(
                f"composition must be a MinibatchComposition or None, got {self.composition!r}"
            )
        if self.time_budget_s is not None:
            budget = _real("time_budget_s", self.time_budget_s, above=0)
            object.__setattr__(self, "time_budget_s", budget)


@dataclass
class IterationRecord:
    iter: int
    magnitude_change: float
    elapsed_seconds: float
    batch_size: int


@dataclass
class SolveReport:
    """``wall_time_s`` covers the iterations only; ``plan_s`` is the time spent
    fetching or building the operator plan before them (near 0 when cached).
    ``plan_cached`` says whether the plan was cached before the solve and
    ``plan_bytes`` is the size of its phasor tables and pulse values.

    ``reconstruct --report`` writes every field except ``volume`` as is, so
    each of those fields must be JSON-serializable (a dataclass as its
    ``asdict``)."""

    volume: ReflectivityVolume
    iterations: int
    wall_time_s: float
    plan_s: float
    plan_cached: bool
    plan_bytes: int
    per_iteration: list[IterationRecord] = field(default_factory=list)
    termination: str = TERMINATION_MAX_ITERS


def _measurement_values(y, scenario: ImagingScenario) -> np.ndarray:
    if isinstance(y, MeasurementSet):
        values, matches = y.values, y.matches(scenario)
    else:
        # a raw array has no fingerprint, so only its size can differ
        values = _complex_vector("measurement", y)
        matches = values.size == scenario.n_channels
    if not matches:
        raise ValueError(
            f"measurement fingerprint or size does not match the scenario: {values.size} "
            f"values for {scenario.n_channels} channels (wrong scenario or stale measurement file)"
        )
    return values


def _residual(s, yv: np.ndarray, scenario: ImagingScenario, subset: ChannelSubset) -> np.ndarray:
    """A_sub s - y_sub over the subset's channels."""
    return forward_apply(s, scenario, subset=subset) - yv[subset.indices]


def data_fidelity(s, y, scenario: ImagingScenario, subset=None) -> float:
    """Mean squared residual over the selected channels: (1/B) sum of
    half squared residual magnitudes (B = M when subset is None)."""
    yv = _measurement_values(y, scenario)
    resid = _residual(s, yv, scenario, _channel_subset(subset, scenario))
    return 0.5 * float(np.mean(np.abs(resid) ** 2))


def _gradient(s, yv: np.ndarray, scenario: ImagingScenario, subset: ChannelSubset) -> np.ndarray:
    resid = _residual(s, yv, scenario, subset)
    return adjoint_apply(resid, scenario, subset=subset) / len(subset)


def gradient(s, y, scenario: ImagingScenario, subset=None) -> np.ndarray:
    """Conjugate gradient of the data fidelity over the selected channels,
    (1/B) A_sub^H (A_sub s - y_sub); None selects all M channels, giving
    (1/M) A^H (A s - y).

    Every channel in canonical order gives the bits of None (identical code
    path and reduction order), so an SPGM step on the full channel set is
    the PGM step.
    """
    yv = _measurement_values(y, scenario)
    return _gradient(s, yv, scenario, _channel_subset(subset, scenario))


def sample_minibatch(
    composition: MinibatchComposition, scenario: ImagingScenario, rng
) -> ChannelSubset:
    """Draw the Cartesian-product minibatch for one iteration from the numpy
    Generator ``rng``.

    Each axis is sampled uniformly without replacement and sorted, so the
    full composition reproduces all M channels in canonical order.
    """
    composition.validate_for(scenario)
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy Generator, got {rng!r}")
    n_f, n_tx, n_rx = scenario.channel_shape
    fs = np.sort(rng.choice(n_f, composition.n_f, replace=False))
    ts = np.sort(rng.choice(n_tx, composition.n_tx, replace=False))
    rs = np.sort(rng.choice(n_rx, composition.n_rx, replace=False))
    idx = np.ravel_multi_index(np.ix_(fs, ts, rs), scenario.channel_shape)
    return ChannelSubset(idx.reshape(-1))


def soft_threshold(v, alpha: float) -> np.ndarray:
    """Complex magnitude soft-thresholding, the l1 proximal operator.

    Entries shrink toward zero by alpha in magnitude with phase preserved;
    magnitudes at or below alpha map to exactly zero.
    """
    alpha = _real("alpha", alpha, at_least=0)
    v = np.asarray(v, dtype=np.complex128)
    mag = np.abs(v)
    scale = np.zeros(v.shape, dtype=np.float64)
    nz = mag > alpha
    scale[nz] = (mag[nz] - alpha) / mag[nz]
    return v * scale


def relative_magnitude_change(s_prev, s_next) -> float:
    """||  |s_next| - |s_prev|  ||_2 / max(|| |s_prev| ||_2, 1e-12)."""
    a = np.abs(np.asarray(s_prev))
    b = np.abs(np.asarray(s_next))
    if a.shape != b.shape:
        raise ValueError(f"iterate shapes differ: {a.shape} vs {b.shape}")
    denom = max(float(np.linalg.norm(a)), _ZERO_NORM_GUARD)
    return float(np.linalg.norm(b - a)) / denom


# A diverging iterate overflows before DivergenceError reports it; the typed
# error is the report, so numpy's overflow warnings stay silent.
@np.errstate(over="ignore", invalid="ignore")
def _solve(
    y,
    scenario: ImagingScenario,
    config: SolverConfig,
    progress,
) -> SolveReport:
    yv = _measurement_values(y, scenario)
    s = np.zeros(scenario.n_voxels, dtype=np.complex128)

    rng = np.random.default_rng(config.rng_seed)
    full = _channel_subset(None, scenario)
    records: list[IterationRecord] = []
    termination = TERMINATION_MAX_ITERS

    # the plan is ready before the clock starts, so the time budget and
    # wall_time_s cover iterations only
    t_plan = time.perf_counter()
    plan_cached = _cached(scenario) is not None
    _plan(scenario)
    t_start = time.perf_counter()
    for k in range(1, config.max_iters + 1):
        t_iter = time.perf_counter()
        if config.composition is None:
            subset = full
        else:
            subset = sample_minibatch(config.composition, scenario, rng)
        g = _gradient(s, yv, scenario, subset)
        s_next = soft_threshold(s - config.eta * g, config.alpha)
        change = relative_magnitude_change(s, s_next)
        if not math.isfinite(change):
            raise DivergenceError(k, config.eta)
        records.append(
            IterationRecord(
                iter=k,
                magnitude_change=change,
                elapsed_seconds=time.perf_counter() - t_iter,
                batch_size=len(subset),
            )
        )
        s = s_next
        if progress is not None:
            progress(k, s)
        if change < config.tol:
            termination = TERMINATION_TOLERANCE
            break
        if (
            config.time_budget_s is not None
            and time.perf_counter() - t_start > config.time_budget_s
        ):
            termination = TERMINATION_TIME_BUDGET
            break

    return SolveReport(
        volume=ReflectivityVolume(s, scenario.voxels),
        iterations=len(records),
        wall_time_s=time.perf_counter() - t_start,
        plan_s=t_start - t_plan,
        plan_cached=plan_cached,
        plan_bytes=_plan_nbytes(scenario),
        per_iteration=records,
        termination=termination,
    )


def pgm_solve(
    y,
    scenario: ImagingScenario,
    config: SolverConfig,
    progress=None,
) -> SolveReport:
    """Full-batch proximal gradient iterations
    s <- soft_threshold(s - eta * grad D(s), alpha), starting from zero."""
    if config.composition is not None:
        raise ValueError(
            "pgm_solve needs a full-batch config (composition=None); use spgm_solve "
            "for minibatches"
        )
    return _solve(y, scenario, config, progress)


def spgm_solve(
    y,
    scenario: ImagingScenario,
    config: SolverConfig,
    progress=None,
) -> SolveReport:
    """Stochastic PGM: a fresh structured minibatch per iteration.

    Deterministic for a fixed config.rng_seed. With the full composition the
    iterates coincide with pgm_solve exactly.
    """
    if config.composition is None:
        raise ValueError("spgm_solve requires config.composition")
    config.composition.validate_for(scenario)
    return _solve(y, scenario, config, progress)


def lipschitz_estimate(
    scenario: ImagingScenario,
    n_iters: int = 50,
    rng_seed: int = 0,
    tol: float = 1e-9,
) -> float:
    """Largest eigenvalue of (1/M) A^H A by power iteration.

    This is the Lipschitz constant of the data-fidelity gradient; step sizes
    below its inverse make the full-batch iteration non-expansive.
    """
    rng = np.random.default_rng(_count("rng_seed", rng_seed, minimum=0))
    tol = _real("tol", tol, above=0)
    n = scenario.n_voxels
    m = scenario.n_channels
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(_count("n_iters", n_iters)):
        z = adjoint_apply(forward_apply(x, scenario), scenario) / m
        lam_new = float(np.real(np.vdot(x, z)))
        # the entries of z are squared amplitudes, and the norm squares them
        # again: past the float range, take it from entries scaled by the
        # largest, which leaves every finite norm's bits as they were
        with np.errstate(over="ignore"):
            nz = np.linalg.norm(z)
        if not np.isfinite(nz):
            peak = np.max(np.abs(z))
            nz = peak * np.linalg.norm(z / peak)
        if nz == 0.0:
            return 0.0
        x = z / nz
        if lam > 0 and abs(lam_new - lam) <= tol * lam:
            lam = lam_new
            break
        lam = lam_new
    return lam
