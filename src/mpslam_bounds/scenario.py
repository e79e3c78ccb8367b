"""Scenario definition, loading, ground truth and synthetic measurements.

A scenario bundles anchors, the surface map, signal parameters, the
state-transition model, a ground-truth trajectory specification, an
amplitude model, a per-component visibility schedule, the initial prior and
Monte-Carlo settings. Scenario files are YAML mappings whose keys mirror
the dataclass fields below exactly: one reader walks a section's fields, a
missing key takes the field's own default, and unknown keys are rejected
with the offending path so typos cannot silently change an experiment.

The channel truth is evaluated once per scenario at the true poses: path
geometry, gradient and measurement variances of the visible components, in
one batched pass per (block of consecutive steps, anchor). A step's record
does not depend on its block, bit for bit. The output is the truth table
(:func:`measurement_truth`), one :class:`StepTruth` per step holding the
snapshot information and one :class:`AnchorBlock` of arrays per anchor. The
bound recursion reads the information, the generator draws around the
blocks' parameters with their variances, and the estimator takes its noise
covariance from the same variances, so all three read the same numbers.
Draw order is fixed: steps ascending, anchors ascending, components in
canonical order, and per component distance, arrival azimuth, departure
azimuth.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from .fim import (
    ApertureModel,
    ComponentOrder,
    IsotropicAperture,
    UniformLinearArray,
    ZeroApertureError,
    channel_fim,
    global_jacobian,
    measurement_variances,
)
from .geometry import AgentPose, Anchor, DegenerateGeometryError, SurfaceMap, wrap_angle
from .pcrlb import StateSpaceModel, gain_matrix
from .streams import RandomStream, standard_normals, trajectory_stream

DEFAULT_ORIENTATION_PRIOR_VAR = math.radians(10.0) ** 2

# PyYAML's C scanner and parser where built; the constructor stays the Python one
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# Cap on the stacked (steps, N + 2, 3K) float64 gradient of one truth pass
# (one anchor at a time): 10 steps of an octagon room, all 40 of the desk.
TRUTH_PASS_BYTES = 360_000
# Cap on the per-step tables of a scenario: per step, (anchor, component) int8
# visibility flags and 3 + 3 float64 truth, and the (N, N) float64 information.
STEP_TABLE_BYTES = 2**30


class ScenarioError(ValueError):
    """Scenario file failed validation; the message names the offending field."""


@dataclass(frozen=True)
class SignalModel:
    """Transmit signal parameters: carrier frequency and RMS bandwidth (Hz)."""

    carrier_freq: float
    rms_bandwidth: float

    def __post_init__(self):
        if not self.carrier_freq > 0:
            raise ValueError("carrier_freq must be positive")
        if not self.rms_bandwidth > 0:
            raise ValueError("rms_bandwidth must be positive")


@dataclass(frozen=True)
class AmplitudeModel:
    """Normalized amplitude vs distance: u = u_ref * (1 m / d) * loss^bounces."""

    reference_amplitude: float
    bounce_loss: float = 0.5

    def __post_init__(self):
        if not self.reference_amplitude > 0:
            raise ValueError("reference_amplitude must be positive")
        if not 0 < self.bounce_loss <= 1:
            raise ValueError("bounce_loss must lie in (0, 1]")

    def amplitude(
        self, distance: float | np.ndarray, n_bounces: int | np.ndarray
    ) -> float | np.ndarray:
        """Amplitude at the given distances and bounce counts (scalars or arrays)."""
        if not np.all(distance > 0):
            raise ValueError("distance must be positive")
        return self.reference_amplitude * (1.0 / distance) * self.bounce_loss**n_bounces


@dataclass(frozen=True)
class WaypointTrajectory:
    """Deterministic piecewise-linear trajectory; orientation follows the heading."""

    n_steps: int
    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("waypoints need at least two timed points")
        if positions.shape != (times.size, 2):
            raise ValueError("waypoint positions must be (M, 2)")
        if np.any(np.diff(times) <= 0):
            raise ValueError("waypoint times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    def check_horizon(self, time_step: float) -> None:
        """Raise ValueError unless the waypoints span times 0..n_steps * time_step."""
        horizon = self.n_steps * time_step
        if self.times[0] > 1e-12:
            raise ValueError(f"first waypoint is at {self.times[0]} s, must be at time <= 0")
        if self.times[-1] < horizon - 1e-9:
            raise ValueError(
                f"waypoints end at {self.times[-1]} s but the trajectory needs {horizon} s"
            )


@dataclass(frozen=True)
class NcvTrajectory:
    """Trajectory sampled from the nearly-constant-velocity model itself."""

    n_steps: int
    initial: AgentPose

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


TrajectorySpec = WaypointTrajectory | NcvTrajectory


class VisibilitySchedule:
    """Resolved existence flags per (anchor, step, component)."""

    def __init__(self, table: np.ndarray):
        self._table = table

    def flags(self, anchor_index: int, step: int) -> np.ndarray:
        """Existence flags of anchor ``anchor_index`` (0-based) at 1-based ``step``(s)."""
        return self._table[anchor_index, step]

    def visible_count(self) -> int:
        """Visible (anchor, step, component) entries over steps 1..n."""
        return int(np.count_nonzero(self._table[:, 1:]))


@dataclass(frozen=True)
class MonteCarloConfig:
    runs: int
    seed: int

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("mc.runs must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("mc.seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class PriorSpec:
    """Diagonal initial covariance of the joint state.

    ``surface_var`` is either one variance shared by all surfaces or a
    per-surface tuple (walls may be known with different certainty).
    """

    position_var: float = 1.0
    velocity_var: float = 1.0
    orientation_var: float = DEFAULT_ORIENTATION_PRIOR_VAR
    surface_var: float | tuple[float, ...] = 100.0

    def __post_init__(self):
        for name in ("position_var", "velocity_var", "orientation_var"):
            if not getattr(self, name) > 0:
                raise ValueError(f"prior.{name} must be positive")
        values = (
            self.surface_var
            if isinstance(self.surface_var, tuple)
            else (self.surface_var,)
        )
        if not values or any(not v > 0 for v in values):
            raise ValueError("prior.surface_var entries must be positive")

    def surface_vars(self, num_surfaces: int) -> tuple[float, ...]:
        if isinstance(self.surface_var, tuple):
            if len(self.surface_var) != num_surfaces:
                raise ValueError(
                    f"prior.surface_var lists {len(self.surface_var)} surfaces, "
                    f"scenario has {num_surfaces}"
                )
            return self.surface_var
        return (self.surface_var,) * num_surfaces


@dataclass(frozen=True)
class AnchorBlock:
    """The components one anchor observes at one step, as arrays.

    ``params`` holds per component its (distance, arrival azimuth, departure
    azimuth): noise-free in the truth table (:func:`measurement_truth`),
    noisy in a draw (:func:`draw_measurements`, angles wrapped to
    (-pi, pi]; (R, n, 3) in a draw for a batch of R runs). ``variances`` are
    the matching noise variances, evaluated at the true pose; the draw keeps
    them.
    """

    step: int  # 1-based time index
    anchor: int  # 0-based anchor index
    components: np.ndarray  # (n,) indices into the scenario's component order
    params: np.ndarray  # (n, 3), or (R, n, 3)
    variances: np.ndarray  # (n, 3)


@dataclass(frozen=True)
class StepTruth:
    """Channel truth of one step: the snapshot information (N, N) and one
    :class:`AnchorBlock` per anchor, anchors ascending."""

    step: int
    information: np.ndarray
    blocks: tuple[AnchorBlock, ...]


@dataclass
class Scenario:
    anchors: list[Anchor]
    surfaces: SurfaceMap
    signal: SignalModel
    model: StateSpaceModel
    trajectory: TrajectorySpec
    amplitude_model: AmplitudeModel
    visibility: VisibilitySchedule
    prior: PriorSpec
    mc: MonteCarloConfig
    agent_aperture: ApertureModel
    order: ComponentOrder = field(init=False)

    def __post_init__(self):
        if not self.anchors:
            raise ValueError("scenario needs at least one anchor")
        if self.model.num_surfaces != len(self.surfaces):
            raise ValueError("model surface count does not match the surface map")
        for j, anchor in enumerate(self.anchors):
            if anchor.aperture is None:
                raise ValueError(f"anchor {j + 1} has no aperture model")
        self.prior.surface_vars(len(self.surfaces))
        self.order = ComponentOrder.canonical(len(self.surfaces))

    @property
    def n_steps(self) -> int:
        return self.trajectory.n_steps

    @property
    def dim(self) -> int:
        return self.model.dim

    def prior_covariance(self) -> np.ndarray:
        """Diagonal of the initial joint-state covariance."""
        diag = [self.prior.position_var] * 2 + [self.prior.velocity_var] * 2
        diag += [self.prior.orientation_var]
        for var in self.prior.surface_vars(len(self.surfaces)):
            diag += [var, var]
        return np.array(diag)


# ---------------------------------------------------------------------------
# Ground truth


def generate_trajectory(
    spec: TrajectorySpec, model: StateSpaceModel, rng: RandomStream | None = None
) -> list[AgentPose]:
    """Ground-truth poses at steps 0..n_steps (step n at time n * time_step).

    Waypoint trajectories are deterministic and never touch ``rng``; sampled
    trajectories draw two acceleration variates and one orientation variate
    per step from it.
    """
    if isinstance(spec, WaypointTrajectory):
        return _waypoint_poses(spec, model.time_step)
    if isinstance(spec, NcvTrajectory):
        if rng is None:
            raise ValueError("a sampled trajectory needs a random stream")
        return _sampled_poses(spec, model, rng)
    raise TypeError(f"unknown trajectory spec {type(spec)!r}")


def _waypoint_poses(spec: WaypointTrajectory, time_step: float) -> list[AgentPose]:
    spec.check_horizon(time_step)
    poses = []
    heading = 0.0
    for n in range(spec.n_steps + 1):
        t = n * time_step
        seg = int(np.searchsorted(spec.times, t, side="right")) - 1
        seg = min(max(seg, 0), spec.times.size - 2)
        dt = spec.times[seg + 1] - spec.times[seg]
        velocity = (spec.positions[seg + 1] - spec.positions[seg]) / dt
        alpha = (t - spec.times[seg]) / dt
        position = spec.positions[seg] + alpha * (spec.positions[seg + 1] - spec.positions[seg])
        if math.hypot(*velocity) > 1e-12:
            heading = math.atan2(velocity[1], velocity[0])
        poses.append(AgentPose(position=position, velocity=velocity, orientation=heading))
    return poses


def _sampled_poses(
    spec: NcvTrajectory, model: StateSpaceModel, rng: RandomStream
) -> list[AgentPose]:
    t = model.time_step
    gain = gain_matrix(t)
    accel_std = math.sqrt(model.accel_noise_var)
    orient_std = math.sqrt(model.orient_noise_var)
    poses = [spec.initial]
    kin = np.concatenate([spec.initial.position, spec.initial.velocity])
    heading = spec.initial.orientation
    # per step two acceleration variates, then one orientation variate
    for noise in rng.standard_normal(3 * spec.n_steps).reshape(-1, 3):
        kin = np.array([kin[0] + t * kin[2], kin[1] + t * kin[3], kin[2], kin[3]])
        kin = kin + gain @ (accel_std * noise[:2])
        heading = wrap_angle(heading + orient_std * float(noise[2]))
        poses.append(AgentPose(position=kin[0:2], velocity=kin[2:4], orientation=heading))
    return poses


def ground_truth(scenario: Scenario) -> list[AgentPose]:
    """Ground-truth poses of a scenario; the trajectory stream is only
    created for sampled trajectories, so bound-only evaluation of waypoint
    scenarios never constructs a random generator."""
    if isinstance(scenario.trajectory, NcvTrajectory):
        rng = trajectory_stream(scenario.mc.seed)
    else:
        rng = None
    return generate_trajectory(scenario.trajectory, scenario.model, rng)


# ---------------------------------------------------------------------------
# Snapshot information and measurements


def _truth_pass(scenario: Scenario, poses: list[AgentPose], steps: np.ndarray) -> list[StepTruth]:
    """Truth records of consecutive ``steps`` at their true ``poses``.

    Per anchor, on the poses stacked along a leading step axis, one
    :func:`global_jacobian` call on the components visible at any of the
    steps and one noise-model call on the visible (step, component) entries.
    Hidden entries get zero weight (an infinite variance) in the information,
    summed as :func:`~.fim.global_snapshot_fim` does. A failure names the
    earliest step, then the lowest anchor; degenerate geometry before endfire.
    A visible entry whose distance, amplitude or noise variance is not finite
    and positive (a geometry or noise model beyond the float range) raises
    :class:`FloatingPointError`.
    """
    order = scenario.order
    pose = AgentPose.from_state(np.stack([p.as_state() for p in poses]))
    total, per_anchor, failures = 0.0, [], []
    for j, anchor in enumerate(scenario.anchors):
        shown = scenario.visibility.flags(j, steps).astype(bool)
        union = np.flatnonzero(shown.any(axis=0))
        shown = shown[:, union]
        params, degenerate, jac = global_jacobian(pose, anchor, order, scenario.surfaces, union)
        bad = np.argwhere(degenerate & shown)
        if bad.size:
            b, i = bad[0]
            comp = order.components[union[i]]
            failures.append((b, j, comp, DegenerateGeometryError,
                             f"agent coincides with virtual anchor for path {comp.bounces}"))
            shown[b:] = False  # an earlier endfire aperture is still reported first
        distance = params[..., 0]
        reached = np.isfinite(distance) & (distance > 0)
        amplitudes = scenario.amplitude_model.amplitude(np.where(reached, distance, 1.0),
                                                        order.n_bounces[union])
        bad = np.argwhere(~(reached & np.isfinite(amplitudes) & (amplitudes > 0)) & shown)
        if bad.size:  # a distance or amplitude beyond the float range
            b, i = bad[0]
            value = (f"distance {distance[b, i]}" if not reached[b, i]
                     else f"amplitude {amplitudes[b, i]}")
            failures.append((b, j, order.components[union[i]], FloatingPointError,
                             f"{value} is not finite and positive"))
            shown[b:] = False
        at, k = np.nonzero(shown)  # visible entries: step and position in the union
        entries = params[at, k]
        try:
            variances = measurement_variances(
                entries, amplitudes[at, k], scenario.signal.carrier_freq,
                scenario.signal.rms_bandwidth, scenario.agent_aperture, anchor.aperture,
            )
        except ZeroApertureError as exc:
            comp = order.components[union[k[exc.index]]]
            failures.append((at[exc.index], j, comp, ZeroApertureError, exc))
        else:
            bad = np.argwhere(~(np.isfinite(variances) & (variances > 0)))
            if bad.size:  # an overflowing or underflowing noise model
                i, c = bad[0]
                failures.append((at[i], j, order.components[union[k[i]]], FloatingPointError,
                                 f"{('distance', 'arrival', 'departure')[c]} variance "
                                 f"{variances[i, c]} is not finite and positive"))
        if failures:
            continue
        weights = np.full((steps.size, order.size, 3), np.inf)
        weights[at, union[k]] = variances
        # summed over all 3K columns: the compact sum rounds differently
        dense = np.zeros(jac.shape[:-1] + (order.dim,))
        dense[..., order.columns(union).ravel()] = jac
        del jac  # each gradient is freed once used, so the peak memory does not grow
        total = total + (dense * channel_fim(weights)[..., None, :]) @ np.swapaxes(dense, -1, -2)
        del dense
        cuts = np.cumsum(shown.sum(axis=1))[:-1]
        per_anchor.append([AnchorBlock(int(n), j, union[row], p, v) for n, row, p, v in zip(
            steps, shown, np.split(entries, cuts), np.split(variances, cuts))])
    if failures:
        b, j, comp, error, reason = min(failures, key=lambda failure: failure[0])
        raise error(f"step {steps[b]}, anchor {j + 1}, component {list(comp.pair)}: {reason}")
    information = 0.5 * (total + np.swapaxes(total, -1, -2))
    return [StepTruth(int(n), information[b], tuple(blocks[b] for blocks in per_anchor))
            for b, n in enumerate(steps)]


def snapshot_fim(scenario: Scenario, pose: AgentPose, step: int) -> StepTruth:
    """Channel truth at one ground-truth pose under the schedule at ``step``.

    The one-step case of the truth pass: the step's record of the truth
    table, with the snapshot information sum_j H_j Lambda_j H_j^T and the
    anchors' visible components with their noise-free parameters and
    variances. No gradient matrix is kept.
    """
    return _truth_pass(scenario, [pose], np.array([step]))[0]


def measurement_truth(scenario: Scenario, truth: list[AgentPose]) -> list[StepTruth]:
    """The truth table: one :class:`StepTruth` per step 1..n_steps.

    Built once per scenario, one pass per block of steps (``TRUTH_PASS_BYTES``);
    the bound recursion reads its information, the generator draws around its
    parameters with its variances, and the filter takes its noise covariance
    from those variances. Invisible components emit nothing; the variances
    come from the true amplitude (amplitude noise carries no state
    information here).
    """
    size = max(1, TRUTH_PASS_BYTES // (8 * (scenario.dim + 2) * scenario.order.dim))
    steps = np.arange(1, scenario.n_steps + 1)
    blocks = [steps[start:start + size] for start in range(0, steps.size, size)]
    return [r for block in blocks for r in _truth_pass(scenario, [truth[n] for n in block], block)]


def draw_measurements(
    table: list[StepTruth], rng: RandomStream | Sequence[RandomStream]
) -> list[tuple[AnchorBlock, ...]]:
    """Draw noisy measurements around the truth table, one tuple of anchor
    blocks per step (fixed draw order).

    Distances and azimuths are Gaussian around the noise-free channel
    parameters with the block's variances (a standard normal variate per
    value, scaled by the standard deviation); azimuths are wrapped. The
    variances are carried over unchanged. Each stream draws the whole table
    in one request. Given a sequence of streams, one per Monte-Carlo run of a
    batch, each block's ``params`` gains a leading run axis.
    """
    streams = [rng] if isinstance(rng, RandomStream) else rng
    total = sum(block.params.size for record in table for block in record.blocks)
    noise = standard_normals(streams, total)
    if isinstance(rng, RandomStream):
        noise = noise[0]
    drawn, end = [], 0
    for record in table:
        blocks = []
        for block in record.blocks:
            start, end = end, end + block.params.size
            chunk = noise[..., start:end].reshape(noise.shape[:-1] + block.params.shape)
            params = block.params + np.sqrt(block.variances) * chunk
            params[..., 1:] = wrap_angle(params[..., 1:])
            blocks.append(replace(block, params=params))
        drawn.append(tuple(blocks))
    return drawn


# ---------------------------------------------------------------------------
# Scenario file loading


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(node).__name__}")
    return dict(node)


def _reject_unknown(node: dict, path: str) -> None:
    if node:
        key = sorted(str(k) for k in node)[0]
        raise ScenarioError(f"{path}.{key}: unknown key")


def _as_float(value, path: str) -> float:
    if isinstance(value, bool):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ScenarioError(f"{path}: expected a number within the float range") from None
    except (TypeError, ValueError):
        raise ScenarioError(f"{path}: expected a number, got {value!r}") from None
    if not math.isfinite(result):
        raise ScenarioError(f"{path}: must be finite, got {result}")
    return result


def _as_int(value, path: str) -> int:
    if isinstance(value, bool):
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    if not isinstance(value, int):
        try:
            if float(value) != int(float(value)):
                raise ValueError
            value = int(float(value))
        except (TypeError, ValueError, OverflowError):
            raise ScenarioError(f"{path}: expected an integer, got {value!r}") from None
    return int(value)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}: expected true/false, got {value!r}")
    return value


def _as_vec2(value, path: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{path}: expected [x, y]")
    return np.array([_as_float(value[0], f"{path}[0]"), _as_float(value[1], f"{path}[1]")])


def _take(node: dict, key: str, path: str, default=None, required: bool = False):
    if key in node:
        return node.pop(key)
    if required:
        raise ScenarioError(f"{path}.{key}: missing required key")
    return default


def _as_floats(value, path: str) -> float | tuple[float, ...]:
    """One number, or a list of numbers read as a tuple."""
    if isinstance(value, list):
        return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))
    return _as_float(value, path)


# The reader of a section field, by its annotation (a string in these modules)
_READERS = {
    "float": _as_float,
    "int": _as_int,
    "np.ndarray": _as_vec2,
    "float | np.ndarray": _as_float,  # AgentPose and Anchor orientation, unbatched
    "float | tuple[float, ...]": _as_floats,  # PriorSpec.surface_var
}

APERTURE_KINDS = {"isotropic": IsotropicAperture, "ula": UniformLinearArray}


def _make(cls, path: str, **kwargs):
    """``cls(**kwargs)``, its ValueError reported at ``path``."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _build(cls, node, path: str, **given):
    """The dataclass ``cls`` read from the mapping at ``path``.

    Each init field not ``given`` reads its key with the reader of its
    annotation. A missing key takes the field's own default; a field without
    one is required. Keys that name no field are rejected.
    """
    node = _require_mapping(node, path)
    for f in fields(cls):
        if not f.init or f.name in given:
            continue
        if f.name in node:
            given[f.name] = _READERS[f.type](node.pop(f.name), f"{path}.{f.name}")
        elif f.default is MISSING:
            raise ScenarioError(f"{path}.{f.name}: missing required key")
    _reject_unknown(node, path)
    return _make(cls, path, **given)


def _parse_aperture(node, path: str) -> ApertureModel:
    node = _require_mapping(node, path)
    kind = _take(node, "kind", path, required=True)
    if not isinstance(kind, str) or kind not in APERTURE_KINDS:
        kinds = " or ".join(map(repr, APERTURE_KINDS))
        raise ScenarioError(f"{path}.kind: expected {kinds}, got {kind!r}")
    return _build(APERTURE_KINDS[kind], node, path)


def _parse_trajectory(node, path: str, time_step: float, max_steps: int) -> TrajectorySpec:
    node = _require_mapping(node, path)
    kind = _take(node, "kind", path, required=True)
    n_steps = _as_int(_take(node, "n_steps", path, required=True), f"{path}.n_steps")
    if n_steps > max_steps:  # checked before any per-step array exists
        raise ScenarioError(f"{path}.n_steps: must be at most {max_steps} in this room")
    if kind == "sampled_ncv":
        return _make(NcvTrajectory, path, n_steps=n_steps, initial=_build(AgentPose, node, path))
    if kind != "waypoints":
        raise ScenarioError(f"{path}.kind: expected 'waypoints' or 'sampled_ncv', got {kind!r}")
    raw_points = _take(node, "points", path, required=True)
    _reject_unknown(node, path)
    if not isinstance(raw_points, list) or len(raw_points) < 2:
        raise ScenarioError(f"{path}.points: need at least two waypoints")
    times, positions = [], []
    for i, entry in enumerate(raw_points):
        entry = _require_mapping(entry, f"{path}.points[{i}]")
        times.append(_as_float(_take(entry, "time", f"{path}.points[{i}]", required=True),
                               f"{path}.points[{i}].time"))
        positions.append(_as_vec2(_take(entry, "position", f"{path}.points[{i}]",
                                        required=True), f"{path}.points[{i}].position"))
        _reject_unknown(entry, f"{path}.points[{i}]")
    spec = _make(WaypointTrajectory, path, n_steps=n_steps, times=np.array(times),
                 positions=np.array(positions))
    try:
        spec.check_horizon(time_step)
    except ValueError as exc:
        raise ScenarioError(f"{path}.points: {exc}") from None
    return spec


def _parse_steps(node, path: str, n_steps: int) -> tuple[int, ...] | None:
    if node is None:
        return None
    if isinstance(node, dict):
        node = dict(node)
        start = _as_int(_take(node, "from", path, default=1), f"{path}.from")
        stop = _as_int(_take(node, "to", path, default=n_steps), f"{path}.to")
        _reject_unknown(node, path)
        if not 1 <= start <= stop <= n_steps:
            raise ScenarioError(f"{path}: range {start}..{stop} outside 1..{n_steps}")
        return tuple(range(start, stop + 1))
    if isinstance(node, list):
        steps = tuple(_as_int(v, f"{path}[{i}]") for i, v in enumerate(node))
        for i, n in enumerate(steps):
            if not 1 <= n <= n_steps:
                raise ScenarioError(f"{path}[{i}]: step {n} outside 1..{n_steps}")
        return steps
    raise ScenarioError(f"{path}: expected a list of steps or {{from, to}}")


def _parse_visibility(node, path: str, n_anchors: int, n_steps: int,
                      order: ComponentOrder) -> VisibilitySchedule:
    """The schedule's default, then each rule in order, overriding the flags
    of the anchors, components and steps it names (all of them where a key
    is left out). Anchors and steps are 1-based; components are [s, s']
    pairs with [0, 0] the line-of-sight path."""
    node = _require_mapping({} if node is None else node, path)
    default = _as_bool(_take(node, "default", path, default=True), f"{path}.default")
    raw_rules = _take(node, "rules", path, default=[])
    _reject_unknown(node, path)
    if not isinstance(raw_rules, list):
        raise ScenarioError(f"{path}.rules: expected a list")
    table = np.full((n_anchors, n_steps + 1, order.size), int(default), dtype=np.int8)
    pair_to_index = {c.pair: k for k, c in enumerate(order)}
    for i, raw in enumerate(raw_rules):
        rpath = f"{path}.rules[{i}]"
        raw = _require_mapping(raw, rpath)
        visible = _as_bool(_take(raw, "visible", rpath, required=True), f"{rpath}.visible")
        anchors = _take(raw, "anchors", rpath, default=list(range(1, n_anchors + 1)))
        if not isinstance(anchors, list):
            raise ScenarioError(f"{rpath}.anchors: expected a list")
        anchors = [_as_int(a, f"{rpath}.anchors[{ai}]") for ai, a in enumerate(anchors)]
        for ai, a in enumerate(anchors):
            if not 1 <= a <= n_anchors:
                raise ScenarioError(f"{rpath}.anchors[{ai}]: anchor {a} outside 1..{n_anchors}")
        components = _take(raw, "components", rpath)
        comps = range(order.size)
        if components is not None:
            if not isinstance(components, list):
                raise ScenarioError(f"{rpath}.components: expected a list of [s, s'] pairs")
            comps = []
            for ci, pair in enumerate(components):
                cpath = f"{rpath}.components[{ci}]"
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ScenarioError(f"{cpath}: expected [s, s']")
                key = (_as_int(pair[0], f"{cpath}[0]"), _as_int(pair[1], f"{cpath}[1]"))
                if key not in pair_to_index:
                    raise ScenarioError(f"{cpath}: unknown component {list(key)}")
                comps.append(pair_to_index[key])
        steps = _parse_steps(_take(raw, "steps", rpath), f"{rpath}.steps", n_steps)
        _reject_unknown(raw, rpath)
        steps = range(1, n_steps + 1) if steps is None else steps
        table[np.ix_([a - 1 for a in anchors], list(steps), list(comps))] = visible
    return VisibilitySchedule(table)


def load_scenario(path: str | Path) -> Scenario:
    """Load and fully validate a scenario file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    try:
        root = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: invalid YAML: {exc}") from None
    return scenario_from_mapping(root)


def scenario_from_mapping(root) -> Scenario:
    """Build a scenario from an already-parsed mapping (the file's structure)."""
    root = _require_mapping(root, "scenario")

    def section(key: str, required: bool = True, default=None) -> tuple:
        """The node under the top-level ``key``, and its path."""
        return _take(root, key, "scenario", default, required), f"scenario.{key}"

    raw_anchors, _ = section("anchors")
    if not isinstance(raw_anchors, list) or not raw_anchors:
        raise ScenarioError("scenario.anchors: expected a non-empty list")
    anchors = []
    for i, raw in enumerate(raw_anchors):
        apath = f"scenario.anchors[{i}]"
        raw = _require_mapping(raw, apath)
        aperture = _parse_aperture(_take(raw, "aperture", apath, required=True),
                                   f"{apath}.aperture")
        anchors.append(_build(Anchor, raw, apath, aperture=aperture))

    raw_surfaces, _ = section("surfaces")
    if not isinstance(raw_surfaces, list) or not raw_surfaces:
        raise ScenarioError("scenario.surfaces: expected a non-empty list of [x, y] points")
    surface_points = [_as_vec2(p, f"scenario.surfaces[{i}]") for i, p in enumerate(raw_surfaces)]
    surfaces = _make(SurfaceMap, "scenario.surfaces", points=np.array(surface_points))

    signal = _build(SignalModel, *section("signal"))
    model = _build(StateSpaceModel, *section("model"), num_surfaces=len(surfaces))
    order = ComponentOrder.canonical(len(surfaces))
    max_steps = STEP_TABLE_BYTES // (49 * len(anchors) * order.size + 8 * model.dim**2) - 1
    trajectory = _parse_trajectory(*section("trajectory"), model.time_step, max_steps)
    amplitude_model = _build(AmplitudeModel, *section("amplitude_model"))
    prior = _build(PriorSpec, *section("prior", False, {}))
    mc = _build(MonteCarloConfig, *section("mc"))
    agent_aperture = _parse_aperture(*section("agent_aperture"))
    visibility = _parse_visibility(*section("visibility", False), len(anchors),
                                   trajectory.n_steps, order)
    _reject_unknown(root, "scenario")

    return _make(Scenario, "scenario", anchors=anchors, surfaces=surfaces, signal=signal,
                 model=model, trajectory=trajectory, amplitude_model=amplitude_model,
                 visibility=visibility, prior=prior, mc=mc, agent_aperture=agent_aperture)
