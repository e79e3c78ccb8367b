"""Scenario definition, loading, ground truth and synthetic measurements.

A scenario bundles anchors, the surface points, signal parameters, the
state-transition model, a ground-truth trajectory specification, an
amplitude model, a per-component visibility schedule, the initial prior and
Monte-Carlo settings. Scenario files are YAML mappings whose keys mirror
the dataclass fields below exactly: one reader walks a section's fields, a
missing key takes the field's own default, and an unknown or repeated key is
rejected, named by its path or line, so typos cannot silently change an experiment.

The ground truth is one (n + 1, N) array of joint states, steps 0..n,
built in whole arrays. The channel truth is evaluated once at it, in
the filter's own layout: per step layout (which components of which anchors
a step sees), one :class:`~.fim.PathPlan` and one batched pass over exactly
the visible paths of all anchors, cut only where the gradients pass a
memory cap. A step's record does not depend on its pass, bit for bit. The
output is the truth table (:func:`measurement_truth`), one :class:`StepTruth`
per step holding the snapshot information, its layout's plan (each path's
anchor and component), and per path its noise-free parameters and variances.
The bound recursion reads the information, the generator draws around the
parameters with their variances, and the estimator linearizes through the
same plan and takes its noise covariance from the same variances, so all
three read the same numbers; the filter's pass at the truth gives the same
information. Draw order is fixed: steps ascending, anchors ascending,
components in canonical order, and per component distance, arrival azimuth,
departure azimuth; the draw scales and wraps all rows of the table in one
pass.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from .fim import (
    ZERO_APERTURE_EPS,
    ApertureModel,
    ComponentOrder,
    IsotropicAperture,
    PathPlan,
    UniformLinearArray,
    channel_fim,
    global_jacobian,
    global_snapshot_fim,
    measurement_variances,
)
from .geometry import SURFACE_NORM_FLOOR, Anchor, _integer, dot2, read_only, wrap_angle
from .pcrlb import StateSpaceModel, gain_matrix
from .streams import RandomStream, standard_normals, trajectory_stream

DEFAULT_ORIENTATION_PRIOR_VAR = math.radians(10.0) ** 2

# PyYAML's C scanner and parser where built; the constructor stays the Python one
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# Cap on a truth pass's stacked float64 gradients, (N + 2) x 3 x (visible paths) per
# step: 5 steps of a dense two-anchor octagon, 29 of the desk, 30 of the sparse one.
TRUTH_PASS_BYTES = 360_000
# Cap on what a scenario holds for its steps (counted where the step count is
# read) and on what a Monte-Carlo batch holds for its runs (``ekf.max_runs``).
STEP_TABLE_BYTES = 2**30


class ScenarioError(ValueError):
    """Scenario file failed validation; the message names the offending field."""


def _flatten_unique(loader, node) -> None:
    """The loader's ``flatten_mapping``; a key repeated in one mapping raises ConstructorError."""
    if not hasattr(node, "own_keys"):  # first call only: later ones see its merged keys
        node.own_keys = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                if (key := (key_node.tag, key_node.value)) in node.own_keys:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key[1]!r}", key_node.start_mark)
                node.own_keys.add(key)
    yaml.constructor.SafeConstructor.flatten_mapping(loader, node)


@dataclass(frozen=True)
class SignalModel:
    """Transmit signal parameters: carrier frequency and RMS bandwidth (Hz)."""

    carrier_freq: float
    rms_bandwidth: float

    def __post_init__(self):
        for name in ("carrier_freq", "rms_bandwidth"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class AmplitudeModel:
    """Normalized amplitude vs distance: u = u_ref * (1 m / d) * loss^bounces."""

    reference_amplitude: float
    bounce_loss: float = 0.5

    def __post_init__(self):
        if not 0 < self.reference_amplitude < math.inf:
            raise ValueError("reference_amplitude must be positive and finite")
        if not 0 < self.bounce_loss <= 1:
            raise ValueError("bounce_loss must lie in (0, 1]")

    # A zero distance (degenerate geometry) or an overflow gives inf or nan,
    # with no warning; the truth pass reports it.
    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def amplitude(
        self, distance: float | np.ndarray, n_bounces: int | np.ndarray
    ) -> float | np.ndarray:
        """Amplitude at the given distances and bounce counts (scalars or arrays)."""
        return self.reference_amplitude * (1.0 / distance) * self.bounce_loss**n_bounces


@dataclass(frozen=True)
class WaypointTrajectory:
    """Deterministic piecewise-linear trajectory; orientation follows the heading."""

    n_steps: int
    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        times, positions = read_only(self.times), read_only(self.positions)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("waypoints need at least two timed points")
        if positions.shape != (times.size, 2):
            raise ValueError("waypoint positions must be (M, 2)")
        for name, value in (("times", times), ("positions", positions)):
            if not np.isfinite(value).all():
                raise ValueError(f"waypoint {name} must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("waypoint times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)
        if _integer(self.n_steps, "n_steps") < 1:
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

    # An overflow gives a state that is not finite, which ground_truth names.
    @np.errstate(over="ignore", invalid="ignore")
    def states(self, model: StateSpaceModel, seed: int) -> np.ndarray:
        """The (n + 1, 5) agent states [px, py, vx, vy, heading] of steps 0..n
        (step n at time n * time_step); ``seed`` is unused. Each step lies on
        its segment, heading along the segment of the last step that moved (0
        before any did), by ``math.atan2`` and ``math.hypot``; numpy's SIMD
        forms may round otherwise."""
        self.check_horizon(model.time_step)
        t = np.arange(self.n_steps + 1) * model.time_step
        seg = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, self.times.size - 2)
        dt, delta = np.diff(self.times), np.diff(self.positions, axis=0)
        velocity = delta / dt[:, None]
        moving = np.array([math.hypot(*v) > 1e-12 for v in velocity])[seg]
        headings = np.array([math.atan2(v[1], v[0]) for v in velocity])
        last = np.maximum.accumulate(np.where(moving, np.arange(seg.size), -1))
        position = self.positions[seg] + ((t - self.times[seg]) / dt[seg])[:, None] * delta[seg]
        heading = np.where(last >= 0, headings[seg[last]], 0.0)
        return np.concatenate([position, velocity[seg], heading[:, None]], axis=1)


@dataclass(frozen=True)
class NcvTrajectory:
    """Trajectory sampled from the nearly-constant-velocity model itself,
    starting at ``position`` with ``velocity`` and heading ``orientation``."""

    n_steps: int
    position: np.ndarray
    velocity: np.ndarray
    orientation: float = 0.0

    def __post_init__(self):
        if _integer(self.n_steps, "n_steps") < 1:
            raise ValueError("n_steps must be >= 1")
        for name in ("position", "velocity"):
            vec = read_only(getattr(self, name))
            if vec.shape != (2,) or not np.all(np.isfinite(vec)):
                raise ValueError(f"agent {name} must be a finite 2-vector, got {vec}")
            object.__setattr__(self, name, vec)
        if not math.isfinite(self.orientation):
            raise ValueError("agent orientation must be finite")
        object.__setattr__(self, "orientation", wrap_angle(self.orientation))

    def check_horizon(self, time_step: float) -> None:
        """A sampled trajectory covers any horizon."""

    @np.errstate(over="ignore", invalid="ignore")
    def states(self, model: StateSpaceModel, seed: int) -> np.ndarray:
        """The (n + 1, 5) agent states [px, py, vx, vy, heading] of steps
        0..n, sampled from ``model`` by ``trajectory_stream(seed)``: per step
        two acceleration variates, then one orientation variate."""
        t, gain = model.time_step, gain_matrix(model.time_step)
        accel_std, orient_std = math.sqrt(model.accel_noise_var), math.sqrt(model.orient_noise_var)
        kin = np.concatenate([self.position, self.velocity])
        kins, headings = [kin], [self.orientation]
        for noise in trajectory_stream(seed).standard_normal(3 * self.n_steps).reshape(-1, 3):
            kin = np.array([kin[0] + t * kin[2], kin[1] + t * kin[3], kin[2], kin[3]])
            kin = kin + gain @ (accel_std * noise[:2])
            kins.append(kin)
            headings.append(wrap_angle(headings[-1] + orient_std * float(noise[2])))
        return np.column_stack([np.array(kins), headings])


TrajectorySpec = WaypointTrajectory | NcvTrajectory


@dataclass(frozen=True)
class VisibilitySchedule:
    """Resolved existence flags, step-major: ``table[n, j, k]`` is 1 where
    anchor j (0-based) sees component k at 1-based step n; row 0 is unused."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", read_only(self.table, None))

    def flags(self, anchor_index: int, step: int) -> np.ndarray:
        """Existence flags of anchor ``anchor_index`` (0-based) at 1-based ``step``(s)."""
        return self.table[step, anchor_index]

    def visible_counts(self) -> np.ndarray:
        """Visible (anchor, component) entries of each step 1..n."""
        return np.count_nonzero(self.table[1:], axis=(1, 2))


@dataclass(frozen=True)
class MonteCarloConfig:
    runs: int
    seed: int

    def __post_init__(self):
        if _integer(self.runs, "mc.runs") < 1:
            raise ValueError("mc.runs must be >= 1")
        if not 0 <= _integer(self.seed, "mc.seed") < 2**64:
            raise ValueError("mc.seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class PriorSpec:
    """Diagonal initial covariance of the joint state.

    ``surface_var`` is either one variance shared by all surfaces or a
    per-surface sequence, stored as a tuple (walls may be known with
    different certainty).
    """

    position_var: float = 1.0
    velocity_var: float = 1.0
    orientation_var: float = DEFAULT_ORIENTATION_PRIOR_VAR
    surface_var: float | tuple[float, ...] = 100.0

    def __post_init__(self):
        for name in ("position_var", "velocity_var", "orientation_var"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"prior.{name} must be positive and finite")
        if np.ndim(self.surface_var):
            object.__setattr__(self, "surface_var", tuple(self.surface_var))
        values = self.surface_var if isinstance(self.surface_var, tuple) else (self.surface_var,)
        if not values or any(not 0 < v < math.inf for v in values):
            raise ValueError("prior.surface_var entries must be positive and finite")

    def surface_vars(self, num_surfaces: int) -> tuple[float, ...]:
        if isinstance(self.surface_var, tuple):
            if len(self.surface_var) != num_surfaces:
                raise ValueError(f"prior.surface_var lists {len(self.surface_var)} surfaces, "
                                 f"scenario has {num_surfaces}")
            return self.surface_var
        return (self.surface_var,) * num_surfaces


@dataclass(frozen=True)
class StepTruth:
    """Channel truth of one step: the snapshot ``information`` (N, N), the
    step layout's :class:`~.fim.PathPlan` (built once by the truth pass,
    shared by the layout's steps and the filter, and holding each path's
    0-based anchor ``plan.owner`` and component ``plan.components``), per
    path its noise-free (distance, arrival azimuth, departure azimuth)
    ``params`` and their ``variances`` at the true pose, (n, 3) each, and
    their (3n) ``channel_information`` (:func:`~.fim.channel_fim`). Paths
    run anchors ascending, each anchor's components in canonical order; a
    step that sees nothing has n = 0 and no information."""

    step: int  # 1-based time index
    information: np.ndarray
    plan: PathPlan
    params: np.ndarray
    variances: np.ndarray
    channel_information: np.ndarray


@dataclass(frozen=True)
class Scenario:
    """One experiment; each field is the scenario file's section of its name.

    ``anchors`` is a tuple of the anchors, each with an aperture; ``surfaces``
    holds the (S, 2) wall points (mirror images of the origin), stored as a
    read-only float copy; ``visibility.table`` is (n_steps + 1, anchors,
    components); every other field is its annotated dataclass. Derived:
    ``order``, the canonical component order of the S surfaces; ``dim``, the
    joint-state size N = 5 + 2S; ``n_steps``, the trajectory's. Construction
    raises ValueError unless each of 1 or more anchors has an aperture, the
    S >= 1 surfaces are finite, distinct and none within ``SURFACE_NORM_FLOOR`` of
    the origin, a per-surface prior lists S variances, the trajectory spans
    its steps (``check_horizon``) and the table has that shape.
    A scenario and its records are immutable, their arrays read-only: a
    variant is ``dataclasses.replace(scenario, ...)``, which reruns every check.
    """

    anchors: tuple[Anchor, ...]
    surfaces: np.ndarray
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
        object.__setattr__(self, "anchors", tuple(self.anchors))
        if not self.anchors:
            raise ValueError("scenario needs at least one anchor")
        for j, anchor in enumerate(self.anchors):
            if anchor.aperture is None:
                raise ValueError(f"anchor {j + 1} has no aperture model")
        surfaces = read_only(self.surfaces)
        if surfaces.shape[1:] != (2,) or not surfaces.size or not np.isfinite(surfaces).all():
            raise ValueError("surfaces must be an (S, 2) array of finite points, S >= 1")
        with np.errstate(over="ignore"):  # a far point's squares overflow to inf
            # the norm, bit for bit; the filter skips an estimate this near as well
            through = np.sqrt(dot2(surfaces, surfaces)) <= SURFACE_NORM_FLOOR
        if through.any():
            raise ValueError(f"surface {np.argmax(through) + 1} passes through the "
                             "origin and is not representable")
        for i, point in enumerate(surfaces):  # a repeated wall would count its paths twice
            if (same := np.flatnonzero((surfaces[:i] == point).all(axis=1))).size:
                raise ValueError(f"surface {i + 1} is the same point as surface {same[0] + 1}")
        object.__setattr__(self, "surfaces", surfaces)
        self.prior.surface_vars(len(surfaces))
        object.__setattr__(self, "order", ComponentOrder.canonical(len(surfaces)))
        self.trajectory.check_horizon(self.model.time_step)
        shape = (self.n_steps + 1, len(self.anchors), self.order.size)
        if np.shape(self.visibility.table) != shape:
            raise ValueError("visibility table must be (n_steps + 1, anchors, components) = "
                             f"{shape}, got {np.shape(self.visibility.table)}")

    @property
    def n_steps(self) -> int:
        return self.trajectory.n_steps

    @property
    def dim(self) -> int:
        return 5 + 2 * len(self.surfaces)

    def prior_covariance(self) -> np.ndarray:
        """Diagonal of the initial joint-state covariance."""
        prior = self.prior
        return np.r_[[prior.position_var] * 2, [prior.velocity_var] * 2, prior.orientation_var,
                     np.repeat(prior.surface_vars(len(self.surfaces)), 2)]


# ---------------------------------------------------------------------------
# Ground truth


def ground_truth(scenario: Scenario) -> np.ndarray:
    """The (n_steps + 1, N) joint truth of a scenario: the agent states of
    ``scenario.trajectory.states(scenario.model, scenario.mc.seed)``, the
    heading wrapped into (-pi, pi], each row followed by the surface points in
    order. Only a sampled trajectory creates its random stream, so bound-only
    evaluation of waypoint scenarios never constructs a random generator. A
    state beyond the float range raises :class:`FloatingPointError` naming
    its step."""
    states = scenario.trajectory.states(scenario.model, scenario.mc.seed)
    bad = np.argwhere(~np.isfinite(states))
    if bad.size:
        n, part = bad[0][0], ("position", "velocity", "orientation")[bad[0][1] // 2]
        raise FloatingPointError(f"step {n}: true agent {part} is not finite")
    states[:, 4] = wrap_angle(states[:, 4])  # atan2's -pi is pi
    surfaces = np.tile(scenario.surfaces.ravel(), (states.shape[0], 1))
    return np.concatenate([states, surfaces], axis=1)


# ---------------------------------------------------------------------------
# Snapshot information and measurements


def _truth_pass(scenario: Scenario, states: np.ndarray, steps: np.ndarray) -> list[StepTruth]:
    """Truth records of ``steps`` at their true joint ``states``, rows of the
    ground truth (finite, heading wrapped).

    Per step layout (which components of which anchors are visible), one
    :class:`~.fim.PathPlan` of its (anchor, component) pairs; per pass of
    its steps, stacked along a leading axis, one :func:`global_jacobian`
    call over exactly the visible paths, one noise-model call and the
    filter's :func:`~.fim.global_snapshot_fim`. A pass takes as many steps as
    keep their gradients within ``TRUTH_PASS_BYTES`` (a layout without
    visible paths, all in one). One rule names the first failure over all
    passes: the earliest step, then the lowest anchor, then the kind, then
    the first path; it raises :class:`FloatingPointError`. The kinds, highest
    priority first: degenerate geometry, a distance or amplitude that is not
    finite and positive, endfire, a noise variance that is not finite and
    positive. The amplitude and noise models check nothing: this rule is the
    one judge.
    """
    order, signal, anchors = scenario.order, scenario.signal, scenario.anchors
    shown = scenario.visibility.table[steps]
    layouts: dict[bytes, list[int]] = {}
    for b, flags in enumerate(shown):
        layouts.setdefault(flags.tobytes(), []).append(b)
    passes = []
    for steps_of in layouts.values():
        plan = PathPlan(order, *np.nonzero(shown[steps_of[0]]), anchors)
        width = 24 * (scenario.dim + 2) * plan.owner.size  # bytes of one step's gradient
        size = max(1, TRUTH_PASS_BYTES // width) if width else len(steps_of)
        passes += [(plan, steps_of[i:i + size]) for i in range(0, len(steps_of), size)]
    information, paths_of, failures = np.empty((steps.size, scenario.dim, scenario.dim)), {}, []
    for plan, rows in passes:
        params, degenerate, jac = global_jacobian(states[rows], plan, scenario.surfaces)
        distance = params[..., 0]
        reached = np.isfinite(distance) & (distance > 0)
        amplitudes = scenario.amplitude_model.amplitude(distance, order.n_bounces[plan.components])
        usable = reached & np.isfinite(amplitudes) & (amplitudes > 0)
        squared = np.empty(params.shape[:-1] + (2,))
        squared[..., 0] = scenario.agent_aperture.squared_aperture(params[..., 1])
        for j, anchor in enumerate(anchors):
            paths = plan.owner == j
            squared[..., paths, 1] = anchor.aperture.squared_aperture(params[..., paths, 2])
        endfire = squared < ZERO_APERTURE_EPS
        blind = endfire.any(axis=-1)  # a path at either array's endfire
        measured = usable & ~blind  # only these paths' variances are judged
        variances = measurement_variances(amplitudes, squared, signal.carrier_freq,
                                          signal.rms_bandwidth)
        unfit = ~(np.isfinite(variances) & (variances > 0)) & measured[..., None]
        kind, g, i = np.nonzero([degenerate, ~usable, blind, unfit.any(axis=-1)])
        if kind.size:
            first = np.lexsort((i, kind, plan.owner[i], g))[0]
            kind, at = kind[first], (g[first], i[first])
            if kind == 0:
                reason = "agent coincides with virtual anchor"
            elif kind == 1:  # a distance or amplitude beyond the float range
                value = f"amplitude {amplitudes[at]}" if reached[at] else f"distance {distance[at]}"
                reason = f"{value} is not finite and positive"
            elif kind == 2:
                value = squared[at][endfire[at]][0]
                reason = f"squared aperture {value} below {ZERO_APERTURE_EPS} m^2"
            else:  # an overflowing or underflowing noise model
                c = np.argmax(unfit[at])
                reason = (f"{('distance', 'arrival', 'departure')[c]} variance {variances[at][c]} "
                          "is not finite and positive")
            failures.append((rows[at[0]], plan.owner[at[1]], plan.components[at[1]], reason))
        if failures:
            continue
        information[rows] = global_snapshot_fim(jac, lam := channel_fim(variances))
        del jac  # each gradient is freed once used, so the peak memory does not grow
        for g, b in enumerate(rows):
            paths_of[b] = plan, params[g], variances[g], lam[g]
    if failures:
        b, j, k, reason = min(failures)  # each step is in one pass: the earliest step
        raise FloatingPointError(f"step {steps[b]}, anchor {j + 1}, "
                                 f"component {list(order.pair(k))}: {reason}")
    return [StepTruth(int(n), information[b], *paths_of[b]) for b, n in enumerate(steps)]


def snapshot_fim(scenario: Scenario, state: np.ndarray, step: int) -> StepTruth:
    """Channel truth at one ground-truth joint ``state`` (a row of
    :func:`ground_truth`) under the schedule at ``step``.

    The one-step case of the truth pass: the step's record of the truth
    table, with the snapshot information H Lambda H^T of one compact pass
    over every anchor's visible components, and those components with their
    noise-free parameters and variances. No gradient matrix is kept.
    """
    return _truth_pass(scenario, state[None], np.array([step]))[0]


def measurement_truth(scenario: Scenario, truth: np.ndarray) -> list[StepTruth]:
    """The truth table: one :class:`StepTruth` per step 1..n_steps at rows
    1..n_steps of the joint truth ``truth`` (:func:`ground_truth`), one pass per step
    layout (:func:`_truth_pass`). Invisible components emit nothing; the
    variances come from the true amplitude (amplitude noise carries no state
    information here)."""
    return _truth_pass(scenario, truth[1:], np.arange(1, scenario.n_steps + 1))


def draw_measurements(table: list[StepTruth], streams: Sequence[RandomStream]) -> list[np.ndarray]:
    """Draw noisy measurements around the truth table: per step, the drawn
    (R, n, 3) rows of its n paths for the R ``streams``, one per Monte-Carlo
    run of a batch, in its record's path order (fixed draw order).

    Distances and azimuths are Gaussian around the noise-free channel
    parameters with the record's variances (a standard normal variate per
    value, scaled by the standard deviation); azimuths are wrapped. Each
    stream draws the whole table in one request, and the table's rows, all
    steps in draw order, are scaled and wrapped in one pass; each step's
    rows are its slice of them.
    """
    truth = np.concatenate([record.params for record in table])
    drawn = standard_normals(streams, truth.size).reshape((len(streams),) + truth.shape)
    # scaled and shifted in place: the bits of truth + std * noise, no temporaries
    drawn *= np.sqrt(np.concatenate([record.variances for record in table]))
    drawn += truth
    drawn[..., 1:] = wrap_angle(drawn[..., 1:])
    return np.split(drawn, np.cumsum([len(record.params) for record in table])[:-1], axis=-2)


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
    """A number within the float range; its record judges its value."""
    if isinstance(value, bool):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ScenarioError(f"{path}: expected a number within the float range") from None
    except (TypeError, ValueError):
        raise ScenarioError(f"{path}: expected a number, got {value!r}") from None
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


def _items(node, path: str):
    """Each entry of the list at ``path``, with its own path."""
    if not isinstance(node, list):
        raise ScenarioError(f"{path}: expected a list")
    for i, entry in enumerate(node):
        yield entry, f"{path}[{i}]"


def _numbered(node, path: str, what: str, last: int) -> list[int]:
    """The 1-based numbers listed at ``path``, each a ``what`` in 1..``last``."""
    listed = [(_as_int(value, vpath), vpath) for value, vpath in _items(node, path)]
    for number, vpath in listed:
        if not 1 <= number <= last:
            raise ScenarioError(f"{vpath}: {what} {number} outside 1..{last}")
    return [number for number, _ in listed]


def _as_floats(value, path: str) -> float | tuple[float, ...]:
    """One number, or a list of numbers read as a tuple."""
    if isinstance(value, list):
        return tuple(_as_float(v, vpath) for v, vpath in _items(value, path))
    return _as_float(value, path)


# The reader of a section field, by its annotation (a string in these modules)
_READERS = {
    "float": _as_float,
    "int": _as_int,
    "np.ndarray": _as_vec2,  # Anchor and NcvTrajectory position, NcvTrajectory velocity
    "float | tuple[float, ...]": _as_floats,  # PriorSpec.surface_var
}

APERTURE_KINDS = {"isotropic": IsotropicAperture, "ula": UniformLinearArray}
TRAJECTORY_KINDS = {"waypoints": WaypointTrajectory, "sampled_ncv": NcvTrajectory}


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


def _kind(kinds: dict, node, path: str) -> tuple[type, dict]:
    """The class in ``kinds`` that the mapping at ``path`` names, and its other keys."""
    node = _require_mapping(node, path)
    kind = _take(node, "kind", path, required=True)
    if not isinstance(kind, str) or kind not in kinds:
        raise ScenarioError(f"{path}.kind: expected {' or '.join(map(repr, kinds))}, got {kind!r}")
    return kinds[kind], node


def _parse_aperture(node, path: str) -> ApertureModel:
    return _build(*_kind(APERTURE_KINDS, node, path), path)


def _parse_trajectory(node, path: str, max_steps: int) -> TrajectorySpec:
    cls, node = _kind(TRAJECTORY_KINDS, node, path)
    n_steps = _as_int(_take(node, "n_steps", path, required=True), f"{path}.n_steps")
    if n_steps > max_steps:  # checked before any per-step array exists
        raise ScenarioError(f"{path}.n_steps: must be at most {max_steps} in this room")
    if cls is NcvTrajectory:
        return _build(NcvTrajectory, node, path, n_steps=n_steps)
    raw_points = _take(node, "points", path, required=True)
    _reject_unknown(node, path)
    times, positions = [], []
    for entry, epath in _items(raw_points, f"{path}.points"):
        entry = _require_mapping(entry, epath)
        times.append(_as_float(_take(entry, "time", epath, required=True), f"{epath}.time"))
        positions.append(_as_vec2(_take(entry, "position", epath, required=True),
                                  f"{epath}.position"))
        _reject_unknown(entry, epath)
    return _make(WaypointTrajectory, path, n_steps=n_steps, times=np.array(times),
                 positions=np.array(positions))


def _parse_steps(node, path: str, n_steps: int) -> Sequence[int]:
    """The 1-based steps a rule names: all of them where it names none."""
    if node is None:
        return range(1, n_steps + 1)
    if isinstance(node, dict):
        node = dict(node)
        start = _as_int(_take(node, "from", path, default=1), f"{path}.from")
        stop = _as_int(_take(node, "to", path, default=n_steps), f"{path}.to")
        _reject_unknown(node, path)
        if not 1 <= start <= stop <= n_steps:
            raise ScenarioError(f"{path}: range {start}..{stop} outside 1..{n_steps}")
        return range(start, stop + 1)
    if isinstance(node, list):
        return _numbered(node, path, "step", n_steps)
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
    table = np.full((n_steps + 1, n_anchors, order.size), int(default), dtype=np.int8)
    pair_to_index = {order.pair(k): k for k in range(order.size)}
    for raw, rpath in _items(raw_rules, f"{path}.rules"):
        raw = _require_mapping(raw, rpath)
        visible = _as_bool(_take(raw, "visible", rpath, required=True), f"{rpath}.visible")
        anchors = _numbered(_take(raw, "anchors", rpath, default=list(range(1, n_anchors + 1))),
                            f"{rpath}.anchors", "anchor", n_anchors)
        components = _take(raw, "components", rpath)
        comps = range(order.size)
        if components is not None:
            comps = []
            for pair, cpath in _items(components, f"{rpath}.components"):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ScenarioError(f"{cpath}: expected [s, s']")
                key = (_as_int(pair[0], f"{cpath}[0]"), _as_int(pair[1], f"{cpath}[1]"))
                if key not in pair_to_index:
                    raise ScenarioError(f"{cpath}: unknown component {list(key)}")
                comps.append(pair_to_index[key])
        steps = _parse_steps(_take(raw, "steps", rpath), f"{rpath}.steps", n_steps)
        _reject_unknown(raw, rpath)
        table[np.ix_(list(steps), [a - 1 for a in anchors], list(comps))] = visible
    return VisibilitySchedule(table)


def load_scenario(path: str | Path) -> Scenario:
    """Load and fully validate a scenario file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    try:
        root = yaml.load(text, type("Loader", (YAML_LOADER,), {"flatten_mapping": _flatten_unique}))
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: invalid YAML: {exc}") from None
    return scenario_from_mapping(root)


def scenario_from_mapping(root) -> Scenario:
    """Build a scenario from an already-parsed mapping (the file's structure)."""
    root = _require_mapping(root, "scenario")

    def section(key: str, required: bool = True, default=None) -> tuple:
        """The node under the top-level ``key``, and its path."""
        return _take(root, key, "scenario", default, required), f"scenario.{key}"

    anchors = []
    for raw, apath in _items(*section("anchors")):
        raw = _require_mapping(raw, apath)
        aperture = _parse_aperture(_take(raw, "aperture", apath, required=True),
                                   f"{apath}.aperture")
        anchors.append(_build(Anchor, raw, apath, aperture=aperture))
    surfaces = [_as_vec2(point, ppath) for point, ppath in _items(*section("surfaces"))]

    signal = _build(SignalModel, *section("signal"))
    model = _build(StateSpaceModel, *section("model"))
    order, dim = ComponentOrder.canonical(len(surfaces)), 5 + 2 * len(surfaces)
    # per step, per (anchor, component) a flag, 9 float64 of truth and 22 words of path plan
    # (a step may have a layout of its own); the information, true state, bound row, objects
    max_steps = STEP_TABLE_BYTES // (249 * len(anchors) * order.size + 3072
                                     + 8 * (dim**2 + dim + 3 + len(surfaces))) - 1
    trajectory = _parse_trajectory(*section("trajectory"), max_steps)
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
