"""Reference EKF-SLAM estimator with oracle data association.

The filter tracks the same joint state as the bound recursion (agent
position, velocity, orientation plus all surface points) under the same
transition model, and its measurement update is the bound's own step taken
at the estimate: the same gradient code, the same map from noise variances
to channel information, the same fusion and the same posterior inversion.
Measurements arrive as one block of arrays per (step, anchor), drawn around
the scenario's truth table: the true component ids (oracle association), the
noisy parameters and the noise variances they were drawn with, which the
filter uses rather than evaluating the noise model again. This matches the
assumptions under which the bound holds, so the filter's error is expected
to approach the bound at high SNR.

Per Monte-Carlo run the initial state estimate is drawn around the true
initial state from the scenario prior (so the run ensemble is consistent
with the prior the recursion starts from), measurements are drawn from the
run's own stream around the truth table shared by all runs and the bound,
and squared errors are recorded per step. Runs are aggregated into RMSE
time series paired with the bound records evaluated on the same ground
truth.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fim import channel_fim, global_jacobian, global_snapshot_fim
from .geometry import AgentPose, SurfaceMap, wrap_angle
from .pcrlb import (
    BoundRecord, _spd_inverse, invert_posterior, process_noise_cov, run_recursion,
    transition_matrix,
)
from .scenario import (
    AnchorBlock, Scenario, StepTruth, draw_measurements, ground_truth, measurement_truth,
)
from .streams import derive_run_stream

log = logging.getLogger(__name__)

# Estimated surface points closer to the origin than this are not usable for
# linearization (the mirror representation degenerates there).
_SURFACE_NORM_FLOOR = 1e-6


@dataclass
class EkfState:
    """Joint-state mean and covariance (same layout as the bound recursion)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        n = self.mean.shape[0]
        if self.cov.shape != (n, n):
            raise ValueError("covariance shape must match the mean")


def ekf_predict(state: EkfState, transition: np.ndarray, noise_cov: np.ndarray) -> EkfState:
    """Time update: mean through the transition, covariance plus process noise."""
    mean = transition @ state.mean
    cov = transition @ state.cov @ transition.T + noise_cov
    return EkfState(mean=mean, cov=0.5 * (cov + cov.T))


def _linearize(
    mean: np.ndarray, blocks: Sequence[AnchorBlock], scenario: Scenario
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Measurement model linearization at the current mean.

    Returns per measured anchor (ascending) its (N, 3K) gradient matrix, its
    length-3K channel information (:func:`~.fim.channel_fim` of the variances
    the block was drawn with) and its length-3K innovation, angle entries
    wrapped. Components whose geometry cannot be evaluated at the current
    estimate get zero information and zero innovation, with a diagnostic.
    """
    pose = AgentPose.from_state(mean[:5])
    raw_points = mean[5:].reshape(-1, 2)
    # usable[s]: surface s (1-based) can be linearized; entry 0 stands for no bounce
    usable = np.concatenate([[True], np.linalg.norm(raw_points, axis=1) > _SURFACE_NORM_FLOOR])
    surfaces = SurfaceMap(np.where(usable[1:, None], raw_points, [[1.0, 0.0]]))
    order = scenario.order

    terms = []
    for block in blocks:
        ks = block.components
        if not ks.size:
            continue
        near_origin = ~(usable[order.first[ks]] & usable[order.second[ks]])
        params, degenerate, jac = global_jacobian(
            pose, scenario.anchors[block.anchor], order, surfaces, ks
        )
        ok = ~(near_origin | degenerate)
        for k, near in zip(ks[~ok], near_origin[~ok]):
            log.warning(
                "step %d anchor %d: %s, skipping component %s", block.step, block.anchor + 1,
                "surface estimate near origin" if near else
                "agent coincides with virtual anchor", order.components[k].bounces,
            )
        residual = block.params[ok] - params[ok]
        residual[:, 1:] = wrap_angle(residual[:, 1:])
        innovation = np.zeros(order.dim)
        innovation[np.add.outer([0, order.size, 2 * order.size], ks[ok])] = residual.T
        terms.append((jac, channel_fim(order, ks[ok], block.variances[ok]), innovation))
    return terms


def ekf_update(state: EkfState, blocks: Sequence[AnchorBlock], scenario: Scenario) -> EkfState:
    """Measurement update of one step in information form.

    ``blocks`` holds the step's measured anchor blocks (see
    :func:`~.scenario.draw_measurements`). As in the bound recursion,
    J = P^{-1} + sum_j H_j Lambda_j H_j^T (here at the predicted mean) and
    P_post = J^{-1}; the mean moves by P_post sum_j H_j Lambda_j nu_j. A
    singular J raises :class:`~.pcrlb.SingularFimError`.
    """
    terms = _linearize(state.mean, blocks, scenario)
    if not terms:
        return state
    step = blocks[0].step
    j_post = _spd_inverse(state.cov, f"step {step}: predicted covariance")
    j_post += global_snapshot_fim([(jac, lam) for jac, lam, _ in terms])
    cov = invert_posterior(j_post, step)
    mean = state.mean + cov @ sum(jac @ (lam * innovation) for jac, lam, innovation in terms)
    mean[4] = wrap_angle(mean[4])
    return EkfState(mean=mean, cov=cov)


@dataclass
class RunMetrics:
    """Per-step squared errors of a single run (steps 1..N)."""

    position_sq: np.ndarray
    velocity_sq: np.ndarray
    orientation_sq: np.ndarray
    map_sq: np.ndarray  # (N, S)


@dataclass
class MonteCarloResult:
    """Aggregated RMSE time series paired with the bound records (steps 1..N)."""

    bounds: list[BoundRecord]
    rmse_position: np.ndarray
    rmse_velocity: np.ndarray
    rmse_orientation: np.ndarray
    rmse_map: np.ndarray  # (N, S)
    runs: int


def _joint_truth(pose: AgentPose, surfaces: SurfaceMap) -> np.ndarray:
    return np.concatenate([pose.as_state(), surfaces.points.ravel()])


def run_single(
    scenario: Scenario,
    truth: list[AgentPose],
    table: list[StepTruth],
    run_index: int,
) -> RunMetrics:
    """One Monte-Carlo run: draw initial error and measurements, filter, record errors."""
    rng = derive_run_stream(scenario.mc.seed, run_index)
    prior_diag = scenario.prior_covariance()
    truth0 = _joint_truth(truth[0], scenario.surfaces)
    mean0 = truth0 + np.sqrt(prior_diag) * rng.standard_normal(prior_diag.size)
    mean0[4] = wrap_angle(mean0[4])
    state = EkfState(mean=mean0, cov=np.diag(prior_diag))

    measured = draw_measurements(table, rng)

    transition = transition_matrix(scenario.model)
    noise_cov = process_noise_cov(scenario.model)
    n_steps = scenario.n_steps
    num_surfaces = len(scenario.surfaces)
    metrics = RunMetrics(
        position_sq=np.zeros(n_steps),
        velocity_sq=np.zeros(n_steps),
        orientation_sq=np.zeros(n_steps),
        map_sq=np.zeros((n_steps, num_surfaces)),
    )
    for n in range(1, n_steps + 1):
        state = ekf_predict(state, transition, noise_cov)
        state = ekf_update(state, measured[n - 1], scenario)
        if not (np.isfinite(state.mean).all() and np.isfinite(state.cov).all()):
            raise FloatingPointError(f"step {n}: non-finite EKF mean or covariance")
        truth_state = _joint_truth(truth[n], scenario.surfaces)
        err = state.mean - truth_state
        metrics.position_sq[n - 1] = float(err[0] ** 2 + err[1] ** 2)
        metrics.velocity_sq[n - 1] = float(err[2] ** 2 + err[3] ** 2)
        metrics.orientation_sq[n - 1] = wrap_angle(float(err[4])) ** 2
        for s in range(num_surfaces):
            block = err[5 + 2 * s : 7 + 2 * s]
            metrics.map_sq[n - 1, s] = float(block @ block)
    return metrics


def run_monte_carlo(scenario: Scenario) -> MonteCarloResult:
    """Bounds plus estimator RMSE over the scenario's Monte-Carlo ensemble.

    The ground truth and its truth table are built once and shared by the
    bound recursion and every run; runs differ in their initial estimate
    draw and measurement noise. Runs execute sequentially in run
    order (independent streams make the aggregation order-independent up to
    the fixed summation order used here).
    """
    truth = ground_truth(scenario)
    table = measurement_truth(scenario, truth)
    bounds = run_recursion(scenario, table)

    n_steps = scenario.n_steps
    num_surfaces = len(scenario.surfaces)
    sums = RunMetrics(
        position_sq=np.zeros(n_steps),
        velocity_sq=np.zeros(n_steps),
        orientation_sq=np.zeros(n_steps),
        map_sq=np.zeros((n_steps, num_surfaces)),
    )
    for run in range(scenario.mc.runs):
        try:
            metrics = run_single(scenario, truth, table, run)
        except Exception as exc:
            raise RuntimeError(f"Monte-Carlo run {run} failed: {exc}") from exc
        sums.position_sq += metrics.position_sq
        sums.velocity_sq += metrics.velocity_sq
        sums.orientation_sq += metrics.orientation_sq
        sums.map_sq += metrics.map_sq

    runs = scenario.mc.runs
    return MonteCarloResult(
        bounds=bounds,
        rmse_position=np.sqrt(sums.position_sq / runs),
        rmse_velocity=np.sqrt(sums.velocity_sq / runs),
        rmse_orientation=np.sqrt(sums.orientation_sq / runs),
        rmse_map=np.sqrt(sums.map_sq / runs),
        runs=runs,
    )
