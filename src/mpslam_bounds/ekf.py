"""Reference EKF-SLAM estimator with oracle data association.

The filter tracks the same joint state as the bound recursion (agent
position, velocity, orientation plus all surface points) under the same
transition model, and its covariance takes the bound's own steps: the same
prediction and the same fusion and inversion (:func:`~.pcrlb.fuse`), with
the information linearized at the estimate through the same gradient code
and the same map from noise variances to channel information. It adds only
the mean: predict, then pull by P H Lambda nu.
Measurements arrive as one block of arrays per (step, anchor), drawn around
the scenario's truth table: the true component ids (oracle association), the
noisy parameters and the noise variances they were drawn with, which the
filter uses rather than evaluating the noise model again. This matches the
assumptions under which the bound holds, so the filter's error is expected
to approach the bound at high SNR.

The Monte-Carlo runs are filtered as one batch that advances in lockstep:
R runs hold (R, N) means and (R, N, N) covariances, and each measured step
is linearized by one gradient pass for all of them and all anchors. The
predict and update steps also take a single unbatched state. Each run
draws its initial estimate around the true initial state from the scenario
prior and starts from the prior diagonal as its covariance, as the
recursion does; then it draws its measurements, from its own stream, around
the truth table shared by all runs and the bound; so a run's numbers do not
depend on the batch it is in. Squared errors are summed into the bound's
state blocks (:func:`~.pcrlb.block_sums`) per step and run, and the runs
are aggregated into RMSE time series paired with the bound records
evaluated on the same ground truth.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .fim import channel_fim, global_jacobian, global_snapshot_fim
from .geometry import AgentPose, Anchor, SurfaceMap, joint_state, wrap_angle
from .pcrlb import (
    BoundRecord, SingularFimError, block_sums, fuse, predict_cov, process_noise_cov,
    run_recursion, transition_matrix,
)
from .scenario import (
    STEP_TABLE_BYTES, AnchorBlock, Scenario, StepTruth, draw_measurements, ground_truth,
    measurement_truth,
)
from .streams import derive_run_stream, standard_normals

log = logging.getLogger(__name__)

# Estimated surface points closer to the origin than this are not usable for
# linearization (the mirror representation degenerates there).
_SURFACE_NORM_FLOOR = 1e-6


@dataclass
class EkfState:
    """Joint-state mean and covariance (same layout as the bound recursion);
    a batch of R runs holds an (R, N) mean and an (R, N, N) covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.cov.shape != self.mean.shape + self.mean.shape[-1:]:
            raise ValueError("covariance shape must match the mean")


def ekf_predict(state: EkfState, transition: np.ndarray, noise_cov: np.ndarray) -> EkfState:
    """Time update: mean through the transition, covariance plus process noise."""
    mean = (transition @ state.mean[..., None])[..., 0]
    return EkfState(mean=mean, cov=predict_cov(state.cov, transition, noise_cov))


def _linearize(
    mean: np.ndarray, blocks: Sequence[AnchorBlock], scenario: Scenario
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Measurement model linearization at the current mean, per batch entry.

    One channel pass over every measured path of the step, all anchors at
    once. Returns, in the compact layout of the n paths, the (..., N, 3n)
    gradient, the (..., 3n) information of the variances the blocks were
    drawn with and the (..., 3n) innovation, angles wrapped; None when
    nothing was measured. A path whose geometry fails at an entry's estimate
    gets zero information and innovation there, with a diagnostic.
    """
    blocks = [block for block in blocks if block.components.size]
    if not blocks:
        return None
    pose = AgentPose.from_state(mean[..., :5])
    raw_points = mean[..., 5:].reshape(mean.shape[:-1] + (-1, 2))
    # usable[..., s]: surface s (1-based) can be linearized; entry 0 stands for no bounce
    usable = np.linalg.norm(raw_points, axis=-1) > _SURFACE_NORM_FLOOR
    usable = np.concatenate([np.ones(usable.shape[:-1] + (1,), dtype=bool), usable], axis=-1)
    surfaces = SurfaceMap(np.where(usable[..., 1:, None], raw_points, [1.0, 0.0]))
    order, anchors = scenario.order, scenario.anchors
    ks = np.concatenate([block.components for block in blocks])
    owner = np.concatenate([np.full(block.components.size, block.anchor) for block in blocks])
    sources = Anchor(np.array([a.position for a in anchors])[owner],
                     np.array([a.orientation for a in anchors])[owner])
    near_origin = ~(usable[..., order.first[ks]] & usable[..., order.second[ks]])
    params, degenerate, jac = global_jacobian(pose, sources, order, surfaces, ks)
    ok = ~(near_origin | degenerate)
    for *entry, i in np.argwhere(~ok):
        log.warning(
            "step %d anchor %d%s: %s, skipping component %s", blocks[0].step, owner[i] + 1,
            "".join(f", batch entry {e}" for e in entry),
            "surface estimate near origin" if near_origin[(*entry, i)] else
            "agent coincides with virtual anchor", order.components[ks[i]].bounces,
        )
    observed = np.concatenate([block.params for block in blocks], axis=-2)
    residual = np.where(ok[..., None], observed - params, 0.0)
    residual[..., 1:] = wrap_angle(residual[..., 1:])
    innovation = np.swapaxes(residual, -1, -2).reshape(residual.shape[:-2] + (3 * ks.size,))
    variances = np.concatenate([block.variances for block in blocks])
    return jac, channel_fim(np.where(ok[..., None], variances, np.inf)), innovation


def ekf_update(state: EkfState, blocks: Sequence[AnchorBlock], scenario: Scenario) -> EkfState:
    """Measurement update of one step in information form.

    ``blocks`` holds the step's measured anchor blocks (see
    :func:`~.scenario.draw_measurements`), with a leading run axis on their
    parameters for a batched state. The covariance is the bound's fusion,
    P_post = (P^{-1} + H Lambda H^T)^{-1} with H at the predicted mean; the
    mean moves by P_post H Lambda nu. A step with no measurement returns the
    state as it is. A singular matrix raises :class:`~.pcrlb.SingularFimError`
    whose ``index`` is the first failing batch entry.
    """
    linear = _linearize(state.mean, blocks, scenario)
    if linear is None:
        return state
    jac, lam, innovation = linear
    cov = fuse(state.cov, global_snapshot_fim([(jac, lam)]), blocks[0].step)
    pull = jac @ (lam * innovation)[..., None]
    mean = state.mean + (cov @ pull)[..., 0]
    mean[..., 4] = wrap_angle(mean[..., 4])
    return EkfState(mean=mean, cov=cov)


@dataclass
class MonteCarloResult:
    """RMSE time series paired with the bound records (steps 1..N); ``rmse``
    is (N, 3 + S): position, velocity, orientation, then each surface."""

    bounds: list[BoundRecord]
    rmse: np.ndarray
    runs: int


class RunFailure(RuntimeError):
    """A Monte-Carlo run failed; ``run`` is its index."""

    def __init__(self, run: int, reason: str):
        super().__init__(f"Monte-Carlo run {run} failed: {reason}")
        self.run = run


def run_single(
    scenario: Scenario,
    truth: list[AgentPose],
    table: list[StepTruth],
    runs: int | Sequence[int],
) -> np.ndarray:
    """Filter Monte-Carlo runs as one lockstep batch and record their errors.

    ``runs`` is a run index or a sequence of them, in batch order. Returns
    the (N, 3 + S, R) squared errors of steps 1..N summed into the state
    blocks (:func:`~.pcrlb.block_sums`), orientation wrapped. Each run
    draws its initial error and its measurements from its own stream, so its
    errors do not depend on the rest of the batch. A run that fails (a
    singular information matrix or a non-finite estimate) leaves the batch
    with every run after it, and the step is redone for those before it; the
    :class:`RunFailure` raised at the end names the first run in batch order
    that fails and its step, as filtering the runs one by one would.
    """
    batch = np.atleast_1d(runs)
    streams = [derive_run_stream(scenario.mc.seed, int(run)) for run in batch]
    prior_diag = scenario.prior_covariance()
    draws = standard_normals(streams, prior_diag.size)
    mean = joint_state(truth[0], scenario.surfaces) + np.sqrt(prior_diag) * draws
    mean[:, 4] = wrap_angle(mean[:, 4])
    state = EkfState(mean=mean, cov=np.repeat(np.diag(prior_diag)[None], batch.size, axis=0))
    measured = draw_measurements(table, streams)

    transition = transition_matrix(scenario.model)
    noise_cov = process_noise_cov(scenario.model)
    n_steps = scenario.n_steps
    num_surfaces = len(scenario.surfaces)
    squared = np.zeros((n_steps, 3 + num_surfaces, batch.size))  # runs last, summed contiguously
    failure = None
    for n in range(1, n_steps + 1):
        while True:
            live = len(state.mean)
            blocks = [replace(b, params=b.params[:live]) for b in measured[n - 1]]
            try:
                stepped = ekf_update(ekf_predict(state, transition, noise_cov), blocks, scenario)
                finite = (np.isfinite(stepped.mean).all(axis=-1)
                          & np.isfinite(stepped.cov).all(axis=(-2, -1)))
                if finite.all():
                    break
                entry = int(np.argmin(finite))
                reason = f"step {n}: non-finite EKF mean or covariance"
            except SingularFimError as exc:
                entry, reason = exc.index, str(exc)
            failure = RunFailure(int(batch[entry]), reason)
            if entry == 0:
                raise failure
            state = EkfState(mean=state.mean[:entry], cov=state.cov[:entry])
        state = stepped
        err = state.mean - joint_state(truth[n], scenario.surfaces)
        err[:, 4] = wrap_angle(err[:, 4])
        squared[n - 1, :, :live] = block_sums(err * err, num_surfaces).T
    if failure is not None:
        raise failure
    return squared


def max_runs(scenario: Scenario) -> int:
    """The most Monte-Carlo runs one batch may filter within ``STEP_TABLE_BYTES``.

    Per run the batch holds its draws (the initial error and one noise value
    per measured scalar), its noisy measurements, its mean and its
    covariance; each visible (step, anchor, component) measures 3 scalars.
    """
    dim, measured = scenario.dim, 3 * scenario.visibility.visible_count()
    return STEP_TABLE_BYTES // (8 * (2 * (dim + measured) + dim * dim))


def run_monte_carlo(scenario: Scenario) -> MonteCarloResult:
    """Bounds plus estimator RMSE over the scenario's Monte-Carlo ensemble.

    The ground truth and its truth table are built once and shared by the
    bound recursion and every run; runs differ in their initial estimate
    draw and measurement noise. All runs are filtered as one lockstep batch
    (:func:`run_single`); a failure names the lowest-numbered failing run
    and its step.
    """
    truth = ground_truth(scenario)
    table = measurement_truth(scenario, truth)
    bounds = run_recursion(scenario, table)

    runs = scenario.mc.runs
    try:
        squared = run_single(scenario, truth, table, range(runs))
    except RunFailure:
        raise
    except Exception as exc:  # raised for the batch as a whole, so by run 0 too
        raise RunFailure(0, str(exc)) from exc
    return MonteCarloResult(bounds=bounds, rmse=np.sqrt(squared.sum(axis=-1) / runs), runs=runs)
