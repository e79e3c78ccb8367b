"""Reference EKF-SLAM estimator with oracle data association.

The filter tracks the same joint state as the bound recursion under the same
transition model, and its covariance takes the bound's own steps
(:func:`~.pcrlb.predict_cov`, :func:`~.pcrlb.fuse`), with the information
linearized at the estimate through the same gradient and noise code. It adds
only the mean: predict, then pull by P H Lambda nu. Measurements arrive as
one block of arrays per (step, anchor), drawn around the scenario's truth
table: the true component ids (oracle association), the noisy parameters
and the noise variances they were drawn with, which the filter uses rather
than evaluating the noise model again. This matches the assumptions under
which the bound holds, so the filter's error is expected to approach the
bound at high SNR.

The bound and the Monte-Carlo runs advance as one lockstep batch
(:func:`run_single`): entry 0 of an (R + 1, N, N) covariance stack is the
bound, fusing the truth table's information, and entries 1..R are the runs,
with (R, N) means and one gradient pass per measured step for all runs and
anchors, through one :class:`~.fim.PathPlan` per step layout (which
components of which anchors the step measured), built once per call; each
step reads its observations and variances as a contiguous slice of the
drawn rows. One prediction and one fusion call per step serve them all. Each
run draws its initial estimate around the true initial state from the prior
and its measurements from its own stream, so its numbers do not depend on
the batch it is in. Squared errors are summed into the bound's state blocks
per step and run and aggregated into RMSE time series paired with the bound
records. The predict and update steps also take a single state.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .fim import PathPlan, channel_fim, global_jacobian, global_snapshot_fim
from .geometry import AgentPose, SurfaceMap, joint_state, wrap_angle
from .pcrlb import (
    BoundRecord, SingularFimError, block_sums, extract_bounds, fuse, predict_cov,
    process_noise_cov, transition_matrix,
)
from .scenario import (
    STEP_TABLE_BYTES, AnchorBlock, Scenario, StepTruth, draw_measurements, ground_truth,
    layout_plan, measurement_truth,
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


@dataclass(frozen=True)
class MeasuredStep:
    """One step's measurements over its n measured paths, all anchors at once
    (anchors ascending, each block's components in order): the
    :class:`~.fim.PathPlan` of that path list (None when nothing was
    measured), each path's anchor index, the drawn (..., n, 3) parameters
    and the (n, 3) variances they were drawn with."""

    step: int
    plan: PathPlan | None
    owner: np.ndarray
    observed: np.ndarray
    variances: np.ndarray


def _measured_steps(
    measured: Sequence[Sequence[AnchorBlock]], scenario: Scenario
) -> list[MeasuredStep]:
    """Drawn steps (see :func:`~.scenario.draw_measurements`) as contiguous
    row slices of one table of all their blocks, each with the plan of its
    path list, every path seen from its own anchor
    (:func:`~.scenario.layout_plan`, as the truth pass builds it). A plan is
    built once per distinct list and lives as long as the returned steps."""
    blocks = [block for step in measured for block in step]
    observed = np.concatenate([block.params for block in blocks], axis=-2)
    variances = np.concatenate([block.variances for block in blocks])
    plans, steps, stop = {}, [], 0
    for step in measured:
        key = tuple((block.anchor, block.components.tobytes()) for block in step
                    if block.components.size)
        if key not in plans:
            owner = np.concatenate([np.full(block.components.size, block.anchor)
                                    for block in step])
            components = np.concatenate([block.components for block in step])
            plans[key] = owner, layout_plan(scenario, owner, components) if key else None
        owner, plan = plans[key]
        start, stop = stop, stop + owner.size
        steps.append(MeasuredStep(step[0].step, plan, owner, observed[..., start:stop, :],
                                  variances[start:stop]))
    return steps


def _linearize(
    mean: np.ndarray, measured: MeasuredStep, scenario: Scenario
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Measurement model linearization at the current mean, per batch entry.

    One channel pass over every measured path of the step, all anchors at
    once, through the step's plan. Returns, in the compact layout of the n
    paths, the (..., N, 3n) gradient, the (..., 3n) information of the
    variances the paths were drawn with and the (..., 3n) innovation,
    angles wrapped; None when nothing was measured. A path whose geometry
    fails at an entry's estimate gets zero information and innovation
    there, with a diagnostic.
    """
    plan = measured.plan
    if plan is None:
        return None
    pose = AgentPose.from_state(mean[..., :5])
    raw_points = mean[..., 5:].reshape(mean.shape[:-1] + (-1, 2))
    # usable[..., s]: surface s (1-based) can be linearized; entry 0 stands for no bounce
    usable = np.linalg.norm(raw_points, axis=-1) > _SURFACE_NORM_FLOOR
    usable = np.concatenate([np.ones(usable.shape[:-1] + (1,), dtype=bool), usable], axis=-1)
    surfaces = SurfaceMap(np.where(usable[..., 1:, None], raw_points, [1.0, 0.0]))
    near_origin = ~(usable[..., plan.first] & usable[..., plan.second])
    params, degenerate, jac = global_jacobian(pose, plan, surfaces)
    ok = ~(near_origin | degenerate)
    for *entry, i in () if ok.all() else np.argwhere(~ok):
        log.warning(
            "step %d anchor %d%s: %s, skipping component %s", measured.step,
            measured.owner[i] + 1, "".join(f", batch entry {e}" for e in entry),
            "surface estimate near origin" if near_origin[(*entry, i)] else
            "agent coincides with virtual anchor",
            scenario.order.components[plan.components[i]].bounces,
        )
    residual = np.where(ok[..., None], measured.observed - params, 0.0)
    residual[..., 1:] = wrap_angle(residual[..., 1:])
    innovation = np.swapaxes(residual, -1, -2).reshape(residual.shape[:-2] + (-1,))
    return jac, channel_fim(np.where(ok[..., None], measured.variances, np.inf)), innovation


# An estimate beyond the float range overflows in the channel pass and its
# sums; the non-finite mean or covariance this gives fails the run after the step.
@np.errstate(over="ignore", invalid="ignore")
def _measurement_step(
    mean: np.ndarray, measured: MeasuredStep, scenario: Scenario
) -> tuple[np.ndarray, np.ndarray] | None:
    """The (..., N, N) information H Lambda H^T and the (..., N, 1) pull
    g = H Lambda nu of one step, linearized at ``mean`` (:func:`_linearize`);
    None when nothing was measured."""
    linear = _linearize(mean, measured, scenario)
    if linear is None:
        return None
    jac, lam, innovation = linear
    return global_snapshot_fim(jac, lam), jac @ (lam * innovation)[..., None]


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
    if not any(block.components.size for block in blocks):
        return state
    measured = _measured_steps([blocks], scenario)[0]
    terms = _measurement_step(state.mean, measured, scenario)
    cov = fuse(state.cov, terms[0], measured.step)
    mean = state.mean + (cov @ terms[1])[..., 0]
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
    truth: list[AgentPose] | None,
    table: list[StepTruth],
    runs: int | Sequence[int],
) -> tuple[list[BoundRecord], np.ndarray]:
    """Step the bound and Monte-Carlo runs as one lockstep batch.

    Covariance entry 0 is the bound, fusing the truth table's information;
    entries 1..R are the runs ``runs`` (a run index or a sequence, in batch
    order; with none, ``truth`` is not read), fusing the information
    linearized at their estimates. Returns the bound records of steps 1..N
    and the runs' (N, 3 + S, R) squared errors in the state blocks
    (:func:`~.pcrlb.block_sums`). A bound failure raises at once. A run that
    fails (a singular information matrix or a non-finite estimate) leaves the
    batch with every run after it, and the step is redone; an exception
    raised for the runs as a whole fails them all. The bound steps on to the
    end; then the :class:`RunFailure` raised names the first run in batch
    order that failed and its step, as filtering the runs one by one would.
    """
    batch = np.atleast_1d(runs)
    transition, noise_cov = transition_matrix(scenario.model), process_noise_cov(scenario.model)
    num_surfaces = len(scenario.surfaces)
    prior_var = scenario.prior_covariance()
    cov = np.repeat(np.diag(prior_var)[None], 1 + batch.size, axis=0)
    mean = np.zeros((0, prior_var.size))
    squared = np.zeros((len(table), 3 + num_surfaces, batch.size))  # runs last: contiguous sums
    bounds, failure = [], None
    if batch.size:
        try:
            streams = [derive_run_stream(scenario.mc.seed, int(run)) for run in batch]
            true_states = np.stack([joint_state(pose, scenario.surfaces) for pose in truth])
            mean = true_states[0] + np.sqrt(prior_var) * standard_normals(streams, prior_var.size)
            mean[:, 4] = wrap_angle(mean[:, 4])
            measured = _measured_steps(draw_measurements(table, streams), scenario)
        except Exception as exc:  # raised for the runs as a whole, so by the first too
            failure, mean, cov = RunFailure(int(batch[0]), str(exc)), mean[:0], cov[:1]
    for n, record in enumerate(table, start=1):
        while True:
            live = len(mean)
            ahead, moved = predict_cov(cov, transition, noise_cov), mean
            # The bound fuses every step, also one that no anchor measures
            # (zero information): that fusion's inversions are where a
            # singular prediction is caught and named (exit 3), so it stays.
            if not live:  # the bound alone
                ahead = fuse(ahead, record.information, n)
                break
            try:
                moved = (transition @ mean[..., None])[..., 0]
                linear = _measurement_step(moved, measured[n - 1], scenario)
                if linear is None:  # no run measures anything: the bound fuses alone
                    ahead[:1] = fuse(ahead[:1], record.information, n)
                else:
                    ahead = fuse(ahead, np.concatenate([record.information[None], linear[0]]), n)
                    moved = moved + (ahead[1:] @ linear[1])[..., 0]
                    moved[:, 4] = wrap_angle(moved[:, 4])
                finite = np.isfinite(moved).all(-1) & np.isfinite(ahead[1:]).all((-2, -1))
                if finite.all():
                    break
                entry = int(np.argmin(finite))
                reason = f"step {n}: non-finite EKF mean or covariance"
            except SingularFimError as exc:
                if exc.index == 0:  # the bound's
                    raise
                entry, reason = exc.index - 1, str(exc)
            except Exception as exc:  # raised for the runs as a whole, so by the first too
                entry, reason = 0, str(exc)
            failure = RunFailure(int(batch[entry]), reason)
            mean, cov = mean[:entry], cov[:entry + 1]
            measured = [replace(step, observed=step.observed[:entry]) for step in measured]
        mean, cov = moved, ahead
        bounds.append(extract_bounds(cov[0], num_surfaces, step=n))
        if live:
            err = mean - true_states[n]
            err[:, 4] = wrap_angle(err[:, 4])
            squared[n - 1, :, :live] = block_sums(err * err, num_surfaces).T
    if failure is not None:
        raise failure
    return bounds, squared


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
    bound and every run; runs differ in their initial estimate draw and
    measurement noise. The bound and all runs step as one lockstep batch
    (:func:`run_single`): a bound failure is raised as in bounds mode, and
    wins; a run failure names the lowest-numbered failing run and its step.
    """
    truth = ground_truth(scenario)
    table = measurement_truth(scenario, truth)
    runs = scenario.mc.runs
    bounds, squared = run_single(scenario, truth, table, range(runs))
    return MonteCarloResult(bounds=bounds, rmse=np.sqrt(squared.sum(axis=-1) / runs), runs=runs)
