"""Reference EKF-SLAM estimator with oracle data association.

The filter tracks the same joint state as the bound recursion under the same
transition model, and its covariance takes the bound's own steps
(:func:`~.pcrlb.predict_cov`, :func:`~.pcrlb.fuse`), with the information
linearized at the estimate through the same gradient and noise code. It adds
only the mean: predict, then pull by P H Lambda nu. Measurements are drawn
around the scenario's truth table, one (..., n, 3) array of rows per step in
its record's path order; the filter reads the record for the rest: the step
layout's plan, each path's anchor and component (oracle association) and the
information of the noise variances the rows were drawn with, which it uses
rather than evaluating the noise model again. This matches the assumptions
under which the bound holds. At the shipped desk's SNR the filter's error
lies near the bound. That does not hold as the SNR rises: at ten times the
desk's reference amplitude its RMSE/bound ratios read 1.9-7.6.

The bound and the Monte-Carlo runs advance as one lockstep batch
(:func:`run_single`): entry 0 of an (R + 1, N, N) covariance stack is the
bound, fusing the truth table's information, and entries 1..R are the runs,
with (R, N) means and one gradient pass per measured step for all runs and
anchors, through the plan the truth pass built for the step's layout, at the
poses read from the means. One prediction (:func:`ekf_predict`) and one
update (:func:`ekf_update`, one fusion call) per step serve them all, and
take and return the same plain arrays: the means and the covariance stack.
Each run draws its initial estimate around the true initial state from the
prior and its measurements from its own stream, so its numbers do not depend
on the batch it is in. Its squared errors from the rows of the joint truth
are summed into the bound's state blocks, for RMSE time series in the
columns of the (n_steps, 3 + S) bound table.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

from .fim import global_jacobian, global_snapshot_fim
from .geometry import SURFACE_NORM_FLOOR, dot2, wrap_angle
from .pcrlb import (
    SingularFimError, block_sums, extract_bounds, fuse, predict_cov, process_noise_cov,
    transition_matrix,
)
from .scenario import (
    STEP_TABLE_BYTES, Scenario, StepTruth, draw_measurements, ground_truth, measurement_truth,
)
from .streams import derive_run_stream, standard_normals

log = logging.getLogger(__name__)


def ekf_predict(
    mean: np.ndarray, cov: np.ndarray, transition: np.ndarray, noise_cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Time update of the (..., N) mean and (..., N, N) covariance: the mean
    through the transition, the covariance plus process noise."""
    return (transition @ mean[..., None])[..., 0], predict_cov(cov, transition, noise_cov)


def _linearize(
    mean: np.ndarray, record: StepTruth, observed: np.ndarray, scenario: Scenario
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measurement model linearization at the current mean, per batch entry.

    One channel pass over every path of the step's record, all anchors at
    once, through the record's plan, at the pose in the mean (orientation
    wrapped). Returns, in the compact layout of the n paths, the (..., N, 3n)
    gradient, the (..., 3n) information of the variances the ``observed``
    (..., n, 3) rows were drawn with (the record's ``channel_information``)
    and the (..., 3n) innovation, angles wrapped. A path whose geometry
    fails at an entry's estimate gets zero information and innovation
    there, with a diagnostic; a non-finite pose gives its entry non-finite
    information, which the fusion names.
    """
    plan, n = record.plan, record.plan.owner.size
    points = mean[..., 5:].reshape(mean.shape[:-1] + (-1, 2))
    # usable[..., s]: surface s (1-based) can be linearized; entry 0 stands for no bounce
    usable = np.sqrt(dot2(points, points)) > SURFACE_NORM_FLOOR  # the norm, bit for bit
    near_origin = False
    if not usable.all():
        usable = np.concatenate([np.ones(usable.shape[:-1] + (1,), dtype=bool), usable], axis=-1)
        points = np.where(usable[..., 1:, None], points, [1.0, 0.0])
        near_origin = ~(usable[..., plan.first] & usable[..., plan.second])
    params, degenerate, jac = global_jacobian(mean, plan, points)
    residual, lam = observed - params, np.empty(params.shape[:-2] + (3 * n,))
    lam[...] = record.channel_information
    skipped = degenerate | near_origin
    if skipped.any():
        for *entry, i in np.argwhere(skipped):
            log.warning(
                "step %d anchor %d%s: %s, skipping component %s", record.step,
                plan.owner[i] + 1, "".join(f", batch entry {e}" for e in entry),
                "surface estimate near origin" if (near_origin & skipped)[(*entry, i)] else
                "agent coincides with virtual anchor",
                list(scenario.order.pair(plan.components[i])),
            )
        residual[skipped] = 0.0
        lam[np.tile(skipped, 3)] = 0.0
    innovation = residual.swapaxes(-1, -2).reshape(residual.shape[:-2] + (-1,))
    innovation[..., n:] = wrap_angle(innovation[..., n:])
    return jac, lam, innovation


def _measurement_step(
    mean: np.ndarray, record: StepTruth, observed: np.ndarray, scenario: Scenario
) -> tuple[np.ndarray, np.ndarray]:
    """The (..., N, N) information H Lambda H^T and the (..., N, 1) pull
    g = H Lambda nu of one step that has paths, linearized at ``mean``
    (:func:`_linearize`). Run it under ``np.errstate(over="ignore",
    invalid="ignore")``: an estimate beyond the float range overflows in the
    channel pass and its sums, and fails the run after the step."""
    jac, lam, innovation = _linearize(mean, record, observed, scenario)
    return global_snapshot_fim(jac, lam), jac @ (lam * innovation)[..., None]


@np.errstate(over="ignore", invalid="ignore")  # see _measurement_step
def ekf_update(
    mean: np.ndarray, cov: np.ndarray, record: StepTruth, observed: np.ndarray,
    scenario: Scenario,
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update of one step of the lockstep batch, in information form.

    Takes the runs' predicted (R, N) ``mean`` and (R + 1, N, N) ``cov`` stack,
    the bound at entry 0, and returns the updated pair. ``observed`` holds the
    runs' drawn (R, n, 3) rows (:func:`~.scenario.draw_measurements`) of the
    paths of the truth ``record``, unread if R = 0. Each covariance is the
    bound's fusion (P^{-1} + J)^{-1}, J the record's information for the bound
    and H Lambda H^T for a run, H at its predicted mean (orientation read as
    it is); each mean moves by P_post H Lambda nu. With no run or no path
    (decided here, and nowhere else) the bound fuses alone, also at zero
    information: its inversions catch a singular prediction. A singular
    matrix raises :class:`~.pcrlb.SingularFimError` whose ``index`` is the
    first failing stack entry.
    """
    if not (len(mean) and record.plan.owner.size):  # nothing to measure
        return mean, np.concatenate([fuse(cov[:1], record.information, record.step), cov[1:]])
    information, pull = _measurement_step(mean, record, observed, scenario)
    cov = fuse(cov, np.concatenate([record.information[None], information]), record.step)
    mean = mean + (cov[1:] @ pull)[..., 0]
    mean[:, 4] = wrap_angle(mean[:, 4])
    return mean, cov


@np.errstate(over="ignore", invalid="ignore")
def run_single(
    scenario: Scenario,
    truth: np.ndarray | None,
    table: list[StepTruth],
    runs: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Step the bound and Monte-Carlo runs as one lockstep batch.

    Covariance entry 0 is the bound, fusing the truth table's information;
    entries 1..R are the runs ``runs`` (a sequence of run indices, in batch
    order), fusing the information linearized at their estimates. The runs
    draw their initial means around row 0 of the (n + 1, N) joint truth
    ``truth`` (:func:`~.scenario.ground_truth`) and score step n against row
    n; with no run, ``truth`` is not read. Returns the (n_steps, 3 + S)
    bound table of steps 1..n_steps (:func:`~.pcrlb.extract_bounds`) and the
    runs' (n_steps, 3 + S, R) squared errors in the same state blocks. A
    bound failure raises at once. A run fails where the fusion raises
    :class:`~.pcrlb.SingularFimError` at its stack position or where its mean
    or covariance is not finite after the step (an overflow takes inf, with
    no warning); it leaves the batch with every run after it, and the step is
    redone. The bound steps on to the end; then the FloatingPointError raised
    names the first run in batch order that failed and its step, as filtering
    the runs one by one would.
    """
    batch, num_surfaces = np.asarray(runs), len(scenario.surfaces)
    transition = transition_matrix(scenario.model, num_surfaces)
    noise_cov = process_noise_cov(scenario.model, num_surfaces)
    prior_var = scenario.prior_covariance()
    cov = np.repeat(np.diag(prior_var)[None], 1 + batch.size, axis=0)
    mean, observed = np.zeros((0, prior_var.size)), [None] * len(table)
    bounds, failure = np.empty((len(table), 3 + num_surfaces)), None
    squared = np.zeros(bounds.shape + batch.shape)  # runs last: contiguous sums
    if batch.size:
        streams = [derive_run_stream(scenario.mc.seed, int(run)) for run in batch]
        mean = truth[0] + np.sqrt(prior_var) * standard_normals(streams, prior_var.size)
        mean[:, 4] = wrap_angle(mean[:, 4])
        observed = draw_measurements(table, streams)
    for n, record in enumerate(table, start=1):
        while True:
            live = len(mean)
            try:
                moved, ahead = ekf_update(*ekf_predict(mean, cov, transition, noise_cov), record,
                                          observed[n - 1], scenario)
                if not live or np.isfinite(moved).all() and np.isfinite(ahead[1:]).all():
                    break
                finite = np.isfinite(moved).all(-1) & np.isfinite(ahead[1:]).all((-2, -1))
                entry = int(np.argmin(finite))
                reason = f"step {n}: non-finite EKF mean or covariance"
            except SingularFimError as exc:
                if exc.index == 0:  # the bound's
                    raise
                entry, reason = exc.index - 1, str(exc)
            failure = (int(batch[entry]), reason)
            mean, cov = mean[:entry], cov[:entry + 1]
            observed = [rows[:entry] for rows in observed]
        mean, cov = moved, ahead
        bounds[n - 1] = extract_bounds(cov[0], num_surfaces)
        if live:
            err = mean - truth[n]
            err[:, 4] = wrap_angle(err[:, 4])
            squared[n - 1, :, :live] = block_sums(err * err, num_surfaces).T
    if failure is not None:
        raise FloatingPointError("Monte-Carlo run {} failed: {}".format(*failure))
    return bounds, squared


def max_runs(scenario: Scenario) -> int:
    """The most Monte-Carlo runs one batch may filter within ``STEP_TABLE_BYTES``.

    Per run the batch holds its initial draw and mean, its noisy measurements
    (drawn in place, 3 per visible (step, anchor, component)) and squared
    errors; a step takes 4 (N, N) matrices and, per path of the widest step,
    the gradient (3N floats) and either the channel pass's 200 floats of
    geometry or the gradient's scaled copy (3N), which never coexist.
    """
    dim, paths = scenario.dim, scenario.visibility.visible_counts()
    floats = (2 * dim + 3 * paths.sum() + scenario.n_steps * (3 + len(scenario.surfaces))
              + 4 * dim * dim + paths.max() * (3 * dim + max(3 * dim, 200)))
    return STEP_TABLE_BYTES // (8 * int(floats))


def run_monte_carlo(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Bounds plus estimator RMSE over the scenario's Monte-Carlo ensemble.

    Returns the bound table and the RMSE time series of steps 1..n_steps,
    both (n_steps, 3 + S): position, velocity, orientation, then each
    surface; the RMSE is the root mean of :func:`run_single`'s squared
    errors over the ``scenario.mc.runs`` runs.

    The ground truth and its truth table are built once and shared by the
    bound and every run; runs differ in their initial estimate draw and
    measurement noise. The bound and all runs step as one lockstep batch
    (:func:`run_single`): a bound failure is raised as in bounds mode, and
    wins; a run failure names the lowest-numbered failing run and its step.
    """
    truth = ground_truth(scenario)
    table = measurement_truth(scenario, truth)
    bounds, squared = run_single(scenario, truth, table, range(scenario.mc.runs))
    return bounds, np.sqrt(squared.sum(axis=-1) / scenario.mc.runs)
