"""Sequential per-run reference of the Monte-Carlo filter.

Filters one run at a time through ``ekf_predict`` and ``ekf_update`` on a
batch of one run (:func:`update_one`): the run's stream draws the initial
error, then the measurements, and the loop records the squared errors of
each step. This is the loop each run went through before ``ekf.run_single``
filtered all runs as one lockstep batch; tests compare the batch with it.
"""

import numpy as np

from mpslam_bounds.ekf import ekf_predict, ekf_update
from mpslam_bounds.geometry import wrap_angle
from mpslam_bounds.pcrlb import process_noise_cov, transition_matrix
from mpslam_bounds.scenario import draw_measurements
from mpslam_bounds.streams import derive_run_stream


def update_one(mean, cov, record, observed, scenario):
    """``ekf_update`` of one run's (N,) ``mean``, (N, N) ``cov`` and (n, 3)
    ``observed`` rows, as a batch of R = 1 whose bound entry is a copy of the
    run's covariance; returns the run's updated (mean, covariance)."""
    means, covs = ekf_update(mean[None], np.stack([cov, cov]), record, observed[None], scenario)
    return means[0], covs[1]


def filter_run(scenario, truth, table, run_index):
    """Per-step squared errors of one run from the (n + 1, N) joint truth
    ``truth``, (n_steps, 3 + S): position, velocity, orientation, then each
    surface."""
    rng = derive_run_stream(scenario.mc.seed, run_index)
    prior_diag = scenario.prior_covariance()
    mean = truth[0] + np.sqrt(prior_diag) * rng.standard_normal(prior_diag.size)
    mean[4] = wrap_angle(mean[4])
    cov = np.diag(prior_diag)
    measured = draw_measurements(table, [rng])

    n_steps, num_surfaces = scenario.n_steps, len(scenario.surfaces)
    transition = transition_matrix(scenario.model, num_surfaces)
    noise_cov = process_noise_cov(scenario.model, num_surfaces)
    position, velocity = np.zeros(n_steps), np.zeros(n_steps)
    orientation, surfaces = np.zeros(n_steps), np.zeros((n_steps, num_surfaces))
    for n in range(1, n_steps + 1):
        mean, cov = update_one(*ekf_predict(mean, cov, transition, noise_cov), table[n - 1],
                               measured[n - 1][0], scenario)
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise FloatingPointError(f"step {n}: non-finite EKF mean or covariance")
        err = mean - truth[n]
        position[n - 1] = err[0] ** 2 + err[1] ** 2
        velocity[n - 1] = err[2] ** 2 + err[3] ** 2
        orientation[n - 1] = wrap_angle(float(err[4])) ** 2
        for s in range(num_surfaces):
            block = err[5 + 2 * s: 7 + 2 * s]
            surfaces[n - 1, s] = block @ block
    return np.column_stack([position, velocity, orientation, surfaces])
