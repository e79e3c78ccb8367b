"""Covariance-form reference of the EKF measurement update.

Stacks one row per measured (component, parameter) of a step, anchor by
anchor, with the noise covariance R = diag of the variances the step's truth
record drew its rows with, factors the M x M innovation covariance
S = H P H^T + R and applies the gain in Joseph form. This is the update that
``ekf.ekf_update`` replaced by the information form
J = P^{-1} + sum_j H_j Lambda_j H_j^T; tests compare the two.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from mpslam_bounds.fim import global_jacobian
from mpslam_bounds.geometry import SURFACE_NORM_FLOOR, wrap_angle
from tests.reference_geometry import lone_plan


def stacked_linearization(mean, record, observed, scenario):
    """(H, observed, predicted, noise_diag, angle_row) over the usable rows.

    Per measured component its distance, arrival-azimuth and departure-azimuth
    rows, anchors ascending, each anchor's components through a plan of its
    own. Components whose geometry cannot be evaluated at the estimate (a
    surface estimate near the origin, or the estimate on a virtual anchor)
    contribute no rows.
    """
    raw_points = mean[5:].reshape(-1, 2)
    usable = np.concatenate([[True], np.linalg.norm(raw_points, axis=1) > SURFACE_NORM_FLOOR])
    surfaces = np.where(usable[1:, None], raw_points, [[1.0, 0.0]])
    order = scenario.order

    h_rows = [np.zeros((0, mean.shape[0]))]
    rows_seen, predicted, noise = [np.zeros(0)], [np.zeros(0)], [np.zeros(0)]
    for j, anchor in enumerate(scenario.anchors):
        own = record.plan.owner == j
        ks = record.plan.components[own]
        if not ks.size:
            continue
        near_origin = ~(usable[order.first[ks]] & usable[order.second[ks]])
        params, degenerate, jac = global_jacobian(mean, lone_plan(order, ks, anchor), surfaces)
        ok = ~(near_origin | degenerate)
        # the compact columns of component i: i, n + i, 2n + i
        cols = np.arange(3 * ks.size).reshape(3, -1).T[ok]
        h_rows.append(jac[:, cols.ravel()].T)
        rows_seen.append(observed[own][ok].ravel())
        predicted.append(params[ok].ravel())
        noise.append(record.variances[own][ok].ravel())

    h_mat = np.concatenate(h_rows)
    return (h_mat, np.concatenate(rows_seen), np.concatenate(predicted), np.concatenate(noise),
            np.tile([False, True, True], h_mat.shape[0] // 3))


def joseph_update(mean, cov, record, observed, scenario):
    """Stacked Kalman update of the (N,) ``mean`` and (N, N) ``cov`` with
    wrapped angle innovations and Joseph-form covariance; returns the updated
    (mean, cov) and raises if the innovation covariance is not positive
    definite."""
    h_mat, stacked, predicted, noise_diag, angle_row = stacked_linearization(
        mean, record, observed, scenario
    )
    if h_mat.shape[0] == 0:
        return mean, cov
    innovation = stacked - predicted
    innovation[angle_row] = np.array([wrap_angle(v) for v in innovation[angle_row]])
    innovation_cov = h_mat @ cov @ h_mat.T + np.diag(noise_diag)
    factor = cho_factor(0.5 * (innovation_cov + innovation_cov.T), lower=True)
    gain = cho_solve(factor, h_mat @ cov).T
    updated = mean + gain @ innovation
    updated[4] = wrap_angle(updated[4])
    shrink = np.eye(mean.shape[0]) - gain @ h_mat
    joseph = shrink @ cov @ shrink.T + (gain * noise_diag) @ gain.T
    return updated, 0.5 * (joseph + joseph.T)
