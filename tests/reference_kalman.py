"""Covariance-form reference of the EKF measurement update.

Stacks one row per measured (component, parameter) of a step, with the noise
covariance R = diag of the variances each block was drawn with, factors the
M x M innovation covariance S = H P H^T + R and applies the gain in Joseph
form. This is the update that ``ekf.ekf_update`` replaced by the information
form J = P^{-1} + sum_j H_j Lambda_j H_j^T; tests compare the two.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from mpslam_bounds.ekf import _SURFACE_NORM_FLOOR, EkfState
from mpslam_bounds.fim import PathPlan, global_jacobian
from mpslam_bounds.geometry import AgentPose, SurfaceMap, wrap_angle


def stacked_linearization(mean, blocks, scenario):
    """(H, observed, predicted, noise_diag, angle_row) over the usable rows.

    Per measured component its distance, arrival-azimuth and departure-azimuth
    rows, anchors ascending. Components whose geometry cannot be evaluated at
    the estimate (a surface estimate near the origin, or the estimate on a
    virtual anchor) contribute no rows.
    """
    pose = AgentPose.from_state(mean[:5])
    raw_points = mean[5:].reshape(-1, 2)
    usable = np.concatenate([[True], np.linalg.norm(raw_points, axis=1) > _SURFACE_NORM_FLOOR])
    surfaces = SurfaceMap(np.where(usable[1:, None], raw_points, [[1.0, 0.0]]))
    order = scenario.order

    h_rows = [np.zeros((0, mean.shape[0]))]
    observed, predicted, noise = [np.zeros(0)], [np.zeros(0)], [np.zeros(0)]
    for block in blocks:
        ks = block.components
        if not ks.size:
            continue
        near_origin = ~(usable[order.first[ks]] & usable[order.second[ks]])
        params, degenerate, jac = global_jacobian(
            pose, PathPlan(order, ks, scenario.anchors[block.anchor]), surfaces
        )
        ok = ~(near_origin | degenerate)
        # the compact columns of component i: i, n + i, 2n + i
        cols = np.arange(3 * ks.size).reshape(3, -1).T[ok]
        h_rows.append(jac[:, cols.ravel()].T)
        observed.append(block.params[ok].ravel())
        predicted.append(params[ok].ravel())
        noise.append(block.variances[ok].ravel())

    h_mat = np.concatenate(h_rows)
    return (h_mat, np.concatenate(observed), np.concatenate(predicted), np.concatenate(noise),
            np.tile([False, True, True], h_mat.shape[0] // 3))


def joseph_update(state, blocks, scenario):
    """Stacked Kalman update with wrapped angle innovations and Joseph-form
    covariance; raises if the innovation covariance is not positive definite."""
    h_mat, observed, predicted, noise_diag, angle_row = stacked_linearization(
        state.mean, blocks, scenario
    )
    if h_mat.shape[0] == 0:
        return state
    innovation = observed - predicted
    innovation[angle_row] = np.array([wrap_angle(v) for v in innovation[angle_row]])
    innovation_cov = h_mat @ state.cov @ h_mat.T + np.diag(noise_diag)
    factor = cho_factor(0.5 * (innovation_cov + innovation_cov.T), lower=True)
    gain = cho_solve(factor, h_mat @ state.cov).T
    mean = state.mean + gain @ innovation
    mean[4] = wrap_angle(mean[4])
    shrink = np.eye(state.mean.shape[0]) - gain @ h_mat
    cov = shrink @ state.cov @ shrink.T + (gain * noise_diag) @ gain.T
    return EkfState(mean=mean, cov=0.5 * (cov + cov.T))
