"""Whole-trajectory information: an oracle for the bound recursion.

The recursion (``pcrlb``: predict, fuse, invert, read out) carries the
posterior one step at a time. Tichavsky, Muravchik and Nehorai (IEEE TSP
1998) derive it from the information about the whole trajectory, which this
module builds directly, in one linear-algebra form that shares no code with
the recursion (nothing here imports ``pcrlb``).

Let theta = (x_0, w_1 ... w_n), where w_k holds only the process-noise
directions with nonzero variance: two accelerations, the orientation step
and, when ``surface_noise_var`` > 0, every surface coordinate. The state is
linear in theta, x_k = A_k theta, and the information about theta after
step k is

    J^(k) = blockdiag(P_0^-1, W^-1, ..., W^-1) + sum_{i <= k} A_i^T J_i A_i,

with W the noise directions' variances and J_i the truth record's snapshot
information. The covariance bound at step k is A_k (J^(k))^-1 A_k^T. The
nearly-constant-velocity noise is singular in the kinematic block, and this
form needs no inverse of it. The same matrices give the fixed-interval
smoothing bound A_k (J^(n))^-1 A_k^T (Simandl, Kralovec and Tichavsky,
Automatica 2001).
"""

import numpy as np


def noise_directions(scenario) -> tuple[np.ndarray, np.ndarray]:
    """The (N, m) gain of the m process-noise directions with nonzero
    variance, and their (m,) variances: per axis an acceleration, integrated
    over the step into position and velocity, then the orientation step,
    then each surface coordinate."""
    model, unit = scenario.model, np.eye(scenario.dim)
    t = model.time_step
    columns, variances = [], []
    if model.accel_noise_var > 0:
        for axis in range(2):
            columns.append(0.5 * t * t * unit[axis] + t * unit[2 + axis])
            variances.append(model.accel_noise_var)
    if model.orient_noise_var > 0:
        columns.append(unit[4])
        variances.append(model.orient_noise_var)
    if model.surface_noise_var > 0:
        columns += list(unit[5:])
        variances += [model.surface_noise_var] * (scenario.dim - 5)
    return np.array(columns).reshape(-1, scenario.dim).T, np.array(variances)


def prior_variances(scenario) -> np.ndarray:
    """The (N,) diagonal of the initial covariance, read from the prior spec."""
    prior = scenario.prior
    surfaces = np.repeat(prior.surface_vars(len(scenario.surfaces)), 2)
    return np.concatenate([[prior.position_var] * 2, [prior.velocity_var] * 2,
                           [prior.orientation_var], surfaces])


def trajectory_covariances(scenario, table) -> np.ndarray:
    """The (n, N, N) bounds A_k (J^(k))^-1 A_k^T of steps 1..n along the
    truth table ``table`` (``scenario.measurement_truth``)."""
    dim, model = scenario.dim, scenario.model
    gain, noise_vars = noise_directions(scenario)
    m = noise_vars.size
    transition = np.eye(dim)
    transition[0, 2] = transition[1, 3] = model.time_step
    size = dim + len(table) * m
    information = np.diag(np.concatenate([1.0 / prior_variances(scenario),
                                          np.tile(1.0 / noise_vars, len(table))]))
    a = np.zeros((dim, size))
    a[:, :dim] = np.eye(dim)
    covariances = []
    for k, record in enumerate(table, start=1):
        a = transition @ a
        a[:, dim + (k - 1) * m:dim + k * m] = gain
        information += a.T @ record.information @ a
        used = dim + k * m  # w_(k+1) ... w_n are not yet in x_k
        covariances.append(a[:, :used] @ np.linalg.solve(information[:used, :used],
                                                         a[:, :used].T))
    return np.array(covariances)


def bound_table(scenario, table) -> np.ndarray:
    """The (n, 3 + S) bound table from :func:`trajectory_covariances`: square
    roots of the traces of the position, velocity, orientation and each
    surface block."""
    variances = np.diagonal(trajectory_covariances(scenario, table), axis1=1, axis2=2)
    blocks = [variances[:, 0:2], variances[:, 2:4], variances[:, 4:5]]
    blocks += [variances[:, row:row + 2] for row in range(5, scenario.dim, 2)]
    return np.sqrt(np.stack([block.sum(axis=1) for block in blocks], axis=1))
