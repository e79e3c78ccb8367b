"""Loop-form reference of the batched channel gradient.

One path at a time, with the scalar geometry of
``tests/reference_geometry.py``: the per-component form that
``fim.global_jacobian`` replaced by one batched pass; and the
per-coordinate central differences that the self-check's finite-difference
pass batches. Tests compare the batched passes against them.
"""

import numpy as np

from mpslam_bounds.checks import FD_STEP, all_paths
from mpslam_bounds.geometry import rotation_matrix, wrap_angle
from tests.reference_geometry import householder, mirror, path_geometry


def rotation_matrix_derivative(angle):
    """Derivative of ``rotation_matrix`` w.r.t. the angle.

    Equals ``rotation_matrix(angle + pi/2)``.
    """
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[-s, -c], [c, -s]])


def azimuth_gradient(r):
    """Gradient of atan2(r_y, r_x) w.r.t. r: (-r_y, r_x) / ||r||^2.

    Orthogonal to r with norm 1/||r||; degenerate at the origin.
    """
    r = np.asarray(r, dtype=float)
    sq = float(r @ r)
    if sq <= 1e-18:
        raise FloatingPointError("azimuth gradient undefined at the origin")
    return np.array([-r[1], r[0]]) / sq


def distance_gradient(r):
    """Gradient of ||r|| w.r.t. r: the unit vector along r."""
    r = np.asarray(r, dtype=float)
    norm = float(np.linalg.norm(r))
    if norm <= 1e-9:
        raise FloatingPointError("distance gradient undefined at the origin")
    return r / norm


def _reflection_source_block(source, surfaces, surface):
    """2 a p^T / ||p||^2 + 2 (a . p / ||p||^2) H - I for one reflection of a."""
    p = surfaces[surface - 1]
    sq = float(p @ p)
    return (
        (2.0 / sq) * np.outer(source, p)
        + (2.0 * float(source @ p) / sq) * householder(surfaces, surface)
        - np.eye(2)
    )


def loop_jacobian(agent, anchor, order, surfaces, geoms):
    """(N, 3K) gradient from one resolved geometry per component (None = absent),
    at the agent state row ``agent``."""
    jac = np.zeros((5 + 2 * len(surfaces), 3 * order.size))
    rot_anchor = rotation_matrix(anchor.orientation)
    rot_agent = rotation_matrix(agent[4])
    rot_agent_dot = rotation_matrix_derivative(agent[4])
    for k, geom in enumerate(geoms):
        if geom is None:
            continue
        i_d, i_aoa, i_aod = k, order.size + k, 2 * order.size + k
        departure_local = rot_anchor.T @ geom.anchor_to_mirrored
        arrival_local = -(rot_agent.T @ geom.va_to_agent)
        transfer = geom.chain @ rot_anchor
        az_departure = azimuth_gradient(departure_local)
        az_arrival = azimuth_gradient(arrival_local)
        aoa_col = -(rot_agent @ az_arrival)
        jac[0:2, i_d] = transfer @ distance_gradient(departure_local)
        jac[0:2, i_aoa] = aoa_col
        jac[0:2, i_aod] = transfer @ az_departure
        jac[4, i_aoa] = -(geom.va_to_agent @ rot_agent_dot) @ az_arrival
        bounces = order.bounces(k)
        for i, s in enumerate(bounces):
            before, after = bounces[:i], bounces[i + 1:]
            source, sink = anchor.position, agent[0:2]
            for t in before:
                source = mirror(surfaces, source, t)
            for t in reversed(after):
                sink = mirror(surfaces, sink, t)
            direct = _reflection_source_block(source, surfaces, s)
            mirrored = -_reflection_source_block(sink, surfaces, s)
            for t in after:
                direct = direct @ householder(surfaces, t)
            for t in reversed(before):
                mirrored = mirrored @ householder(surfaces, t)
            row = 5 + 2 * (s - 1)
            jac[row:row + 2, i_d] = direct @ (geom.va_to_agent / geom.params.distance)
            jac[row:row + 2, i_aoa] = direct @ aoa_col
            jac[row:row + 2, i_aod] = mirrored @ rot_anchor @ az_departure
    return jac


def loop_reference(agent, anchor, order, surfaces, components):
    """(n, 3) scalar channel params and loop-form gradient of the listed components."""
    geoms = [None] * order.size
    for k in components:
        geoms[k] = path_geometry(agent, anchor, order.bounces(k), surfaces)
    params = np.array([geoms[k].params.as_array() for k in components]).reshape(-1, 3)
    return params, loop_jacobian(agent, anchor, order, surfaces, geoms)


def loop_finite_difference_jacobian(state, anchor, order):
    """Central differences of the stacked channel parameters, one joint-state
    coordinate at a time: the 2N unbatched geometry passes that
    ``checks.finite_difference_jacobian`` resolves as one batch."""
    k_total = order.size
    jac = np.zeros((state.shape[0], 3 * k_total))
    for i in range(state.shape[0]):
        h = FD_STEP * max(1.0, abs(state[i]))
        forward, backward = state.copy(), state.copy()
        forward[i] += h
        backward[i] -= h
        diff = (all_paths(forward, anchor, order, forward[5:].reshape(-1, 2)).params.T.ravel()
                - all_paths(backward, anchor, order, backward[5:].reshape(-1, 2)).params.T.ravel())
        diff[k_total:] = wrap_angle(diff[k_total:])
        jac[i, :] = diff / (2.0 * h)
    return jac


def loop_column_mismatch(analytic, numeric):
    """Worst per-column relative deviation, one column's norms at a time."""
    worst = 0.0
    for col in range(analytic.shape[1]):
        a, f = analytic[:, col], numeric[:, col]
        scale = max(np.linalg.norm(a), np.linalg.norm(f), 1e-9)
        worst = max(worst, float(np.linalg.norm(a - f) / scale))
    return worst
