"""Loop-form reference of the batched channel gradient.

One path at a time, with the scalar geometry of
``tests/reference_geometry.py``: the per-component form that
``fim.global_jacobian`` replaced by one batched pass. Tests compare the
batched pass against it.
"""

import numpy as np

from mpslam_bounds.geometry import DegenerateGeometryError, rotation_matrix
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
        raise DegenerateGeometryError("azimuth gradient undefined at the origin")
    return np.array([-r[1], r[0]]) / sq


def distance_gradient(r):
    """Gradient of ||r|| w.r.t. r: the unit vector along r."""
    r = np.asarray(r, dtype=float)
    norm = float(np.linalg.norm(r))
    if norm <= 1e-9:
        raise DegenerateGeometryError("distance gradient undefined at the origin")
    return r / norm


def _reflection_source_block(source, surfaces, surface):
    """2 a p^T / ||p||^2 + 2 (a . p / ||p||^2) H - I for one reflection of a."""
    p = surfaces.points[surface - 1]
    sq = float(p @ p)
    return (
        (2.0 / sq) * np.outer(source, p)
        + (2.0 * float(source @ p) / sq) * householder(surfaces, surface)
        - np.eye(2)
    )


def loop_jacobian(agent, anchor, order, surfaces, geoms):
    """(N, 3K) gradient from one resolved geometry per component (None = absent)."""
    jac = np.zeros((5 + 2 * len(surfaces), order.dim))
    rot_anchor = rotation_matrix(anchor.orientation)
    rot_agent = rotation_matrix(agent.orientation)
    rot_agent_dot = rotation_matrix_derivative(agent.orientation)
    for k, (comp, geom) in enumerate(zip(order, geoms)):
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
        for i, s in enumerate(comp.bounces):
            before, after = comp.bounces[:i], comp.bounces[i + 1:]
            source, sink = anchor.position, agent.position
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
        geoms[k] = path_geometry(agent, anchor, order.components[k], surfaces)
    params = np.array([geoms[k].params.as_array() for k in components]).reshape(-1, 3)
    return params, loop_jacobian(agent, anchor, order, surfaces, geoms)
