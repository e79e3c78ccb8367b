"""Numerical invariant suite behind the command line's ``--self-check``.

Validates, on randomized nondegenerate geometry, that the analytic gradient
machinery agrees with central finite differences, that the mirror
construction preserves path lengths, that the orientation sensitivity is the
constant it must be in the plane, and that snapshot information matrices are
positive semidefinite and grow when observations are added. Every check is
deterministic (fixed seed) and reports violations as human-readable strings;
an empty report means the build is numerically sound.
"""

from __future__ import annotations

import numpy as np

from .fim import (
    ComponentOrder,
    IsotropicAperture,
    PathPlan,
    channel_fim,
    global_jacobian,
    global_snapshot_fim,
    measurement_variances,
)
from .geometry import (
    AgentPose,
    Anchor,
    DegenerateGeometryError,
    PathGeometry,
    SurfaceMap,
    joint_state,
    path_geometry,
    rotation_matrix,
    wrap_angle,
)

FD_STEP = 1e-6
FD_TOL = 1e-6


def random_instance(rng: np.random.Generator, num_surfaces: int):
    """Random nondegenerate (agent, anchor, surfaces) with all components usable."""
    while True:
        points = []
        for _ in range(num_surfaces):
            angle = rng.uniform(-np.pi, np.pi)
            radius = rng.uniform(1.5, 18.0)
            points.append(radius * np.array([np.cos(angle), np.sin(angle)]))
        surfaces = SurfaceMap(np.array(points))
        anchor = Anchor(
            position=rng.uniform(-6.0, 6.0, size=2),
            orientation=rng.uniform(-np.pi, np.pi),
            aperture=IsotropicAperture(0.01),
        )
        agent = AgentPose(
            position=rng.uniform(-6.0, 6.0, size=2),
            velocity=rng.uniform(-2.0, 2.0, size=2),
            orientation=rng.uniform(-np.pi, np.pi),
        )
        order = ComponentOrder.canonical(num_surfaces)
        if all_paths(agent, anchor, order, surfaces).params[:, 0].min() > 0.5:
            return agent, anchor, surfaces, order


def all_paths(
    agent: AgentPose, anchor: Anchor, order: ComponentOrder, surfaces: SurfaceMap
) -> PathGeometry:
    """The batched geometry pass over every component of ``order``, in order."""
    return path_geometry(agent, PathPlan(order, range(order.size), anchor), surfaces)


def channel_vector(state: np.ndarray, anchor: Anchor, order: ComponentOrder) -> np.ndarray:
    """Stacked channel parameters [distances | arrival az. | departure az.].

    Read from the batched geometry pass that :func:`~.fim.global_jacobian`
    differentiates.
    """
    pose = AgentPose.from_state(state[:5])
    surfaces = SurfaceMap(state[5:].reshape(-1, 2))
    return all_paths(pose, anchor, order, surfaces).params.T.ravel()


def finite_difference_jacobian(
    state: np.ndarray, anchor: Anchor, order: ComponentOrder, step: float = FD_STEP
) -> np.ndarray:
    """Central-difference gradient matrix of the channel vector (angle-aware)."""
    dim_state = state.shape[0]
    k_total = order.size
    jac = np.zeros((dim_state, 3 * k_total))
    angle_entry = np.zeros(3 * k_total, dtype=bool)
    angle_entry[k_total:] = True
    for i in range(dim_state):
        h = step * max(1.0, abs(state[i]))
        forward = state.copy()
        forward[i] += h
        backward = state.copy()
        backward[i] -= h
        f_plus = channel_vector(forward, anchor, order)
        f_minus = channel_vector(backward, anchor, order)
        diff = f_plus - f_minus
        diff[angle_entry] = wrap_angle(diff[angle_entry])
        jac[i, :] = diff / (2.0 * h)
    return jac


def column_mismatch(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst per-column relative deviation between two gradient matrices."""
    worst = 0.0
    for col in range(analytic.shape[1]):
        a, f = analytic[:, col], numeric[:, col]
        scale = max(np.linalg.norm(a), np.linalg.norm(f), 1e-9)
        worst = max(worst, float(np.linalg.norm(a - f) / scale))
    return worst


def full_jacobian(
    agent: AgentPose, anchor: Anchor, order: ComponentOrder, surfaces: SurfaceMap
) -> np.ndarray:
    """:func:`~.fim.global_jacobian` with every component present."""
    _, degenerate, jac = global_jacobian(agent, PathPlan(order, range(order.size), anchor),
                                         surfaces)
    if degenerate.any():
        raise DegenerateGeometryError("agent coincides with a virtual anchor")
    return jac


def check_jacobian_fd(rng: np.random.Generator, instances: int = 50) -> list[str]:
    failures = []
    for i in range(instances):
        num_surfaces = int(rng.integers(1, 5))
        agent, anchor, surfaces, order = random_instance(rng, num_surfaces)
        analytic = full_jacobian(agent, anchor, order, surfaces)
        numeric = finite_difference_jacobian(joint_state(agent, surfaces), anchor, order)
        worst = column_mismatch(analytic, numeric)
        if worst > FD_TOL:
            failures.append(
                f"gradient vs finite differences: instance {i} deviates by {worst:.3e}"
            )
    return failures


def check_orientation_identity(rng: np.random.Generator, instances: int = 50) -> list[str]:
    failures = []
    kinds = set()
    for i in range(instances):
        agent, anchor, surfaces, order = random_instance(rng, int(rng.integers(1, 5)))
        kinds.update(comp.n_bounces for comp in order)
        jac = full_jacobian(agent, anchor, order, surfaces)
        for comp, value in zip(order, jac[4, order.size:2 * order.size].tolist()):
            if abs(value + 1.0) > 1e-12:
                failures.append(
                    f"orientation sensitivity: instance {i} path {comp.bounces} "
                    f"gave {value!r} instead of -1"
                )
    if kinds != {0, 1, 2}:
        failures.append(f"orientation sensitivity: only {sorted(kinds)}-bounce paths drawn")
    return failures


def check_mirror_lengths(rng: np.random.Generator, instances: int = 200) -> list[str]:
    failures = []
    for i in range(instances):
        agent, anchor, surfaces, order = random_instance(rng, int(rng.integers(2, 5)))
        geo = all_paths(agent, anchor, order, surfaces)
        direct = np.linalg.norm(geo.va_to_agent, axis=1)
        # the anchor-to-mirrored-agent vector, rotated into the anchor's frame
        mirrored = np.linalg.norm(geo.departure_local, axis=1)
        bad = np.abs(direct - mirrored) > 1e-12 * np.maximum(1.0, direct)
        for k in np.flatnonzero(bad):
            failures.append(
                f"mirror length: instance {i} path {order.components[k].bounces} "
                f"|{mirrored[k]} - {direct[k]}| too large"
            )
    return failures


def check_chain_fd(rng: np.random.Generator, instances: int = 50) -> list[str]:
    failures = []
    for i in range(instances):
        agent, anchor, surfaces, order = random_instance(rng, int(rng.integers(2, 5)))
        chain = all_paths(agent, anchor, order, surfaces).chain
        to_global = rotation_matrix(anchor.orientation).T
        numeric = np.zeros((order.size, 2, 2))
        for axis in range(2):
            h = FD_STEP * max(1.0, abs(agent.position[axis]))
            for sign in (1.0, -1.0):
                position = agent.position.copy()
                position[axis] += sign * h
                shifted = AgentPose(position, agent.velocity, agent.orientation)
                # anchor-to-mirrored-agent vectors, back in the global frame
                mirrored = all_paths(shifted, anchor, order, surfaces).departure_local @ to_global
                numeric[:, :, axis] += sign * mirrored / (2.0 * h)
        bad = np.max(np.abs(numeric - chain.transpose(0, 2, 1)), axis=(1, 2)) > FD_TOL
        for k in np.flatnonzero(bad):
            failures.append(
                f"mirrored-agent sensitivity: instance {i} path "
                f"{order.components[k].bounces} deviates from the reflection product"
            )
    return failures


def check_snapshot_psd(rng: np.random.Generator, instances: int = 25) -> list[str]:
    failures = []
    aperture = IsotropicAperture(0.01)
    for i in range(instances):
        num_surfaces = int(rng.integers(1, 4))
        agent, anchor, surfaces, order = random_instance(rng, num_surfaces)
        agent2, anchor2, _, _ = random_instance(rng, num_surfaces)
        visible = np.flatnonzero(rng.random(order.size) < 0.7)
        # one compact pass over both anchors' paths, the first anchor's listed first
        n = visible.size
        both_anchors = Anchor(np.repeat([anchor.position, anchor2.position], n, axis=0),
                              np.repeat([anchor.orientation, anchor2.orientation], n))
        params, degenerate, jac = global_jacobian(
            agent, PathPlan(order, np.tile(visible, 2), both_anchors), surfaces)
        if degenerate.any():
            continue
        lam = channel_fim(measurement_variances(
            params, 2.0 / params[:, 0], 6e9, 1e8, aperture, aperture))
        first = np.add.outer([0, 2 * n, 4 * n], np.arange(n)).ravel()  # the first anchor's columns
        single = global_snapshot_fim(jac[:, first], lam[first])
        both = global_snapshot_fim(jac, lam)
        for name, matrix in (("one anchor", single), ("two anchors", both),
                             ("anchor increment", both - single)):
            min_eig = float(np.linalg.eigvalsh(matrix)[0])
            if min_eig < -1e-10 * max(matrix.trace(), 1.0):
                failures.append(
                    f"snapshot information: instance {i} {name} has eigenvalue {min_eig:.3e}"
                )
        if np.any(single[2:4, :] != 0.0) or np.any(single[:, 2:4] != 0.0):
            failures.append(f"snapshot information: instance {i} has velocity coupling")
    return failures


def run_self_check(seed: int = 20240917) -> list[str]:
    """Run every invariant check; returns the list of violations (empty = pass)."""
    failures = []
    failures += check_jacobian_fd(np.random.default_rng(seed))
    failures += check_orientation_identity(np.random.default_rng(seed + 1))
    failures += check_mirror_lengths(np.random.default_rng(seed + 2))
    failures += check_chain_fd(np.random.default_rng(seed + 3))
    failures += check_snapshot_psd(np.random.default_rng(seed + 4))
    return failures
