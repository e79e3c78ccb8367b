"""Numerical invariant suite behind the command line's ``--self-check``.

Validates, on randomized nondegenerate geometry, that the analytic gradient
machinery agrees with central finite differences (one batched geometry pass
per instance shifts its state both ways along each coordinate), that the
mirror construction preserves path lengths, that the orientation
sensitivity is the constant it must be in the plane, and that snapshot
information matrices are positive semidefinite and grow when observations
are added. Every check is deterministic (fixed seed) and reports violations
as human-readable strings; an empty report means the build is numerically
sound.
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
    Anchor,
    PathGeometry,
    path_geometry,
    rotation_matrix,
    wrap_angle,
)

FD_STEP = 1e-6
FD_TOL = 1e-6


def random_instance(rng: np.random.Generator, num_surfaces: int):
    """Random nondegenerate (state, anchor, surfaces, order) with all
    components usable; ``state`` is the joint state, the agent's
    [x, y, vx, vy, orientation] then the surface points."""
    while True:
        points = []
        for _ in range(num_surfaces):
            angle = rng.uniform(-np.pi, np.pi)
            radius = rng.uniform(1.5, 18.0)
            points.append(radius * np.array([np.cos(angle), np.sin(angle)]))
        surfaces = np.array(points)
        anchor = Anchor(
            position=rng.uniform(-6.0, 6.0, size=2),
            orientation=rng.uniform(-np.pi, np.pi),
            aperture=IsotropicAperture(0.01),
        )
        state = np.concatenate([rng.uniform(-6.0, 6.0, size=2), rng.uniform(-2.0, 2.0, size=2),
                                [rng.uniform(-np.pi, np.pi)], surfaces.ravel()])
        order = ComponentOrder.canonical(num_surfaces)
        if all_paths(state, anchor, order, surfaces).params[:, 0].min() > 0.5:
            return state, anchor, surfaces, order


def all_paths(
    state: np.ndarray, anchor: Anchor, order: ComponentOrder, surfaces: np.ndarray
) -> PathGeometry:
    """The batched geometry pass over every component of ``order``, in order."""
    plan = PathPlan(order, np.zeros(order.size, dtype=int), range(order.size), [anchor])
    return path_geometry(state, plan, surfaces)


def shifted_paths(
    state: np.ndarray, anchor: Anchor, order: ComponentOrder, coordinates: slice = slice(None)
) -> tuple[PathGeometry, np.ndarray]:
    """Every component's geometry at ``state`` shifted by +h and -h (entries 0
    and 1) along each of the m listed ``coordinates``, h = ``FD_STEP`` max(1, |x|):
    one (2, m) batch in one pass, each entry's surface points its own; and h."""
    index = np.arange(state.size)[coordinates]
    h = FD_STEP * np.maximum(1.0, np.abs(state[index]))
    shifted = np.tile(state, (2, index.size, 1))
    shifted[:, np.arange(index.size), index] += [h, -h]
    return all_paths(shifted, anchor, order, shifted[..., 5:].reshape(2, index.size, -1, 2)), h


def finite_difference_jacobian(
    state: np.ndarray, anchor: Anchor, order: ComponentOrder
) -> np.ndarray:
    """Central-difference (N, 3K) gradient matrix of the stacked channel
    parameters [distances | arrival az. | departure az.], angles wrapped."""
    geo, h = shifted_paths(state, anchor, order)
    diff = geo.params[0] - geo.params[1]
    diff[..., 1:] = wrap_angle(diff[..., 1:])
    return diff.swapaxes(-1, -2).reshape(h.size, -1) / (2.0 * h[:, None])


def column_mismatch(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst per-column relative deviation between two gradient matrices."""
    norms = np.linalg.norm([analytic, numeric, analytic - numeric], axis=1)
    return float(np.max(norms[2] / np.maximum(norms[:2].max(axis=0), 1e-9)))


def full_jacobian(
    state: np.ndarray, anchor: Anchor, order: ComponentOrder, surfaces: np.ndarray
) -> np.ndarray:
    """:func:`~.fim.global_jacobian` with every component present."""
    plan = PathPlan(order, np.zeros(order.size, dtype=int), range(order.size), [anchor])
    _, degenerate, jac = global_jacobian(state, plan, surfaces)
    if degenerate.any():
        raise FloatingPointError("agent coincides with a virtual anchor")
    return jac


def check_jacobian_fd(rng: np.random.Generator, instances: int = 50) -> list[str]:
    failures = []
    for i in range(instances):
        state, anchor, surfaces, order = random_instance(rng, int(rng.integers(1, 5)))
        analytic = full_jacobian(state, anchor, order, surfaces)
        numeric = finite_difference_jacobian(state, anchor, order)
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
        state, anchor, surfaces, order = random_instance(rng, int(rng.integers(1, 5)))
        kinds.update(order.n_bounces.tolist())
        jac = full_jacobian(state, anchor, order, surfaces)
        for k, value in enumerate(jac[4, order.size:2 * order.size].tolist()):
            if abs(value + 1.0) > 1e-12:
                failures.append(
                    f"orientation sensitivity: instance {i} component {list(order.pair(k))} "
                    f"gave {value!r} instead of -1"
                )
    if kinds != {0, 1, 2}:
        failures.append(f"orientation sensitivity: only {sorted(kinds)}-bounce paths drawn")
    return failures


def check_mirror_lengths(rng: np.random.Generator, instances: int = 200) -> list[str]:
    failures = []
    for i in range(instances):
        state, anchor, surfaces, order = random_instance(rng, int(rng.integers(2, 5)))
        geo = all_paths(state, anchor, order, surfaces)
        direct = np.linalg.norm(geo.va_to_agent, axis=1)
        # the anchor-to-mirrored-agent vector, rotated into the anchor's frame
        mirrored = np.linalg.norm(geo.departure_local, axis=1)
        bad = np.abs(direct - mirrored) > 1e-12 * np.maximum(1.0, direct)
        for k in np.flatnonzero(bad):
            failures.append(
                f"mirror length: instance {i} component {list(order.pair(k))} "
                f"|{mirrored[k]} - {direct[k]}| too large"
            )
    return failures


def check_chain_fd(rng: np.random.Generator, instances: int = 50) -> list[str]:
    failures = []
    for i in range(instances):
        state, anchor, surfaces, order = random_instance(rng, int(rng.integers(2, 5)))
        chain = all_paths(state, anchor, order, surfaces).chain
        geo, h = shifted_paths(state, anchor, order, slice(0, 2))
        # (sign, axis, K, 2): anchor-to-mirrored-agent vectors in the global frame, over 2h
        to_global = rotation_matrix(anchor.orientation).T
        mirrored = geo.departure_local @ to_global / (2.0 * h[:, None, None])
        numeric = (mirrored[0] - mirrored[1]).transpose(1, 2, 0)
        bad = np.max(np.abs(numeric - chain.transpose(0, 2, 1)), axis=(1, 2)) > FD_TOL
        for k in np.flatnonzero(bad):
            failures.append(
                f"mirrored-agent sensitivity: instance {i} component "
                f"{list(order.pair(k))} deviates from the reflection product"
            )
    return failures


def check_snapshot_psd(rng: np.random.Generator, instances: int = 25) -> list[str]:
    failures = []
    for i in range(instances):
        num_surfaces = int(rng.integers(1, 4))
        state, anchor, surfaces, order = random_instance(rng, num_surfaces)
        _, anchor2, _, _ = random_instance(rng, num_surfaces)
        visible = np.flatnonzero(rng.random(order.size) < 0.7)
        # one compact pass over both anchors' paths, the first anchor's listed first
        n = visible.size
        params, degenerate, jac = global_jacobian(state, PathPlan(
            order, np.repeat([0, 1], n), np.tile(visible, 2), [anchor, anchor2]), surfaces)
        if degenerate.any():
            continue
        lam = channel_fim(measurement_variances(
            2.0 / params[:, 0], np.full((2 * n, 2), 0.01), 6e9, 1e8))  # isotropic arrays
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


def run_self_check() -> list[str]:
    """Run every invariant check, check i on seed 20240917 + i; returns the
    list of violations (empty = pass)."""
    checks = (check_jacobian_fd, check_orientation_identity, check_mirror_lengths,
              check_chain_fd, check_snapshot_psd)
    return [f for i, check in enumerate(checks) for f in check(np.random.default_rng(20240917 + i))]
