"""Scalar reference of the batched path geometry.

One path at a time, folding the surface mirror over the bounce sequence
(a tuple of surfaces, anchor side first: ``()`` for LOS) with Python
control flow: the form that ``geometry.path_geometry`` replaced
by one batched pass. Tests compare the batched pass against it, and the
loop-form gradient in ``tests/reference_jacobian.py`` is built on it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from mpslam_bounds.fim import ComponentOrder, PathPlan
from mpslam_bounds.geometry import (
    DEGENERACY_EPS,
    Anchor,
    rotation_matrix,
)


def agent_state(position, velocity=(0.0, 0.0), orientation=0.0) -> np.ndarray:
    """The (5,) agent state [x, y, vx, vy, orientation]."""
    return np.array([*position, *velocity, orientation], dtype=float)


def lone_plan(order: ComponentOrder, components, anchor: Anchor) -> PathPlan:
    """The plan of ``components`` of ``order``, all seen from the one ``anchor``."""
    components = np.asarray(components, dtype=int)
    return PathPlan(order, np.zeros(components.size, dtype=int), components, [anchor])


def canonical_index(order: ComponentOrder, bounces: tuple[int, ...]) -> int:
    """Index k of the component with these bounce surfaces in ``order``."""
    return next(k for k in range(order.size) if order.bounces(k) == tuple(bounces))


def householder(surfaces: np.ndarray, surface: int) -> np.ndarray:
    """Householder reflection I - 2 p p^T / (p . p) of surface ``surface``
    (1-based) of the (S, 2) surface points, from its point p."""
    if not 1 <= surface <= len(surfaces):
        raise ValueError(f"surface index {surface} outside 1..{len(surfaces)}")
    p = np.asarray(surfaces[surface - 1], dtype=float)
    return np.eye(2) - 2.0 * np.outer(p, p) / float(p @ p)


def mirror(surfaces: np.ndarray, x, surface: int) -> np.ndarray:
    """Mirror ``x`` about surface ``surface`` (1-based).

    Involutory; points on the surface line are fixed; the origin maps to
    the surface point itself.
    """
    x = np.asarray(x, dtype=float)
    return householder(surfaces, surface) @ x + surfaces[surface - 1]


@dataclass(frozen=True)
class ChannelParams:
    """Noise-free channel parameters of one path component."""

    distance: float  # meters, total reflected path length
    aoa: float  # radians, arrival azimuth in the agent frame
    aod: float  # radians, departure azimuth in the anchor frame

    def as_array(self) -> np.ndarray:
        return np.array([self.distance, self.aoa, self.aod])


def virtual_anchor(anchor: Anchor, path: tuple[int, ...], surfaces: np.ndarray) -> np.ndarray:
    """Mirror the anchor through the bounce sequence (LOS returns the anchor)."""
    point = anchor.position
    for s in path:
        point = mirror(surfaces, point, s)
    return point


def mirrored_agent(agent_position, path: tuple[int, ...], surfaces: np.ndarray) -> np.ndarray:
    """Mirror the agent position through the reversed bounce sequence.

    Its distance to the anchor equals the distance from the virtual anchor
    to the agent exactly.
    """
    point = np.asarray(agent_position, dtype=float)
    for s in reversed(path):
        point = mirror(surfaces, point, s)
    return point


def householder_chain(path: tuple[int, ...], surfaces: np.ndarray) -> np.ndarray:
    """d(anchor->mirrored-agent)^T / d(agent position): I, H_s or H_s2 H_s."""
    chain = np.eye(2)
    for s in reversed(path):
        chain = chain @ householder(surfaces, s)
    return chain


@dataclass(frozen=True)
class PathGeometry:
    """Geometric quantities of one (agent, anchor, path) triple."""

    va_to_agent: np.ndarray  # agent position minus virtual anchor (global frame)
    anchor_to_mirrored: np.ndarray  # mirrored agent minus anchor (global frame)
    chain: np.ndarray  # householder_chain of the path
    params: ChannelParams = field(repr=False)


def path_geometry(
    agent: np.ndarray, anchor: Anchor, path: tuple[int, ...], surfaces: np.ndarray
) -> PathGeometry:
    """Resolve the mirror geometry and channel parameters of one path; the
    agent's position and orientation are entries 0:2 and 4 of its state row.

    Raises :class:`FloatingPointError` when the agent coincides with the
    virtual anchor (or, equivalently, the mirrored agent with the anchor).
    """
    r = agent[0:2] - virtual_anchor(anchor, path, surfaces)
    r_t = mirrored_agent(agent[0:2], path, surfaces) - anchor.position
    dist = float(np.linalg.norm(r))
    if dist <= DEGENERACY_EPS or np.linalg.norm(r_t) <= DEGENERACY_EPS:
        raise FloatingPointError(
            f"agent coincides with virtual anchor for path {path}"
        )
    departure_local = rotation_matrix(anchor.orientation).T @ r_t
    arrival_local = -(rotation_matrix(agent[4]).T @ r)
    params = ChannelParams(
        distance=dist,
        aoa=math.atan2(arrival_local[1], arrival_local[0]),
        aod=math.atan2(departure_local[1], departure_local[0]),
    )
    return PathGeometry(r, r_t, householder_chain(path, surfaces), params)


def channel_params(
    agent: np.ndarray, anchor: Anchor, path: tuple[int, ...], surfaces: np.ndarray
) -> ChannelParams:
    """Noise-free distance, arrival and departure azimuth of one path."""
    return path_geometry(agent, anchor, path, surfaces).params
