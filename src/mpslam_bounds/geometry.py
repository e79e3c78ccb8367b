"""Specular reflection geometry for multipath SLAM in the plane.

Each reflecting surface (an infinite wall line) is represented by a single
2-D point: the mirror image of the global origin about the wall. That point
encodes both the wall orientation (its direction is the wall normal) and the
wall offset (half its norm). Mirroring a point x about surface s is the
affine map

    mirror(x) = H_s x + p_s,      H_s = I - 2 p_s p_s^T / ||p_s||^2,

with H_s the Householder reflection about the wall direction. Folding this
map over a bounce sequence produces virtual anchors (anchor mirrored towards
the agent) and mirrored agents (agent mirrored towards the anchor), from
which noise-free channel parameters (path distance, angle of arrival at the
agent, angle of departure at the anchor) follow.

:func:`path_geometry` is the one implementation of that fold: it resolves
many paths of one (agent, anchor) pair at once from the surfaces' stacked
Householders, where surface 0 is the identity mirror that stands for "no
bounce". The channel pass (``fim.global_jacobian``) and the self-check's
finite differences both run on it.

Conventions
-----------
* Surfaces are indexed 1..S. A surface line through the origin is not
  representable and is rejected.
* A propagation path stores its bounce surfaces transmit side first: the
  first entry is the reflection adjacent to the anchor, the last the one
  adjacent to the agent.
* Angles live in (-pi, pi].

All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .fim import ApertureModel, PathPlan

# Direction vectors shorter than this are treated as degenerate geometry.
DEGENERACY_EPS = 1e-9


class DegenerateGeometryError(ValueError):
    """A direction vector collapsed (agent on top of a virtual anchor, ...)."""


def wrap_angle(angle: float | np.ndarray) -> float | np.ndarray:
    """Wrap angles (radians) into (-pi, pi]: a float for a scalar, else an array.

    Exact: ``fmod`` is exact, and so is each 2 pi correction of a remainder
    at least pi in magnitude (Sterbenz), so this equals the IEEE-remainder
    form ``math.remainder(angle, 2 pi)`` bit for bit, -pi mapped to pi.
    """
    two_pi = 2.0 * math.pi
    wrapped = np.fmod(angle, two_pi)
    wrapped = np.where(wrapped > math.pi, wrapped - two_pi, wrapped)
    wrapped = np.where(wrapped <= -math.pi, wrapped + two_pi, wrapped)
    return float(wrapped) if wrapped.ndim == 0 else wrapped


def dot2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products a0 b0 + a1 b1 of stacked 2-vectors, broadcast; equals
    ``einsum("...i,...i->...", a, b)`` bit for bit, faster on large stacks."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def matvec2(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked 2x2 matrices (..., 2, 2) times 2-vectors (..., 2), broadcast;
    equals ``einsum("...ij,...j->...i", m, v)`` bit for bit."""
    return m[..., 0] * v[..., None, 0] + m[..., 1] * v[..., None, 1]


def rotation_matrix(angle: float | np.ndarray) -> np.ndarray:
    """2x2 counterclockwise rotation matrix; (..., 2, 2) for an array of angles."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.empty(np.shape(angle) + (2, 2))
    rot[..., 0, 0], rot[..., 0, 1], rot[..., 1, 0], rot[..., 1, 1] = c, -s, s, c
    return rot


def _as_vec2(value, name: str) -> np.ndarray:
    """A finite 2-vector, or a (..., 2) stack of them."""
    vec = np.asarray(value, dtype=float)
    if vec.shape[-1:] != (2,):
        raise ValueError(f"{name} must be a 2-vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} must be finite, got {vec}")
    return vec


class SurfaceMap:
    """Collection of S reflecting surfaces, each stored as its origin-mirror point.

    ``points`` is (S, 2), or (..., S, 2) for one map per entry of a batch
    (per Monte-Carlo run estimates); every stack below then carries the same
    leading axes.
    """

    # A point beyond the square root of the float range overflows its squares;
    # the truth pass reports the distance that gives.
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[-1] != 2:
            raise ValueError(f"surface map must be (S, 2), got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("surface points must be finite")
        sq = dot2(pts, pts)
        through_origin = np.sqrt(sq) <= DEGENERACY_EPS  # the norm, bit for bit
        if through_origin.any():
            raise ValueError(f"surface {np.argwhere(through_origin)[0, -1] + 1} passes "
                             "through the origin and is not representable")
        self._points = pts
        # Stacks indexed by the 1-based surface number; entry 0 is the identity
        # mirror (H = I, p = 0, unit norm) that stands for "no bounce".
        padded = pts.shape[:-2] + (pts.shape[-2] + 1,)
        self.householders = np.empty(padded + (2, 2))
        self.householders[..., 0, :, :] = np.eye(2)
        self.householders[..., 1:, :, :] = np.eye(2) - (2.0 / sq)[..., None, None] * (
            pts[..., :, None] * pts[..., None, :])
        self.padded_points = np.zeros(padded + (2,))
        self.padded_points[..., 1:, :] = pts
        self.sq_norms = np.ones(padded)
        self.sq_norms[..., 1:] = sq

    def __len__(self) -> int:
        return self._points.shape[-2]

    @property
    def points(self) -> np.ndarray:
        """All surface points as an (..., S, 2) array (read-only view)."""
        view = self._points.view()
        view.flags.writeable = False
        return view


@dataclass
class Anchor:
    """Fixed transceiver with known position, orientation and array aperture;
    a stack of n anchors (one per path) holds (n, 2) and (n,) arrays."""

    position: np.ndarray
    orientation: float | np.ndarray = 0.0
    aperture: "ApertureModel | None" = None

    def __post_init__(self):
        self.position = _as_vec2(self.position, "anchor position")
        orientation = np.asarray(self.orientation, dtype=float)
        if self.position.ndim > 2 or self.position.shape != orientation.shape + (2,):
            raise ValueError("anchor position and orientation shapes differ")
        if not np.all(np.isfinite(orientation)):
            raise ValueError("anchor orientation must be finite")
        self.orientation = wrap_angle(orientation)


@dataclass
class AgentPose:
    """Kinematic agent state: position, velocity and heading offset.

    The fields may carry leading batch axes, one pose per Monte-Carlo run
    or per step: position and velocity (..., 2), orientation (...). An
    unbatched orientation is a float.
    """

    position: np.ndarray
    velocity: np.ndarray
    orientation: float | np.ndarray = 0.0

    def __post_init__(self):
        self.position = _as_vec2(self.position, "agent position")
        self.velocity = _as_vec2(self.velocity, "agent velocity")
        orientation = np.asarray(self.orientation, dtype=float)
        if not self.velocity.shape == self.position.shape == orientation.shape + (2,):
            raise ValueError("agent position, velocity and orientation batch shapes differ")
        if not np.all(np.isfinite(orientation)):
            raise ValueError("agent orientation must be finite")
        self.orientation = wrap_angle(orientation)

    def as_state(self) -> np.ndarray:
        """(..., 5) state [px, py, vx, vy, orientation]."""
        orientation = np.asarray(self.orientation)[..., None]
        return np.concatenate([self.position, self.velocity, orientation], axis=-1)

    @classmethod
    def from_state(cls, state: np.ndarray) -> "AgentPose":
        state = np.asarray(state, dtype=float)
        return cls(position=state[..., 0:2], velocity=state[..., 2:4], orientation=state[..., 4])


def joint_state(pose: AgentPose, surfaces: SurfaceMap) -> np.ndarray:
    """Joint state vector: the pose's (x, y, vx, vy, orientation), then the
    surface points in order."""
    return np.concatenate([pose.as_state(), surfaces.points.ravel()])


@dataclass(frozen=True)
class PathComponent:
    """A propagation path, identified by its sequence of reflecting surfaces.

    ``bounces`` lists the reflecting surfaces transmit side first:
    ``()`` is the direct line-of-sight path, ``(s,)`` a single bounce at
    surface s, ``(s, s2)`` a double bounce hitting s first (anchor side)
    and s2 second (agent side). Whether a component is visible and how
    strong it is are set by the scenario's schedule and amplitude model.
    """

    bounces: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.bounces) > 2:
            raise ValueError("at most two bounces are supported")
        if any(int(s) < 1 for s in self.bounces):
            raise ValueError("surface indices are 1-based")
        if len(self.bounces) == 2 and self.bounces[0] == self.bounces[1]:
            raise ValueError("double bounce requires two distinct surfaces")

    @classmethod
    def los(cls) -> "PathComponent":
        return cls(())

    @classmethod
    def single_bounce(cls, surface: int) -> "PathComponent":
        return cls((int(surface),))

    @classmethod
    def double_bounce(cls, first: int, second: int) -> "PathComponent":
        return cls((int(first), int(second)))

    @property
    def n_bounces(self) -> int:
        return len(self.bounces)

    @property
    def pair(self) -> tuple[int, int]:
        """(s, s') pair identity: (0, 0) for LOS, (s, s) for a single bounce."""
        if not self.bounces:
            return (0, 0)
        if len(self.bounces) == 1:
            return (self.bounces[0], self.bounces[0])
        return (self.bounces[0], self.bounces[1])


@dataclass(frozen=True)
class PathGeometry:
    """Stacked mirror geometry of n paths of one (agent, anchor) pair.

    :func:`path_geometry` takes path i as its first (anchor-side) and second
    (agent-side) bounce surface, 0 meaning no bounce: LOS is (0, 0) and a
    single bounce at s is (s, 0). Row i of each field belongs to path i;
    a batched agent pose and surface map add their leading axes in front.
    The agent rotation is evaluated once per pass and kept for the gradient.
    """

    anchor_once: np.ndarray  # (..., n, 2) anchor mirrored at the first bounce only
    agent_once: np.ndarray  # (..., n, 2) agent mirrored at the second bounce only
    va_to_agent: np.ndarray  # (..., n, 2) agent minus virtual anchor, global frame
    departure_local: np.ndarray  # (..., n, 2) mirrored agent minus anchor, anchor frame
    arrival_local: np.ndarray  # (..., n, 2) virtual anchor minus agent, agent frame
    chain: np.ndarray  # (..., n, 2, 2) H_second H_first: d(mirrored agent)^T / d(agent position)
    params: np.ndarray  # (..., n, 3) distance, arrival azimuth, departure azimuth
    degenerate: np.ndarray  # (..., n) bool: agent on the virtual anchor, params unusable
    agent_rotation: np.ndarray  # (..., 2, 2) agent frame to global frame


def path_geometry(agent: AgentPose, plan: "PathPlan", surfaces: SurfaceMap) -> PathGeometry:
    """Resolve the mirror geometry and channel parameters of n paths at once.

    The paths, with their bounce surfaces and anchor (shared, or one per
    path), are those of a :class:`~.fim.PathPlan`. The agent pose may carry
    leading batch axes (one entry per Monte-Carlo run or per step), and the
    surface map the same ones or none. Instead of raising, it flags as
    ``degenerate`` each path whose virtual-anchor-to-agent or
    anchor-to-mirrored-agent vector (global or local frame) is not longer
    than ``DEGENERACY_EPS``: the agent coincides with the path's virtual
    anchor.
    """
    houses, points = surfaces.householders, surfaces.padded_points
    first, second = plan.first, plan.second
    h1, h2 = houses[..., first, :, :], houses[..., second, :, :]
    p1, p2 = points[..., first, :], points[..., second, :]
    position, rot_anchor = plan.anchor_position, plan.anchor_rotation
    single = position.ndim == 1  # keeps the @ products, which round unlike matvec2
    anchor_once = (h1 @ position if single else matvec2(h1, position)) + p1
    # one agent position per batch entry, applied to each of its n paths
    agent_once = (h2 @ agent.position[..., None, :, None])[..., 0] + p2
    r = agent.position[..., None, :] - (matvec2(h2, anchor_once) + p2)
    r_t = matvec2(h1, agent_once) + p1 - position
    dep = r_t @ rot_anchor if single else matvec2(np.swapaxes(rot_anchor, -1, -2), r_t)
    rot_agent = rotation_matrix(agent.orientation)
    arr = -(r @ rot_agent)
    vecs = np.stack([r, r_t, dep, arr])
    lengths = np.sqrt(dot2(vecs, vecs))
    params = np.stack(
        [lengths[0], np.arctan2(arr[..., 1], arr[..., 0]), np.arctan2(dep[..., 1], dep[..., 0])],
        axis=-1,
    )
    return PathGeometry(anchor_once, agent_once, r, dep, arr, h2 @ h1, params,
                        (lengths <= DEGENERACY_EPS).any(axis=0), rot_agent)
