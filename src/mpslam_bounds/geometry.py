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

Surfaces are a plain float array of their points: (S, 2), or (..., S, 2)
for a batch of estimates. :func:`path_geometry` is the one implementation
of that fold: it resolves many paths of one agent pose, each from its own
anchor, at once from the Householders it derives from those points,
gathered once per bounce slot, where surface 0 is the identity mirror that
stands for "no bounce". The channel pass (``fim.global_jacobian``) and the
self-check's finite differences both run on it.

Conventions
-----------
* Surfaces are indexed 1..S. A wall within half ``SURFACE_NORM_FLOOR`` of
  the origin is not representable; the scenario rejects one.
* A propagation path stores its bounce surfaces transmit side first: the
  first entry is the reflection adjacent to the anchor, the last the one
  adjacent to the agent.
* Angles live in (-pi, pi].

All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .fim import ApertureModel, PathPlan

# Direction vectors shorter than this are treated as degenerate geometry.
DEGENERACY_EPS = 1e-9
# A surface point no farther than this from the origin is not representable:
# the scenario refuses one, and the filter skips paths via such an estimate.
SURFACE_NORM_FLOOR = 1e-6


def read_only(value, dtype=float) -> np.ndarray:
    """A read-only array copy of ``value``; the caller's own array stays writable."""
    array = np.array(value, dtype=dtype)
    array.flags.writeable = False
    return array


def _integer(value, what: str):
    """``value``; ValueError naming ``what`` unless it is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


EYE2 = read_only(np.eye(2))  # shared: the identity of every 2x2 block formula


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


def matvec2(m: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stacked 2x2 matrices (..., 2, 2) times 2-vectors (..., 2), broadcast,
    into ``out`` if given; equals ``einsum("...ij,...j->...i", m, v)`` bit for bit."""
    return np.add(m[..., 0] * v[..., None, 0], m[..., 1] * v[..., None, 1], out=out)


def rotation_matrix(angle: float | np.ndarray) -> np.ndarray:
    """2x2 counterclockwise rotation matrix; (..., 2, 2) for an array of angles."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.empty(np.shape(angle) + (2, 2))
    rot[..., 0, 0], rot[..., 0, 1], rot[..., 1, 0], rot[..., 1, 1] = c, -s, s, c
    return rot


@dataclass(frozen=True, eq=False)
class Anchor:
    """Fixed transceiver with known position, orientation and array aperture."""

    position: np.ndarray
    orientation: float = 0.0
    aperture: "ApertureModel | None" = None

    def __post_init__(self):
        position = read_only(self.position)
        if position.shape != (2,) or not np.all(np.isfinite(position)):
            raise ValueError(f"anchor position must be a finite 2-vector, got {position}")
        orientation = np.asarray(self.orientation, dtype=float)
        if orientation.shape or not np.isfinite(orientation):
            raise ValueError(f"anchor orientation must be a finite number, got {orientation}")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "orientation", wrap_angle(orientation))


@dataclass(eq=False)
class PathGeometry:
    """Stacked mirror geometry of n paths of one agent pose, each from its own anchor.

    :func:`path_geometry` takes path i as its first (anchor-side) and second
    (agent-side) bounce surface, 0 meaning no bounce: LOS is (0, 0) and a
    single bounce at s is (s, 0). Row i of each field belongs to path i;
    a batched agent pose and surface points add their leading axes in front.
    What the gradient reuses is kept: the fold's end points, the agent
    rotation, each bounce slot's Householders, points and squared norms, the
    path vectors' squared lengths and lengths.
    """

    # (..., 2, 2, n, 2) per slot: the anchor folded over the bounces before it,
    ends: np.ndarray  # then the agent over those after it (each mirrored once or not at all)
    va_to_agent: np.ndarray  # (..., n, 2) agent minus virtual anchor, global frame
    departure_local: np.ndarray  # (..., n, 2) mirrored agent minus anchor, anchor frame
    arrival_local: np.ndarray  # (..., n, 2) virtual anchor minus agent, agent frame
    chain: np.ndarray  # (..., n, 2, 2) H_second H_first: d(mirrored agent)^T / d(agent position)
    params: np.ndarray  # (..., n, 3) distance, arrival azimuth, departure azimuth
    degenerate: np.ndarray  # (..., n) bool: agent on the virtual anchor, params unusable
    agent_rotation: np.ndarray  # (..., 2, 2) agent frame to global frame
    houses: np.ndarray  # (..., 2, n, 2, 2) Householders of each slot (first, second bounce)
    points: np.ndarray  # (..., 2, n, 2) surface points of each slot, zero for no bounce
    sq_norms: np.ndarray  # (..., 2, n) their squared norms, one for no bounce
    squared: np.ndarray  # (4, ..., n) squared lengths of path_geometry's r, r_t, dep, arr
    lengths: np.ndarray  # (4, ..., n) their lengths


def _mirrors(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householders, points and squared norms of the (..., S, 2) surface
    ``points``, indexed by the 1-based surface number: entry 0 is the
    identity mirror (H = I, p = 0, unit norm) that stands for "no bounce",
    its zero point making the Householder formula give I exactly."""
    padded = np.zeros(points.shape[:-2] + (points.shape[-2] + 1, 2))
    padded[..., 1:, :] = points
    outer = padded[..., :, None] * padded[..., None, :]
    sq = outer[..., 0, 0] + outer[..., 1, 1]  # dot2(padded, padded), bit for bit
    sq[..., 0] = 1.0
    return EYE2 - (2.0 / sq)[..., None, None] * outer, padded, sq


def path_geometry(state: np.ndarray, plan: "PathPlan", surfaces: np.ndarray) -> PathGeometry:
    """Resolve the mirror geometry and channel parameters of n paths at once.

    The paths, with their bounce surfaces and each one's anchor, are those
    of a :class:`~.fim.PathPlan`. The agent's position and orientation are
    entries 0:2 and 4 of ``state``, an (..., 5) pose state
    [px, py, vx, vy, orientation] or a joint state, finite and wrapped. Its
    leading axes batch the pass (one entry per Monte-Carlo run or per step),
    and the (..., S, 2) surface points carry the same ones or none. Instead of raising,
    it flags as ``degenerate`` each path whose virtual-anchor-to-agent or
    anchor-to-mirrored-agent vector (global or local frame) is not longer
    than ``DEGENERACY_EPS``: the agent coincides with the path's virtual
    anchor. A point beyond the square root of the float range overflows its
    squares, with a numpy warning unless run, as the channel pass
    (``fim.global_jacobian``) runs it, under ``np.errstate``; the truth pass
    reports the distance that gives.
    """
    houses, points, sq_norms = _mirrors(surfaces)
    houses, points = houses.take(plan.slot, axis=-3), points.take(plan.slot, axis=-2)
    h1, h2 = houses[..., 0, :, :, :], houses[..., 1, :, :, :]
    agent, position = state[..., 0:2], plan.anchor_position
    # one agent position per batch entry, applied to each of its n paths
    agent_once = (h2 @ agent[..., None, :, None])[..., 0] + points[..., 1, :, :]
    ends = np.empty(agent_once.shape[:-2] + (2, 2) + agent_once.shape[-2:])
    ends[..., 0, 0, :, :], ends[..., 1, 0, :, :], ends[..., 1, 1, :, :] = (
        position, agent_once, agent[..., None, :])
    np.add(matvec2(h1, position), points[..., 0, :, :], out=ends[..., 0, 1, :, :])
    # the second mirror of the anchor mirrored once, the first of the agent mirrored once
    once = ends.reshape(ends.shape[:-4] + (4,) + ends.shape[-2:])[..., 1:3, :, :]
    folded = matvec2(houses[..., ::-1, :, :, :], once) + points[..., ::-1, :, :]
    r, r_t, dep, arr = vecs = np.empty((4,) + agent_once.shape)
    np.subtract(agent[..., None, :], folded[..., 0, :, :], out=r)
    np.subtract(folded[..., 1, :, :], position, out=r_t)
    matvec2(plan.anchor_rotation.swapaxes(-1, -2), r_t, out=dep)
    # copied contiguous: numpy may run sin and cos through another loop on strides
    rot_agent = rotation_matrix(state[..., 4].copy())
    np.negative(r @ rot_agent, out=arr)
    squared = dot2(vecs, vecs)
    lengths = np.sqrt(squared)
    params = np.empty(r.shape[:-1] + (3,))
    params[..., 0] = lengths[0]
    np.arctan2(arr[..., 1], arr[..., 0], out=params[..., 1])
    np.arctan2(dep[..., 1], dep[..., 0], out=params[..., 2])
    return PathGeometry(ends, r, dep, arr, h2 @ h1, params,
                        (lengths <= DEGENERACY_EPS).any(axis=0), rot_agent, houses, points,
                        sq_norms.take(plan.slot, axis=-1), squared, lengths)
