"""Fisher information assembly for the joint agent-plus-map state.

The joint state of dimension N = 5 + 2S stacks

    [agent position (2) | agent velocity (2) | agent orientation (1) |
     surface 1 point (2) | ... | surface S point (2)]

(0-based row indices: position 0:2, velocity 2:4, orientation 4, surface s
at 5 + 2*(s-1)). Each anchor observes, per path component, a distance, an
arrival azimuth (agent frame) and a departure azimuth (anchor frame); the
noise variances follow from the component amplitude, the signal bandwidth
and carrier, and the array apertures.

A channel pass lists n paths, each a component seen from its own anchor, in
the compact layout: the n distances, then the n arrival azimuths, then the n
departure azimuths (3n entries). Over those paths this module builds

* the gradient matrix ``H`` (N, 3n), column i the gradient of channel
  parameter i w.r.t. the joint state (:func:`global_jacobian`),
* the diagonal channel information ``lambda`` (3n), 1 / variance of each
  parameter and zero for an infinite one (:func:`channel_fim`),

and sums the snapshot information ``H diag(lambda) H^T`` over those 3n
columns (:func:`global_snapshot_fim`). The filter and the truth pass list
the same paths the same way: every path a step measures, all anchors at
once, anchors ascending. What a pass needs of its path list alone (bounce
indices, anchor rotations, gather and scatter indices) is a
:class:`PathPlan`, built once per distinct list.
Velocity rows are identically zero: a single snapshot carries no velocity
information. The orientation row is nonzero only in the arrival-azimuth
block, where every entry equals -1 in the plane.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import (
    EYE2,
    Anchor,
    _integer,
    dot2,
    matvec2,
    path_geometry,
    rotation_matrix,
)

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Maps (v_y, v_x) to (-v_y, v_x): the azimuth gradient direction of v.
_PERP = np.array([-1.0, 1.0])

# Squared apertures below this (m^2) make the angle variance blow up
# (array endfire): the truth pass fails a path that sees one.
ZERO_APERTURE_EPS = 1e-18


@dataclass(frozen=True)
class IsotropicAperture:
    """Direction-independent squared array aperture (m^2)."""

    d_squared: float

    def __post_init__(self):
        if not 0 < self.d_squared < math.inf:
            raise ValueError("squared aperture must be positive and finite")

    def squared_aperture(self, azimuth: float | np.ndarray) -> float | np.ndarray:
        return np.full(np.shape(azimuth), self.d_squared)


@dataclass(frozen=True)
class UniformLinearArray:
    """Uniform linear array with centered element coordinates.

    The squared aperture seen from azimuth psi is
    ``spacing^2 cos^2(psi - broadside) * M (M^2 - 1) / 12``; it vanishes at
    endfire, where angle measurements carry no information.
    """

    num_elements: int
    element_spacing: float
    broadside: float = 0.0
    gain: float = field(init=False, repr=False)  # M (M^2 - 1) / 12

    def __post_init__(self):
        if _integer(self.num_elements, "num_elements") < 2:
            raise ValueError("a linear array needs at least 2 elements")
        if not 0 < self.element_spacing < math.inf:
            raise ValueError("element spacing must be positive and finite")
        if not math.isfinite(self.broadside):
            raise ValueError("broadside must be finite")
        m = self.num_elements
        try:
            object.__setattr__(self, "gain", m * (m * m - 1) / 12.0)
        except OverflowError:  # an integer gain beyond the float range
            raise ValueError("num_elements is too large: its gain passes the float range") from None

    @np.errstate(over="ignore")  # an overflow gives inf, which the truth pass reports
    def squared_aperture(self, azimuth: float | np.ndarray) -> float | np.ndarray:
        return (self.element_spacing * np.cos(azimuth - self.broadside)) ** 2 * self.gain


ApertureModel = IsotropicAperture | UniformLinearArray

# Pure arithmetic: an overflow or a zero amplitude or aperture gives 0, inf or
# nan, with no warning; the truth pass judges every path it measures.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def measurement_variances(amplitudes: np.ndarray, squared_apertures: np.ndarray,
                          carrier_freq: float, rms_bandwidth: float) -> np.ndarray:
    """(distance, arrival-azimuth, departure-azimuth) variances of paths.

    ``amplitudes`` holds the paths' (..., n) amplitudes u and
    ``squared_apertures`` their (..., n, 2) squared apertures D^2 (m^2): the
    receive (agent) array's at the arrival azimuth, then the transmit
    (anchor) array's at the departure azimuth. Returns the (..., n, 3)
    variances: c^2 / (8 pi^2 beta^2 u^2) with beta the RMS bandwidth, then
    per azimuth c^2 / (8 pi^2 f_c^2 u^2 D^2) with f_c the carrier (Hz). The
    scenario's truth pass evaluates it once per pass at the true poses; the
    bound, the measurement generator and the estimator all read those values.
    """
    squared = np.asarray(amplitudes, dtype=float) ** 2
    scale = 8.0 * math.pi**2
    return np.concatenate(
        [(SPEED_OF_LIGHT**2 / (scale * np.float64(rms_bandwidth)**2 * squared))[..., None],
         SPEED_OF_LIGHT**2 / (scale * np.float64(carrier_freq)**2 * squared[..., None]
                              * squared_apertures)], axis=-1)


class ComponentOrder:
    """Canonical ordering of the path components observed by one anchor.

    Fixes the component set and the indices that visibility schedules, path
    plans and truth records use for it: component k bounces at surfaces
    ``first[k]`` (anchor side) and ``second[k]`` (agent side), 0 meaning no
    bounce (see :class:`~.geometry.PathGeometry`). A channel pass lays out
    only the paths it lists (see :func:`global_jacobian`), so no layout over
    all K components is ever formed. The canonical order is LOS first, then
    single bounces by ascending surface, then double bounces
    lexicographically by (first, second) surface. It is built once per
    surface count by :meth:`canonical` and shared, so its index arrays are
    read-only.
    """

    def __init__(self, num_surfaces: int):
        surfaces = range(1, num_surfaces + 1)
        padded = np.array([(0, 0)] + [(s, 0) for s in surfaces]
                          + list(itertools.permutations(surfaces, 2)), dtype=int)
        self.first, self.second = padded[:, 0], padded[:, 1]
        self.n_bounces = np.count_nonzero(padded, axis=1)
        self.size = len(padded)  # number of components K
        for index in (self.first, self.second, self.n_bounces):
            index.flags.writeable = False

    @classmethod
    @functools.cache
    def canonical(cls, num_surfaces: int) -> "ComponentOrder":
        """Full component set for S surfaces: LOS, S single, S(S-1) double bounces."""
        return cls(num_surfaces)

    def bounces(self, k: int) -> tuple[int, ...]:
        """Component k's bounce surfaces, anchor side first: () for LOS."""
        return tuple(int(s) for s in (self.first[k], self.second[k]) if s)

    def pair(self, k: int) -> tuple[int, int]:
        """Component k's [s, s'] identity: (0, 0) for LOS, (s, s) for a single bounce."""
        return int(self.first[k]), int(self.second[k] or self.first[k])


class PathPlan:
    """The estimate-independent part of a channel pass over n listed paths:
    path i is component ``components[i]`` of ``order``, seen from anchor
    ``owner[i]`` (0-based) of the sequence ``anchors``. It holds that
    address, the bounce index arrays, each path's anchor position and
    rotation matrix, the bounce surfaces stacked per slot (``slot``, from
    which a pass gathers each slot's Householders and points once; ``first``
    and ``second`` are its rows) and the flat gradient entries that the
    surface blocks scatter to (``scatter``). The truth pass builds one per
    step layout and keeps it in the layout's step records, and the filter
    linearizes through that same plan, so its arrays are read-only. Slot 0
    is a path's first (anchor-side) bounce, slot 1 its second; an empty
    slot (surface 0) scatters to two scratch rows before the state rows, so
    LOS columns have zero surface rows."""

    def __init__(self, order: ComponentOrder, owner: Sequence[int] | np.ndarray,
                 components: Sequence[int] | np.ndarray, anchors: Sequence[Anchor]):
        self.owner, self.components = np.array(owner, dtype=int), np.array(components, dtype=int)
        self.slot = np.stack([order.first[self.components], order.second[self.components]])
        self.first, self.second = self.slot
        self.anchor_position = np.array([anchor.position for anchor in anchors])[self.owner]
        self.anchor_rotation = rotation_matrix(
            np.array([anchor.orientation for anchor in anchors])[self.owner])
        # a pass's gradient has two scratch rows, then the state's: surface s
        # at rows 5 + 2s and 6 + 2s; entries of (3 blocks, slot, path, coordinate)
        n, rows = self.components.size, np.where(self.slot > 0, 5 + 2 * self.slot, 0)
        self.scatter = ((rows[None, :, :, None] + [0, 1]) * 3 * n
                        + np.arange(3 * n).reshape(3, 1, -1, 1))
        for index in vars(self).values():
            index.flags.writeable = False


# A degenerate path divides by a zero length, and the nan and inf it makes
# flow on until its columns are zeroed at the end; a pose or surface beyond
# the float range overflows, and the truth pass reports the distance it gives.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def global_jacobian(state: np.ndarray, plan: PathPlan,
                    surfaces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel parameters and their (N, 3n) gradient w.r.t. the joint state.

    Resolves the n paths of ``plan`` in one batched pass at the agent pose
    of ``state`` and the (S, 2) surface points ``surfaces``
    (:func:`~.geometry.path_geometry`); the state's own surface entries
    are not read, so a pose-only (..., 5) state serves. Returns their (n, 3)
    channel parameters, their degenerate-geometry mask and the compact
    gradient: columns i, n + i and 2n + i hold the gradients of path i's
    distance, arrival and departure azimuth, zero for a degenerate path. A
    batched state (one entry per Monte-Carlo run or per step of a truth
    pass) adds its leading axes to all three; the surface points are shared
    or batched alike, (..., S, 2) (per-run estimates).

    * Position rows: distance and departure azimuth flow through the
      mirrored-agent chain and the anchor rotation; the arrival azimuth
      flows directly through the agent rotation.
    * Velocity rows are identically zero.
    * Orientation row: (-r^T Rdot(orientation)) . grad atan2(arrival) with
      r the virtual-anchor-to-agent vector, which is -1 in the plane.
    * Surface rows: distance and arrival azimuth depend on a surface only
      through the virtual-anchor-to-agent vector, so their columns push the
      positioning gradient through that vector's 2x2 sensitivity block. The
      departure azimuth lives on the anchor-to-mirrored-agent vector, whose
      block has the same closed form with the anchor and agent roles
      swapped and the sign flipped. Each path has a first and a second
      bounce slot, scattered as the plan lays them out.
    """
    geo = path_geometry(state, plan, surfaces)
    n_state, n = 5 + 2 * surfaces.shape[-2], plan.components.size
    rot_anchor, rot_agent = plan.anchor_rotation, geo.agent_rotation
    dep, arr, batch = geo.departure_local, geo.arrival_local, geo.params.shape[:-2]
    # the vectors each gradient block acts on: the departure's unit vector,
    # the direct vector's, the arrival azimuth's column and the departure azimuth's
    vec = np.empty(batch + (4, n, 2))
    # grad ||v|| = v / ||v|| and grad atan2(v_y, v_x) = (-v_y, v_x) / ||v||^2
    np.divide(dep, geo.lengths[2][..., None], out=vec[..., 0, :, :])
    np.divide(geo.va_to_agent, geo.lengths[0][..., None], out=vec[..., 1, :, :])
    az_arr = arr[..., ::-1] * _PERP / geo.squared[3][..., None]
    # copied contiguous: a strided transpose makes one component round unlike several
    np.negative(az_arr @ rot_agent.swapaxes(-1, -2).copy(), out=vec[..., 2, :, :])
    np.divide(dep[..., ::-1] * _PERP, geo.squared[2][..., None], out=vec[..., 3, :, :])

    # The direct vector's source is the anchor folded over the bounces before
    # the slot, the mirrored vector's sink the agent folded over those after
    # it. Reflecting a source a about the slot's surface (point p, Householder
    # H) moves its vector by the gradient-layout block
    # 2 a p^T / ||p||^2 + 2 (a . p / ||p||^2) H - I; the later mirror, if any,
    # acts on each block through its Householder: the second bounce's on slot
    # 0's direct block, the first's on slot 1's mirrored one.
    sq = geo.sq_norms[..., None, :, :, None, None]
    outer = geo.ends[..., :, None] * geo.points[..., None, :, :, None, :]
    dot = (outer[..., 0, 0] + outer[..., 1, 1])[..., None, None]  # a . p as dot2 sums it
    blocks = (2.0 / sq) * outer + (2.0 * dot / sq) * geo.houses[..., None, :, :, :, :] - EYE2
    blocks[..., 0, 0, :, :, :] = blocks[..., 0, 0, :, :, :] @ geo.houses[..., 1, :, :, :]
    blocks[..., 1, 1, :, :, :] = blocks[..., 1, 1, :, :, :] @ geo.houses[..., 0, :, :, :]
    blocks[..., 1, :, :, :, :] = -blocks[..., 1, :, :, :, :] @ rot_anchor
    # each slot's block acts on its path's vectors: the direct one on two, the mirrored on one
    surface = matvec2(blocks.take([0, 0, 1], axis=-5), vec[..., 1:, None, :, :])

    # position rows: the chain through the anchor rotation carries the distance
    # and departure azimuth; the arrival azimuth's column is its own
    rows, transfer = np.empty(batch + (3, n, 2)), geo.chain @ rot_anchor
    matvec2(transfer[..., None, :, :, :], vec[..., ::3, :, :], out=rows[..., ::2, :, :])
    rows[..., 1, :, :] = vec[..., 2, :, :]
    jac = np.zeros(batch + (n_state + 2, 3 * n))  # two scratch rows, then the state's
    jac[..., 2:4, :] = rows.reshape(batch + (3 * n, 2)).swapaxes(-1, -2)
    # d rot / d angle: the rotation's second column, then its first negated
    rot_dot = rot_agent[..., ::-1] * _PERP[::-1]
    np.negative(dot2(geo.va_to_agent @ rot_dot, az_arr), out=jac[..., 6, n:2 * n])
    jac.reshape(batch + (-1,))[..., plan.scatter] = surface
    if geo.degenerate.any():
        jac = np.where(np.tile(geo.degenerate, 3)[..., None, :], 0.0, jac)
    return geo.params, geo.degenerate, jac[..., 2:, :]


def channel_fim(variances: np.ndarray) -> np.ndarray:
    """Diagonal channel information of n paths in the compact layout.

    Maps the paths' (..., n, 3) measurement variances (see
    :func:`measurement_variances`) to the (..., 3n) vector of 1 / variance,
    in the layout of :func:`global_jacobian`'s columns; an infinite
    variance (an absent path) gives exactly zero.
    """
    variances = np.asarray(variances, dtype=float)
    return 1.0 / variances.swapaxes(-1, -2).reshape(variances.shape[:-2] + (-1,))


def global_snapshot_fim(jac: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Snapshot information H diag(lambda) H^T of one channel pass: the
    (N, m) gradient ``jac`` and its length-m channel information ``lam``
    (:func:`global_jacobian`, :func:`channel_fim`), or (..., N, m) and
    (..., m) stacks, each entry with the bits of its unbatched call. Anchors
    add up as columns side by side in one pass. Symmetric PSD."""
    lam = np.asarray(lam, dtype=float)
    total = (jac * lam[..., None, :]) @ jac.swapaxes(-1, -2)
    return 0.5 * (total + total.swapaxes(-1, -2))
