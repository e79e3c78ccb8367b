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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    AgentPose,
    Anchor,
    PathComponent,
    SurfaceMap,
    dot2,
    matvec2,
    path_geometry,
    rotation_matrix,
)

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Maps (v_y, v_x) to (-v_y, v_x): the azimuth gradient direction of v.
_PERP = np.array([-1.0, 1.0])

# Squared apertures below this (m^2) make the angle variance blow up
# (array endfire); treat as no usable angle information.
ZERO_APERTURE_EPS = 1e-18


class ZeroApertureError(ValueError):
    """Squared array aperture vanished (endfire); angle variance undefined.

    ``index`` is the position, along the first axis, of the first endfire
    entry of an array evaluation (0 for a scalar one).
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class IsotropicAperture:
    """Direction-independent squared array aperture (m^2)."""

    d_squared: float

    def __post_init__(self):
        if not (self.d_squared > 0 and math.isfinite(self.d_squared)):
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

    def __post_init__(self):
        if self.num_elements < 2:
            raise ValueError("a linear array needs at least 2 elements")
        if not (self.element_spacing > 0 and math.isfinite(self.element_spacing)):
            raise ValueError("element spacing must be positive and finite")

    def squared_aperture(self, azimuth: float | np.ndarray) -> float | np.ndarray:
        m = self.num_elements
        gain = m * (m * m - 1) / 12.0
        return (self.element_spacing * np.cos(azimuth - self.broadside)) ** 2 * gain


ApertureModel = IsotropicAperture | UniformLinearArray

# The variance models below take scalars or arrays (broadcast elementwise). An
# overflow gives 0, inf or nan, with no warning; the truth pass reports it.


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def ranging_variance(amplitude: float | np.ndarray, rms_bandwidth: float) -> float | np.ndarray:
    """Distance measurement variance (m^2) at a given normalized amplitude.

    c^2 / (8 pi^2 beta^2 u^2) with beta the root-mean-square signal
    bandwidth in Hz and u the amplitude (square root of component SNR).
    """
    if not np.all(amplitude > 0):
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if not rms_bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {rms_bandwidth}")
    return SPEED_OF_LIGHT**2 / (8.0 * math.pi**2 * np.float64(rms_bandwidth)**2 * amplitude**2)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def angle_variance(
    amplitude: float | np.ndarray, carrier_freq: float, squared_aperture: float | np.ndarray
) -> float | np.ndarray:
    """Azimuth measurement variance (rad^2); same form for arrival and departure.

    c^2 / (8 pi^2 f_c^2 u^2 D^2) with D^2 the squared array aperture (m^2)
    evaluated at the relevant azimuth. Raises :class:`ZeroApertureError`
    near endfire (D^2 < 1e-18 m^2); callers must mark such components
    nonexistent or use an isotropic aperture.
    """
    if not np.all(amplitude > 0):
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if not carrier_freq > 0:
        raise ValueError(f"carrier frequency must be positive, got {carrier_freq}")
    squared = np.atleast_1d(squared_aperture)
    endfire = np.argwhere(squared < ZERO_APERTURE_EPS)
    if endfire.size:
        raise ZeroApertureError(
            f"squared aperture {squared[tuple(endfire[0])]} below {ZERO_APERTURE_EPS} m^2",
            int(endfire[0, 0]),
        )
    return SPEED_OF_LIGHT**2 / (
        8.0 * math.pi**2 * np.float64(carrier_freq)**2 * amplitude**2 * squared_aperture
    )


def measurement_variances(
    params: np.ndarray,
    amplitudes: np.ndarray,
    carrier_freq: float,
    rms_bandwidth: float,
    rx_aperture: ApertureModel,
    tx_aperture: ApertureModel,
) -> np.ndarray:
    """(distance, arrival-azimuth, departure-azimuth) variances of n components.

    ``params`` holds the components' (n, 3) channel parameters (distance,
    arrival azimuth, departure azimuth), ``amplitudes`` their (n,)
    amplitudes; returns the (n, 3) variances. The receive (agent) aperture
    is evaluated at the arrival azimuth, the transmit (anchor) aperture at
    the departure azimuth. An endfire aperture raises
    :class:`ZeroApertureError` whose ``index`` is the first such component.
    The scenario's truth pass evaluates it at the true poses, once per
    anchor of each step layout in a block of steps, on that anchor's
    visible (step, component) entries stacked as the n rows; the bound, the
    measurement generator and the estimator all read those values.
    """
    params = np.asarray(params, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    squared = np.stack([rx_aperture.squared_aperture(params[:, 1]),
                        tx_aperture.squared_aperture(params[:, 2])], axis=1)
    return np.concatenate([ranging_variance(amplitudes, rms_bandwidth)[:, None],
                           angle_variance(amplitudes[:, None], carrier_freq, squared)], axis=1)


class ComponentOrder:
    """Canonical ordering of the path components observed by one anchor.

    Fixes the component set and the indices that visibility schedules, path
    plans and anchor blocks use for it. A channel pass lays out only the
    paths it lists (see :func:`global_jacobian`), so no layout over all K
    components is ever formed. The canonical order is LOS first, then
    single bounces by ascending surface, then double bounces
    lexicographically by (first, second) surface.
    """

    def __init__(self, components: Sequence[PathComponent]):
        comps = tuple(
            c if isinstance(c, PathComponent) else PathComponent(tuple(c))
            for c in components
        )
        if not comps:
            raise ValueError("component order must not be empty")
        pairs = [c.pair for c in comps]
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate path components in order")
        self._components = comps
        # Bounce surfaces as index arrays (0 = no bounce), see geometry.PathGeometry.
        padded = np.array([c.bounces + (0,) * (2 - len(c.bounces)) for c in comps], dtype=int)
        self.first, self.second = padded[:, 0], padded[:, 1]
        self.n_bounces = np.count_nonzero(padded, axis=1)

    @classmethod
    def canonical(cls, num_surfaces: int) -> "ComponentOrder":
        """Full component set for S surfaces: LOS, S single, S(S-1) double bounces."""
        comps = [PathComponent.los()]
        comps += [PathComponent.single_bounce(s) for s in range(1, num_surfaces + 1)]
        comps += [
            PathComponent.double_bounce(s, s2)
            for s in range(1, num_surfaces + 1)
            for s2 in range(1, num_surfaces + 1)
            if s != s2
        ]
        return cls(comps)

    @property
    def components(self) -> tuple[PathComponent, ...]:
        return self._components

    @property
    def size(self) -> int:
        """Number of components K."""
        return len(self._components)

    @property
    def dim(self) -> int:
        """Stacked channel parameter dimension 3K."""
        return 3 * len(self._components)

    def __iter__(self):
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)


class PathPlan:
    """The estimate-independent part of a channel pass over n listed paths
    (components of ``order``, all seen from one anchor or each from its own,
    see :class:`~.geometry.Anchor`), built once per distinct list: the bounce
    index arrays, the anchor position(s) and rotation matrices, each bounce
    slot's Householder gather indices and the gradient's surface scatter rows
    and columns. Slot 0 is a path's first (anchor-side) bounce, slot 1 its
    second; an empty slot (surface 0) scatters to two scratch rows past the
    state rows, so LOS columns have zero surface rows."""

    def __init__(self, order: ComponentOrder, components: Sequence[int] | np.ndarray,
                 anchor: Anchor):
        self.components = np.asarray(components, dtype=int)
        self.first, self.second = order.first[self.components], order.second[self.components]
        self.anchor_position = anchor.position
        self.anchor_rotation = rotation_matrix(anchor.orientation)
        n = self.components.size
        self.slot, none = np.stack([self.first, self.second]), np.zeros(n, dtype=int)
        # the Householders after each slot: of the direct vector (its later
        # bounces) and of the mirrored one (its earlier bounces)
        self.direct_houses = np.stack([self.second, none])
        self.mirrored_houses = np.stack([none, self.first])
        # surface s has state rows 3 + 2s and 4 + 2s; -2 and -1 are the scratch rows
        self.rows = np.where(self.slot > 0, 3 + 2 * self.slot, -2)[None, :, :, None] + [0, 1]
        self.cols = np.arange(3 * n).reshape(3, 1, n, 1)


# A degenerate path divides by a zero length, and the nan and inf it makes
# flow on until its columns are zeroed at the end; a pose or surface beyond
# the float range overflows, and the truth pass reports the distance it gives.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def global_jacobian(agent: AgentPose, plan: PathPlan,
                    surfaces: SurfaceMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel parameters and their (N, 3n) gradient w.r.t. the joint state.

    Resolves the n paths of ``plan`` in one batched pass
    (:func:`~.geometry.path_geometry`). Returns their (n, 3) channel
    parameters, their degenerate-geometry mask and the compact gradient:
    columns i, n + i and 2n + i hold the gradients of path i's distance,
    arrival and departure azimuth, zero for a degenerate path. A batched
    agent pose (one entry per Monte-Carlo run or per step of a truth pass)
    adds its leading axes to all three; the surface map is shared or batched
    alike (per-run estimates, see :class:`~.geometry.SurfaceMap`).

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
    geo = path_geometry(agent, plan, surfaces)
    n_state, n = 5 + 2 * len(surfaces), plan.components.size
    rot_anchor, rot_agent = plan.anchor_rotation, geo.agent_rotation
    dep, arr = geo.departure_local, geo.arrival_local
    # grad ||v|| = v / ||v|| and grad atan2(v_y, v_x) = (-v_y, v_x) / ||v||^2
    dep_sq = dot2(dep, dep)[..., None]
    az_dep = dep[..., ::-1] * _PERP / dep_sq
    az_arr = arr[..., ::-1] * _PERP / dot2(arr, arr)[..., None]
    unit_dep = dep / np.sqrt(dep_sq)
    unit_r = geo.va_to_agent / geo.params[..., :1]
    transfer = geo.chain @ rot_anchor
    # copied contiguous: a strided transpose makes one component round unlike several
    aoa_col = -(az_arr @ np.swapaxes(rot_agent, -1, -2).copy())

    # The direct vector's source is the anchor folded over the bounces before
    # the slot, the mirrored vector's the agent folded over those after it;
    # the later mirrors act on each block through their Householders.
    batch = geo.params.shape[:-2]
    ends = np.empty(batch + (2, 2, n, 2))  # (direct source, mirrored sink) x slot
    ends[..., 0, 0, :, :], ends[..., 0, 1, :, :] = plan.anchor_position, geo.anchor_once
    ends[..., 1, 0, :, :], ends[..., 1, 1, :, :] = geo.agent_once, agent.position[..., None, :]
    blocks = _reflection_source_blocks(ends, plan.slot, surfaces)
    houses = surfaces.householders
    direct = blocks[..., 0, :, :, :, :] @ houses[..., plan.direct_houses, :, :]
    mirrored = -blocks[..., 1, :, :, :, :] @ houses[..., plan.mirrored_houses, :, :]
    mirrored = mirrored @ rot_anchor
    # each slot's block acts on its path's vector: the vectors gain the slot axis
    surface = np.stack([matvec2(direct, unit_r[..., None, :, :]),
                        matvec2(direct, aoa_col[..., None, :, :]),
                        matvec2(mirrored, az_dep[..., None, :, :])], axis=-4)

    jac = np.zeros(batch + (n_state + 2, 3 * n))
    for part, rows in enumerate((matvec2(transfer, unit_dep), aoa_col,
                                 matvec2(transfer, az_dep))):
        jac[..., 0:2, part * n:(part + 1) * n] = np.swapaxes(rows, -1, -2)
    # d rot / d angle: the rotation's second column, then its first negated
    rot_dot = np.stack([rot_agent[..., :, 1], -rot_agent[..., :, 0]], axis=-1)
    jac[..., 4, n:2 * n] = -dot2(geo.va_to_agent @ rot_dot, az_arr)
    jac[..., plan.rows, plan.cols] = surface
    if geo.degenerate.any():
        jac = np.where(np.tile(geo.degenerate, 3)[..., None, :], 0.0, jac)
    return geo.params, geo.degenerate, jac[..., :n_state, :]


def _reflection_source_blocks(
    source: np.ndarray, surface: np.ndarray, surfaces: SurfaceMap
) -> np.ndarray:
    """Sensitivity of the mirrored-source-to-agent vector to the surface point.

    Stacked gradient-layout 2x2 blocks for single reflections of ``source``
    (..., m, slot, n, 2) about ``surface`` (slot, n): 2 a p^T / ||p||^2 +
    2 (a . p / ||p||^2) H - I with a the source, p the surface point and H
    its Householder. A batched map's leading axes lead ``source`` as well.
    """
    point = surfaces.padded_points[..., None, surface, :]
    sq = surfaces.sq_norms[..., None, surface][..., None, None]
    outer = source[..., :, None] * point[..., None, :]
    dot = dot2(source, point)[..., None, None]
    return ((2.0 / sq) * outer + (2.0 * dot / sq) * surfaces.householders[..., None, surface, :, :]
            - np.eye(2))


def channel_fim(variances: np.ndarray) -> np.ndarray:
    """Diagonal channel information of n paths in the compact layout.

    Maps the paths' (..., n, 3) measurement variances (see
    :func:`measurement_variances`) to the (..., 3n) vector of 1 / variance,
    in the layout of :func:`global_jacobian`'s columns; an infinite
    variance (an absent path) gives exactly zero.
    """
    variances = np.asarray(variances, dtype=float)
    if variances.ndim < 2 or variances.shape[-1] != 3:
        raise ValueError("variances must hold one triple per listed path")
    return 1.0 / np.swapaxes(variances, -1, -2).reshape(variances.shape[:-2] + (-1,))


def global_snapshot_fim(jac: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Snapshot information H diag(lambda) H^T of one channel pass: the
    (N, m) gradient ``jac`` and its length-m channel information ``lam``
    (:func:`global_jacobian`, :func:`channel_fim`), or (..., N, m) and
    (..., m) stacks, each entry with the bits of its unbatched call. Anchors
    add up as columns side by side in one pass. Symmetric PSD."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != jac.shape[:-2] + jac.shape[-1:]:
        raise ValueError("channel information must hold one entry per gradient column")
    total = (jac * lam[..., None, :]) @ np.swapaxes(jac, -1, -2)
    return 0.5 * (total + np.swapaxes(total, -1, -2))
