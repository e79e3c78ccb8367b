"""Fisher information assembly for the joint agent-plus-map state.

The joint state of dimension N = 5 + 2S stacks

    [agent position (2) | agent velocity (2) | agent orientation (1) |
     surface 1 point (2) | ... | surface S point (2)]

(0-based row indices: position 0:2, velocity 2:4, orientation 4, surface s
at 5 + 2*(s-1)). Each anchor observes, per path component, a distance, an
arrival azimuth (agent frame) and a departure azimuth (anchor frame); the
noise variances follow from the component amplitude, the signal bandwidth
and carrier, and the array apertures. With K components per anchor, the
per-anchor channel parameter vector stacks the K distances, then the K
arrival azimuths, then the K departure azimuths (3K entries).

Per anchor j this module builds

* the diagonal channel information ``lambda_j`` (length 3K), built by
  :func:`channel_fim` from the measurement variances of the visible
  components: each entry is 1 / variance, and zero for an absent component,
* the gradient matrix ``H_j`` of shape (N, 3K) whose column i is the
  gradient of channel parameter i w.r.t. the joint state, built by
  :func:`global_jacobian` from already-resolved path geometries (it never
  resolves a path itself),

and accumulates the snapshot information ``sum_j H_j diag(lambda_j) H_j^T``.
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
    ChannelParams,
    DegenerateGeometryError,
    PathComponent,
    PathGeometry,
    SurfaceMap,
    path_geometry,  # noqa: F401  re-exported: resolves what global_jacobian takes
    rotation_matrix,
    rotation_matrix_derivative,
)

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Squared apertures below this (m^2) make the angle variance blow up
# (array endfire); treat as no usable angle information.
ZERO_APERTURE_EPS = 1e-18


class ZeroApertureError(ValueError):
    """Squared array aperture vanished (endfire); angle variance undefined."""


@dataclass(frozen=True)
class IsotropicAperture:
    """Direction-independent squared array aperture (m^2)."""

    d_squared: float

    def __post_init__(self):
        if not (self.d_squared > 0 and math.isfinite(self.d_squared)):
            raise ValueError("squared aperture must be positive and finite")

    def squared_aperture(self, azimuth: float) -> float:
        return self.d_squared


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

    def squared_aperture(self, azimuth: float) -> float:
        m = self.num_elements
        gain = m * (m * m - 1) / 12.0
        return (self.element_spacing * math.cos(azimuth - self.broadside)) ** 2 * gain


ApertureModel = IsotropicAperture | UniformLinearArray


def ranging_variance(amplitude: float, rms_bandwidth: float) -> float:
    """Distance measurement variance (m^2) at a given normalized amplitude.

    c^2 / (8 pi^2 beta^2 u^2) with beta the root-mean-square signal
    bandwidth in Hz and u the amplitude (square root of component SNR).
    """
    if not amplitude > 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if not rms_bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {rms_bandwidth}")
    return SPEED_OF_LIGHT**2 / (8.0 * math.pi**2 * rms_bandwidth**2 * amplitude**2)


def angle_variance(amplitude: float, carrier_freq: float, squared_aperture: float) -> float:
    """Azimuth measurement variance (rad^2); same form for arrival and departure.

    c^2 / (8 pi^2 f_c^2 u^2 D^2) with D^2 the squared array aperture (m^2)
    evaluated at the relevant azimuth. Raises :class:`ZeroApertureError`
    near endfire (D^2 < 1e-18 m^2); callers must mark such components
    nonexistent or use an isotropic aperture.
    """
    if not amplitude > 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if not carrier_freq > 0:
        raise ValueError(f"carrier frequency must be positive, got {carrier_freq}")
    if squared_aperture < ZERO_APERTURE_EPS:
        raise ZeroApertureError(
            f"squared aperture {squared_aperture} below {ZERO_APERTURE_EPS} m^2"
        )
    return SPEED_OF_LIGHT**2 / (
        8.0 * math.pi**2 * carrier_freq**2 * amplitude**2 * squared_aperture
    )


def measurement_variances(
    params: ChannelParams,
    amplitude: float,
    carrier_freq: float,
    rms_bandwidth: float,
    rx_aperture: ApertureModel,
    tx_aperture: ApertureModel,
) -> tuple[float, float, float]:
    """(distance, arrival-azimuth, departure-azimuth) variances of one component.

    The receive (agent) aperture is evaluated at the arrival azimuth, the
    transmit (anchor) aperture at the departure azimuth. The scenario's
    channel pass evaluates it once per visible path at the true pose; the
    bound, the measurement generator and the estimator all read that value.
    """
    var_d = ranging_variance(amplitude, rms_bandwidth)
    var_aoa = angle_variance(
        amplitude, carrier_freq, rx_aperture.squared_aperture(params.aoa)
    )
    var_aod = angle_variance(
        amplitude, carrier_freq, tx_aperture.squared_aperture(params.aod)
    )
    return var_d, var_aoa, var_aod


class ComponentOrder:
    """Canonical ordering of the path components observed by one anchor.

    Fixes the component set and the index maps into the stacked channel
    parameter vector: component k occupies entries k (distance), K + k
    (arrival azimuth) and 2K + k (departure azimuth). The canonical order is
    LOS first, then single bounces by ascending surface, then double bounces
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

    def dist_index(self, k: int) -> int:
        return k

    def aoa_index(self, k: int) -> int:
        return self.size + k

    def aod_index(self, k: int) -> int:
        return 2 * self.size + k

    def __iter__(self):
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)


def azimuth_gradient(r: np.ndarray) -> np.ndarray:
    """Gradient of atan2(r_y, r_x) w.r.t. r: (-r_y, r_x) / ||r||^2.

    Orthogonal to r with norm 1/||r||; degenerate at the origin.
    """
    r = np.asarray(r, dtype=float)
    sq = float(r @ r)
    if sq <= 1e-18:
        raise DegenerateGeometryError("azimuth gradient undefined at the origin")
    return np.array([-r[1], r[0]]) / sq


def distance_gradient(r: np.ndarray) -> np.ndarray:
    """Gradient of ||r|| w.r.t. r: the unit vector along r."""
    r = np.asarray(r, dtype=float)
    norm = float(np.linalg.norm(r))
    if norm <= 1e-9:
        raise DegenerateGeometryError("distance gradient undefined at the origin")
    return r / norm


def _reflection_source_block(
    source: np.ndarray, surfaces: SurfaceMap, surface: int
) -> np.ndarray:
    """Sensitivity of the mirrored-source-to-agent vector to the surface point.

    Gradient-layout 2x2 block for a single reflection of ``source`` about
    ``surface`` (1-based): 2 a p^T / ||p||^2 + 2 (a . p / ||p||^2) H - I with
    a the source position, p the surface point and H its Householder matrix.
    """
    p = surfaces.point(surface)
    sq = float(p @ p)
    return (
        (2.0 / sq) * np.outer(source, p)
        + (2.0 * float(source @ p) / sq) * surfaces.householder(surface)
        - np.eye(2)
    )


def global_jacobian(
    agent: AgentPose,
    anchor: Anchor,
    order: ComponentOrder,
    surfaces: SurfaceMap,
    geoms: Sequence[PathGeometry | None],
) -> np.ndarray:
    """Gradient matrix (N, 3K) of the channel parameters w.r.t. the joint state.

    ``geoms`` holds one resolved path geometry per component (see
    :func:`~.geometry.path_geometry`), ``None`` for an absent component,
    whose columns stay zero (its channel information is zero anyway).
    Column i holds the gradient of channel parameter i.

    * Position rows: distance and departure azimuth flow through the
      mirrored-agent chain and the anchor rotation; the arrival azimuth
      flows directly through the agent rotation.
    * Velocity rows are identically zero.
    * Orientation row: (-r^T Rdot(orientation)) . azimuth_gradient(arrival)
      with r the virtual-anchor-to-agent vector, which is -1 in the plane
      for every component kind.
    * Surface rows: distance and arrival azimuth depend on a surface only
      through the virtual-anchor-to-agent vector, so their columns push the
      positioning gradient through that vector's 2x2 sensitivity block. The
      departure azimuth lives on the anchor-to-mirrored-agent vector, whose
      block has the same closed form with the anchor and agent roles
      swapped and the sign flipped (the mirrored agent enters the vector
      with a plus). Moving a surface also rotates the mirror itself, so
      this block is not the direct one pushed through the reflection chain.
      LOS columns have zero surface rows.
    """
    jac = np.zeros((5 + 2 * len(surfaces), order.dim))
    rot_anchor = rotation_matrix(anchor.orientation)
    rot_agent = rotation_matrix(agent.orientation)
    rot_agent_dot = rotation_matrix_derivative(agent.orientation)
    for k, (comp, geom) in enumerate(zip(order, geoms)):
        if geom is None:
            continue
        i_d, i_aoa, i_aod = order.dist_index(k), order.aoa_index(k), order.aod_index(k)
        transfer = geom.chain @ rot_anchor
        az_departure = azimuth_gradient(geom.departure_local)
        az_arrival = azimuth_gradient(geom.arrival_local)
        aoa_col = -(rot_agent @ az_arrival)
        jac[0:2, i_d] = transfer @ distance_gradient(geom.departure_local)
        jac[0:2, i_aoa] = aoa_col
        jac[0:2, i_aod] = transfer @ az_departure
        jac[4, i_aoa] = -(geom.va_to_agent @ rot_agent_dot) @ az_arrival
        for i, s in enumerate(comp.bounces):
            # The direct vector's source is the anchor folded over the
            # anchor-side bounces before s, the mirrored vector's the agent
            # folded over the agent-side bounces after s; the later mirrors
            # act on each block through their Householder matrices.
            before, after = comp.bounces[:i], comp.bounces[i + 1 :]
            source, sink = anchor.position, agent.position
            for t in before:
                source = surfaces.mirror(source, t)
            for t in reversed(after):
                sink = surfaces.mirror(sink, t)
            direct = _reflection_source_block(source, surfaces, s)
            mirrored = -_reflection_source_block(sink, surfaces, s)
            for t in after:
                direct = direct @ surfaces.householder(t)
            for t in reversed(before):
                mirrored = mirrored @ surfaces.householder(t)
            row = 5 + 2 * (s - 1)
            jac[row : row + 2, i_d] = direct @ (geom.va_to_agent / geom.params.distance)
            jac[row : row + 2, i_aoa] = direct @ aoa_col
            jac[row : row + 2, i_aod] = mirrored @ rot_anchor @ az_departure
    return jac


def channel_fim(
    order: ComponentOrder,
    variances: Sequence[tuple[float, float, float] | None],
) -> np.ndarray:
    """Diagonal per-anchor channel information, returned as a length-3K vector.

    ``variances`` holds per component the (distance, arrival-azimuth,
    departure-azimuth) measurement variances (see
    :func:`measurement_variances`), ``None`` for an absent component. Each
    entry is 1 / variance; exactly zero for absent components.
    """
    if len(variances) != order.size:
        raise ValueError("variances must have length K")
    diag = np.zeros(order.dim)
    for k, triple in enumerate(variances):
        if triple is None:
            continue
        var_d, var_aoa, var_aod = triple
        diag[order.dist_index(k)] = 1.0 / var_d
        diag[order.aoa_index(k)] = 1.0 / var_aoa
        diag[order.aod_index(k)] = 1.0 / var_aod
    return diag


def global_snapshot_fim(
    anchor_terms: Sequence[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Accumulate the snapshot information sum_j H_j Lambda_j H_j^T.

    ``anchor_terms`` holds per anchor the (N, 3K) gradient matrix and the
    length-3K diagonal channel information. Anchors are summed in the given
    order so the floating point result is reproducible. Symmetric positive
    semidefinite.
    """
    if not anchor_terms:
        raise ValueError("at least one anchor term is required")
    dim_state = anchor_terms[0][0].shape[0]
    total = np.zeros((dim_state, dim_state))
    for jac, lam in anchor_terms:
        lam = np.asarray(lam, dtype=float)
        if jac.shape[0] != dim_state:
            raise ValueError("inconsistent state dimensions across anchors")
        if lam.shape != (jac.shape[1],):
            raise ValueError("channel information must be a length-3K vector")
        total += (jac * lam) @ jac.T
    return 0.5 * (total + total.T)
