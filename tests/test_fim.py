"""Variance models, gradients, Jacobian blocks and snapshot information."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mpslam_bounds.checks import full_jacobian
from mpslam_bounds.fim import (
    SPEED_OF_LIGHT,
    ComponentOrder,
    IsotropicAperture,
    PathPlan,
    UniformLinearArray,
    ZeroApertureError,
    angle_variance,
    channel_fim,
    global_jacobian,
    global_snapshot_fim,
    measurement_variances,
    ranging_variance,
)
from mpslam_bounds.geometry import (
    AgentPose,
    Anchor,
    DegenerateGeometryError,
    PathComponent,
    SurfaceMap,
    wrap_angle,
)
from tests import reference_geometry as ref
from tests.reference_jacobian import azimuth_gradient, distance_gradient, loop_reference
from tests.test_geometry import random_geometry


def fd_channel_gradient(agent, anchor, path, surfaces, coord, step=1e-6):
    """Central difference of (distance, aoa, aod) w.r.t. one joint-state coord.

    coord: 0..1 agent position, 2 orientation, 3 + 2*(s-1) + axis surface point.
    """

    def evaluate(delta):
        position = agent.position.copy()
        orientation = agent.orientation
        pts = surfaces.points.copy()
        if coord < 2:
            position[coord] += delta
        elif coord == 2:
            orientation += delta
        else:
            s, axis = divmod(coord - 3, 2)
            pts[s, axis] += delta
        pose = AgentPose(position=position, velocity=agent.velocity,
                         orientation=orientation)
        return ref.channel_params(pose, anchor, path, SurfaceMap(pts)).as_array()

    base = (agent.position[coord] if coord < 2
            else agent.orientation if coord == 2
            else surfaces.points[(coord - 3) // 2, (coord - 3) % 2])
    h = step * max(1.0, abs(base))
    diff = evaluate(h) - evaluate(-h)
    diff[1] = wrap_angle(diff[1])
    diff[2] = wrap_angle(diff[2])
    return diff / (2.0 * h)


def compact_columns(order, components):
    """Columns of the listed components in a pass over all K components of
    ``order``: their distances, then arrival, then departure azimuths."""
    return np.add.outer([0, order.size, 2 * order.size], components).ravel()


def rel_err(analytic, numeric):
    scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-9)
    return np.linalg.norm(np.asarray(analytic) - np.asarray(numeric)) / scale


class TestVarianceModels:
    def test_doubling_amplitude_quarters_ranging_variance(self):
        assert ranging_variance(2.0, 1e8) == pytest.approx(ranging_variance(1.0, 1e8) / 4)

    def test_unit_ranging_variance(self):
        bandwidth = SPEED_OF_LIGHT / (math.sqrt(8.0) * math.pi)
        assert ranging_variance(1.0, bandwidth) == pytest.approx(1.0)

    def test_ranging_variance_decreases_monotonically(self):
        values = [ranging_variance(u, 1e8) for u in (1.0, 5.0, 50.0, 5000.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            ranging_variance(0.0, 1e8)
        with pytest.raises(ValueError):
            ranging_variance(1.0, 0.0)
        with pytest.raises(ValueError):
            angle_variance(-1.0, 1e9, 0.01)

    def test_doubling_carrier_quarters_angle_variance(self):
        assert angle_variance(1.0, 2e9, 0.01) == pytest.approx(
            angle_variance(1.0, 1e9, 0.01) / 4
        )

    def test_angle_variance_by_direct_substitution(self):
        # c / f_c = 2 pi D  =>  variance = 1/2
        d_squared = 0.01
        carrier = SPEED_OF_LIGHT / (2.0 * math.pi * math.sqrt(d_squared))
        assert angle_variance(1.0, carrier, d_squared) == pytest.approx(0.5)

    def test_zero_aperture_raises(self):
        with pytest.raises(ZeroApertureError):
            angle_variance(1.0, 1e9, 1e-20)

    def test_ula_aperture_zero_at_endfire(self):
        ula = UniformLinearArray(num_elements=8, element_spacing=0.05, broadside=0.0)
        assert ula.squared_aperture(math.pi / 2) == pytest.approx(0.0, abs=1e-30)
        peak = ula.squared_aperture(0.0)
        assert peak == pytest.approx(0.05**2 * 8 * 63 / 12)

    def test_isotropic_aperture_direction_independent(self):
        iso = IsotropicAperture(0.02)
        assert iso.squared_aperture(0.3) == iso.squared_aperture(-2.0) == 0.02


class TestComponentOrder:
    def test_canonical_layout(self):
        order = ComponentOrder.canonical(2)
        pairs = [c.pair for c in order]
        assert pairs == [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)]
        assert order.size == 5
        assert order.dim == 15

    def test_index_maps_partition_blocks(self):
        # a channel pass over n listed paths puts path i's distance, arrival
        # and departure entries at i, n + i and 2n + i
        assert channel_fim([(1.0, 0.5, 0.25)]).tolist() == [1.0, 2.0, 4.0]
        assert channel_fim([(1.0, 0.5, 0.25), (2.0, 4.0, 8.0)]).tolist() == [
            1.0, 0.5, 2.0, 0.25, 4.0, 0.125]

    def test_duplicate_components_rejected(self):
        with pytest.raises(ValueError):
            ComponentOrder([PathComponent.los(), PathComponent.los()])


class TestGradients:
    def test_azimuth_gradient_axis_cases(self):
        np.testing.assert_allclose(azimuth_gradient([1.0, 0.0]), [0.0, 1.0])
        np.testing.assert_allclose(azimuth_gradient([0.0, 2.0]), [-0.5, 0.0])

    def test_azimuth_gradient_matches_finite_difference(self):
        r = np.array([3.0, 4.0])
        h = 1e-7
        numeric = np.array([
            (math.atan2(4, 3 + h) - math.atan2(4, 3 - h)) / (2 * h),
            (math.atan2(4 + h, 3) - math.atan2(4 - h, 3)) / (2 * h),
        ])
        np.testing.assert_allclose(azimuth_gradient(r), numeric, atol=1e-7)

    def test_azimuth_gradient_orthogonal_with_inverse_norm(self):
        r = np.array([-2.0, 5.0])
        g = azimuth_gradient(r)
        assert g @ r == pytest.approx(0.0, abs=1e-15)
        assert np.linalg.norm(g) == pytest.approx(1.0 / np.linalg.norm(r))

    def test_distance_gradient_unit_vector(self):
        np.testing.assert_allclose(distance_gradient([3.0, 4.0]), [0.6, 0.8])
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = rng.uniform(-5, 5, size=2)
            if np.linalg.norm(r) > 0.1:
                assert np.linalg.norm(distance_gradient(r)) == pytest.approx(1.0)

    def test_distance_gradient_matches_finite_difference(self):
        r = np.array([-1.0, 2.0])
        h = 1e-7
        numeric = np.array([
            (np.linalg.norm([-1 + h, 2]) - np.linalg.norm([-1 - h, 2])) / (2 * h),
            (np.linalg.norm([-1, 2 + h]) - np.linalg.norm([-1, 2 - h])) / (2 * h),
        ])
        np.testing.assert_allclose(distance_gradient(r), numeric, atol=1e-7)

    def test_degenerate_at_origin(self):
        with pytest.raises(DegenerateGeometryError):
            azimuth_gradient([0.0, 0.0])
        with pytest.raises(DegenerateGeometryError):
            distance_gradient([1e-12, 0.0])


def path_columns(agent, anchor, path, surfaces):
    """(distance, arrival, departure) columns of global_jacobian for one path.

    Rows: position 0:2, velocity 2:4, orientation 4, surface s at 5 + 2*(s-1).
    """
    _, _, jac = global_jacobian(agent, PathPlan(ComponentOrder([path]), [0], anchor), surfaces)
    return jac[:, 0], jac[:, 1], jac[:, 2]


class TestMappingBlock:
    """Surface rows of the global_jacobian columns: the distance and arrival
    columns carry the virtual-anchor-to-agent block, the departure column
    the anchor-to-mirrored-agent block."""

    def test_los_block_is_zero(self):
        surfaces = SurfaceMap([[2.0, 0.0]])
        anchor = Anchor(position=[1.0, 1.0])
        agent = AgentPose(position=[3.0, 4.0], velocity=[0, 0], orientation=0.2)
        for col in path_columns(agent, anchor, PathComponent.los(), surfaces):
            np.testing.assert_array_equal(col[5:], 0.0)

    def test_single_bounce_block_with_anchor_at_origin(self):
        # the direct block is -I there: the arrival column's surface rows are
        # minus its position rows
        surfaces = SurfaceMap([[2.0, 0.0]])
        anchor = Anchor(position=[0.0, 0.0], orientation=0.3)
        agent = AgentPose(position=[0.5, 2.0], velocity=[0, 0], orientation=-0.4)
        _, aoa_col, _ = path_columns(agent, anchor, PathComponent.single_bounce(1), surfaces)
        np.testing.assert_allclose(aoa_col[5:7], -aoa_col[0:2], atol=1e-12)

    def test_uninvolved_surface_gives_zero_block(self):
        surfaces = SurfaceMap([[2.0, 0.0], [0.0, 3.0]])
        anchor = Anchor(position=[1.0, 0.5])
        agent = AgentPose(position=[-0.5, 1.5], velocity=[0, 0])
        for col in path_columns(agent, anchor, PathComponent.single_bounce(1), surfaces):
            np.testing.assert_array_equal(col[7:9], 0.0)
            assert col[5:7].any()

    def test_blocks_match_finite_differences_of_direct_vector(self):
        """Distance and arrival surface rows vs FD, all bounce positions."""
        rng = np.random.default_rng(29)
        for _ in range(30):
            agent, anchor, surfaces, paths = random_geometry(rng, 2)
            for path in paths:
                dist_col, aoa_col, _ = path_columns(agent, anchor, path, surfaces)
                for s in path.bounces:
                    for axis in (0, 1):
                        coord = 3 + 2 * (s - 1) + axis
                        fd = fd_channel_gradient(agent, anchor, path, surfaces, coord)
                        row = 5 + 2 * (s - 1) + axis
                        assert abs(dist_col[row] - fd[0]) < 1e-6 * max(1, abs(fd[0]))
                        assert abs(aoa_col[row] - fd[1]) < 1e-6 * max(1, abs(fd[1]))

    def test_departure_blocks_match_finite_differences_of_mirrored_vector(self):
        """Departure surface rows vs FD, all bounce positions."""
        rng = np.random.default_rng(31)
        for _ in range(30):
            agent, anchor, surfaces, paths = random_geometry(rng, 2)
            for path in paths:
                _, _, aod_col = path_columns(agent, anchor, path, surfaces)
                for s in path.bounces:
                    for axis in (0, 1):
                        coord = 3 + 2 * (s - 1) + axis
                        fd = fd_channel_gradient(agent, anchor, path, surfaces, coord)
                        row = 5 + 2 * (s - 1) + axis
                        assert abs(aod_col[row] - fd[2]) < 1e-6 * max(1, abs(fd[2]))


class TestPositioningSubmatrices:
    """Position rows of the global_jacobian columns."""

    def test_los_distance_column_is_unit_direction(self):
        anchor = Anchor(position=[0.0, 0.0], orientation=0.0)
        agent = AgentPose(position=[3.0, 4.0], velocity=[0, 0], orientation=0.0)
        surfaces = SurfaceMap([[20.0, 0.0]])
        dist_col, aoa_col, _ = path_columns(agent, anchor, PathComponent.los(), surfaces)
        np.testing.assert_allclose(dist_col[0:2], [0.6, 0.8], atol=1e-12)
        assert np.linalg.norm(aoa_col[0:2]) == pytest.approx(1.0 / 5.0)

    def test_columns_match_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            agent, anchor, surfaces, paths = random_geometry(rng, 2)
            for path in paths:
                cols = path_columns(agent, anchor, path, surfaces)
                for coord in (0, 1):
                    fd = fd_channel_gradient(agent, anchor, path, surfaces, coord)
                    for i, col in enumerate(cols):
                        assert abs(col[coord] - fd[i]) < 1e-6 * max(1, abs(fd[i]))


class TestOrientationEntry:
    """Orientation row of the global_jacobian arrival columns."""

    def test_equals_minus_one_for_all_component_kinds(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            agent, anchor, surfaces, paths = random_geometry(rng, 3)
            order = ComponentOrder(paths)
            jac = full_jacobian(agent, anchor, order, surfaces)
            aoa_rows = jac[4, order.size:2 * order.size]
            assert np.max(np.abs(aoa_rows + 1.0)) < 1e-12


class TestMappingSubmatrices:
    def test_single_bounce_distance_column_with_anchor_at_origin(self):
        # the direct block is -I there, so the surface rows of the distance
        # column are minus its position rows
        anchor = Anchor(position=[0.0, 0.0], orientation=0.15)
        agent = AgentPose(position=[0.5, 2.0], velocity=[0, 0], orientation=-0.4)
        surfaces = SurfaceMap([[2.0, 0.0]])
        dist_col, _, _ = path_columns(agent, anchor, PathComponent.single_bounce(1), surfaces)
        np.testing.assert_allclose(dist_col[5:7], -dist_col[0:2], atol=1e-12)


def isotropic_variances(params, amplitudes, carrier_freq=6e9, rms_bandwidth=1e8):
    """(n, 3) variances of the given components under a 0.01 m^2 isotropic aperture."""
    aperture = IsotropicAperture(0.01)
    return measurement_variances(np.array([p.as_array() for p in params]), amplitudes,
                                 carrier_freq, rms_bandwidth, aperture, aperture)


class TestChannelFim:
    def _order2(self):
        return ComponentOrder([PathComponent.los(), PathComponent.single_bounce(1)])

    def test_existence_zeroing(self):
        # an absent path has infinite variances
        diag = channel_fim([(0.01, 0.04, 0.25), (np.inf, np.inf, np.inf)])
        # layout (distance | arrival | departure), n = 2: path 0 at 0, 2, 4
        np.testing.assert_allclose(diag[[0, 2, 4]], [100.0, 25.0, 4.0])
        np.testing.assert_array_equal(diag[[1, 3, 5]], 0.0)

    def test_all_absent_gives_zero_matrix(self):
        assert channel_fim(np.zeros((0, 3))).shape == (0,)
        np.testing.assert_array_equal(channel_fim(np.full((2, 3), np.inf)), np.zeros(6))

    def test_amplitude_scaling_is_quadratic(self):
        order = self._order2()
        surfaces = SurfaceMap([[2.0, 0.0]])
        anchor = Anchor(position=[0, 0])
        agent = AgentPose(position=[3, 4], velocity=[0, 0])
        params = [ref.channel_params(agent, anchor, c, surfaces) for c in order]
        base = channel_fim(isotropic_variances(params, [1.0, 2.0], 1e9))
        scaled = channel_fim(isotropic_variances(params, [3.0, 6.0], 1e9))
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)

    def test_one_triple_per_component_required(self):
        with pytest.raises(ValueError):
            channel_fim([(0.01, 0.04), (0.25, 0.01)])
        with pytest.raises(ValueError):
            channel_fim([0.01, 0.04, 0.25])


class TestGlobalJacobian:
    def _instance(self, seed=53, num_surfaces=2):
        rng = np.random.default_rng(seed)
        agent, anchor, surfaces, _ = random_geometry(rng, num_surfaces)
        return agent, anchor, surfaces, ComponentOrder.canonical(num_surfaces)

    def test_velocity_rows_are_zero(self):
        agent, anchor, surfaces, order = self._instance()
        jac = full_jacobian(agent, anchor, order, surfaces)
        np.testing.assert_allclose(jac[2:4, :], 0.0)

    def test_orientation_row_structure(self):
        agent, anchor, surfaces, order = self._instance()
        jac = full_jacobian(agent, anchor, order, surfaces)
        k_total = order.size
        np.testing.assert_allclose(jac[4, :k_total], 0.0)
        np.testing.assert_allclose(jac[4, 2 * k_total:], 0.0)
        np.testing.assert_allclose(jac[4, k_total:2 * k_total], -1.0, atol=1e-12)

    def test_los_only_leaves_surface_rows_zero(self):
        agent, anchor, surfaces, _ = self._instance(num_surfaces=1)
        order = ComponentOrder([PathComponent.los()])
        jac = full_jacobian(agent, anchor, order, surfaces)
        np.testing.assert_allclose(jac[5:, :], 0.0)

    def test_absent_components_get_zero_columns(self):
        """Listing all but one component gives the full gradient's columns
        of the listed ones, in the compact layout."""
        agent, anchor, surfaces, order = self._instance()
        present = [k for k in range(order.size) if k != 1]
        _, _, jac = global_jacobian(agent, PathPlan(order, present, anchor), surfaces)
        assert jac.shape == (5 + 2 * len(surfaces), 3 * len(present))
        full = full_jacobian(agent, anchor, order, surfaces)
        np.testing.assert_array_equal(jac, full[:, compact_columns(order, present)])


class TestSnapshotFim:
    def _terms(self, seed=59, num_surfaces=2, n_anchors=2):
        rng = np.random.default_rng(seed)
        agent, anchor, surfaces, _ = random_geometry(rng, num_surfaces)
        order = ComponentOrder.canonical(num_surfaces)
        anchors = [anchor]
        while len(anchors) < n_anchors:
            cand = Anchor(position=rng.uniform(-6, 6, size=2),
                          orientation=rng.uniform(-np.pi, np.pi))
            try:
                params = [ref.channel_params(agent, cand, c, surfaces) for c in order]
            except DegenerateGeometryError:
                continue
            if min(p.distance for p in params) > 0.5:
                anchors.append(cand)
        terms = []
        for a in anchors:
            params = [ref.channel_params(agent, a, c, surfaces) for c in order]
            variances = isotropic_variances(params, [2.0 / p.distance for p in params])
            jac = full_jacobian(agent, a, order, surfaces)
            terms.append((jac, channel_fim(variances)))
        return terms

    @staticmethod
    def side_by_side(terms):
        """One pass's (gradient, information) from several anchors' terms:
        their columns listed side by side."""
        return (np.concatenate([jac for jac, _ in terms], axis=-1),
                np.concatenate([lam for _, lam in terms]))

    def test_two_identical_anchors_double_the_information(self):
        terms = self._terms(n_anchors=1)
        single = global_snapshot_fim(*terms[0])
        double = global_snapshot_fim(*self.side_by_side(terms + terms))
        np.testing.assert_allclose(double, 2.0 * single, rtol=1e-12)

    def test_all_absent_gives_zero(self):
        terms = self._terms(n_anchors=1)
        jac, lam = terms[0]
        zero = global_snapshot_fim(np.zeros_like(jac), np.zeros_like(lam))
        np.testing.assert_allclose(zero, 0.0)

    def test_psd_and_anchor_increment_psd(self):
        terms = self._terms(n_anchors=2)
        one = global_snapshot_fim(*terms[0])
        both = global_snapshot_fim(*self.side_by_side(terms))
        for matrix in (one, both, both - one):
            eigs = np.linalg.eigvalsh(matrix)
            assert eigs[0] >= -1e-10 * max(matrix.trace(), 1.0)

    def test_enabling_a_component_adds_psd_information(self):
        rng = np.random.default_rng(61)
        agent, anchor, surfaces, _ = random_geometry(rng, 2)
        order = ComponentOrder.canonical(2)
        params = [ref.channel_params(agent, anchor, c, surfaces) for c in order]
        variances = isotropic_variances(params, [2.0 / p.distance for p in params])
        exist_off = np.ones(order.size, dtype=int)
        exist_off[2] = 0
        exist_on = np.ones(order.size, dtype=int)
        terms = []
        for exist in (exist_off, exist_on):
            present = np.flatnonzero(exist)
            _, _, jac = global_jacobian(agent, PathPlan(order, present, anchor), surfaces)
            lam = channel_fim(variances[present])
            terms.append(global_snapshot_fim(jac, lam))
        diff = terms[1] - terms[0]
        assert np.linalg.eigvalsh(diff)[0] >= -1e-10 * max(diff.trace(), 1.0)

    def test_dimension_mismatch_rejected(self):
        terms = self._terms(n_anchors=1)
        jac, lam = terms[0]
        with pytest.raises(ValueError):
            global_snapshot_fim(jac, lam[:-1])
        with pytest.raises(ValueError):
            global_snapshot_fim(jac, np.diag(lam))
        with pytest.raises(ValueError):
            global_snapshot_fim(jac[None], lam)  # a batched gradient needs batched information


def _coordinate(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


@st.composite
def rooms(draw):
    """Random room (S = 1..8), anchor, agent and visibility subset."""
    num_surfaces = draw(st.integers(1, 8))
    points = []
    for _ in range(num_surfaces):
        angle, radius = draw(_coordinate(np.pi)), draw(st.floats(1.5, 18.0))
        points.append([radius * math.cos(angle), radius * math.sin(angle)])
    anchor = Anchor(position=[draw(_coordinate(6.0)), draw(_coordinate(6.0))],
                    orientation=draw(_coordinate(np.pi)))
    agent = AgentPose(position=[draw(_coordinate(6.0)), draw(_coordinate(6.0))],
                      velocity=[0.0, 0.0], orientation=draw(_coordinate(np.pi)))
    order = ComponentOrder.canonical(num_surfaces)
    subset = draw(st.lists(st.booleans(), min_size=order.size, max_size=order.size))
    return agent, anchor, SurfaceMap(points), order, np.flatnonzero(subset)


def _seeded_room(visible):
    agent, anchor, surfaces, _ = random_geometry(np.random.default_rng(71), 3)
    return agent, anchor, surfaces, ComponentOrder.canonical(3), np.array(visible, dtype=int)


class TestBatchedPass:
    """The batched pass against the loop-form reference and the scalar
    geometry: H to 1e-12 of each column's largest entry, params to 1e-12
    absolute (azimuths compared on the circle)."""

    @settings(max_examples=120, deadline=None)
    @example(case=_seeded_room([]))
    @example(case=_seeded_room([0]))
    @given(case=rooms())
    def test_matches_loop_reference(self, case):
        agent, anchor, surfaces, order, visible = case
        try:
            ref_params, ref_jac = loop_reference(agent, anchor, order, surfaces, visible)
        except DegenerateGeometryError:
            assume(False)
        assume(np.all(ref_params[:, 0] > 1e-3))
        plan = PathPlan(order, visible, anchor)
        params, degenerate, jac = global_jacobian(agent, plan, surfaces)
        assert params.shape == (visible.size, 3) and not degenerate.any()
        ref_jac = ref_jac[:, compact_columns(order, visible)]
        assert np.all(np.abs(jac - ref_jac) <= 1e-12 * np.abs(ref_jac).max(axis=0))
        assert np.all(np.abs(params[:, 0] - ref_params[:, 0]) <= 1e-12)
        for angle, expected in zip(params[:, 1:].ravel(), ref_params[:, 1:].ravel()):
            assert abs(wrap_angle(angle - expected)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(case=rooms(), other=st.tuples(_coordinate(6.0), _coordinate(6.0), _coordinate(np.pi)),
           data=st.data())
    def test_paths_from_several_anchors_match_one_pass_per_anchor(self, case, other, data):
        """One pass over the paths of two anchors, each path leaving from its
        own anchor, for a batch of two poses, equals one pass per anchor laid
        side by side: the distances of both, then the arrivals, then the
        departures."""
        agent, anchor, surfaces, order, visible = case
        other = Anchor(position=other[:2], orientation=other[2])
        also = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=order.size,
                                                 max_size=order.size)))
        poses = AgentPose.from_state(np.stack([agent.as_state(), agent.as_state() + 0.25]))
        per_anchor = [global_jacobian(poses, PathPlan(order, ks, a), surfaces)
                      for a, ks in ((anchor, visible), (other, also))]
        assume(not any(degenerate.any() or (params[..., 0] < 1e-3).any()
                       for params, degenerate, _ in per_anchor))
        owner = np.repeat([0, 1], [visible.size, also.size])
        stack = Anchor(np.array([anchor.position, other.position])[owner],
                       np.array([anchor.orientation, other.orientation])[owner])
        params, degenerate, jac = global_jacobian(
            poses, PathPlan(order, np.concatenate([visible, also]), stack), surfaces)
        n_state = 5 + 2 * len(surfaces)
        expected = np.concatenate([j.reshape(2, n_state, 3, -1) for _, _, j in per_anchor],
                                  axis=-1).reshape(jac.shape)
        ref_params = np.concatenate([p for p, _, _ in per_anchor], axis=-2)
        assert not degenerate.any() and params.shape == ref_params.shape == (2, owner.size, 3)
        assert np.all(np.abs(jac - expected) <= 1e-12 * np.abs(expected).max(axis=-2)[:, None])
        assert np.all(np.abs(params[..., 0] - ref_params[..., 0]) <= 1e-12)
        assert np.all(np.abs(wrap_angle(params[..., 1:] - ref_params[..., 1:])) <= 1e-12)

    def test_stacked_anchor_shapes_must_agree(self):
        Anchor(position=np.zeros((3, 2)), orientation=np.zeros(3))
        for position, orientation in ((np.zeros((3, 2)), np.zeros(2)),
                                      (np.zeros((3, 2)), 0.0),
                                      (np.zeros((1, 3, 2)), np.zeros((1, 3)))):
            with pytest.raises(ValueError, match="shapes differ"):
                Anchor(position=position, orientation=orientation)

    @settings(max_examples=60, deadline=None)
    @given(case=rooms(), data=st.data())
    def test_agent_on_a_virtual_anchor_flags_only_that_component(self, case, data):
        _, anchor, surfaces, order, _ = case
        target = data.draw(st.integers(0, order.size - 1))
        on_target = ref.virtual_anchor(anchor, order.components[target], surfaces)
        agent = AgentPose(position=on_target, velocity=[0.0, 0.0],
                          orientation=data.draw(_coordinate(np.pi)))
        others = [c for k, c in enumerate(order) if k != target]
        try:
            assume(min((ref.channel_params(agent, anchor, c, surfaces).distance
                        for c in others), default=1.0) > 1e-6)
        except DegenerateGeometryError:
            assume(False)
        params, degenerate, jac = global_jacobian(
            agent, PathPlan(order, np.arange(order.size), anchor), surfaces)
        assert degenerate.tolist() == [k == target for k in range(order.size)]
        columns = [target, order.size + target, 2 * order.size + target]
        np.testing.assert_array_equal(jac[:, columns], 0.0)
        assert np.all(np.isfinite(jac))

    @settings(max_examples=80, deadline=None)
    @example(case=(AgentPose(position=[0.0, 0.0], velocity=[0.0, 0.0], orientation=0.3),
                   Anchor(position=[0.3, 0.3], orientation=0.7),
                   SurfaceMap([[10.0, 0.0], [0.0, 10.0], [-2.0, 0.0], [0.0, -2.0]]),
                   ComponentOrder.canonical(4), np.arange(17)), wall=(1, 1.25))
    @given(case=rooms(), wall=st.tuples(st.integers(1, 8), _coordinate(6.0)))
    def test_agent_on_a_wall_line_matches_the_scalar_oracle(self, case, wall):
        """Agent on the line of one wall (exactly on an axis-aligned wall such
        as the example's x = 5, to rounding elsewhere): the batched pass agrees
        with the scalar reference geometry and the loop-form gradient."""
        agent, anchor, surfaces, order, visible = case
        surface, along = 1 + (wall[0] - 1) % len(surfaces), wall[1]
        point = surfaces.points[surface - 1]
        # along the wall from the foot of the origin's normal
        direction = np.array([-point[1], point[0]]) / np.linalg.norm(point)
        agent = AgentPose(position=point / 2 + along * direction, velocity=[0.0, 0.0],
                          orientation=agent.orientation)
        if surface == 1 and np.array_equal(point, [10.0, 0.0]):
            assert agent.position.tolist() == [5.0, along]
        np.testing.assert_allclose(ref.mirror(surfaces, agent.position, surface),
                                   agent.position, atol=1e-12 * np.linalg.norm(point))
        try:
            ref_params, ref_jac = loop_reference(agent, anchor, order, surfaces, visible)
        except DegenerateGeometryError:
            assume(False)
        assume(np.all(ref_params[:, 0] > 1e-3))
        plan = PathPlan(order, visible, anchor)
        params, degenerate, jac = global_jacobian(agent, plan, surfaces)
        assert not degenerate.any()
        ref_jac = ref_jac[:, compact_columns(order, visible)]
        assert np.all(np.abs(jac - ref_jac) <= 1e-12 * np.abs(ref_jac).max(axis=0))
        assert np.all(np.abs(params[:, 0] - ref_params[:, 0]) <= 1e-12)
        for angle, expected in zip(params[:, 1:].ravel(), ref_params[:, 1:].ravel()):
            assert abs(wrap_angle(angle - expected)) <= 1e-12


def scalar_variances(u, aoa, aod, carrier_freq, rms_bandwidth, rx, tx):
    """The noise model written out for one component with Python floats."""

    def squared_aperture(aperture, azimuth):
        if isinstance(aperture, IsotropicAperture):
            return aperture.d_squared
        m = aperture.num_elements
        gain = m * (m * m - 1) / 12.0
        return (aperture.element_spacing * math.cos(azimuth - aperture.broadside)) ** 2 * gain

    c2 = SPEED_OF_LIGHT**2
    return (c2 / (8.0 * math.pi**2 * rms_bandwidth**2 * u**2),
            c2 / (8.0 * math.pi**2 * carrier_freq**2 * u**2 * squared_aperture(rx, aoa)),
            c2 / (8.0 * math.pi**2 * carrier_freq**2 * u**2 * squared_aperture(tx, aod)))


apertures = st.one_of(
    st.builds(IsotropicAperture, st.floats(1e-4, 0.1)),
    st.builds(UniformLinearArray, st.integers(2, 16), st.floats(0.005, 0.1),
              _coordinate(np.pi)),
)


class TestArrayNoiseModel:
    """measurement_variances over a batch against the scalar formula.

    numpy squares exactly while Python's ``x ** 2`` goes through libm pow,
    which is 1 ulp off for about 0.1% of inputs; each entry has up to two
    squared factors (the amplitude and a linear array's aperture), so the two
    may differ by a few ulp: allowed 4 * eps relative."""

    @settings(max_examples=150, deadline=None)
    @given(rx=apertures, tx=apertures, data=st.data(),
           n=st.integers(0, 12), carrier=st.floats(1e8, 1e11), bandwidth=st.floats(1e6, 1e9))
    def test_matches_the_scalar_formula(self, rx, tx, data, n, carrier, bandwidth):
        angle = _coordinate(np.pi)
        amplitudes = np.array(data.draw(st.lists(st.floats(1e-3, 1e4), min_size=n, max_size=n)))
        params = np.array(data.draw(st.lists(st.tuples(st.floats(0.1, 50.0), angle, angle),
                                             min_size=n, max_size=n))).reshape(n, 3)
        reference = [scalar_variances(u, aoa, aod, carrier, bandwidth, rx, tx)
                     for u, (_, aoa, aod) in zip(amplitudes.tolist(), params.tolist())]
        assume(all(min(v[1:]) < 1e300 for v in reference))  # far from endfire
        variances = measurement_variances(params, amplitudes, carrier, bandwidth, rx, tx)
        assert variances.shape == (n, 3)
        reference = np.array(reference).reshape(n, 3)
        assert np.all(np.abs(variances - reference) <= 4 * np.finfo(float).eps * reference)

    def test_endfire_names_the_first_endfire_component(self):
        ula = UniformLinearArray(num_elements=4, element_spacing=0.025)
        iso = IsotropicAperture(0.005)
        params = np.array([[2.0, 0.1, 0.2], [3.0, 0.3, math.pi / 2],
                           [4.0, 0.5, 0.6], [5.0, math.pi / 2, 0.7]])
        with pytest.raises(ZeroApertureError) as rx_side:
            measurement_variances(params, np.ones(4), 6e9, 2e8, ula, iso)
        assert rx_side.value.index == 3
        with pytest.raises(ZeroApertureError) as both_sides:
            measurement_variances(params, np.ones(4), 6e9, 2e8, ula, ula)
        assert both_sides.value.index == 1
