"""Noise model, gradients, Jacobian blocks and snapshot information."""

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
    channel_fim,
    global_jacobian,
    global_snapshot_fim,
    measurement_variances,
)
from mpslam_bounds.geometry import (
    Anchor,
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
        state = agent.copy()
        pts = surfaces.copy()
        if coord < 2:
            state[coord] += delta
        elif coord == 2:
            state[4] = wrap_angle(state[4] + delta)
        else:
            s, axis = divmod(coord - 3, 2)
            pts[s, axis] += delta
        return ref.channel_params(state, anchor, path, pts).as_array()

    base = (agent[coord] if coord < 2
            else agent[4] if coord == 2
            else surfaces[(coord - 3) // 2, (coord - 3) % 2])
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


def path_variances(amplitudes, carrier_freq=1e9, rms_bandwidth=1e8, squared_aperture=0.01):
    """(n, 3) variances of paths with the given amplitudes under one squared
    aperture at both arrays."""
    amplitudes = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    return measurement_variances(amplitudes, np.full(amplitudes.shape + (2,), squared_aperture),
                                 carrier_freq, rms_bandwidth)


class TestVarianceModels:
    def test_doubling_amplitude_quarters_ranging_variance(self):
        assert path_variances(2.0)[0, 0] == pytest.approx(path_variances(1.0)[0, 0] / 4)

    def test_unit_ranging_variance(self):
        bandwidth = SPEED_OF_LIGHT / (math.sqrt(8.0) * math.pi)
        assert path_variances(1.0, rms_bandwidth=bandwidth)[0, 0] == pytest.approx(1.0)

    def test_ranging_variance_decreases_monotonically(self):
        values = path_variances([1.0, 5.0, 50.0, 5000.0])[:, 0]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_doubling_carrier_quarters_angle_variance(self):
        assert path_variances(1.0, carrier_freq=2e9)[0, 1:] == pytest.approx(
            path_variances(1.0, carrier_freq=1e9)[0, 1:] / 4
        )

    def test_angle_variance_by_direct_substitution(self):
        # c / f_c = 2 pi D  =>  variance = 1/2, at either array
        d_squared = 0.01
        carrier = SPEED_OF_LIGHT / (2.0 * math.pi * math.sqrt(d_squared))
        assert path_variances(1.0, carrier, squared_aperture=d_squared)[0, 1:] == pytest.approx(
            [0.5, 0.5])

    def test_checks_nothing(self):
        """A zero amplitude or aperture gives an infinite variance and a nan
        input a nan one, with no warning and no error: the truth pass judges
        every path it measures."""
        variances = measurement_variances(np.array([0.0, 1.0, np.nan]),
                                          np.array([[0.01, 0.01], [0.0, 0.01], [0.01, 0.01]]),
                                          1e9, 1e8)
        assert np.isposinf(variances[0]).all() and np.isnan(variances[2]).all()
        assert np.isposinf(variances[1, 1]) and np.isfinite(variances[1, [0, 2]]).all()

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
        pairs = [order.pair(k) for k in range(order.size)]
        assert pairs == [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)]
        assert order.size == 5
        assert order.first.tolist() == [0, 1, 2, 1, 2]
        assert order.second.tolist() == [0, 0, 0, 2, 1]
        assert order.n_bounces.tolist() == [0, 1, 1, 2, 2]

    def test_index_maps_partition_blocks(self):
        # a channel pass over n listed paths puts path i's distance, arrival
        # and departure entries at i, n + i and 2n + i
        assert channel_fim([(1.0, 0.5, 0.25)]).tolist() == [1.0, 2.0, 4.0]
        assert channel_fim([(1.0, 0.5, 0.25), (2.0, 4.0, 8.0)]).tolist() == [
            1.0, 0.5, 2.0, 0.25, 4.0, 0.125]


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
        with pytest.raises(FloatingPointError):
            azimuth_gradient([0.0, 0.0])
        with pytest.raises(FloatingPointError):
            distance_gradient([1e-12, 0.0])


def path_columns(agent, anchor, path, surfaces):
    """(distance, arrival, departure) columns of global_jacobian for one path.

    Rows: position 0:2, velocity 2:4, orientation 4, surface s at 5 + 2*(s-1).
    """
    order = ComponentOrder.canonical(len(surfaces))
    plan = ref.lone_plan(order, [ref.canonical_index(order, path)], anchor)
    _, _, jac = global_jacobian(agent, plan, surfaces)
    return jac[:, 0], jac[:, 1], jac[:, 2]


class TestMappingBlock:
    """Surface rows of the global_jacobian columns: the distance and arrival
    columns carry the virtual-anchor-to-agent block, the departure column
    the anchor-to-mirrored-agent block."""

    def test_los_block_is_zero(self):
        surfaces = np.array([[2.0, 0.0]], dtype=float)
        anchor = Anchor(position=[1.0, 1.0])
        agent = ref.agent_state([3.0, 4.0], orientation=0.2)
        for col in path_columns(agent, anchor, (), surfaces):
            np.testing.assert_array_equal(col[5:], 0.0)

    def test_single_bounce_block_with_anchor_at_origin(self):
        # the direct block is -I there: the arrival column's surface rows are
        # minus its position rows
        surfaces = np.array([[2.0, 0.0]], dtype=float)
        anchor = Anchor(position=[0.0, 0.0], orientation=0.3)
        agent = ref.agent_state([0.5, 2.0], orientation=-0.4)
        _, aoa_col, _ = path_columns(agent, anchor, (1,), surfaces)
        np.testing.assert_allclose(aoa_col[5:7], -aoa_col[0:2], atol=1e-12)

    def test_uninvolved_surface_gives_zero_block(self):
        surfaces = np.array([[2.0, 0.0], [0.0, 3.0]], dtype=float)
        anchor = Anchor(position=[1.0, 0.5])
        agent = ref.agent_state([-0.5, 1.5])
        for col in path_columns(agent, anchor, (1,), surfaces):
            np.testing.assert_array_equal(col[7:9], 0.0)
            assert col[5:7].any()

    def test_blocks_match_finite_differences_of_direct_vector(self):
        """Distance and arrival surface rows vs FD, all bounce positions."""
        rng = np.random.default_rng(29)
        for _ in range(30):
            agent, anchor, surfaces, paths = random_geometry(rng, 2)
            for path in paths:
                dist_col, aoa_col, _ = path_columns(agent, anchor, path, surfaces)
                for s in path:
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
                for s in path:
                    for axis in (0, 1):
                        coord = 3 + 2 * (s - 1) + axis
                        fd = fd_channel_gradient(agent, anchor, path, surfaces, coord)
                        row = 5 + 2 * (s - 1) + axis
                        assert abs(aod_col[row] - fd[2]) < 1e-6 * max(1, abs(fd[2]))


class TestPositioningSubmatrices:
    """Position rows of the global_jacobian columns."""

    def test_los_distance_column_is_unit_direction(self):
        anchor = Anchor(position=[0.0, 0.0], orientation=0.0)
        agent = ref.agent_state([3.0, 4.0])
        surfaces = np.array([[20.0, 0.0]], dtype=float)
        dist_col, aoa_col, _ = path_columns(agent, anchor, (), surfaces)
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
            agent, anchor, surfaces, _ = random_geometry(rng, 3)
            order = ComponentOrder.canonical(3)
            jac = full_jacobian(agent, anchor, order, surfaces)
            aoa_rows = jac[4, order.size:2 * order.size]
            assert np.max(np.abs(aoa_rows + 1.0)) < 1e-12


class TestMappingSubmatrices:
    def test_single_bounce_distance_column_with_anchor_at_origin(self):
        # the direct block is -I there, so the surface rows of the distance
        # column are minus its position rows
        anchor = Anchor(position=[0.0, 0.0], orientation=0.15)
        agent = ref.agent_state([0.5, 2.0], orientation=-0.4)
        surfaces = np.array([[2.0, 0.0]], dtype=float)
        dist_col, _, _ = path_columns(agent, anchor, (1,), surfaces)
        np.testing.assert_allclose(dist_col[5:7], -dist_col[0:2], atol=1e-12)


def isotropic_variances(params, amplitudes, carrier_freq=6e9, rms_bandwidth=1e8):
    """(n, 3) variances of the given components under a 0.01 m^2 isotropic aperture."""
    return measurement_variances(amplitudes, np.full((len(params), 2), 0.01),
                                 carrier_freq, rms_bandwidth)


class TestChannelFim:
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
        surfaces = np.array([[2.0, 0.0]], dtype=float)
        anchor = Anchor(position=[0, 0])
        agent = ref.agent_state([3, 4])
        params = [ref.channel_params(agent, anchor, c, surfaces) for c in [(), (1,)]]
        base = channel_fim(isotropic_variances(params, [1.0, 2.0], 1e9))
        scaled = channel_fim(isotropic_variances(params, [3.0, 6.0], 1e9))
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)


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
        agent, anchor, surfaces, order = self._instance(num_surfaces=1)
        _, _, jac = global_jacobian(agent, ref.lone_plan(order, [0], anchor), surfaces)
        np.testing.assert_allclose(jac[5:, :], 0.0)

    def test_absent_components_get_zero_columns(self):
        """Listing all but one component gives the full gradient's columns
        of the listed ones, in the compact layout."""
        agent, anchor, surfaces, order = self._instance()
        present = [k for k in range(order.size) if k != 1]
        _, _, jac = global_jacobian(agent, ref.lone_plan(order, present, anchor), surfaces)
        assert jac.shape == (5 + 2 * len(surfaces), 3 * len(present))
        full = full_jacobian(agent, anchor, order, surfaces)
        np.testing.assert_array_equal(jac, full[:, compact_columns(order, present)])


class TestSnapshotFim:
    def _terms(self, seed=59, num_surfaces=2, n_anchors=2):
        rng = np.random.default_rng(seed)
        agent, anchor, surfaces, paths = random_geometry(rng, num_surfaces)
        order = ComponentOrder.canonical(num_surfaces)
        anchors = [anchor]
        while len(anchors) < n_anchors:
            cand = Anchor(position=rng.uniform(-6, 6, size=2),
                          orientation=rng.uniform(-np.pi, np.pi))
            try:
                params = [ref.channel_params(agent, cand, c, surfaces) for c in paths]
            except FloatingPointError:
                continue
            if min(p.distance for p in params) > 0.5:
                anchors.append(cand)
        terms = []
        for a in anchors:
            params = [ref.channel_params(agent, a, c, surfaces) for c in paths]
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
        agent, anchor, surfaces, paths = random_geometry(rng, 2)
        order = ComponentOrder.canonical(2)
        params = [ref.channel_params(agent, anchor, c, surfaces) for c in paths]
        variances = isotropic_variances(params, [2.0 / p.distance for p in params])
        exist_off = np.ones(order.size, dtype=int)
        exist_off[2] = 0
        exist_on = np.ones(order.size, dtype=int)
        terms = []
        for exist in (exist_off, exist_on):
            present = np.flatnonzero(exist)
            _, _, jac = global_jacobian(agent, ref.lone_plan(order, present, anchor),
                                        surfaces)
            lam = channel_fim(variances[present])
            terms.append(global_snapshot_fim(jac, lam))
        diff = terms[1] - terms[0]
        assert np.linalg.eigvalsh(diff)[0] >= -1e-10 * max(diff.trace(), 1.0)


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
    agent = ref.agent_state([draw(_coordinate(6.0)), draw(_coordinate(6.0))],
                            orientation=draw(_coordinate(np.pi)))
    order = ComponentOrder.canonical(num_surfaces)
    subset = draw(st.lists(st.booleans(), min_size=order.size, max_size=order.size))
    return agent, anchor, np.array(points, dtype=float), order, np.flatnonzero(subset)


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
        except FloatingPointError:
            assume(False)
        assume(np.all(ref_params[:, 0] > 1e-3))
        plan = ref.lone_plan(order, visible, anchor)
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
        poses = np.stack([agent, agent + 0.25])
        per_anchor = [global_jacobian(poses, ref.lone_plan(order, ks, a), surfaces)
                      for a, ks in ((anchor, visible), (other, also))]
        assume(not any(degenerate.any() or (params[..., 0] < 1e-3).any()
                       for params, degenerate, _ in per_anchor))
        owner = np.repeat([0, 1], [visible.size, also.size])
        params, degenerate, jac = global_jacobian(poses, PathPlan(
            order, owner, np.concatenate([visible, also]), [anchor, other]), surfaces)
        n_state = 5 + 2 * len(surfaces)
        expected = np.concatenate([j.reshape(2, n_state, 3, -1) for _, _, j in per_anchor],
                                  axis=-1).reshape(jac.shape)
        ref_params = np.concatenate([p for p, _, _ in per_anchor], axis=-2)
        assert not degenerate.any() and params.shape == ref_params.shape == (2, owner.size, 3)
        assert np.all(np.abs(jac - expected) <= 1e-12 * np.abs(expected).max(axis=-2)[:, None])
        assert np.all(np.abs(params[..., 0] - ref_params[..., 0]) <= 1e-12)
        assert np.all(np.abs(wrap_angle(params[..., 1:] - ref_params[..., 1:])) <= 1e-12)

    def test_stacked_anchor_is_rejected(self):
        """An anchor is one transceiver: a plan gathers the anchors of its
        paths by their indices, so a stacked position or orientation is refused."""
        for position, orientation, field in ((np.zeros((3, 2)), np.zeros(3), "position"),
                                             (np.zeros((3, 2)), 0.0, "position"),
                                             (np.zeros((1, 2)), 0.0, "position"),
                                             ([0.0, 0.0], np.zeros(3), "orientation"),
                                             ([0.0, 0.0], [0.3], "orientation")):
            with pytest.raises(ValueError, match=f"anchor {field} must be a"):
                Anchor(position=position, orientation=orientation)

    def test_plan_arrays_are_read_only(self):
        """One plan serves every step of its layout and the filter, so a
        write to any of its arrays raises rather than changing later passes;
        the plan keeps its own copy of the index arrays it was given."""
        owner, components = np.array([0, 1, 1]), np.array([0, 3, 4])
        plan = PathPlan(ComponentOrder.canonical(2), owner, components,
                        [Anchor([0.5, 0.0], 0.3), Anchor([-0.5, 1.0], -1.0)])
        names = ("owner", "components", "first", "second", "anchor_position",
                 "anchor_rotation", "slot", "scatter")
        assert sorted(vars(plan)) == sorted(names)
        for name in names:
            with pytest.raises(ValueError, match="read-only"):
                getattr(plan, name).flat[0] = 7
        owner[0] = components[0] = 1
        assert plan.owner.tolist() == [0, 1, 1] and plan.components.tolist() == [0, 3, 4]

    @settings(max_examples=60, deadline=None)
    @given(case=rooms(), data=st.data())
    def test_agent_on_a_virtual_anchor_flags_only_that_component(self, case, data):
        _, anchor, surfaces, order, _ = case
        target = data.draw(st.integers(0, order.size - 1))
        on_target = ref.virtual_anchor(anchor, order.bounces(target), surfaces)
        agent = ref.agent_state(on_target, orientation=data.draw(_coordinate(np.pi)))
        others = [order.bounces(k) for k in range(order.size) if k != target]
        try:
            assume(min((ref.channel_params(agent, anchor, c, surfaces).distance
                        for c in others), default=1.0) > 1e-6)
        except FloatingPointError:
            assume(False)
        params, degenerate, jac = global_jacobian(
            agent, ref.lone_plan(order, np.arange(order.size), anchor), surfaces)
        assert degenerate.tolist() == [k == target for k in range(order.size)]
        columns = [target, order.size + target, 2 * order.size + target]
        np.testing.assert_array_equal(jac[:, columns], 0.0)
        assert np.all(np.isfinite(jac))

    @settings(max_examples=80, deadline=None)
    @example(case=(ref.agent_state([0.0, 0.0], orientation=0.3),
                   Anchor(position=[0.3, 0.3], orientation=0.7),
                   np.array([[10.0, 0.0], [0.0, 10.0], [-2.0, 0.0], [0.0, -2.0]], dtype=float),
                   ComponentOrder.canonical(4), np.arange(17)), wall=(1, 1.25))
    @given(case=rooms(), wall=st.tuples(st.integers(1, 8), _coordinate(6.0)))
    def test_agent_on_a_wall_line_matches_the_scalar_oracle(self, case, wall):
        """Agent on the line of one wall (exactly on an axis-aligned wall such
        as the example's x = 5, to rounding elsewhere): the batched pass agrees
        with the scalar reference geometry and the loop-form gradient."""
        agent, anchor, surfaces, order, visible = case
        surface, along = 1 + (wall[0] - 1) % len(surfaces), wall[1]
        point = surfaces[surface - 1]
        # along the wall from the foot of the origin's normal
        direction = np.array([-point[1], point[0]]) / np.linalg.norm(point)
        agent = ref.agent_state(point / 2 + along * direction, orientation=agent[4])
        if surface == 1 and np.array_equal(point, [10.0, 0.0]):
            assert agent[0:2].tolist() == [5.0, along]
        np.testing.assert_allclose(ref.mirror(surfaces, agent[0:2], surface),
                                   agent[0:2], atol=1e-12 * np.linalg.norm(point))
        try:
            ref_params, ref_jac = loop_reference(agent, anchor, order, surfaces, visible)
        except FloatingPointError:
            assume(False)
        assume(np.all(ref_params[:, 0] > 1e-3))
        plan = ref.lone_plan(order, visible, anchor)
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
        squared = np.stack([rx.squared_aperture(params[:, 1]),
                            tx.squared_aperture(params[:, 2])], axis=-1)
        variances = measurement_variances(amplitudes, squared, carrier, bandwidth)
        assert variances.shape == (n, 3)
        reference = np.array(reference).reshape(n, 3)
        assert np.all(np.abs(variances - reference) <= 4 * np.finfo(float).eps * reference)
        # any leading shape: each entry keeps its bits
        stacked = measurement_variances(np.stack([amplitudes] * 2), np.stack([squared] * 2),
                                        carrier, bandwidth)
        assert stacked.shape == (2, n, 3) and (stacked == variances).all()
