"""Mirror geometry: rotations, reflections, virtual anchors, channel parameters.

The geometry facts are checked on the batched pass ``path_geometry``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpslam_bounds.checks import (
    all_paths,
    check_chain_fd,
    check_mirror_lengths,
    random_instance,
)
from mpslam_bounds.fim import ComponentOrder
from mpslam_bounds.geometry import (
    AgentPose,
    Anchor,
    PathComponent,
    SurfaceMap,
    rotation_matrix,
    wrap_angle,
)
from tests.reference_jacobian import rotation_matrix_derivative


def householder(surface_point):
    return SurfaceMap([surface_point]).householders[1]


def resolve(agent, anchor, paths, surfaces):
    """The batched pass over the given paths, in the given order."""
    return all_paths(agent, anchor, ComponentOrder(paths), surfaces)


def at(position, orientation=0.0):
    return AgentPose(position=position, velocity=[0.0, 0.0], orientation=orientation)


def mirror(surfaces, x, surface):
    """``x`` mirrored about one surface: an anchor at ``x`` mirrored at a first bounce."""
    geo = resolve(at([0.0, 0.0]), Anchor(position=x), [PathComponent.single_bounce(surface)],
                  surfaces)
    return geo.anchor_once[0]


def virtual_anchor(anchor, path, surfaces, agent=at([0.1, -0.3])):
    return agent.position - resolve(agent, anchor, [path], surfaces).va_to_agent[0]


def random_geometry(rng, num_surfaces):
    """Random nondegenerate instance; anchors/agents inside a disc, walls outside."""
    agent, anchor, surfaces, order = random_instance(rng, num_surfaces)
    return agent, anchor, surfaces, list(order)


def mirrored_agent(agent_position, path, surfaces, anchor=Anchor(position=[0.2, 0.7])):
    # the anchor is unrotated, so its frame is the global one
    geo = resolve(at(agent_position), anchor, [path], surfaces)
    return anchor.position + geo.departure_local[0]


class TestRotation:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(rotation_matrix(0.0), np.eye(2))

    def test_quarter_turn(self):
        np.testing.assert_allclose(
            rotation_matrix(np.pi / 2), [[0, -1], [1, 0]], atol=1e-15
        )

    def test_orthogonal_unit_determinant(self):
        r = rotation_matrix(0.3)
        np.testing.assert_allclose(r.T @ r, np.eye(2), atol=1e-15)
        assert np.linalg.det(r) == pytest.approx(1.0)

    def test_derivative_at_zero(self):
        np.testing.assert_allclose(rotation_matrix_derivative(0.0), [[0, -1], [1, 0]])

    def test_derivative_matches_finite_difference(self):
        phi, h = 0.7, 1e-6
        numeric = (rotation_matrix(phi + h) - rotation_matrix(phi - h)) / (2 * h)
        np.testing.assert_allclose(rotation_matrix_derivative(phi), numeric, atol=1e-8)

    def test_derivative_is_quarter_turn_ahead(self):
        phi = 1.1
        np.testing.assert_allclose(
            rotation_matrix_derivative(phi), rotation_matrix(phi + np.pi / 2), atol=1e-12
        )


class TestHouseholder:
    def test_axis_aligned_surface(self):
        np.testing.assert_allclose(householder([2.0, 0.0]), [[-1, 0], [0, 1]], atol=1e-15)

    def test_involution(self):
        h = householder([1.0, 3.0])
        np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-14)

    def test_flips_the_surface_point(self):
        p = np.array([1.0, 3.0])
        np.testing.assert_allclose(householder(p) @ p, -p, atol=1e-14)

    def test_symmetric_with_det_minus_one(self):
        h = householder([0.4, -2.2])
        np.testing.assert_allclose(h, h.T)
        assert np.linalg.det(h) == pytest.approx(-1.0)

    def test_surface_through_origin_rejected(self):
        with pytest.raises(ValueError):
            householder([0.0, 0.0])
        with pytest.raises(ValueError):
            SurfaceMap([[1.0, 1.0], [0.0, 0.0]])


class TestMirrorPoint:
    """One mirror of the batched pass about the wall x = 1 (surface point [2, 0])."""

    wall = SurfaceMap([[2.0, 0.0]])

    def test_origin_maps_to_surface_point(self):
        np.testing.assert_allclose(mirror(self.wall, [0.0, 0.0], 1), [2.0, 0.0])

    def test_point_on_surface_is_fixed(self):
        np.testing.assert_allclose(mirror(self.wall, [1.0, 1.0], 1), [1.0, 1.0])

    def test_reflect_across_vertical_line(self):
        np.testing.assert_allclose(mirror(self.wall, [0.0, 2.0], 1), [2.0, 2.0])

    def test_involution_on_random_points(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            surfaces = SurfaceMap([rng.uniform(0.5, 5.0, size=2)])
            x = rng.uniform(-5, 5, size=2)
            np.testing.assert_allclose(
                mirror(surfaces, mirror(surfaces, x, 1), 1), x, atol=1e-12
            )


class TestPathComponent:
    def test_bounce_sequences(self):
        assert PathComponent.los().bounces == ()
        assert PathComponent.single_bounce(3).bounces == (3,)
        assert PathComponent.double_bounce(1, 2).bounces == (1, 2)

    def test_double_bounce_needs_distinct_surfaces(self):
        with pytest.raises(ValueError):
            PathComponent.double_bounce(2, 2)

    def test_pair_identities(self):
        assert PathComponent.los().pair == (0, 0)
        assert PathComponent.single_bounce(2).pair == (2, 2)
        assert PathComponent.double_bounce(3, 1).pair == (3, 1)


class TestVirtualPoints:
    def test_virtual_anchor_of_los_is_the_anchor(self):
        anchor = Anchor(position=[1.0, -2.0])
        surfaces = SurfaceMap([[2.0, 0.0]])
        np.testing.assert_allclose(
            virtual_anchor(anchor, PathComponent.los(), surfaces), [1.0, -2.0]
        )

    def test_single_bounce_virtual_anchor_from_origin(self):
        anchor = Anchor(position=[0.0, 0.0])
        surfaces = SurfaceMap([[2.0, 0.0]])
        np.testing.assert_allclose(
            virtual_anchor(anchor, PathComponent.single_bounce(1), surfaces), [2.0, 0.0]
        )

    def test_double_bounce_virtual_anchor(self):
        anchor = Anchor(position=[0.0, 0.0])
        surfaces = SurfaceMap([[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            virtual_anchor(anchor, PathComponent.double_bounce(1, 2), surfaces),
            [2.0, 2.0],
        )

    def test_mirrored_agent_for_los_is_the_agent(self):
        surfaces = SurfaceMap([[2.0, 0.0]])
        np.testing.assert_allclose(
            mirrored_agent([3.0, 1.0], PathComponent.los(), surfaces), [3.0, 1.0]
        )

    def test_mirrored_agent_single_bounce(self):
        surfaces = SurfaceMap([[2.0, 0.0]])
        np.testing.assert_allclose(
            mirrored_agent([0.0, 2.0], PathComponent.single_bounce(1), surfaces),
            [2.0, 2.0],
        )

    def test_mirror_lengths_match_on_random_instances(self):
        assert check_mirror_lengths(np.random.default_rng(11), instances=200) == []


class TestHouseholderChain:
    def test_reduces_to_known_products(self):
        surfaces = SurfaceMap([[2.0, 0.0], [0.0, 2.0]])
        paths = [PathComponent.los(), PathComponent.single_bounce(1),
                 PathComponent.double_bounce(1, 2)]
        chain = resolve(at([0.5, 0.5]), Anchor(position=[-0.5, 0.2]), paths, surfaces).chain
        houses = surfaces.householders
        np.testing.assert_allclose(chain[0], np.eye(2))
        np.testing.assert_allclose(chain[1], houses[1])
        np.testing.assert_allclose(chain[2], houses[2] @ houses[1])

    def test_matches_finite_difference_of_mirrored_agent(self):
        assert check_chain_fd(np.random.default_rng(7), instances=40) == []

    def test_chain_maps_mirrored_vector_onto_direct_vector(self):
        rng = np.random.default_rng(19)
        agent, anchor, surfaces, paths = random_geometry(rng, 2)
        geo = resolve(agent, anchor, paths, surfaces)
        anchor_to_mirrored = geo.departure_local @ rotation_matrix(anchor.orientation).T
        np.testing.assert_allclose(
            np.einsum("nij,nj->ni", geo.chain, anchor_to_mirrored), geo.va_to_agent, atol=1e-10,
        )


def _line_through(surface_point):
    """(point-on-line, unit tangent) of the wall encoded by `surface_point`."""
    normal = surface_point / np.linalg.norm(surface_point)
    offset = np.linalg.norm(surface_point) / 2.0
    return offset * normal, np.array([-normal[1], normal[0]])


def _reflect_across_line(x, surface_point):
    normal = surface_point / np.linalg.norm(surface_point)
    offset = np.linalg.norm(surface_point) / 2.0
    return x - 2.0 * (x @ normal - offset) * normal


def _segment_line_crossing(a, b, surface_point):
    """Intersection of segment a-b with the wall line, or None."""
    base, tangent = _line_through(surface_point)
    normal = surface_point / np.linalg.norm(surface_point)
    da, db = (a - base) @ normal, (b - base) @ normal
    if da * db > 0:
        return None
    t = da / (da - db)
    return a + t * (b - a)


def channel_params(agent, anchor, path, surfaces):
    """(distance, arrival azimuth, departure azimuth) of one path."""
    return resolve(agent, anchor, [path], surfaces).params[0]


class TestChannelParams:
    def test_los_three_four_five(self):
        anchor = Anchor(position=[0.0, 0.0], orientation=0.0)
        agent = at([3.0, 4.0])
        distance, aoa, aod = channel_params(agent, anchor, PathComponent.los(),
                                            SurfaceMap([[9.0, 9.0]]))
        assert distance == pytest.approx(5.0)
        assert aod == pytest.approx(math.atan2(4, 3))
        assert aoa == pytest.approx(math.atan2(-4, -3))

    def test_single_bounce_on_vertical_wall(self):
        anchor = Anchor(position=[0.0, 0.0], orientation=0.0)
        agent = at([0.0, 2.0])
        surfaces = SurfaceMap([[2.0, 0.0]])
        distance, aoa, aod = channel_params(agent, anchor, PathComponent.single_bounce(1),
                                            surfaces)
        assert distance == pytest.approx(2.0 * math.sqrt(2.0))
        assert aod == pytest.approx(math.pi / 4)
        assert aoa == pytest.approx(-math.pi / 4)

    def test_agent_rotation_shifts_aoa_only(self):
        anchor = Anchor(position=[-1.0, 0.5], orientation=0.3)
        surfaces = SurfaceMap([[2.0, 0.0]])
        delta = 0.37
        base = at([1.0, 2.0], 0.2)
        rotated = at([1.0, 2.0], 0.2 + delta)
        for path in (PathComponent.los(), PathComponent.single_bounce(1)):
            d0, aoa0, aod0 = channel_params(base, anchor, path, surfaces)
            d1, aoa1, aod1 = channel_params(rotated, anchor, path, surfaces)
            assert wrap_angle(aoa1 - (aoa0 - delta)) == pytest.approx(0.0, abs=1e-12)
            assert aod1 == pytest.approx(aod0)
            assert d1 == pytest.approx(d0)

    def test_coincident_agent_and_virtual_anchor_degenerate(self):
        anchor = Anchor(position=[1.0, 1.0])
        agent = at([1.0, 1.0])
        surfaces = SurfaceMap([[4.0, 0.0]])
        paths = [PathComponent.los(), PathComponent.single_bounce(1)]
        assert resolve(agent, anchor, paths, surfaces).degenerate.tolist() == [True, False]

    def test_distance_equals_unfolded_ray_trace(self):
        """Reflect-and-measure oracle: unfold with images, intersect walls,
        measure the physical polyline. Independent of the library's norms."""
        rng = np.random.default_rng(23)
        checked_single = checked_double = 0
        while checked_single < 40 or checked_double < 40:
            # walls positioned so that agent and anchor sit on the origin side
            points = []
            for _ in range(2):
                angle = rng.uniform(-np.pi, np.pi)
                points.append(rng.uniform(4.0, 9.0) * np.array([np.cos(angle), np.sin(angle)]))
            surfaces = SurfaceMap(np.array(points))
            anchor = Anchor(position=rng.uniform(-1.5, 1.5, size=2))
            agent = at(rng.uniform(-1.5, 1.5, size=2))
            if checked_single < 40:
                p1 = surfaces.points[0]
                image = _reflect_across_line(anchor.position, p1)
                hit = _segment_line_crossing(image, agent.position, p1)
                if hit is not None:
                    length = (np.linalg.norm(anchor.position - hit)
                              + np.linalg.norm(agent.position - hit))
                    d = channel_params(agent, anchor,
                                       PathComponent.single_bounce(1), surfaces)[0]
                    assert abs(d - length) < 1e-10
                    checked_single += 1
            if checked_double < 40:
                pa, pb = surfaces.points
                image1 = _reflect_across_line(anchor.position, pa)
                image2 = _reflect_across_line(image1, pb)
                hit2 = _segment_line_crossing(image2, agent.position, pb)
                if hit2 is None:
                    continue
                hit1 = _segment_line_crossing(image1, hit2, pa)
                if hit1 is None:
                    continue
                length = (np.linalg.norm(anchor.position - hit1)
                          + np.linalg.norm(hit2 - hit1)
                          + np.linalg.norm(agent.position - hit2))
                d = channel_params(agent, anchor,
                                   PathComponent.double_bounce(1, 2), surfaces)[0]
                assert abs(d - length) < 1e-10
                checked_double += 1


def remainder_wrap(angle):
    """The IEEE-remainder form of wrap_angle for one float: the reference."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


# multiples of pi (the tie and zero cases) and their floating-point neighbours
_near_multiples_of_pi = st.builds(
    lambda n, side: n * math.pi if side == 0 else math.nextafter(n * math.pi, side * math.inf),
    st.integers(-10**6, 10**6), st.sampled_from([-1, 0, 1]),
)
_EDGES = [math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 2 * math.pi, -2 * math.pi, 0.0, -0.0,
          math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0),
          math.nextafter(-math.pi, 0.0), math.nextafter(-math.pi, -4.0)]


class TestAngleWrapping:
    @settings(max_examples=300, deadline=None)
    @example(angles=_EDGES)
    @given(angles=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.floats(-50.0, 50.0), _near_multiples_of_pi),
                           max_size=30))
    def test_matches_the_remainder_form_bit_for_bit(self, angles):
        reference = np.array([remainder_wrap(a) for a in angles])
        assert wrap_angle(np.array(angles)).tobytes() == reference.tobytes()
        assert wrap_angle(np.reshape(angles, (-1, 1))).shape == (len(angles), 1)
        for angle, expected in zip(angles, reference.tolist()):
            wrapped = wrap_angle(angle)
            assert type(wrapped) is float
            assert math.copysign(1.0, wrapped) == math.copysign(1.0, expected)
            assert wrapped == expected

    def test_wrap_into_half_open_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        assert wrap_angle(0.1 + 6 * math.pi) == pytest.approx(0.1)

    def test_anchor_orientation_normalized(self):
        anchor = Anchor(position=[0, 0], orientation=4.0)
        assert -math.pi < anchor.orientation <= math.pi
