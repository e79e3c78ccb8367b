"""Mirror geometry: rotations, reflections, virtual anchors, channel parameters."""

import math

import numpy as np
import pytest

from mpslam_bounds.geometry import (
    AgentPose,
    Anchor,
    ChannelParams,
    DegenerateGeometryError,
    PathComponent,
    SurfaceMap,
    channel_params,
    householder_chain,
    mirrored_agent,
    path_geometry,
    rotation_matrix,
    rotation_matrix_derivative,
    virtual_anchor,
    wrap_angle,
)


def householder(surface_point):
    return SurfaceMap([surface_point]).householder(1)


def random_geometry(rng, num_surfaces):
    """Random nondegenerate instance; anchors/agents inside a disc, walls outside."""
    while True:
        points = []
        for _ in range(num_surfaces):
            angle = rng.uniform(-np.pi, np.pi)
            points.append(rng.uniform(1.5, 18.0) * np.array([np.cos(angle), np.sin(angle)]))
        surfaces = SurfaceMap(np.array(points))
        anchor = Anchor(position=rng.uniform(-6, 6, size=2),
                        orientation=rng.uniform(-np.pi, np.pi))
        agent = AgentPose(position=rng.uniform(-6, 6, size=2),
                          velocity=rng.uniform(-2, 2, size=2),
                          orientation=rng.uniform(-np.pi, np.pi))
        paths = [PathComponent.los()]
        paths += [PathComponent.single_bounce(s) for s in range(1, num_surfaces + 1)]
        paths += [PathComponent.double_bounce(s, s2)
                  for s in range(1, num_surfaces + 1)
                  for s2 in range(1, num_surfaces + 1) if s != s2]
        try:
            if min(channel_params(agent, anchor, p, surfaces).distance for p in paths) > 0.5:
                return agent, anchor, surfaces, paths
        except DegenerateGeometryError:
            continue


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
    """SurfaceMap.mirror about the wall x = 1 (surface point [2, 0])."""

    wall = SurfaceMap([[2.0, 0.0]])

    def test_origin_maps_to_surface_point(self):
        np.testing.assert_allclose(self.wall.mirror([0.0, 0.0], 1), [2.0, 0.0])

    def test_point_on_surface_is_fixed(self):
        np.testing.assert_allclose(self.wall.mirror([1.0, 1.0], 1), [1.0, 1.0])

    def test_reflect_across_vertical_line(self):
        np.testing.assert_allclose(self.wall.mirror([0.0, 2.0], 1), [2.0, 2.0])

    def test_involution_on_random_points(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            surfaces = SurfaceMap([rng.uniform(0.5, 5.0, size=2)])
            x = rng.uniform(-5, 5, size=2)
            np.testing.assert_allclose(
                surfaces.mirror(surfaces.mirror(x, 1), 1), x, atol=1e-12
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
        rng = np.random.default_rng(11)
        for _ in range(200):
            agent, anchor, surfaces, paths = random_geometry(rng, 2)
            for path in paths:
                va = virtual_anchor(anchor, path, surfaces)
                vm = mirrored_agent(agent.position, path, surfaces)
                direct = np.linalg.norm(agent.position - va)
                mirrored = np.linalg.norm(vm - anchor.position)
                assert abs(direct - mirrored) < 1e-12 * max(1.0, direct)


class TestHouseholderChain:
    def test_reduces_to_known_products(self):
        surfaces = SurfaceMap([[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            householder_chain(PathComponent.los(), surfaces), np.eye(2)
        )
        np.testing.assert_allclose(
            householder_chain(PathComponent.single_bounce(1), surfaces),
            surfaces.householder(1),
        )
        np.testing.assert_allclose(
            householder_chain(PathComponent.double_bounce(1, 2), surfaces),
            surfaces.householder(2) @ surfaces.householder(1),
        )

    def test_matches_finite_difference_of_mirrored_agent(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            agent, anchor, surfaces, paths = random_geometry(rng, 3)
            for path in paths:
                chain = householder_chain(path, surfaces)
                numeric = np.zeros((2, 2))
                for axis in range(2):
                    h = 1e-6 * max(1.0, abs(agent.position[axis]))
                    for sign in (1.0, -1.0):
                        shifted = agent.position.copy()
                        shifted[axis] += sign * h
                        vm = mirrored_agent(shifted, path, surfaces)
                        numeric[:, axis] += sign * vm / (2.0 * h)
                # chain is the gradient-layout sensitivity: compare transposed
                assert np.max(np.abs(numeric - chain.T)) < 1e-6

    def test_chain_maps_mirrored_vector_onto_direct_vector(self):
        rng = np.random.default_rng(19)
        agent, anchor, surfaces, paths = random_geometry(rng, 2)
        for path in paths:
            geom = path_geometry(agent, anchor, path, surfaces)
            np.testing.assert_allclose(
                geom.chain @ geom.anchor_to_mirrored, geom.va_to_agent, atol=1e-10
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


class TestChannelParams:
    def test_los_three_four_five(self):
        anchor = Anchor(position=[0.0, 0.0], orientation=0.0)
        agent = AgentPose(position=[3.0, 4.0], velocity=[0.0, 0.0], orientation=0.0)
        params = channel_params(agent, anchor, PathComponent.los(), SurfaceMap([[9.0, 9.0]]))
        assert params.distance == pytest.approx(5.0)
        assert params.aod == pytest.approx(math.atan2(4, 3))
        assert params.aoa == pytest.approx(math.atan2(-4, -3))

    def test_single_bounce_on_vertical_wall(self):
        anchor = Anchor(position=[0.0, 0.0], orientation=0.0)
        agent = AgentPose(position=[0.0, 2.0], velocity=[0.0, 0.0], orientation=0.0)
        surfaces = SurfaceMap([[2.0, 0.0]])
        params = channel_params(agent, anchor, PathComponent.single_bounce(1), surfaces)
        assert params.distance == pytest.approx(2.0 * math.sqrt(2.0))
        assert params.aod == pytest.approx(math.pi / 4)
        assert params.aoa == pytest.approx(-math.pi / 4)

    def test_agent_rotation_shifts_aoa_only(self):
        anchor = Anchor(position=[-1.0, 0.5], orientation=0.3)
        surfaces = SurfaceMap([[2.0, 0.0]])
        delta = 0.37
        base = AgentPose(position=[1.0, 2.0], velocity=[0, 0], orientation=0.2)
        rotated = AgentPose(position=[1.0, 2.0], velocity=[0, 0], orientation=0.2 + delta)
        for path in (PathComponent.los(), PathComponent.single_bounce(1)):
            p0 = channel_params(base, anchor, path, surfaces)
            p1 = channel_params(rotated, anchor, path, surfaces)
            assert wrap_angle(p1.aoa - (p0.aoa - delta)) == pytest.approx(0.0, abs=1e-12)
            assert p1.aod == pytest.approx(p0.aod)
            assert p1.distance == pytest.approx(p0.distance)

    def test_coincident_agent_and_virtual_anchor_degenerate(self):
        anchor = Anchor(position=[1.0, 1.0])
        agent = AgentPose(position=[1.0, 1.0], velocity=[0, 0], orientation=0.0)
        with pytest.raises(DegenerateGeometryError):
            channel_params(agent, anchor, PathComponent.los(), SurfaceMap([[4.0, 0.0]]))

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
            agent = AgentPose(position=rng.uniform(-1.5, 1.5, size=2),
                              velocity=[0, 0], orientation=0.0)
            if checked_single < 40:
                p1 = surfaces.points[0]
                image = _reflect_across_line(anchor.position, p1)
                hit = _segment_line_crossing(image, agent.position, p1)
                if hit is not None:
                    length = (np.linalg.norm(anchor.position - hit)
                              + np.linalg.norm(agent.position - hit))
                    d = channel_params(agent, anchor,
                                       PathComponent.single_bounce(1), surfaces).distance
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
                                   PathComponent.double_bounce(1, 2), surfaces).distance
                assert abs(d - length) < 1e-10
                checked_double += 1


class TestAngleWrapping:
    def test_wrap_into_half_open_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        assert wrap_angle(0.1 + 6 * math.pi) == pytest.approx(0.1)

    def test_anchor_orientation_normalized(self):
        anchor = Anchor(position=[0, 0], orientation=4.0)
        assert -math.pi < anchor.orientation <= math.pi
