"""Independent oracles for the bound: the whole-trajectory information and
the scene's symmetries.

The bound, the measurement generator and the filter share one model and one
code path, so pins catch drift but not an error all three share. These
tests judge the recursion against the whole-trajectory information of
``tests/reference_batch.py``, which shares no code with it, and the scene
conventions (surface numbering, frames, signs) against the symmetries the
physics has: a rotation of the whole scene about the origin, the mirror
y -> -y and a relabelling of the surfaces. Translation is not a symmetry:
a surface's parameter is the mirror image of the origin.
"""

import copy
import functools
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mpslam_bounds.pcrlb import run_recursion
from mpslam_bounds.scenario import ground_truth, measurement_truth, scenario_from_mapping
from tests.reference_batch import bound_table, noise_directions
from tests.test_ekf import octagon_mapping, sparse_octagon_mapping

DESK_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "desk.yaml"
# Measured worst: 2.1e-14 relative for the whole-trajectory bound and 1.6e-14
# for a rotation or relabelling (both on the octagon); the mirror is bit-identical.
RTOL = 1e-12


def desk_mapping(**changes) -> dict:
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping.update(changes)
    return mapping


def ula_desk_mapping() -> dict:
    """The desk with linear arrays at the agent and at anchor 2."""
    mapping = desk_mapping(agent_aperture={"kind": "ula", "num_elements": 4,
                                           "element_spacing": 0.025, "broadside": 0.35})
    mapping["anchors"][1]["aperture"] = {"kind": "ula", "num_elements": 6,
                                         "element_spacing": 0.02, "broadside": -0.35}
    return mapping


def bounds_and_table(mapping: dict):
    scenario = scenario_from_mapping(copy.deepcopy(mapping))
    table = measurement_truth(scenario, ground_truth(scenario))
    return scenario, table, run_recursion(scenario, table)


class TestWholeTrajectoryInformation:
    """The recursion's bound table equals the block sums of
    diag(A_k (J^(k))^-1 A_k^T) of the whole-trajectory information."""

    CASES = {
        "desk": desk_mapping,
        "desk_surface_noise": lambda: desk_mapping(model=dict(
            desk_mapping()["model"], surface_noise_var=1e-6)),
        "dense_octagon": octagon_mapping,
        "sparse_octagon": sparse_octagon_mapping,
        "sampled_desk": lambda: desk_mapping(trajectory={
            "kind": "sampled_ncv", "n_steps": 40, "position": [0.8, 0.8],
            "velocity": [0.9, 0.75], "orientation": 4.0}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_recursion_matches_the_whole_trajectory_bound(self, case):
        scenario, table, bounds = bounds_and_table(self.CASES[case]())
        np.testing.assert_allclose(bounds, bound_table(scenario, table), rtol=RTOL, atol=0.0)

    def test_the_noise_directions_follow_the_model(self):
        """Surface noise adds 2S directions per step; without it only the
        acceleration and orientation directions remain."""
        quiet = scenario_from_mapping(desk_mapping())
        noisy = scenario_from_mapping(self.CASES["desk_surface_noise"]())
        assert noise_directions(quiet)[0].shape == (13, 3)
        assert noise_directions(noisy)[0].shape == (13, 11)


# ---------------------------------------------------------------------------
# Scene symmetries


SCENES = {"desk": desk_mapping, "ula_desk": ula_desk_mapping, "octagon": octagon_mapping}


@functools.cache
def scene_bounds(name: str) -> np.ndarray:
    return bounds_and_table(SCENES[name]())[2]


def assert_symmetric(name: str, angle: float, mirrored: bool, order: list[int]) -> None:
    """The moved scene's bound table is the scene's, ``meb_*`` columns in ``order``."""
    _, _, bounds = bounds_and_table(transformed(SCENES[name](), angle, mirrored, order))
    expected = scene_bounds(name)[:, [0, 1, 2] + [3 + i for i in order]]
    np.testing.assert_allclose(bounds, expected, rtol=RTOL, atol=0.0)


def transformed(mapping: dict, angle: float, mirrored: bool, order: list[int]) -> dict:
    """The scene mirrored (y -> -y) if ``mirrored``, then rotated by ``angle``
    about the origin, with its surfaces relabelled: new surface i + 1 is old
    surface ``order[i] + 1``, its prior moving with it."""
    mapping = copy.deepcopy(mapping)
    flip = np.diag([1.0, -1.0 if mirrored else 1.0])
    c, s = math.cos(angle), math.sin(angle)
    move = np.array([[c, -s], [s, c]]) @ flip
    sign = -1.0 if mirrored else 1.0

    def point(p):
        return (move @ np.asarray(p, dtype=float)).tolist()

    def aperture(node):
        if node["kind"] == "ula":
            node["broadside"] = sign * node["broadside"]

    for anchor in mapping["anchors"]:
        anchor["position"] = point(anchor["position"])
        anchor["orientation"] = sign * anchor["orientation"] + angle
        aperture(anchor["aperture"])
    aperture(mapping["agent_aperture"])
    for waypoint in mapping["trajectory"]["points"]:
        waypoint["position"] = point(waypoint["position"])
    mapping["surfaces"] = [point(mapping["surfaces"][i]) for i in order]
    if isinstance(mapping["prior"]["surface_var"], list):
        mapping["prior"]["surface_var"] = [mapping["prior"]["surface_var"][i] for i in order]
    return mapping


@st.composite
def scene_moves(draw):
    name = draw(st.sampled_from(sorted(SCENES)))
    num_surfaces = len(SCENES[name]()["surfaces"])
    return (name, draw(st.floats(-math.pi, math.pi)), draw(st.booleans()),
            draw(st.permutations(range(num_surfaces))))


class TestSceneSymmetries:
    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(move=scene_moves())
    def test_rotation_mirror_and_relabelling_keep_the_bound(self, move):
        """Rotating the scene about the origin (anchor orientations shifted
        by the angle) or mirroring it (orientations and array broadsides
        negated) leaves the bound table unchanged; relabelling the surfaces
        with their priors permutes the ``meb_*`` columns alike."""
        assert_symmetric(*move)

    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_each_symmetry_alone(self, name):
        """A rotation, the mirror and a relabelling (surfaces reversed), one at a time."""
        identity = list(range(len(SCENES[name]()["surfaces"])))
        for angle, mirrored, order in ((0.9, False, identity), (0.0, True, identity),
                                       (0.0, False, identity[::-1])):
            assert_symmetric(name, angle, mirrored, order)
