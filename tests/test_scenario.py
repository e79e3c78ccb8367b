"""Scenario loading, trajectories, visibility and measurement generation."""

import copy
import math
import re
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mpslam_bounds.scenario as scenario_module
from mpslam_bounds.ekf import _measurement_step, ekf_predict
from mpslam_bounds.fim import (
    ComponentOrder,
    IsotropicAperture,
    PathPlan,
    UniformLinearArray,
    channel_fim,
    global_jacobian,
    measurement_variances,
)
from mpslam_bounds.geometry import Anchor, wrap_angle
from mpslam_bounds.pcrlb import (
    StateSpaceModel, process_noise_cov, run_recursion, transition_matrix,
)
from mpslam_bounds.scenario import (
    AmplitudeModel,
    MonteCarloConfig,
    NcvTrajectory,
    PriorSpec,
    Scenario,
    ScenarioError,
    SignalModel,
    StepTruth,
    VisibilitySchedule,
    WaypointTrajectory,
    draw_measurements,
    ground_truth,
    load_scenario,
    measurement_truth,
    scenario_from_mapping,
    snapshot_fim,
)
from mpslam_bounds.streams import derive_run_stream
from tests.test_ekf import dense_octagon, sparse_octagon
from tests.test_pcrlb import desk_mapping

DESK_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "desk.yaml"


def minimal_mapping(sampled=False):
    """A scenario mapping with every optional key left out. Anchor 1 has an
    isotropic aperture, anchor 2 a linear array; the trajectory follows
    waypoints, or is sampled from the motion model."""
    if sampled:
        trajectory = {"kind": "sampled_ncv", "n_steps": 20, "position": [1.0, 1.0],
                      "velocity": [1.5, 0.75]}
    else:
        trajectory = {"kind": "waypoints", "n_steps": 20,
                      "points": [{"time": 0.0, "position": [1.0, 1.0]},
                                 {"time": 2.0, "position": [4.0, 2.5]}]}
    return {
        "anchors": [
            {"position": [0.0, 0.0], "aperture": {"kind": "isotropic", "d_squared": 0.005}},
            {"position": [6.0, 4.0],
             "aperture": {"kind": "ula", "num_elements": 4, "element_spacing": 0.025}},
        ],
        "agent_aperture": {"kind": "isotropic", "d_squared": 0.005},
        "surfaces": [[10.0, 0.0]],
        "signal": {"carrier_freq": 6.0e9, "rms_bandwidth": 2.0e8},
        "model": {"time_step": 0.1},
        "trajectory": trajectory,
        "amplitude_model": {"reference_amplitude": 30.0},
        "mc": {"runs": 2, "seed": 7},
    }


# Every required key, as a dotted path into minimal_mapping() plus one
# visibility rule (list entries by index); the sampled trajectory's own keys
# are read from minimal_mapping(sampled=True).
REQUIRED_KEYS = [
    "anchors", "agent_aperture", "surfaces", "signal", "model", "trajectory",
    "amplitude_model", "mc",
    "anchors.0.position", "anchors.0.aperture", "anchors.0.aperture.kind",
    "anchors.0.aperture.d_squared", "anchors.1.aperture.num_elements",
    "anchors.1.aperture.element_spacing",
    "agent_aperture.kind", "agent_aperture.d_squared",
    "signal.carrier_freq", "signal.rms_bandwidth",
    "model.time_step",
    "trajectory.kind", "trajectory.n_steps", "trajectory.points",
    "trajectory.points.0.time", "trajectory.points.0.position",
    "amplitude_model.reference_amplitude",
    "mc.runs", "mc.seed",
    "visibility.rules.0.visible",
]
SAMPLED_REQUIRED_KEYS = ["trajectory.position", "trajectory.velocity"]


def assert_fields_equal(actual, expected):
    """Dataclasses with array fields, compared field by field."""
    assert type(actual) is type(expected)
    for f in fields(expected):
        value, wanted = getattr(actual, f.name), getattr(expected, f.name)
        if is_dataclass(wanted):
            assert_fields_equal(value, wanted)
        else:
            np.testing.assert_array_equal(value, wanted)


class TestLoader:
    def test_shipped_scenario_loads(self, tmp_path):
        scenario = load_scenario("scenarios/desk.yaml")
        assert len(scenario.anchors) == 2
        assert len(scenario.surfaces) == 4
        assert scenario.n_steps == 40
        assert scenario.order.size == 1 + 4 + 12
        assert scenario.dim == 13

    def test_a_load_builds_the_canonical_order_once(self, monkeypatch):
        """The loader and the Scenario share one canonical order, built once
        per surface count; a Scenario built in code gets the same one."""
        built, exact = [], ComponentOrder.__init__
        monkeypatch.setattr(ComponentOrder, "__init__", lambda order, num_surfaces: (
            built.append(order) or exact(order, num_surfaces)))
        ComponentOrder.canonical.cache_clear()
        scenario = load_scenario("scenarios/desk.yaml")
        assert built == [scenario.order] and scenario.order is ComponentOrder.canonical(4)
        assert replace(scenario).order is scenario.order and len(built) == 1
        assert not scenario.order.first.flags.writeable

    def test_unknown_top_level_key_rejected(self):
        mapping = desk_mapping()
        mapping["frobnicate"] = 1
        with pytest.raises(ScenarioError, match="frobnicate"):
            scenario_from_mapping(mapping)

    def test_unknown_nested_key_rejected_with_path(self):
        mapping = desk_mapping()
        mapping["signal"] = {"carrier_freq": 1e9, "rms_bandwidth": 1e8, "bogus": 2}
        with pytest.raises(ScenarioError, match="signal.bogus"):
            scenario_from_mapping(mapping)

    @pytest.mark.parametrize("dotted", REQUIRED_KEYS + SAMPLED_REQUIRED_KEYS)
    def test_missing_required_key_reported(self, dotted):
        mapping = minimal_mapping(sampled=dotted in SAMPLED_REQUIRED_KEYS)
        mapping["visibility"] = {"rules": [{"visible": True}]}
        *parents, key = dotted.split(".")
        node = mapping
        for part in parents:
            node = node[int(part) if part.isdigit() else part]
        del node[key]
        path = re.sub(r"\.(\d+)", r"[\1]", f"scenario.{dotted}")
        with pytest.raises(ScenarioError, match=f"^{re.escape(path)}: missing required key$"):
            scenario_from_mapping(mapping)

    def test_omitted_keys_take_the_dataclass_defaults(self):
        waypoints = scenario_from_mapping(minimal_mapping())
        sampled = scenario_from_mapping(minimal_mapping(sampled=True))
        for scenario in (waypoints, sampled):
            assert scenario.signal == SignalModel(carrier_freq=6.0e9, rms_bandwidth=2.0e8)
            assert scenario.model == StateSpaceModel(time_step=0.1)
            assert scenario.amplitude_model == AmplitudeModel(reference_amplitude=30.0)
            assert scenario.prior == PriorSpec()
            assert scenario.mc == MonteCarloConfig(runs=2, seed=7)
            assert scenario.agent_aperture == IsotropicAperture(d_squared=0.005)
            assert_fields_equal(scenario.anchors[0], Anchor(
                position=[0.0, 0.0], aperture=IsotropicAperture(d_squared=0.005)))
            assert_fields_equal(scenario.anchors[1], Anchor(
                position=[6.0, 4.0],
                aperture=UniformLinearArray(num_elements=4, element_spacing=0.025)))
            assert all(scenario.visibility.flags(j, n).all()
                       for j in range(2) for n in range(1, 21))
        assert_fields_equal(sampled.trajectory, NcvTrajectory(
            n_steps=20, position=[1.0, 1.0], velocity=[1.5, 0.75]))

    def test_every_section_field_has_a_reader(self):
        """A section field whose annotation has no reader fails here, not
        when a file sets it; the loader supplies the ``given`` fields."""
        given = {Anchor: {"aperture"}, NcvTrajectory: {"n_steps"}}
        sections = [SignalModel, StateSpaceModel, AmplitudeModel, PriorSpec, MonteCarloConfig,
                    Anchor, NcvTrajectory, *scenario_module.APERTURE_KINDS.values()]
        for cls in sections:
            for f in fields(cls):
                if f.init and f.name not in given.get(cls, ()):
                    assert f.type in scenario_module._READERS, (cls.__name__, f.name, f.type)

    @pytest.mark.parametrize("section, key, value", [
        pytest.param("trajectory", "n_steps", True, id="trajectory-n_steps"),
        pytest.param("signal", "carrier_freq", True, id="signal-carrier_freq"),
        pytest.param("mc", "runs", math.inf, id="mc-runs-inf"),
        pytest.param("trajectory", "n_steps", math.inf, id="trajectory-n_steps-inf"),
        pytest.param("signal", "carrier_freq", 10**400, id="signal-carrier_freq-400-digits"),
    ])
    def test_yaml_boolean_is_not_a_number(self, section, key, value):
        """Booleans, an infinite integer and an integer too large for a
        float are rejected naming the field."""
        mapping = desk_mapping()
        mapping[section][key] = value
        with pytest.raises(ScenarioError, match=f"{section}.{key}"):
            scenario_from_mapping(mapping)

    def test_string_float_quirk_coerced(self):
        # YAML reads 1.0e9 (no exponent sign) as a string; the loader coerces
        mapping = desk_mapping()
        mapping["signal"] = {"carrier_freq": "1.0e9", "rms_bandwidth": 1e8}
        scenario = scenario_from_mapping(mapping)
        assert scenario.signal.carrier_freq == pytest.approx(1e9)

    def test_surface_through_origin_rejected(self):
        mapping = desk_mapping(surfaces=[[10.0, 0.0], [0.0, 10.0], [0.0, 0.0], [0.0, 0.0]])
        message = "scenario: surface 3 passes through the origin and is not representable"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            scenario_from_mapping(mapping)

    def test_repeated_surface_rejected(self):
        """A repeated wall would count its single bounces twice and add a
        double bounce between its copies that folds back onto the anchor; the
        first repeat is named before the prior (here of the wrong length) is read."""
        mapping = desk_mapping(surfaces=[[10.0, 0.0], [0.0, 10.0], [-2.0, 0.0], [0.0, -2.0],
                                         [10.0, 0.0], [0.0, 10.0]])
        mapping["prior"]["surface_var"] = [1.0]
        message = "scenario: surface 5 is the same point as surface 1"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            scenario_from_mapping(mapping)
        mapping["surfaces"][4] = [10.0, 1e-300]  # distinct, if only just
        del mapping["surfaces"][5]
        mapping["prior"]["surface_var"] = 1.0
        assert len(scenario_from_mapping(mapping).surfaces) == 5

    def test_surfaces_are_a_read_only_array(self):
        """Loaded or built in code, the surfaces are a read-only float copy."""
        given = np.array([[10, 0]])
        for scenario in (scenario_from_mapping(desk_mapping()), replace(DESK, surfaces=given)):
            assert scenario.surfaces.shape == (1, 2) and scenario.surfaces.dtype == float
            assert scenario.surfaces.tolist() == [[10.0, 0.0]] and scenario.dim == 7
            with pytest.raises(ValueError):
                scenario.surfaces[0, 0] = 1.0
        assert given.flags.writeable

    def test_per_surface_prior_length_checked(self):
        mapping = desk_mapping()
        mapping["prior"] = dict(mapping["prior"], surface_var=[1.0, 2.0])
        with pytest.raises(ScenarioError, match="surface_var"):
            scenario_from_mapping(mapping)

    def test_per_surface_prior_accepted(self):
        mapping = desk_mapping()
        mapping["prior"] = dict(mapping["prior"], surface_var=[9.0])
        scenario = scenario_from_mapping(mapping)
        assert scenario.prior_covariance()[5] == 9.0

    def test_visibility_rule_bounds_checked(self):
        mapping = desk_mapping()
        mapping["visibility"] = {"default": True,
                                 "rules": [{"visible": False, "steps": [99]}]}
        with pytest.raises(ScenarioError, match="step"):
            scenario_from_mapping(mapping)
        mapping["visibility"] = {"default": True,
                                 "rules": [{"visible": False,
                                            "components": [[7, 7]]}]}
        with pytest.raises(ScenarioError, match="component"):
            scenario_from_mapping(mapping)

    def test_yaml_file_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(desk_mapping()))
        scenario = load_scenario(path)
        assert scenario.model.time_step == pytest.approx(0.1)

    def test_missing_file_reported(self):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario("/nonexistent/path.yaml")

    def test_c_and_python_loaders_read_the_same_mapping(self):
        """The loader uses PyYAML's C scanner and parser where it has them;
        the constructor and resolver stay the Python ones, so the shipped
        scenario reads the same, value types included."""
        text = DESK_SCENARIO.read_text()
        python = yaml.load(text, Loader=yaml.SafeLoader)
        assert repr(yaml.load(text, Loader=scenario_module.YAML_LOADER)) == repr(python)
        if hasattr(yaml, "CSafeLoader"):
            assert scenario_module.YAML_LOADER is yaml.CSafeLoader


DESK = scenario_from_mapping(desk_mapping())
LIBRARY_REJECTS = {
    "no_anchors": (lambda: replace(DESK, anchors=[]), "scenario needs at least one anchor"),
    "repeated_surface": (lambda: replace(
        DESK, surfaces=[[10.0, 0.0], [0.0, 10.0], [10.0, 0.0]],
        prior=replace(DESK.prior, surface_var=(4.0, 4.0, 4.0)),
        visibility=VisibilitySchedule(np.ones((DESK.n_steps + 1, 2, 10), np.int8))),
        "surface 3 is the same point as surface 1"),
    "surface_through_origin": (lambda: replace(DESK, surfaces=[[1e-300, 0.0]]),
                               "surface 1 passes through the origin and is not representable"),
    # a wall 2.5e-7 m from the origin: inside the floor the filter skips estimates at
    "surface_near_origin": (lambda: replace(DESK, surfaces=[[5e-7, 0.0]]),
                            "surface 1 passes through the origin and is not representable"),
    "surface_not_finite": (lambda: replace(DESK, surfaces=[[10.0, math.nan]]),
                           "surfaces must be an (S, 2) array of finite points"),
    "surfaces_in_3d": (lambda: replace(DESK, surfaces=np.ones((1, 3))),
                       "surfaces must be an (S, 2) array of finite points"),
    "anchor_major_schedule": (lambda: replace(DESK, visibility=VisibilitySchedule(
        np.ones((2, DESK.n_steps + 1, DESK.order.size), np.int8))),
        "visibility table must be (n_steps + 1, anchors, components) = (21, 2, 2), "
        "got (2, 21, 2)"),
    "anchor_without_aperture": (lambda: replace(DESK, anchors=[Anchor([0.0, 0.0])]),
                                "anchor 1 has no aperture model"),
    "ncv_position": (lambda: NcvTrajectory(3, [math.nan, 0.0], [1.0, 0.0]),
                     "agent position must be a finite 2-vector"),
    "ncv_orientation": (lambda: NcvTrajectory(3, [0.0, 0.0], [1.0, 0.0], math.inf),
                        "agent orientation must be finite"),
    "anchor_position": (lambda: Anchor([0.0, math.inf]), "anchor position must be a finite 2-vector"),
    "anchor_orientation": (lambda: Anchor([0.0, 0.0], math.nan),
                           "anchor orientation must be a finite number"),
    "one_waypoint": (lambda: WaypointTrajectory(3, [0.0], [[0.0, 0.0]]),
                     "waypoints need at least two timed points"),
    "waypoints_in_3d": (lambda: WaypointTrajectory(3, [0.0, 1.0], np.zeros((2, 3))),
                        "waypoint positions must be (M, 2)"),
    "waypoints_short_of_a_longer_step": (
        lambda: replace(DESK, model=replace(DESK.model, time_step=0.2)),
        "waypoints end at 2.0 s but the trajectory needs 4.0 s"),
    "states_beyond_the_waypoints": (
        lambda: WaypointTrajectory(4, [0.0, 2.0], [[0.0, 0.0], [2.0, 2.0]]).states(
            StateSpaceModel(time_step=1.0), 0),
        "waypoints end at 2.0 s but the trajectory needs 4.0 s"),
    "fractional_seed": (lambda: MonteCarloConfig(runs=2, seed=1.7),
                        "mc.seed must be an integer, got 1.7"),
    "fractional_runs": (lambda: MonteCarloConfig(runs=2.5, seed=7),
                        "mc.runs must be an integer, got 2.5"),
    "boolean_steps": (lambda: NcvTrajectory(True, [0.0, 0.0], [1.0, 0.0]),
                      "n_steps must be an integer, got True"),
    "surface_var_list": (lambda: PriorSpec(surface_var=[4.0, 0.0]),
                         "prior.surface_var entries must be positive"),
    "no_surfaces": (lambda: replace(
        DESK, surfaces=np.zeros((0, 2)),
        visibility=VisibilitySchedule(np.ones((DESK.n_steps + 1, 2, 1), np.int8))),
        "surfaces must be an (S, 2) array of finite points, S >= 1"),
    "fractional_ula_elements": (
        lambda: replace(DESK, agent_aperture=UniformLinearArray(2.5, 0.025)),
        "num_elements must be an integer, got 2.5"),
    # one per field that its record judges finite: each value passes the other checks
    "infinite_carrier": (lambda: SignalModel(math.inf, 2e8),
                         "carrier_freq must be positive and finite"),
    "infinite_bandwidth": (lambda: SignalModel(6e9, math.inf),
                           "rms_bandwidth must be positive and finite"),
    "infinite_reference_amplitude": (lambda: AmplitudeModel(math.inf),
                                     "reference_amplitude must be positive and finite"),
    "infinite_time_step": (lambda: StateSpaceModel(math.inf),
                           "time step must be positive and finite"),
    "nan_accel_noise": (lambda: replace(DESK, model=replace(DESK.model, accel_noise_var=math.nan)),
                        "accel_noise_var must be finite and >= 0"),
    "infinite_orient_noise": (lambda: StateSpaceModel(0.1, orient_noise_var=math.inf),
                              "orient_noise_var must be finite and >= 0"),
    "nan_surface_noise": (lambda: StateSpaceModel(0.1, surface_noise_var=math.nan),
                          "surface_noise_var must be finite and >= 0"),
    "infinite_position_prior": (lambda: replace(DESK, prior=replace(DESK.prior,
                                                                    position_var=math.inf)),
                                "prior.position_var must be positive and finite"),
    "infinite_velocity_prior": (lambda: PriorSpec(velocity_var=math.inf),
                                "prior.velocity_var must be positive and finite"),
    "infinite_orientation_prior": (lambda: PriorSpec(orientation_var=math.inf),
                                   "prior.orientation_var must be positive and finite"),
    "infinite_surface_prior": (lambda: PriorSpec(surface_var=(4.0, math.inf)),
                               "prior.surface_var entries must be positive and finite"),
    "nan_waypoint_time": (lambda: WaypointTrajectory(3, [0.0, math.nan], np.zeros((2, 2))),
                          "waypoint times must be finite"),
    "infinite_waypoint_position": (
        lambda: WaypointTrajectory(3, [0.0, 1.0], [[0.0, 0.0], [math.inf, 0.0]]),
        "waypoint positions must be finite"),
    "nan_ula_broadside": (lambda: UniformLinearArray(4, 0.025, math.nan),
                          "broadside must be finite"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REJECTS))
def test_library_rejects_invalid_input(case):
    """Each library constructor or call refuses its invalid input with
    ValueError and its own message."""
    build, message = LIBRARY_REJECTS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_a_listed_surface_prior_is_stored_as_a_tuple():
    """A per-surface prior given as a list or an array is held as the tuple
    the loader reads, and gives the same covariance."""
    for given in ([4.0], np.array([4.0])):
        prior = replace(DESK.prior, surface_var=given)
        assert isinstance(prior.surface_var, tuple) and prior.surface_var == (4.0,)
        np.testing.assert_array_equal(replace(DESK, prior=prior).prior_covariance(),
                                      DESK.prior_covariance())


def test_prediction_rejects_a_covariance_of_the_wrong_shape():
    """An (N, 3) covariance does not fit the (N, N) transition: numpy's own
    ValueError, whose text is numpy's to choose."""
    with pytest.raises(ValueError):
        ekf_predict(np.zeros(DESK.dim), np.zeros((DESK.dim, 3)), transition_matrix(DESK.model, 1),
                    process_noise_cov(DESK.model, 1))


class TestImmutability:
    """A scenario keeps the values its checks passed: no field of it or of its
    records can be reassigned, none of their arrays written, and the arrays a
    caller passes in are copied, so the caller's own stay writable."""

    @pytest.mark.parametrize("name, value", [
        ("surfaces", np.array([[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0], [10.0, 0.0]])),
        ("mc", MonteCarloConfig(runs=4, seed=1)),
        ("anchors", ()),
    ])
    def test_a_field_of_a_loaded_scenario_cannot_be_assigned(self, name, value):
        scenario = load_scenario(DESK_SCENARIO)
        with pytest.raises(FrozenInstanceError):
            setattr(scenario, name, value)
        with pytest.raises(FrozenInstanceError):
            scenario.anchors[0].position = np.zeros(2)
        assert type(scenario.anchors) is tuple

    @pytest.mark.parametrize("sampled", [False, True])
    def test_the_arrays_of_a_loaded_scenario_are_read_only(self, sampled):
        mapping = yaml.safe_load(DESK_SCENARIO.read_text())
        if sampled:
            mapping["trajectory"] = {"kind": "sampled_ncv", "n_steps": 40,
                                     "position": [0.8, 0.8], "velocity": [0.9, 0.75]}
        scenario = scenario_from_mapping(mapping)
        arrays = [scenario.surfaces, scenario.visibility.table, scenario.anchors[0].position]
        if sampled:
            arrays += [scenario.trajectory.position, scenario.trajectory.velocity]
        else:
            arrays += [scenario.trajectory.times, scenario.trajectory.positions]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_the_arrays_a_caller_passes_in_stay_writable(self):
        given = {name: np.ones(shape) for name, shape in (
            ("anchor", 2), ("times", 2), ("positions", (2, 2)), ("position", 2),
            ("velocity", 2), ("surfaces", (1, 2)))}
        given["table"] = np.ones((DESK.n_steps + 1, 2, 2), np.int8)
        given["times"][0] = 0.0
        given["surfaces"][0, 0] = 10.0
        waypoints = WaypointTrajectory(3, given["times"], given["positions"])
        ncv = NcvTrajectory(3, given["position"], given["velocity"])
        scenario = replace(DESK, anchors=[Anchor(given["anchor"], aperture=IsotropicAperture(0.01)),
                                          DESK.anchors[1]],
                           surfaces=given["surfaces"],
                           visibility=VisibilitySchedule(given["table"]))
        held = [waypoints.times, waypoints.positions, ncv.position, ncv.velocity,
                scenario.anchors[0].position, scenario.surfaces, scenario.visibility.table]
        before = [array.copy() for array in held]
        for array in given.values():
            assert array.flags.writeable
            array[0] = 7
        for array, value in zip(held, before):
            assert not array.flags.writeable
            np.testing.assert_array_equal(array, value)


class TestVisibilitySchedule:
    def test_default_all_visible(self):
        scenario = scenario_from_mapping(desk_mapping())
        for j in range(2):
            for n in range(1, scenario.n_steps + 1):
                assert scenario.visibility.flags(j, n).all()

    def test_rules_override_in_order(self):
        mapping = desk_mapping()
        mapping["visibility"] = {
            "default": True,
            "rules": [
                {"visible": False, "anchors": [2]},
                {"visible": True, "anchors": [2], "components": [[0, 0]],
                 "steps": {"from": 5, "to": 10}},
            ],
        }
        scenario = scenario_from_mapping(mapping)
        los = 0  # canonical order puts the LOS component first
        assert scenario.visibility.flags(0, 3).all()  # anchor 1 untouched
        assert not scenario.visibility.flags(1, 3).any()
        assert scenario.visibility.flags(1, 7)[los] == 1
        assert scenario.visibility.flags(1, 11)[los] == 0

    def test_table_is_step_major(self):
        """Row n of the table is step n's (anchors, components) flags, which
        ``flags`` reads per anchor and ``visible_counts`` counts."""
        mapping = desk_mapping()
        mapping["visibility"] = {"rules": [{"visible": False, "anchors": [1], "steps": [4]}]}
        visibility = scenario_from_mapping(mapping).visibility
        assert visibility.table.shape == (21, 2, 2)
        for n in range(21):
            for j in range(2):
                np.testing.assert_array_equal(visibility.flags(j, n), visibility.table[n, j])
        np.testing.assert_array_equal(visibility.flags(0, np.array([3, 4])), [[1, 1], [0, 0]])
        assert visibility.visible_counts().tolist() == [4] * 3 + [2] + [4] * 16


class TestTrajectories:
    def test_noiseless_ncv_walks_straight(self):
        model = StateSpaceModel(time_step=1.0)
        spec = NcvTrajectory(n_steps=3, position=[0.0, 0.0], velocity=[1.0, 0.0])
        states = spec.states(model, 0)
        np.testing.assert_allclose(states[:, 0:2], [[0, 0], [1, 0], [2, 0], [3, 0]], atol=1e-12)

    def test_two_waypoints_give_constant_velocity_line(self):
        model = StateSpaceModel(time_step=0.5)
        spec = WaypointTrajectory(
            n_steps=4,
            times=np.array([0.0, 2.0]),
            positions=np.array([[0.0, 0.0], [2.0, 2.0]]),
        )
        states = spec.states(model, 0)
        steps = np.arange(5)[:, None]
        np.testing.assert_allclose(states[:, 0:2], [0.5, 0.5] * steps, atol=1e-12)
        np.testing.assert_allclose(states[:, 2:4], [[1.0, 1.0]] * 5, atol=1e-12)
        np.testing.assert_allclose(states[:, 4], [math.pi / 4] * 5)

    def test_waypoints_must_cover_the_horizon(self):
        model = StateSpaceModel(time_step=1.0)
        spec = WaypointTrajectory(
            n_steps=10,
            times=np.array([0.0, 2.0]),
            positions=np.array([[0.0, 0.0], [2.0, 2.0]]),
        )
        with pytest.raises(ValueError, match="needs"):
            spec.check_horizon(model.time_step)

    def test_heading_of_minus_zero_dy_is_pi(self):
        """A segment from [1, 0] to [0, -0.0] has dy = -0.0, whose atan2
        heading is -pi; wrapped, as the ground truth does, every heading is pi."""
        model = StateSpaceModel(time_step=0.5)
        spec = WaypointTrajectory(n_steps=4, times=np.array([0.0, 2.0]),
                                  positions=np.array([[1.0, 0.0], [0.0, -0.0]]))
        dy = spec.positions[1, 1] - spec.positions[0, 1]
        assert math.atan2(dy, -1.0) == -math.pi
        assert wrap_angle(spec.states(model, 0)[:, 4]).tolist() == [math.pi] * 5

    def test_sampled_initial_orientation_is_wrapped(self):
        """An initial orientation of 4.0 is read as wrap_angle(4.0), built
        directly and from a file: step 0 holds it, and the whole trajectory
        equals that of wrap_angle(4.0), bit for bit."""
        model = StateSpaceModel(time_step=0.1, accel_noise_var=0.01,
                                orient_noise_var=0.01)

        def sampled(orientation):
            spec = NcvTrajectory(n_steps=20, position=[0.8, 0.8], velocity=[0.9, 0.75],
                                 orientation=orientation)
            return spec.states(model, 5)

        states = sampled(4.0)
        assert states[0, 4] == wrap_angle(4.0) != 4.0
        assert states.tobytes() == sampled(wrap_angle(4.0)).tobytes()
        mapping = desk_mapping()
        mapping["trajectory"] = {"kind": "sampled_ncv", "n_steps": 20, "position": [0.8, 0.8],
                                 "velocity": [0.9, 0.75], "orientation": 4.0}
        scenario = scenario_from_mapping(mapping)
        assert scenario.trajectory.orientation == wrap_angle(4.0)
        truth = ground_truth(scenario)
        assert truth[0, 4] == wrap_angle(4.0)
        mapping["trajectory"]["orientation"] = wrap_angle(4.0)
        assert truth.tobytes() == ground_truth(scenario_from_mapping(mapping)).tobytes()

    def test_waypoint_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            WaypointTrajectory(n_steps=2, times=np.array([0.0, 0.0]),
                               positions=np.zeros((2, 2)))

    def test_process_noise_sample_mean_is_centered(self):
        model = StateSpaceModel(time_step=1.0,
                                accel_noise_var=4.0, orient_noise_var=0.25)
        spec = NcvTrajectory(n_steps=100_000, position=[0.0, 0.0], velocity=[0.0, 0.0])
        states = spec.states(model, 3)
        velocity_steps = np.diff(states[:, 2:4], axis=0)
        # velocity increments are T * accel draws: mean within 4 sigma / sqrt(n)
        sigma = 2.0
        assert abs(velocity_steps[:, 0].mean()) < 4 * sigma / math.sqrt(100_000)
        assert abs(velocity_steps[:, 1].mean()) < 4 * sigma / math.sqrt(100_000)

    def test_ground_truth_never_builds_a_stream_for_waypoints(self, monkeypatch):
        import mpslam_bounds.scenario as scenario_module

        def boom(seed):
            raise AssertionError("trajectory stream constructed for waypoints")

        monkeypatch.setattr(scenario_module, "trajectory_stream", boom)
        scenario = scenario_from_mapping(desk_mapping())
        assert ground_truth(scenario).shape == (scenario.n_steps + 1, scenario.dim)

    @pytest.mark.parametrize("times, positions", [
        ([0.0, 2.0], [[0.0, 0.0], [2.0, 2.0]]),
        # standing first (heading 0), a move, a stand that keeps the heading,
        # a segment no step time falls in, and a last point past the horizon
        ([-0.5, 0.55, 0.8, 1.05, 1.42, 1.45, 2.1, 3.0],
         [[0.8, 0.8], [0.8, 0.8], [2.0, 0.8], [2.0, 0.8], [1.0, 3.8], [1.2, 3.9],
          [-4.4, 3.8], [-4.4, 3.8]]),
        ([0.0, 0.7, 2.0], [[1.0, 1.0], [-1.0, -1.0 + 1e-13], [-1.0, -1.0]]),
    ])
    def test_waypoints_match_the_per_step_loop(self, times, positions):
        """The array interpolation gives the states of the per-step loop
        it replaced, bit for bit: position and velocity on the step's
        segment, the heading of the last step whose segment moved."""
        model = StateSpaceModel(time_step=0.1)
        spec = WaypointTrajectory(n_steps=20, times=np.array(times),
                                  positions=np.array(positions))
        rows, heading = [], 0.0
        for n in range(spec.n_steps + 1):
            t = n * model.time_step
            seg = int(np.searchsorted(spec.times, t, side="right")) - 1
            seg = min(max(seg, 0), spec.times.size - 2)
            dt = spec.times[seg + 1] - spec.times[seg]
            velocity = (spec.positions[seg + 1] - spec.positions[seg]) / dt
            alpha = (t - spec.times[seg]) / dt
            position = spec.positions[seg] + alpha * (spec.positions[seg + 1] - spec.positions[seg])
            if math.hypot(*velocity) > 1e-12:
                heading = math.atan2(velocity[1], velocity[0])
            rows.append([*position, *velocity, wrap_angle(heading)])
        states = spec.states(model, 0)
        states[:, 4] = wrap_angle(states[:, 4])
        np.testing.assert_array_equal(states, rows)


class TestSnapshotInformation:
    def test_endfire_error_propagates_only_for_visible_components(self):
        """An endfire component raises while the schedule shows it; hidden, it
        never reaches the variance models."""
        ula = {"kind": "ula", "num_elements": 4, "element_spacing": 0.025}
        mapping = desk_mapping(agent_aperture=ula)
        mapping["anchors"][0]["position"] = [1.5, 3.0]
        mapping["trajectory"] = {"kind": "waypoints", "n_steps": 20,
                                 "points": [{"time": 0.0, "position": [0.5, 0.8]},
                                            {"time": 2.0, "position": [2.5, 0.8]}]}
        # at step 10 the agent is at [1.5, 0.8] heading +x: anchor 1's LOS
        # arrives along the array axis
        scenario = scenario_from_mapping(mapping)
        state = ground_truth(scenario)[10]
        with pytest.raises(FloatingPointError, match=r"step 10, anchor 1, component \[0, 0\]"):
            snapshot_fim(scenario, state, 10)
        mapping["visibility"] = {"default": True,
                                 "rules": [{"visible": False, "anchors": [1],
                                            "components": [[0, 0]], "steps": [10]}]}
        info = snapshot_fim(scenario_from_mapping(mapping), state, 10).information
        assert np.isfinite(info).all() and info.trace() > 0.0


def straight_run(**overrides):
    """Two-anchor desk mapping whose agent heads +x at 1 m/s along y = 0.8:
    step n of its 20 steps is at [0.5 + n / 10, 0.8]."""
    mapping = desk_mapping(**overrides)
    mapping["trajectory"] = {"kind": "waypoints", "n_steps": 20,
                             "points": [{"time": 0.0, "position": [0.5, 0.8]},
                                        {"time": 2.0, "position": [2.5, 0.8]}]}
    return mapping


ULA = {"kind": "ula", "num_elements": 4, "element_spacing": 0.025}


def step_bytes(scenario, step):
    """Bytes of one step's gradient in a truth pass, (N + 2) x 3 x (visible
    paths of all anchors) float64."""
    visible = sum(np.count_nonzero(scenario.visibility.flags(j, step))
                  for j in range(len(scenario.anchors)))
    return 24 * (scenario.dim + 2) * visible


def widest_step_bytes(scenario):
    """Bytes of the widest step's gradient in a truth pass."""
    return max(step_bytes(scenario, n) for n in range(1, scenario.n_steps + 1))


def pass_steps(scenario):
    """Steps of the widest layout in one truth pass under the module's cap."""
    return scenario_module.TRUTH_PASS_BYTES // widest_step_bytes(scenario)


def step_layouts(scenario):
    """Steps 1..n grouped by step layout, in order of first appearance."""
    layouts = {}
    for n in range(1, scenario.n_steps + 1):
        flags = [scenario.visibility.flags(j, n) for j in range(len(scenario.anchors))]
        layouts.setdefault(np.stack(flags).tobytes(), []).append(n)
    return list(layouts.values())


def reference_record(scenario, state, step):
    """One step's truth from the filter's own unbatched pass at the true
    joint ``state``: the step's visible paths of all anchors through a plan built
    here for them, every path seen from its own anchor, the noise model per
    anchor on its paths' apertures, and the information of the filter's
    measurement step over those paths."""
    order, dim = scenario.order, scenario.dim
    owner, components = np.nonzero(np.stack([scenario.visibility.flags(j, step)
                                             for j in range(len(scenario.anchors))]))
    plan = PathPlan(order, owner, components, scenario.anchors)
    record = StepTruth(step, np.zeros((dim, dim)), plan, np.zeros((0, 3)), np.zeros((0, 3)),
                       np.zeros(0))
    if not owner.size:  # no anchor sees anything
        return record
    params, degenerate, _ = global_jacobian(state, plan, scenario.surfaces)
    assert not degenerate.any()
    variances = np.empty_like(params)
    for j, anchor in enumerate(scenario.anchors):
        own = owner == j
        amplitudes = scenario.amplitude_model.amplitude(params[own, 0],
                                                        order.n_bounces[components[own]])
        squared = np.stack([scenario.agent_aperture.squared_aperture(params[own, 1]),
                            anchor.aperture.squared_aperture(params[own, 2])], axis=-1)
        variances[own] = measurement_variances(
            amplitudes, squared, scenario.signal.carrier_freq, scenario.signal.rms_bandwidth)
    record = replace(record, params=params, variances=variances,
                     channel_information=channel_fim(variances))
    information, _ = _measurement_step(state, record, params, scenario)
    return replace(record, information=information)


def record_bytes(record):
    """A truth record as bytes: equal bytes mean bit-identical arrays."""
    return (record.step, record.information.tobytes(), record.plan.owner.astype(np.int64).tobytes(),
            record.plan.components.astype(np.int64).tobytes(),
            record.plan.anchor_position.tobytes(), record.params.tobytes(),
            record.variances.tobytes(), record.channel_information.tobytes())


def sparse_desk():
    """The desk with line-of-sight and single bounces only, in five step
    layouts: anchor 2's blank (steps 5-9), the all-anchor blanks (12-13, 40),
    anchor 1's line-of-sight-only run (22-26) and anchor 2's missing second
    wall (30-31) cut the widest layout's 25 steps into five runs, so its
    passes of six steps join steps that are not consecutive, and its last
    pass is partial."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping["visibility"] = {"default": False, "rules": [
        {"visible": True, "components": [[s, s] for s in range(5)]},
        {"visible": False, "anchors": [2], "steps": {"from": 5, "to": 9}},
        {"visible": False, "steps": [12, 13, 40]},
        {"visible": False, "anchors": [1], "components": [[s, s] for s in range(1, 5)],
         "steps": {"from": 22, "to": 26}},
        {"visible": False, "anchors": [2], "components": [[2, 2]], "steps": [30, 31]},
    ]}
    return scenario_from_mapping(mapping)


class TestTruthPass:
    CASES = {"desk": lambda: load_scenario(DESK_SCENARIO), "sparse_desk": sparse_desk,
             "dense_octagon": dense_octagon, "sparse_octagon": sparse_octagon}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_table_does_not_depend_on_the_pass_size(self, case, monkeypatch):
        """Passes under the default cap, one pass over the whole run, passes
        of six, three and one steps of the widest layout (as many or more of
        a narrower one), and snapshot_fim build the same truth records bit
        for bit; so does the filter's own unbatched pass at the truth over
        each step's visible paths. In the sparse cases a layout's passes join
        steps that are not consecutive."""
        scenario = self.CASES[case]()
        truth = ground_truth(scenario)
        expected = [record_bytes(reference_record(scenario, truth[n], n))
                    for n in range(1, scenario.n_steps + 1)]
        for size in (pass_steps(scenario), scenario.n_steps, 6, 3, 1):
            monkeypatch.setattr(scenario_module, "TRUTH_PASS_BYTES",
                                size * widest_step_bytes(scenario))
            table = measurement_truth(scenario, truth)
            assert [r.step for r in table] == list(range(1, scenario.n_steps + 1))
            assert [record_bytes(r) for r in table] == expected
        assert [record_bytes(snapshot_fim(scenario, truth[n], n))
                for n in range(1, scenario.n_steps + 1)] == expected
        if case == "sparse_desk":
            sizes = [np.bincount(r.plan.owner, minlength=2).tolist() for r in table]
            assert sizes[5 - 1] == [5, 0] and sizes[12 - 1] == sizes[40 - 1] == [0, 0]
            assert sizes[22 - 1] == [1, 5] and sizes[30 - 1] == [5, 4]

    def test_earliest_step_is_named_before_a_lower_anchor(self):
        """Anchor 1's line of sight reaches the agent array at endfire at step
        12, and the agent stands on anchor 2 at step 10: one pass holds both,
        and the error names step 10, anchor 2. So it does where step 10 has a
        layout of its own (anchor 1's single bounce hidden there), first seen
        after the layout of step 12, whose pass runs first."""
        mapping = straight_run(agent_aperture=ULA)
        mapping["anchors"][0]["position"] = [1.7, 3.0]
        mapping["anchors"][1]["position"] = [1.5, 0.8]
        scenario = scenario_from_mapping(mapping)
        assert pass_steps(scenario) >= scenario.n_steps and len(step_layouts(scenario)) == 1
        with pytest.raises(FloatingPointError,
                           match=r"^step 10, anchor 2, component \[0, 0\]: agent coincides"):
            measurement_truth(scenario, ground_truth(scenario))
        mapping["visibility"] = {"default": True, "rules": [
            {"visible": False, "anchors": [1], "components": [[1, 1]], "steps": [10]}]}
        scenario = scenario_from_mapping(mapping)
        assert step_layouts(scenario) == [[n for n in range(1, 21) if n != 10], [10]]
        with pytest.raises(FloatingPointError,
                           match=r"^step 10, anchor 2, component \[0, 0\]: agent coincides"):
            measurement_truth(scenario, ground_truth(scenario))
        mapping["visibility"] = {"default": True}
        mapping["anchors"][1]["position"] = [6.0, 4.0]
        scenario = scenario_from_mapping(mapping)
        with pytest.raises(FloatingPointError,
                           match=r"^step 12, anchor 1, component \[0, 0\]: squared aperture"):
            measurement_truth(scenario, ground_truth(scenario))

    def test_earliest_step_is_named_before_a_later_endfire_of_its_anchor(self):
        """A bandwidth of 1e308 underflows every distance variance to 0 from
        step 1, and anchor 1's line of sight reaches the agent array at
        endfire at step 10: step 1 is named, on anchor 1. Where only step 10
        shows anything, the endfire is named before the variance of the same
        path."""
        mapping = straight_run(agent_aperture=ULA)
        mapping["anchors"][0]["position"] = [1.5, 3.0]
        mapping["signal"]["rms_bandwidth"] = 1e308
        scenario = scenario_from_mapping(mapping)
        with pytest.raises(FloatingPointError, match=r"^step 1, anchor 1, component \[0, 0\]: "
                           r"distance variance 0.0 is not finite and positive$"):
            measurement_truth(scenario, ground_truth(scenario))
        mapping["visibility"] = {"default": False, "rules": [{"visible": True, "steps": [10]}]}
        scenario = scenario_from_mapping(mapping)
        with pytest.raises(FloatingPointError,
                           match=r"^step 10, anchor 1, component \[0, 0\]: squared aperture"):
            measurement_truth(scenario, ground_truth(scenario))

    def test_one_pass_per_step_layout(self, monkeypatch):
        """On the sparse octagon, with three step layouts (18, 9 and no
        visible paths), the default cap makes one truth pass per layout. A
        cap of two widest steps cuts each layout's steps into
        ceil(steps x width / cap) passes, one for the layout without visible
        paths, and no pass's gradient passes the cap."""
        scenario = sparse_octagon()
        truth, layouts = ground_truth(scenario), step_layouts(scenario)
        widths = [step_bytes(scenario, steps[0]) for steps in layouts]
        row_bytes = 24 * (scenario.dim + 2)  # one step's gradient bytes per visible path
        assert [len(steps) for steps in layouts] == [7, 3, 2]
        assert [width // row_bytes for width in widths] == [18, 9, 0]
        passes, exact = [], scenario_module.global_jacobian

        def counted(state, plan, surfaces):
            passes.append((len(state), plan.components.size))
            return exact(state, plan, surfaces)

        monkeypatch.setattr(scenario_module, "global_jacobian", counted)
        measurement_truth(scenario, truth)
        assert passes == [(len(steps), width // row_bytes) for steps, width in zip(layouts, widths)]
        cap = 2 * widest_step_bytes(scenario)
        monkeypatch.setattr(scenario_module, "TRUTH_PASS_BYTES", cap)
        passes.clear()
        measurement_truth(scenario, truth)
        assert len(passes) == sum(math.ceil(len(steps) * width / cap) if width else 1
                                  for steps, width in zip(layouts, widths)) == 4 + 1 + 1
        assert all(steps * paths * row_bytes <= cap for steps, paths in passes)

    def test_degenerate_geometry_is_named_before_endfire_at_one_step(self):
        """At step 10 the agent stands on anchor 1, whose bounce off the wall
        y = 3 arrives at the agent array's endfire: the degenerate line of
        sight is named."""
        mapping = straight_run(agent_aperture=ULA, surfaces=[[0.0, 6.0]])
        mapping["anchors"][0]["position"] = [1.5, 0.8]
        scenario = scenario_from_mapping(mapping)
        with pytest.raises(FloatingPointError,
                           match=r"^step 10, anchor 1, component \[0, 0\]: agent coincides"):
            measurement_truth(scenario, ground_truth(scenario))
        mapping["visibility"] = {"default": True, "rules": [
            {"visible": False, "anchors": [1], "components": [[0, 0]], "steps": [10]}]}
        scenario = scenario_from_mapping(mapping)
        with pytest.raises(FloatingPointError,
                           match=r"^step 10, anchor 1, component \[1, 1\]: squared aperture"):
            measurement_truth(scenario, ground_truth(scenario))

    def test_amplitude_model_checks_nothing(self):
        """A degenerate path's zero distance gives an infinite amplitude, or a
        nan one where the bounce loss underflows to 0, with no warning and no
        error: the truth pass names the degenerate geometry."""
        amplitudes = AmplitudeModel(30.0, 1e-200).amplitude(np.array([0.0, 0.0, 2.0]),
                                                            np.array([0, 2, 1]))
        assert np.isposinf(amplitudes[0]) and np.isnan(amplitudes[1])
        assert amplitudes[2] == 15.0 * 1e-200

    def test_hidden_degenerate_component_does_not_raise(self):
        """The agent stands on anchor 2 at step 10, where the schedule hides
        that anchor's line of sight: the pass of step 10's layout leaves the
        hidden path out, and steps 9 and 11 keep their line of sight."""
        mapping = straight_run()
        mapping["anchors"][1]["position"] = [1.5, 0.8]
        mapping["visibility"] = {"default": True, "rules": [
            {"visible": False, "anchors": [2], "components": [[0, 0]], "steps": [10]}]}
        scenario = scenario_from_mapping(mapping)
        truth = ground_truth(scenario)
        assert pass_steps(scenario) >= scenario.n_steps
        table = measurement_truth(scenario, truth)
        los = 0
        assert [table[n - 1].plan.components[table[n - 1].plan.owner == 1][0]
                for n in (9, 10, 11)] == [los, 1, los]
        assert all(np.isfinite(r.information).all() for r in table)
        assert record_bytes(table[9]) == record_bytes(reference_record(scenario, truth[10], 10))


class TestMeasurements:
    def test_absent_components_emit_nothing(self):
        mapping = desk_mapping(visibility={"default": False,
                                           "rules": [{"visible": True,
                                                      "components": [[0, 0]]}]})
        scenario = scenario_from_mapping(mapping)
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        meas = [rows[0] for rows in draw_measurements(table, [derive_run_stream(0, 0)])]
        los, anchors = 0, len(scenario.anchors)
        assert len(meas) == scenario.n_steps
        for record, drawn in zip(table, meas, strict=True):
            assert record.plan.components.tolist() == [los] * anchors
            assert record.plan.owner.tolist() == list(range(anchors))
            assert record.params.shape == record.variances.shape == drawn.shape == (anchors, 3)

    def test_huge_amplitude_measurements_hit_the_means(self):
        mapping = desk_mapping()
        mapping["amplitude_model"] = {"reference_amplitude": 1e9, "bounce_loss": 1.0}
        scenario = scenario_from_mapping(mapping)
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        meas = [rows[0] for rows in draw_measurements(table, [derive_run_stream(1, 0)])]
        for record, drawn in zip(table, meas, strict=True):
            assert drawn.shape == record.params.shape and record.plan.owner.size
            assert np.all(np.abs(drawn - record.params) < 1e-6)

    def test_empirical_variances_match_the_models(self):
        """10^4 draws of one component: empirical variances within 5%."""
        mapping = desk_mapping()
        mapping["trajectory"] = {
            "kind": "waypoints", "n_steps": 10_000,
            "points": [{"time": 0.0, "position": [2.0, 1.0]},
                       {"time": 1000.0, "position": [2.0, 1.0]}],
        }
        mapping["anchors"] = mapping["anchors"][:1]
        scenario = scenario_from_mapping(mapping)
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        meas = [rows[0] for rows in draw_measurements(table, [derive_run_stream(17, 0)])]
        ref = table[0]
        assert ref.plan.components.tolist() == list(range(scenario.order.size))
        sample = np.stack(meas)
        assert sample.shape == (10_000, scenario.order.size, 3)
        for component in range(scenario.order.size):
            for i in range(3):  # distance, arrival and departure azimuth
                assert np.var(sample[:, component, i]) == pytest.approx(
                    ref.variances[component, i], rel=0.05)

    def test_draws_are_reproducible(self):
        scenario = scenario_from_mapping(desk_mapping())
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        a = draw_measurements(measurement_truth(scenario, truth), [derive_run_stream(4, 2)])
        b = draw_measurements(measurement_truth(scenario, truth), [derive_run_stream(4, 2)])
        assert len(a) == len(b) == scenario.n_steps
        for record, x, y in zip(table, a, b):
            assert x.shape == (1,) + record.params.shape
            np.testing.assert_array_equal(x, y)

    def test_measurement_means_come_from_the_shared_geometry(self):
        """The generator's means are exactly the channel parameters of the
        filter's gradient pass at the truth, through the step's own plan
        (single source of truth)."""
        scenario = scenario_from_mapping(desk_mapping())
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        for record in table[:5]:
            for j in range(len(scenario.anchors)):
                visible = np.flatnonzero(scenario.visibility.flags(j, record.step))
                np.testing.assert_array_equal(record.plan.components[record.plan.owner == j], visible)
            params, _, _ = global_jacobian(truth[record.step], record.plan, scenario.surfaces)
            np.testing.assert_array_equal(record.params, params)


def mapping_paths(node, prefix=()):
    """Every path into a mapping below its root: mapping keys and list positions."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from mapping_paths(child, prefix + (key,))


DESK_MAPPING = yaml.safe_load(DESK_SCENARIO.read_text())
DROP = object()
# The one error cli.main reports as a numerical failure (exit 3).
NUMERICAL_FAILURES = FloatingPointError
MUTATION = st.tuples(
    st.sampled_from(sorted(mapping_paths(DESK_MAPPING), key=str)),
    st.sampled_from([DROP, None, True, "x", 0, -1, 0.5, 1e-308, 1e30, 1e200, 1e308, -1e308,
                     10**400, math.nan, math.inf, -math.inf, [], {}, [1e308, 0.0]]),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMutatedDeskMapping:
    """Every input ends in exit 0, 2 or 3: a desk mapping with one or two
    values dropped or replaced (wrong types, 1e30, 1e200, +-1e308, 10**400,
    NaN, inf, empty lists) either fails to load with a ScenarioError, or loads and
    gives a finite bound or the FloatingPointError the CLI maps to exit 3, with
    no numpy warning on the way (a RuntimeWarning is an error here)."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(MUTATION, min_size=1, max_size=2))
    def test_loads_or_is_rejected_and_the_bound_is_finite_or_fails(self, mutations):
        mapping = copy.deepcopy(DESK_MAPPING)
        for path, value in mutations:
            parent = mapping
            try:
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]]
            except (KeyError, IndexError, TypeError):
                continue  # an earlier mutation removed the path
            if value is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        try:
            scenario = scenario_from_mapping(mapping)
        except ScenarioError:
            return
        assert isinstance(scenario, Scenario)
        try:
            records = run_recursion(scenario, measurement_truth(scenario, ground_truth(scenario)))
        except NUMERICAL_FAILURES:
            return
        assert np.isfinite(records).all()


def numeric_leaves(node, prefix=()):
    """Every path into a mapping that ends at a number (an int or float, not a bool)."""
    for path in mapping_paths(node, prefix):
        value = node
        for key in path[len(prefix):]:
            value = value[key]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path


def ula_desk_mapping():
    """The desk with linear arrays at the agent and at anchor 2, each with a broadside."""
    mapping = copy.deepcopy(DESK_MAPPING)
    mapping["agent_aperture"] = {"kind": "ula", "num_elements": 4, "element_spacing": 0.025,
                                 "broadside": 0.35}
    mapping["anchors"][1]["aperture"] = {"kind": "ula", "num_elements": 6,
                                         "element_spacing": 0.02, "broadside": -0.35}
    return mapping


def sampled_desk_mapping():
    """The desk with a trajectory sampled from the motion model."""
    mapping = copy.deepcopy(DESK_MAPPING)
    mapping["trajectory"] = {"kind": "sampled_ncv", "n_steps": 40, "position": [0.8, 0.8],
                             "velocity": [0.9, 0.75], "orientation": 4.0}
    return mapping


NON_FINITE_CASES = [
    pytest.param(build, path, value, id=f"{name}-{'.'.join(map(str, path))}-{value}")
    for name, build in (("desk", lambda: copy.deepcopy(DESK_MAPPING)), ("ula", ula_desk_mapping),
                        ("sampled", sampled_desk_mapping))
    for path in numeric_leaves(build())
    for value in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("build, path, value", NON_FINITE_CASES)
def test_every_non_finite_number_is_refused(build, path, value):
    """Each numeric leaf of the desk, the linear-array desk and the sampled
    desk, set to NaN, +inf or -inf, fails to load with a ScenarioError: the
    record or reader of its field refuses it (exit 2 from the CLI)."""
    mapping = build()
    parent = mapping
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ScenarioError):
        scenario_from_mapping(mapping)
