"""Scenario loading, trajectories, visibility and measurement generation."""

import copy
import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mpslam_bounds.scenario as scenario_module
from mpslam_bounds.ekf import _measured_steps, _measurement_step
from mpslam_bounds.fim import (
    IsotropicAperture,
    UniformLinearArray,
    ZeroApertureError,
    global_jacobian,
    measurement_variances,
)
from mpslam_bounds.geometry import AgentPose, Anchor, DegenerateGeometryError, joint_state
from mpslam_bounds.pcrlb import StateSpaceModel, run_recursion
from mpslam_bounds.scenario import (
    AmplitudeModel,
    AnchorBlock,
    MonteCarloConfig,
    NcvTrajectory,
    PriorSpec,
    Scenario,
    ScenarioError,
    SignalModel,
    StepTruth,
    WaypointTrajectory,
    draw_measurements,
    generate_trajectory,
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
            assert scenario.model == StateSpaceModel(time_step=0.1, num_surfaces=1)
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
            n_steps=20, initial=AgentPose(position=[1.0, 1.0], velocity=[1.5, 0.75])))

    def test_every_section_field_has_a_reader(self):
        """A section field whose annotation has no reader fails here, not
        when a file sets it; the loader supplies the ``given`` fields."""
        given = {StateSpaceModel: {"num_surfaces"}, Anchor: {"aperture"}}
        sections = [SignalModel, StateSpaceModel, AmplitudeModel, PriorSpec, MonteCarloConfig,
                    Anchor, AgentPose, *scenario_module.APERTURE_KINDS.values()]
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
        mapping = desk_mapping()
        mapping["surfaces"] = [[0.0, 0.0]]
        with pytest.raises(ScenarioError, match="surface"):
            scenario_from_mapping(mapping)

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


class TestTrajectories:
    def test_noiseless_ncv_walks_straight(self):
        model = StateSpaceModel(time_step=1.0, num_surfaces=0)
        spec = NcvTrajectory(
            n_steps=3,
            initial=AgentPose(position=[0.0, 0.0], velocity=[1.0, 0.0]),
        )
        poses = generate_trajectory(spec, model, derive_run_stream(0, 0))
        positions = np.array([p.position for p in poses])
        np.testing.assert_allclose(positions, [[0, 0], [1, 0], [2, 0], [3, 0]], atol=1e-12)

    def test_two_waypoints_give_constant_velocity_line(self):
        model = StateSpaceModel(time_step=0.5, num_surfaces=0)
        spec = WaypointTrajectory(
            n_steps=4,
            times=np.array([0.0, 2.0]),
            positions=np.array([[0.0, 0.0], [2.0, 2.0]]),
        )
        poses = generate_trajectory(spec, model)
        for n, pose in enumerate(poses):
            np.testing.assert_allclose(pose.position, [0.5 * n, 0.5 * n], atol=1e-12)
            np.testing.assert_allclose(pose.velocity, [1.0, 1.0], atol=1e-12)
            assert pose.orientation == pytest.approx(math.pi / 4)

    def test_waypoints_must_cover_the_horizon(self):
        model = StateSpaceModel(time_step=1.0, num_surfaces=0)
        spec = WaypointTrajectory(
            n_steps=10,
            times=np.array([0.0, 2.0]),
            positions=np.array([[0.0, 0.0], [2.0, 2.0]]),
        )
        with pytest.raises(ValueError, match="needs"):
            generate_trajectory(spec, model)

    def test_waypoint_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            WaypointTrajectory(n_steps=2, times=np.array([0.0, 0.0]),
                               positions=np.zeros((2, 2)))

    def test_process_noise_sample_mean_is_centered(self):
        model = StateSpaceModel(time_step=1.0, num_surfaces=0,
                                accel_noise_var=4.0, orient_noise_var=0.25)
        spec = NcvTrajectory(
            n_steps=100_000,
            initial=AgentPose(position=[0.0, 0.0], velocity=[0.0, 0.0]),
        )
        poses = generate_trajectory(spec, model, derive_run_stream(3, 1))
        velocity_steps = np.diff([p.velocity for p in poses], axis=0)
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
        poses = ground_truth(scenario)
        assert len(poses) == scenario.n_steps + 1


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
        pose = ground_truth(scenario)[10]
        with pytest.raises(ZeroApertureError, match=r"step 10, anchor 1, component \[0, 0\]"):
            snapshot_fim(scenario, pose, 10)
        mapping["visibility"] = {"default": True,
                                 "rules": [{"visible": False, "anchors": [1],
                                            "components": [[0, 0]], "steps": [10]}]}
        info = snapshot_fim(scenario_from_mapping(mapping), pose, 10).information
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


def step_bytes(scenario):
    """Bytes of one step's gradients in a truth pass, sized as if every
    component of every anchor were visible: (N + 2) x 3K x anchors float64."""
    return 8 * (scenario.dim + 2) * scenario.order.dim * len(scenario.anchors)


def pass_steps(scenario):
    """Steps in one truth pass under the module's cap."""
    return scenario_module.TRUTH_PASS_BYTES // step_bytes(scenario)


def reference_record(scenario, pose, step):
    """One step's truth from the filter's own unbatched pass at the true
    state: the step's visible paths of all anchors through the filter's plan
    for them, the noise model per anchor on its paths, and the information
    of the filter's measurement step over those paths."""
    order, dim = scenario.order, scenario.dim
    visible = [np.flatnonzero(scenario.visibility.flags(j, step))
               for j in range(len(scenario.anchors))]
    blocks = [AnchorBlock(step, j, ks, np.zeros((ks.size, 3)), np.zeros((ks.size, 3)))
              for j, ks in enumerate(visible)]
    plan = _measured_steps([blocks], scenario)[0].plan
    if plan is None:  # no anchor sees anything
        return StepTruth(step, np.zeros((dim, dim)), tuple(blocks))
    params, degenerate, _ = global_jacobian(pose, plan, scenario.surfaces)
    assert not degenerate.any()
    cuts = np.cumsum([0] + [ks.size for ks in visible])
    for j, (anchor, ks) in enumerate(zip(scenario.anchors, visible)):
        own = params[cuts[j]:cuts[j + 1]]
        amplitudes = scenario.amplitude_model.amplitude(own[:, 0], order.n_bounces[ks])
        variances = measurement_variances(
            own, amplitudes, scenario.signal.carrier_freq, scenario.signal.rms_bandwidth,
            scenario.agent_aperture, anchor.aperture)
        blocks[j] = AnchorBlock(step, j, ks, own, variances)
    information, _ = _measurement_step(joint_state(pose, scenario.surfaces),
                                       _measured_steps([blocks], scenario)[0], scenario)
    return StepTruth(step, information, tuple(blocks))


def record_bytes(record):
    """A truth record as bytes: equal bytes mean bit-identical arrays."""
    return record.step, record.information.tobytes(), [
        (b.step, b.anchor, b.components.astype(np.int64).tobytes(), b.params.tobytes(),
         b.variances.tobytes()) for b in record.blocks]


def sparse_desk():
    """The desk with line-of-sight and single bounces only. In passes of six
    steps, anchor 2's blank (steps 5-9), the all-anchor blanks (12-13, 40),
    anchor 1's line-of-sight-only run (22-26) and anchor 2's missing second
    wall (30-31) straddle pass boundaries, and the last pass (37-40) is
    partial."""
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
        of six, three and one steps, and snapshot_fim build the same truth
        records bit for bit; so does the filter's own unbatched pass at the
        truth over each step's visible paths. In the sparse cases passes mix
        step layouts."""
        scenario = self.CASES[case]()
        truth = ground_truth(scenario)
        expected = [record_bytes(reference_record(scenario, truth[n], n))
                    for n in range(1, scenario.n_steps + 1)]
        for size in (pass_steps(scenario), scenario.n_steps, 6, 3, 1):
            monkeypatch.setattr(scenario_module, "TRUTH_PASS_BYTES", size * step_bytes(scenario))
            table = measurement_truth(scenario, truth)
            assert [r.step for r in table] == list(range(1, scenario.n_steps + 1))
            assert [record_bytes(r) for r in table] == expected
        assert [record_bytes(snapshot_fim(scenario, truth[n], n))
                for n in range(1, scenario.n_steps + 1)] == expected
        if case == "sparse_desk":
            sizes = [[len(block.components) for block in r.blocks] for r in table]
            assert sizes[5 - 1] == [5, 0] and sizes[12 - 1] == sizes[40 - 1] == [0, 0]
            assert sizes[22 - 1] == [1, 5] and sizes[30 - 1] == [5, 4]

    def test_earliest_step_is_named_before_a_lower_anchor(self):
        """Anchor 1's line of sight reaches the agent array at endfire at step
        12, and the agent stands on anchor 2 at step 10: one pass holds both,
        and the error names step 10, anchor 2."""
        mapping = straight_run(agent_aperture=ULA)
        mapping["anchors"][0]["position"] = [1.7, 3.0]
        mapping["anchors"][1]["position"] = [1.5, 0.8]
        scenario = scenario_from_mapping(mapping)
        assert pass_steps(scenario) >= scenario.n_steps
        with pytest.raises(DegenerateGeometryError,
                           match=r"^step 10, anchor 2, component \[0, 0\]: agent coincides"):
            measurement_truth(scenario, ground_truth(scenario))
        mapping["anchors"][1]["position"] = [6.0, 4.0]
        scenario = scenario_from_mapping(mapping)
        with pytest.raises(ZeroApertureError,
                           match=r"^step 12, anchor 1, component \[0, 0\]: squared aperture"):
            measurement_truth(scenario, ground_truth(scenario))

    def test_degenerate_geometry_is_named_before_endfire_at_one_step(self):
        """At step 10 the agent stands on anchor 1, whose bounce off the wall
        y = 3 arrives at the agent array's endfire: the degenerate line of
        sight is named."""
        mapping = straight_run(agent_aperture=ULA, surfaces=[[0.0, 6.0]])
        mapping["anchors"][0]["position"] = [1.5, 0.8]
        scenario = scenario_from_mapping(mapping)
        with pytest.raises(DegenerateGeometryError,
                           match=r"^step 10, anchor 1, component \[0, 0\]: agent coincides"):
            measurement_truth(scenario, ground_truth(scenario))
        mapping["visibility"] = {"default": True, "rules": [
            {"visible": False, "anchors": [1], "components": [[0, 0]], "steps": [10]}]}
        scenario = scenario_from_mapping(mapping)
        with pytest.raises(ZeroApertureError,
                           match=r"^step 10, anchor 1, component \[1, 1\]: squared aperture"):
            measurement_truth(scenario, ground_truth(scenario))

    def test_hidden_degenerate_component_does_not_raise(self):
        """The agent stands on anchor 2 at step 10, where the schedule hides
        that anchor's line of sight; the pass that also holds the visible
        line of sight of steps 9 and 11 leaves the hidden one out."""
        mapping = straight_run()
        mapping["anchors"][1]["position"] = [1.5, 0.8]
        mapping["visibility"] = {"default": True, "rules": [
            {"visible": False, "anchors": [2], "components": [[0, 0]], "steps": [10]}]}
        scenario = scenario_from_mapping(mapping)
        truth = ground_truth(scenario)
        assert pass_steps(scenario) >= scenario.n_steps
        table = measurement_truth(scenario, truth)
        los = 0
        assert [table[n - 1].blocks[1].components[0] for n in (9, 10, 11)] == [los, 1, los]
        assert all(np.isfinite(r.information).all() for r in table)
        assert record_bytes(table[9]) == record_bytes(reference_record(scenario, truth[10], 10))


class TestMeasurements:
    def test_absent_components_emit_nothing(self):
        mapping = desk_mapping(visibility={"default": False,
                                           "rules": [{"visible": True,
                                                      "components": [[0, 0]]}]})
        scenario = scenario_from_mapping(mapping)
        truth = ground_truth(scenario)
        meas = draw_measurements(measurement_truth(scenario, truth), derive_run_stream(0, 0))
        los = 0
        assert len(meas) == scenario.n_steps
        blocks = [b for step in meas for b in step]
        assert len(blocks) == scenario.n_steps * len(scenario.anchors)
        assert all(b.components.tolist() == [los] and b.params.shape == (1, 3) for b in blocks)

    def test_huge_amplitude_measurements_hit_the_means(self):
        mapping = desk_mapping()
        mapping["amplitude_model"] = {"reference_amplitude": 1e9, "bounce_loss": 1.0}
        scenario = scenario_from_mapping(mapping)
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        meas = draw_measurements(table, derive_run_stream(1, 0))
        for record, drawn in zip(table, meas, strict=True):
            for row, m in zip(record.blocks, drawn, strict=True):
                assert (m.step, m.anchor) == (row.step, row.anchor)
                np.testing.assert_array_equal(m.components, row.components)
                assert np.all(np.abs(m.params - row.params) < 1e-6)
                np.testing.assert_array_equal(m.variances, row.variances)

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
        meas = draw_measurements(table, derive_run_stream(17, 0))
        ref = table[0].blocks[0]
        assert ref.components.tolist() == list(range(scenario.order.size))
        sample = np.stack([step[0].params for step in meas])
        assert sample.shape == (10_000, scenario.order.size, 3)
        for component in range(scenario.order.size):
            for i in range(3):  # distance, arrival and departure azimuth
                assert np.var(sample[:, component, i]) == pytest.approx(
                    ref.variances[component, i], rel=0.05)

    def test_draws_are_reproducible(self):
        scenario = scenario_from_mapping(desk_mapping())
        truth = ground_truth(scenario)
        a = draw_measurements(measurement_truth(scenario, truth), derive_run_stream(4, 2))
        b = draw_measurements(measurement_truth(scenario, truth), derive_run_stream(4, 2))
        flat_a = [blk for step in a for blk in step]
        flat_b = [blk for step in b for blk in step]
        assert len(flat_a) == len(flat_b) == scenario.n_steps * len(scenario.anchors)
        for x, y in zip(flat_a, flat_b):
            assert (x.step, x.anchor) == (y.step, y.anchor)
            np.testing.assert_array_equal(x.components, y.components)
            np.testing.assert_array_equal(x.params, y.params)
            np.testing.assert_array_equal(x.variances, y.variances)

    def test_measurement_means_come_from_the_shared_geometry(self):
        """The generator's means are exactly the channel parameters of the
        filter's gradient pass at the truth, through the filter's plan of the
        step (single source of truth)."""
        scenario = scenario_from_mapping(desk_mapping())
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        for record in table[:5]:
            for row in record.blocks:
                visible = np.flatnonzero(scenario.visibility.flags(row.anchor, row.step))
                np.testing.assert_array_equal(row.components, visible)
            plan = _measured_steps([record.blocks], scenario)[0].plan
            params, _, _ = global_jacobian(truth[record.step], plan, scenario.surfaces)
            np.testing.assert_array_equal(
                np.concatenate([row.params for row in record.blocks]), params)


def mapping_paths(node, prefix=()):
    """Every path into a mapping below its root: mapping keys and list positions."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from mapping_paths(child, prefix + (key,))


DESK_MAPPING = yaml.safe_load(DESK_SCENARIO.read_text())
DROP = object()
# The errors cli.main reports as numerical failures (exit 3).
NUMERICAL_FAILURES = (RuntimeError, DegenerateGeometryError, ZeroApertureError,
                      FloatingPointError)
MUTATION = st.tuples(
    st.sampled_from(sorted(mapping_paths(DESK_MAPPING), key=str)),
    st.sampled_from([DROP, None, True, "x", 0, -1, 0.5, 1e-308, 1e308, -1e308, 10**400,
                     math.nan, math.inf, -math.inf, [], {}, [1e308, 0.0]]),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMutatedDeskMapping:
    """Every input ends in exit 0, 2 or 3: a desk mapping with one or two
    values dropped or replaced (wrong types, +-1e308, 10**400, NaN, inf,
    empty lists) either fails to load with a ScenarioError, or loads and
    gives a finite bound or one of the errors the CLI maps to exit 3, with
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
        assert np.isfinite([[r.peb, r.veb, r.oeb, *r.meb] for r in records]).all()
