"""Command line: CSV schema, determinism, exit codes and self-check."""

import ast
import importlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

import pytest

from mpslam_bounds import ekf
from mpslam_bounds.cli import main
from mpslam_bounds.scenario import ground_truth, load_scenario, scenario_from_mapping
from tests.reference_geometry import mirror, virtual_anchor
from tests.test_pcrlb import desk_mapping

DESK_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "desk.yaml"


def singular_mapping():
    mapping = desk_mapping(visibility={"default": False})
    # an essentially flat surface prior with no observations makes the
    # information matrix numerically singular (condition guard trips)
    mapping["prior"] = {"position_var": 1.0, "velocity_var": 1.0,
                        "orientation_var": 1.0, "surface_var": 1e18}
    return mapping, "weakest block"


def overflowing_desk(section, key, component):
    """Desk scenario whose noise model overflows at 1e308 in ``section.key``."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping[section][key] = 1e308
    return mapping, f"step 1, anchor 1, component [0, 0]: {component} variance"


def huge_bandwidth():
    return overflowing_desk("signal", "rms_bandwidth", "distance")


def huge_aperture():
    return overflowing_desk("agent_aperture", "d_squared", "arrival")


def huge_ula_spacing():
    """Desk scenario whose anchor 2 is a ULA with a 1e200 m element spacing:
    its squared aperture overflows to inf, and the departure variance is 0."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping["anchors"][1]["aperture"] = {"kind": "ula", "num_elements": 6,
                                         "element_spacing": 1e200, "broadside": -0.35}
    return mapping, ("step 1, anchor 2, component [0, 0]: departure variance 0.0 "
                     "is not finite and positive")


def huge_prior(key, block):
    """Desk scenario with a prior variance of 1e308 in ``prior.key``: the
    first prediction overflows and is not finite."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping["prior"][key] = 1e308
    return mapping, f"step 1: predicted covariance is not finite (weakest block: {block})"


def huge_position_prior():
    return huge_prior("position_var", "agent position")


def huge_surface_prior():
    return huge_prior("surface_var", "surface 1")


def huge_reference_amplitude():
    """Desk scenario whose amplitudes overflow: the LOS distance variance
    of the first step underflows to 0."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping["amplitude_model"]["reference_amplitude"] = 1e308
    return mapping, ("step 1, anchor 1, component [0, 0]: distance variance 0.0 "
                     "is not finite and positive")


def tiny_bounce_loss():
    """Desk scenario with a bounce loss of 1e-300: the double-bounce
    amplitudes underflow to 0."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping["amplitude_model"]["bounce_loss"] = 1e-300
    return mapping, ("step 1, anchor 1, component [1, 2]: amplitude 0.0 "
                     "is not finite and positive")


def far_waypoint():
    """Desk scenario whose last waypoint lies at x = 1e308: the distance of
    the first step's LOS overflows."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping["trajectory"]["points"][-1]["position"] = [1e308, 3.8]
    return mapping, "step 1, anchor 1, component [0, 0]: distance inf is not finite"


def far_velocity():
    """Desk scenario on a sampled trajectory whose initial velocity of
    1.7e308 m/s carries the agent past the float range at step 11."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping["trajectory"] = {"kind": "sampled_ncv", "n_steps": 40, "position": [0.8, 0.8],
                             "velocity": [1.7e308, 0.0]}
    return mapping, "step 11: true agent position is not finite"


def far_waypoints():
    """Desk scenario whose waypoints lie at x = -1e308 and x = 1e308: their
    difference overflows, and no step has a finite position."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping["trajectory"]["points"][0]["position"] = [-1e308, 0.8]
    mapping["trajectory"]["points"][-1]["position"] = [1e308, 3.8]
    return mapping, "step 0: true agent position is not finite"


def far_surface():
    """Desk scenario with surface 3 at [-1e308, 0]: its mirror overflows, and
    the first single bounce off it has no finite distance."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping["surfaces"][2] = [-1e308, 0.0]
    return mapping, "step 1, anchor 1, component [3, 3]: distance nan is not finite"


def singular_prediction(section, key, value, block):
    """Desk scenario with ``section.key`` at ``value``: the first prediction
    factors but is singular in working precision (1e30) or overflows the
    eigenvalue ratio (1e200), and the exact condition test names it."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping[section][key] = value
    return mapping, ("step 1: predicted covariance is numerically singular (condition number "
                     f"above 1e+14) (weakest block: {block})")


def flat_velocity_prior():
    return singular_prediction("prior", "velocity_var", 1e30, "agent velocity")


def huge_accel_noise():
    return singular_prediction("model", "accel_noise_var", 1e30, "agent velocity")


def flat_position_prior():
    return singular_prediction("prior", "position_var", 1e200, "agent position")


def huge_time_step():
    """Desk scenario with a 1e100 s time step: the process noise overflows,
    and the first prediction is not finite."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping["model"]["time_step"] = 1e100
    mapping["trajectory"]["points"][-1]["time"] = 4e101
    return mapping, "step 1: predicted covariance is not finite (weakest block: agent position)"


def tiny_prior():
    """Desk scenario with every prior variance at 1e-320 and no process
    noise: the first prediction is finite and positive definite, but its
    inverse passes the float range."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping["prior"] = {key: 1e-320 for key in mapping["prior"]}
    mapping["model"].update(accel_noise_var=0.0, orient_noise_var=0.0, surface_noise_var=0.0)
    return mapping, ("step 1: predicted covariance has no finite inverse "
                     "(weakest block: agent position)")


def degenerate_desk(anchor_position, **overrides):
    """Desk scenario on a straight run whose step 10 pose is at [1.5, 0.8]."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    mapping["trajectory"]["points"] = [{"time": 0.0, "position": [0.5, 0.8]},
                                       {"time": 4.0, "position": [4.5, 0.8]}]
    mapping["anchors"][0]["position"] = anchor_position
    mapping.update(overrides)
    return mapping, "step 10"


def agent_on_anchor():
    return degenerate_desk([1.5, 0.8])


def anchor_at_agent_image(bounces):
    """Desk scenario whose anchor 1 is the step 1 agent position mirrored
    about the surfaces of ``bounces``, agent side first: at step 1 the agent
    sits on that path's virtual anchor."""
    mapping = yaml.safe_load(DESK_SCENARIO.read_text())
    scenario = scenario_from_mapping(mapping)
    position = ground_truth(scenario)[1][0:2]
    for s in reversed(bounces):
        position = mirror(scenario.surfaces, position, s)
    mapping["anchors"][0]["position"] = position.tolist()
    return mapping


def agent_on_single_bounce_image():
    return anchor_at_agent_image((1,)), ("step 1, anchor 1, component [1, 1]: agent coincides "
                                         "with virtual anchor\n")


def agent_on_double_bounce_image():
    return anchor_at_agent_image((1, 2)), ("step 1, anchor 1, component [1, 2]: agent coincides "
                                           "with virtual anchor\n")


def los_at_endfire():
    ula = {"kind": "ula", "num_elements": 4, "element_spacing": 0.025}
    return degenerate_desk([1.5, 3.0], agent_aperture=ula)


def variance_before_endfire():
    """The line of sight at endfire at step 10, and a bandwidth of 1e308
    that underflows every distance variance to 0 from step 1: step 1 is
    named, on the lowest anchor."""
    mapping, _ = los_at_endfire()
    mapping["signal"]["rms_bandwidth"] = 1e308
    return mapping, ("step 1, anchor 1, component [0, 0]: distance variance 0.0 "
                     "is not finite and positive")


def bounce_at_endfire():
    """A single bounce at the agent array's endfire at step 10, behind the
    LOS and three other single bounces in anchor 1's batch."""
    mapping, _ = degenerate_desk([0.3, 0.3])
    scenario = scenario_from_mapping(mapping)
    state = ground_truth(scenario)[10]
    # arrival from the virtual anchor of anchor 1 in wall 4 (y = -1)
    arrival = virtual_anchor(scenario.anchors[0], (4,), scenario.surfaces) - state[0:2]
    mapping["agent_aperture"] = {
        "kind": "ula", "num_elements": 4, "element_spacing": 0.025,
        "broadside": math.atan2(arrival[1], arrival[0]) - float(state[4]) + math.pi / 2,
    }
    return mapping, "step 10, anchor 1, component [4, 4]: squared aperture"


@pytest.fixture
def scenario_file(tmp_path):
    mapping = desk_mapping()
    mapping["mc"] = {"runs": 3, "seed": 21}
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(mapping))
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestBoundsMode:
    def test_csv_schema_and_row_count(self, scenario_file, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main(["--scenario", str(scenario_file), "--mode", "bounds",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["n", "peb", "veb", "oeb", "meb_1"]
        assert len(rows) == 20
        assert [r[0] for r in rows] == [str(n) for n in range(1, 21)]
        # at least nine significant digits survive the formatting
        assert any(len(r[1].replace(".", "").replace("-", "").lstrip("0")) >= 9
                   for r in rows)

    def test_csv_ends_with_newline(self, scenario_file, tmp_path):
        out = tmp_path / "bounds.csv"
        main(["--scenario", str(scenario_file), "--mode", "bounds", "--out", str(out)])
        assert out.read_bytes().endswith(b"\n")

    def test_byte_identical_reruns(self, scenario_file, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["--scenario", str(scenario_file), "--mode", "bounds",
                     "--out", str(out_a)]) == 0
        assert main(["--scenario", str(scenario_file), "--mode", "bounds",
                     "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_bounds_mode_never_derives_a_random_stream(self, scenario_file,
                                                       tmp_path, monkeypatch):
        import mpslam_bounds.scenario as scenario_module
        import mpslam_bounds.streams as streams_module

        def boom(*args, **kwargs):
            raise AssertionError("random stream constructed in bounds mode")

        monkeypatch.setattr(streams_module.RandomStream, "__init__", boom)
        monkeypatch.setattr(scenario_module, "trajectory_stream", boom)
        out = tmp_path / "bounds.csv"
        assert main(["--scenario", str(scenario_file), "--mode", "bounds",
                     "--out", str(out)]) == 0


class TestValidateMode:
    def test_csv_gains_rmse_columns(self, scenario_file, tmp_path):
        out = tmp_path / "validate.csv"
        code = main(["--scenario", str(scenario_file), "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["n", "peb", "veb", "oeb", "meb_1",
                          "rmse_pos", "rmse_vel", "rmse_orient", "maperr_1"]
        assert len(rows) == 20

    def test_overrides_change_the_output(self, scenario_file, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["--scenario", str(scenario_file), "--out", str(out_a),
              "--mc-runs", "2", "--seed", "5"])
        main(["--scenario", str(scenario_file), "--out", str(out_b),
              "--mc-runs", "2", "--seed", "6"])
        header_a, rows_a = read_rows(out_a)
        header_b, rows_b = read_rows(out_b)
        assert header_a == header_b
        assert rows_a != rows_b  # seeds differ, RMSE columns differ
        # bounds columns are seed-independent
        assert [r[:5] for r in rows_a] == [r[:5] for r in rows_b]

    def test_summary_printed_to_stderr(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "v.csv"
        main(["--scenario", str(scenario_file), "--out", str(out), "--mc-runs", "2"])
        err = capsys.readouterr().err
        assert "bound summary" in err
        assert "RMSE / bound" in err
        assert "assumptions" in err

    @pytest.mark.parametrize("pass_steps", [None, 12], ids=["default_cap", "12_step_cap"])
    def test_truth_is_resolved_once_per_pass_of_a_step_layout(self, pass_steps, tmp_path,
                                                               monkeypatch):
        """Validate mode evaluates the channel at the truth once per truth
        pass: one gradient pass over all anchors, holding one batched
        geometry pass, and one noise-model call for all anchors; the filter's own
        passes are not counted. Every desk step has the same layout, all 34
        paths visible. A pass holds as many of its steps as the pass cap
        admits (29 desk steps by default); a cap of 12 leaves 40 steps in
        three full passes and a partial one."""
        import mpslam_bounds.fim as fim_module
        import mpslam_bounds.scenario as scenario_module

        scenario = load_scenario(DESK_SCENARIO)
        # one step's gradient over the visible paths: every component of every anchor
        step_bytes = 24 * (scenario.dim + 2) * scenario.order.size * len(scenario.anchors)
        if pass_steps is not None:
            monkeypatch.setattr(scenario_module, "TRUTH_PASS_BYTES", pass_steps * step_bytes)
        size = scenario_module.TRUTH_PASS_BYTES // step_bytes
        passes = math.ceil(scenario.n_steps / size)
        assert passes == {None: 2, 12: 4}[pass_steps]

        calls = {"global_jacobian": 0, "path_geometry": 0, "measurement_variances": 0}
        in_truth = []

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                in_truth.append(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    in_truth.pop()
            return wrapper

        def geometry_in_truth(*args, **kwargs):
            calls["path_geometry"] += bool(in_truth)
            return exact_geometry(*args, **kwargs)

        for name in ("global_jacobian", "measurement_variances"):
            monkeypatch.setattr(scenario_module, name,
                                counted(name, getattr(scenario_module, name)))
        exact_geometry = fim_module.path_geometry
        monkeypatch.setattr(fim_module, "path_geometry", geometry_in_truth)
        out = tmp_path / "validate.csv"
        assert main(["--scenario", str(DESK_SCENARIO), "--mc-runs", "2",
                     "--out", str(out)]) == 0
        assert calls == {"global_jacobian": passes, "path_geometry": passes,
                         "measurement_variances": passes}

    def test_filter_linearizes_once_per_measured_step(self, tmp_path, monkeypatch):
        """Validate mode makes one gradient pass per measured filter step, for
        all anchors and all runs of the batch at once, besides the truth
        table's passes, one per step layout unless the pass cap cuts it: on
        the desk with two runs, 40 filter passes and 2 truth passes."""
        import mpslam_bounds.scenario as scenario_module

        calls = []

        def counted(module):
            exact = module.global_jacobian

            def wrapper(*args, **kwargs):
                calls.append(module.__name__.rpartition(".")[2])
                return exact(*args, **kwargs)
            return wrapper

        for module in (ekf, scenario_module):
            monkeypatch.setattr(module, "global_jacobian", counted(module))
        out = tmp_path / "validate.csv"
        assert main(["--scenario", str(DESK_SCENARIO), "--mc-runs", "2",
                     "--out", str(out)]) == 0
        assert (calls.count("ekf"), calls.count("scenario"), len(calls)) == (40, 2, 42)

    def test_channel_information_is_taken_once_per_record(self, tmp_path, monkeypatch):
        """1 / variance depends only on the truth record: the truth pass
        computes it for its steps (one call per pass, two on the desk) and
        the filter reads it from the records at each of its 40 measured
        steps, without a call of its own."""
        import mpslam_bounds.fim as fim_module
        import mpslam_bounds.scenario as scenario_module

        calls, exact = [], fim_module.channel_fim

        def counted(variances):
            calls.append(np.shape(variances)[:-2])
            return exact(variances)

        for module in (fim_module, scenario_module, ekf):
            if hasattr(module, "channel_fim"):
                monkeypatch.setattr(module, "channel_fim", counted)
        out = tmp_path / "validate.csv"
        assert main(["--scenario", str(DESK_SCENARIO), "--mc-runs", "2",
                     "--out", str(out)]) == 0
        assert len(calls) == 2 and sum(steps for steps, in calls) == 40

    @pytest.mark.parametrize("pass_steps", [None, 12])
    def test_one_path_plan_per_path_list(self, pass_steps, tmp_path, monkeypatch):
        """A desk validate call builds one path plan: all 40 desk steps see
        the same components of both anchors, so the truth pass builds one
        for that step layout, shared by its passes (two, or four under a
        12-step cap), and the filter linearizes every step through that
        same plan object, its records' own."""
        import mpslam_bounds.scenario as scenario_module
        from mpslam_bounds.fim import PathPlan

        scenario = load_scenario(DESK_SCENARIO)
        step_bytes = 24 * (scenario.dim + 2) * scenario.order.size * len(scenario.anchors)
        if pass_steps is not None:
            monkeypatch.setattr(scenario_module, "TRUTH_PASS_BYTES", pass_steps * step_bytes)
        built, exact_init = [], PathPlan.__init__

        def counted_init(plan, *args, **kwargs):
            built.append(plan)
            exact_init(plan, *args, **kwargs)

        monkeypatch.setattr(PathPlan, "__init__", counted_init)
        passed = {"ekf": [], "scenario": []}

        def through(module):
            exact = module.global_jacobian

            def wrapper(agent, plan, surfaces):
                passed[module.__name__.rpartition(".")[2]].append(plan)
                return exact(agent, plan, surfaces)
            return wrapper

        for module in (ekf, scenario_module):
            monkeypatch.setattr(module, "global_jacobian", through(module))
        out = tmp_path / "validate.csv"
        assert main(["--scenario", str(DESK_SCENARIO), "--mc-runs", "2",
                     "--out", str(out)]) == 0
        assert len(built) == 1
        assert (len(passed["ekf"]), len(passed["scenario"])) == (40, 4 if pass_steps else 2)
        assert all(plan is built[0] for plans in passed.values() for plan in plans)

    def test_validate_run_takes_no_eigenvalues(self, tmp_path, monkeypatch):
        """Every inversion of a desk validate run passes the trace screen, so
        none computes eigenvalues."""
        calls, exact = [], np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(None)
            return exact(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        out = tmp_path / "validate.csv"
        assert main(["--scenario", str(DESK_SCENARIO), "--mc-runs", "4",
                     "--out", str(out)]) == 0
        assert calls == []

    def test_validate_run_inverts_twice_per_step_for_bound_and_runs(self, tmp_path,
                                                                    monkeypatch):
        """The bound steps as entry 0 of the runs' stack: a desk validate call
        with 2 runs inverts one predicted covariance stack and one posterior
        stack per step, 80 calls over 40 steps (160 with the bound apart)."""
        calls, exact = [], np.linalg.inv

        def counted(*args, **kwargs):
            calls.append(None)
            return exact(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counted)
        out = tmp_path / "validate.csv"
        assert main(["--scenario", str(DESK_SCENARIO), "--mc-runs", "2",
                     "--out", str(out)]) == 0
        assert len(calls) == 80

    def test_whole_float_step_count_reads_as_the_integer(self, tmp_path):
        """``n_steps: 40.0`` gives the CSV of ``n_steps: 40``, byte for byte."""
        mapping = yaml.safe_load(DESK_SCENARIO.read_text())
        outputs = []
        for n_steps in (40, 40.0):
            mapping["trajectory"]["n_steps"] = n_steps
            path = tmp_path / f"steps-{n_steps!r}.yaml"
            path.write_text(yaml.safe_dump(mapping))
            outputs.append(tmp_path / f"steps-{n_steps!r}.csv")
            assert main(["--scenario", str(path), "--mc-runs", "2", "--out", str(outputs[-1])]) == 0
        assert "n_steps: 40.0" in path.read_text()
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_stdout_receives_csv_when_no_out(self, scenario_file, capsys):
        main(["--scenario", str(scenario_file), "--mode", "bounds"])
        captured = capsys.readouterr()
        assert captured.out.startswith("n,peb,veb,oeb")


class TestErrors:
    def test_missing_scenario_flag_is_config_error(self, capsys):
        assert main([]) == 2
        assert "--scenario" in capsys.readouterr().err

    def test_bad_scenario_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("anchors: 5\n")
        assert main(["--scenario", str(path)]) == 2
        assert capsys.readouterr().err == "error: scenario.anchors: expected a list\n"

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    def test_malformed_yaml_is_config_error(self, loader, tmp_path, capsys, monkeypatch):
        """An unclosed flow sequence fails to parse with the C scanner and
        parser as with the Python ones: exit 2 naming the file."""
        import mpslam_bounds.scenario as scenario_module

        if not hasattr(yaml, loader):
            pytest.skip(f"PyYAML was built without {loader}")
        monkeypatch.setattr(scenario_module, "YAML_LOADER", getattr(yaml, loader))
        path = tmp_path / "malformed.yaml"
        path.write_text("anchors: [[0.3, 0.3]\nsurfaces: []\n")
        assert main(["--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: invalid YAML" in err

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    def test_duplicate_yaml_key_is_config_error(self, loader, tmp_path, capsys, monkeypatch):
        """A key repeated within one mapping exits 2 naming the key and its
        line, with the C parser as with the Python one; a key that overrides
        one a ``<<`` merge brought in is not repeated."""
        import mpslam_bounds.scenario as scenario_module

        if not hasattr(yaml, loader):
            pytest.skip(f"PyYAML was built without {loader}")
        monkeypatch.setattr(scenario_module, "YAML_LOADER", getattr(yaml, loader))
        text = DESK_SCENARIO.read_text()
        assert text.endswith("mc:\n  runs: 100\n  seed: 98765\n")
        repeated = text.replace("  runs: 100\n", "  runs: 3\n  runs: 100\n")
        line = repeated.splitlines().index("  runs: 100") + 1
        path = tmp_path / "repeated.yaml"
        path.write_text(repeated)
        out = tmp_path / "out.csv"
        assert main(["--scenario", str(path), "--mc-runs", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid YAML: ")
        assert f"found duplicate key 'runs'\n  in \"<unicode string>\", line {line}," in err
        assert not out.exists()
        path.write_text(text.replace("  runs: 100\n", "  <<: {runs: 3}\n  runs: 1\n"))
        assert load_scenario(path).mc.runs == 1

    def test_unknown_key_reported_with_path(self, tmp_path, capsys):
        mapping = desk_mapping()
        mapping["model"]["bogus_knob"] = 1.0
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert main(["--scenario", str(path)]) == 2
        assert "model.bogus_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["bounds", "validate"])
    @pytest.mark.parametrize("first, last, message", [
        (0.5, 4.0, "first waypoint is at 0.5 s, must be at time <= 0"),
        (0.0, 3.0, "waypoints end at 3.0 s but the trajectory needs 4.0 s"),
    ], ids=["late_first_point", "early_last_point"])
    def test_bad_waypoint_timing_is_config_error(self, first, last, message, mode, tmp_path,
                                                 capsys):
        """The desk run needs waypoints spanning 0 .. 4.0 s; the scenario
        checks its trajectory against its time step."""
        mapping = yaml.safe_load(DESK_SCENARIO.read_text())
        mapping["trajectory"]["points"][0]["time"] = first
        mapping["trajectory"]["points"][-1]["time"] = last
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert main(["--scenario", str(path), "--mode", mode, "--mc-runs", "1"]) == 2
        assert capsys.readouterr().err == f"error: scenario: {message}\n"

    @pytest.mark.parametrize("mode", ["bounds", "validate"])
    @pytest.mark.parametrize("case", [singular_mapping, agent_on_anchor,
                                      agent_on_single_bounce_image, agent_on_double_bounce_image,
                                      los_at_endfire, bounce_at_endfire, variance_before_endfire,
                                      huge_bandwidth, huge_aperture, huge_ula_spacing,
                                      huge_position_prior, huge_surface_prior,
                                      huge_reference_amplitude, tiny_bounce_loss,
                                      far_waypoint, far_velocity, far_waypoints, far_surface,
                                      flat_velocity_prior, huge_accel_noise, flat_position_prior,
                                      huge_time_step, tiny_prior])
    def test_numerical_failure_exit_code(self, case, mode, tmp_path, capsys):
        """Exit 3 naming the step (and the block, or the anchor and component),
        with no numpy warning on the way."""
        mapping, expected = case()
        path = tmp_path / "failing.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--scenario", str(path), "--mode", mode, "--mc-runs", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical failure" in err and expected in err
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    # CSV column -> (table, column index, the non-finite value put there)
    POISON = {"peb": ("bounds", 0, math.nan), "veb": ("bounds", 1, math.nan),
              "rmse_pos": ("rmse", 0, math.inf), "maperr_1": ("rmse", 3, math.inf)}

    @pytest.mark.parametrize("column, step, other", [
        ("peb", 3, None), ("maperr_1", 5, None),
        ("maperr_1", 5, ("peb", 7)), ("veb", 3, ("rmse_pos", 3)),
    ], ids=["peb-3", "maperr_1-5", "earliest_step_first", "leftmost_column_first"])
    def test_non_finite_csv_value_is_numerical_failure(self, column, step, other, scenario_file,
                                                       tmp_path, capsys, monkeypatch):
        """A value that turns non-finite with no error on the way is caught
        before anything is written: exit 3 naming the column and the step of
        the first non-finite cell, the earliest step first, then the leftmost
        column; ``other`` poisons a later cell too."""
        import mpslam_bounds.cli as cli_module

        exact = cli_module.run_monte_carlo

        def poisoned(scenario):
            bounds, rmse = exact(scenario)
            tables = {"bounds": bounds, "rmse": rmse}
            for name, n in [(column, step)] + ([other] if other else []):
                table, index, value = self.POISON[name]
                tables[table][n - 1, index] = value
            return bounds, rmse

        monkeypatch.setattr(cli_module, "run_monte_carlo", poisoned)
        out = tmp_path / "validate.csv"
        code = main(["--scenario", str(scenario_file), "--mc-runs", "1", "--out", str(out)])
        assert code == 3
        value = self.POISON[column][2]
        assert (f"numerical failure: step {step}: {column} is not finite ({value})\n"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_programming_error_is_not_a_numerical_failure(self, scenario_file, monkeypatch):
        """Exit 3 is a FloatingPointError and nothing else: a plain
        RuntimeError from the numerics propagates as it is."""
        import mpslam_bounds.cli as cli_module

        def broken(scenario, table):
            raise RuntimeError("not a numerical failure")

        monkeypatch.setattr(cli_module, "run_recursion", broken)
        with pytest.raises(RuntimeError, match="^not a numerical failure$"):
            main(["--scenario", str(scenario_file), "--mode", "bounds"])

    @pytest.mark.parametrize("kind, n_steps, n_anchors, limit", [
        ("sampled_ncv", 10**12, 2, 82278), ("sampled_ncv", 10**30, 2, 82278),
        ("waypoints", 10**400, 2, 82278), ("waypoints", 10**4, 1000, 252),
    ], ids=["sampled_1e12", "sampled_1e30", "waypoints_1e400", "waypoints_1e4_1000_anchors"])
    def test_huge_step_count_is_config_error(self, kind, n_steps, n_anchors, limit,
                                             tmp_path, capsys):
        """A step count whose per-step tables would pass ``STEP_TABLE_BYTES``
        exits 2 naming the field before any per-step array (the visibility
        table, the poses) is allocated; the limit falls as the room grows."""
        mapping = yaml.safe_load(DESK_SCENARIO.read_text())
        if kind == "sampled_ncv":
            mapping["trajectory"] = {"kind": kind, "position": [1.0, 1.0],
                                     "velocity": [0.5, 0.2]}
        mapping["trajectory"]["n_steps"] = n_steps
        mapping["anchors"] = (mapping["anchors"] * n_anchors)[:n_anchors]
        path = tmp_path / "long.yaml"
        path.write_text(yaml.safe_dump(mapping))
        tracemalloc.start()
        try:
            code = main(["--scenario", str(path), "--mode", "bounds"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert (f"error: scenario.trajectory.n_steps: must be at most {limit} in this room"
                in capsys.readouterr().err)
        assert peak < 2**24

    @pytest.mark.parametrize("mode", ["bounds", "validate"])
    @pytest.mark.parametrize("section, value, message", [
        ("signal", {"carrier_freq": 0},
         "scenario.signal: carrier_freq must be positive and finite"),
        ("amplitude_model", {"bounce_loss": 1.5},
         "scenario.amplitude_model: bounce_loss must lie in (0, 1]"),
        ("agent_aperture", {"kind": "ula", "num_elements": 1, "element_spacing": 0.025},
         "scenario.agent_aperture: a linear array needs at least 2 elements"),
        ("agent_aperture", {"kind": "ula", "num_elements": 4, "element_spacing": 0.0},
         "scenario.agent_aperture: element spacing must be positive and finite"),
        ("trajectory", {"n_steps": 0}, "scenario.trajectory: n_steps must be >= 1"),
        ("trajectory", {"kind": "sampled_ncv", "n_steps": 0, "position": [0.8, 0.8],
                        "velocity": [0.9, 0.75]}, "scenario.trajectory: n_steps must be >= 1"),
    ], ids=["zero_carrier", "bounce_gain", "one_element_ula", "zero_spacing_ula",
            "no_waypoint_steps", "no_sampled_steps"])
    def test_out_of_range_section_value_is_config_error(self, section, value, message, mode,
                                                        tmp_path, capsys):
        """A section value its model rejects exits 2 with exactly one line
        naming the section; ``value`` updates the desk's section, or replaces
        it where it names a kind."""
        mapping = yaml.safe_load(DESK_SCENARIO.read_text())
        mapping[section] = value if "kind" in value else {**mapping[section], **value}
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        out = tmp_path / "out.csv"
        assert main(["--scenario", str(path), "--mode", mode, "--mc-runs", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["bounds", "validate"])
    @pytest.mark.parametrize("field", ["agent_aperture", "anchors[1].aperture"])
    def test_ula_gain_beyond_the_float_range_is_config_error(self, field, mode, tmp_path,
                                                            capsys):
        """A linear array whose gain M (M^2 - 1) / 12 passes the float range
        exits 2 naming the aperture; a large gain within the range still
        reaches the numerics and exits 3."""
        mapping = yaml.safe_load(DESK_SCENARIO.read_text())
        ula = {"kind": "ula", "num_elements": 10**200, "element_spacing": 0.025}
        if field == "agent_aperture":
            mapping["agent_aperture"] = ula
        else:
            mapping["anchors"][1]["aperture"] = ula
        path = tmp_path / "ula.yaml"
        path.write_text(yaml.safe_dump(mapping))
        argv = ["--scenario", str(path), "--mode", mode, "--mc-runs", "1",
                "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert (f"error: scenario.{field}: num_elements is too large: its gain passes "
                "the float range" in capsys.readouterr().err)
        ula["num_elements"] = 10**7
        path.write_text(yaml.safe_dump(mapping))
        assert main(argv) == 3
        assert "numerical failure: step 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_run_batch_beyond_the_table_limit_is_config_error(self, source, tmp_path, capsys):
        """A run count whose batch (draws, noisy measurements, squared errors
        and step transients) would pass ``STEP_TABLE_BYTES`` exits 2 naming where the
        count came from, before any stream or per-run array is built."""
        mapping = yaml.safe_load(DESK_SCENARIO.read_text())
        argv = ["--mc-runs", "1000000000"] if source == "flag" else []
        if source == "file":
            mapping["mc"]["runs"] = 10**9
        path = tmp_path / "many.yaml"
        path.write_text(yaml.safe_dump(mapping))
        tracemalloc.start()
        try:
            code = main(["--scenario", str(path), *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        field = "--mc-runs" if source == "flag" else "scenario.mc.runs"
        assert code == 2
        assert (f"error: {field}: must be at most 10177 in this room"
                in capsys.readouterr().err)
        assert peak < 2**24

    @pytest.mark.parametrize("flag, value, rule", [
        ("--mc-runs", "0", "mc.runs must be >= 1"),
        ("--seed", "-1", "mc.seed must be an unsigned 64-bit integer"),
        ("--seed", str(2**64), "mc.seed must be an unsigned 64-bit integer"),
    ])
    def test_bad_run_count_or_seed_flag_names_the_flag(self, flag, value, rule, tmp_path,
                                                        capsys):
        out = tmp_path / "out.csv"
        assert main(["--scenario", str(DESK_SCENARIO), flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag}: {rule}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, rule", [
        ("runs", 0, "mc.runs must be >= 1"),
        ("seed", -1, "mc.seed must be an unsigned 64-bit integer"),
    ])
    def test_bad_run_count_or_seed_in_the_file_names_the_section(self, key, value, rule,
                                                                  tmp_path, capsys):
        """A flag that overrides the bad value does not hide it: the file is
        checked as it is loaded."""
        mapping = yaml.safe_load(DESK_SCENARIO.read_text())
        mapping["mc"][key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        flag = {"runs": "--mc-runs", "seed": "--seed"}[key]
        assert main(["--scenario", str(path), flag, "1"]) == 2
        assert capsys.readouterr().err == f"error: scenario.mc: {rule}\n"

    def test_run_count_does_not_limit_bounds_mode(self, tmp_path):
        """Bounds mode filters no runs, so the file's run count is not sized."""
        mapping = yaml.safe_load(DESK_SCENARIO.read_text())
        mapping["mc"]["runs"] = 10**9
        path = tmp_path / "many.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert main(["--scenario", str(path), "--mode", "bounds",
                     "--out", str(tmp_path / "bounds.csv")]) == 0

    @pytest.mark.parametrize("rule, field", [
        ({"visible": False, "anchors": [], "steps": [999]}, "rules[0].steps[0]"),
        ({"visible": False, "steps": [3, 0]}, "rules[0].steps[1]"),
        ({"visible": False, "anchors": [5]}, "rules[0].anchors[0]"),
        ({"visible": True, "anchors": [1, 0]}, "rules[0].anchors[1]"),
        ({"visible": False, "components": [[0, 0], [9, 9]]}, "rules[0].components[1]"),
        ({"visible": False, "components": [[1, 1], [2, 0]]}, "rules[0].components[1]"),
        ({"visible": False, "steps": {"from": 5, "to": 2}}, "rules[0].steps"),
        ({"visible": False, "steps": 3}, "rules[0].steps"),
        ({"visible": False, "anchors": 1}, "rules[0].anchors"),
        ({"visible": False, "components": "los"}, "rules[0].components"),
        ({"visible": False, "components": [0, 0]}, "rules[0].components[0]"),
    ], ids=["step_999_no_anchors", "step_0", "anchor_5", "anchor_0", "unknown_surface",
            "no_such_pair", "reversed_step_range", "steps_not_a_list", "anchors_not_a_list",
            "components_not_a_list", "component_not_a_pair"])
    @pytest.mark.parametrize("mode", ["bounds", "validate"])
    def test_bad_visibility_rule_is_config_error(self, rule, field, mode, tmp_path, capsys):
        mapping = yaml.safe_load(DESK_SCENARIO.read_text())
        mapping["visibility"] = {"default": True, "rules": [rule]}
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert main(["--scenario", str(path), "--mode", mode, "--mc-runs", "1"]) == 2
        assert f"error: scenario.visibility.{field}: " in capsys.readouterr().err

    def test_visibility_rules_as_a_mapping_is_config_error(self, tmp_path, capsys):
        mapping = yaml.safe_load(DESK_SCENARIO.read_text())
        mapping["visibility"] = {"default": True, "rules": {"visible": False}}
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert main(["--scenario", str(path), "--mode", "bounds"]) == 2
        assert "error: scenario.visibility.rules: expected a list" in capsys.readouterr().err

    def test_unwritable_out_is_config_error(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main(["--scenario", str(scenario_file), "--mode", "bounds", "--out", str(out)])
        assert code == 2
        assert "error: --out:" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_run_is_numerical_failure(self, scenario_file, tmp_path, capsys,
                                                monkeypatch):
        calls, measurement_step = [], ekf._measurement_step

        def diverge_at_step_5(mean, record, observed, scenario):
            # run_single linearizes the runs once per measured step, steps ascending
            calls.append(None)
            information, pull = measurement_step(mean, record, observed, scenario)
            if len(calls) == 5:
                pull[0] = float("nan")
            return information, pull

        monkeypatch.setattr(ekf, "_measurement_step", diverge_at_step_5)
        out = tmp_path / "validate.csv"
        code = main(["--scenario", str(scenario_file), "--mc-runs", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "run 0" in err and "step 5" in err
        assert not out.exists()

    def test_singular_filter_information_is_numerical_failure(self, scenario_file, tmp_path,
                                                               capsys, monkeypatch):
        """An indefinite filter information at one step fails the run through
        the same message as the bound; the bound itself stays fine."""
        calls, fuse = [], ekf.global_snapshot_fim

        def indefinite_at_step_5(jac, lam):
            # the filter's information is built once per measured step, steps ascending
            calls.append(None)
            information = fuse(jac, lam)
            if len(calls) == 5:
                return information - 1e12 * np.eye(len(information))
            return information

        monkeypatch.setattr(ekf, "global_snapshot_fim", indefinite_at_step_5)
        out = tmp_path / "validate.csv"
        code = main(["--scenario", str(scenario_file), "--mc-runs", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "run 0" in err and "step 5" in err and "weakest block" in err
        assert not out.exists()


    def test_one_diverging_run_of_a_batch_is_named(self, scenario_file, tmp_path, capsys,
                                                   monkeypatch):
        """Of three runs filtered as one batch only run 1 diverges, at step 5;
        runs 0 and 2 stay finite. The failure names run 1 and step 5."""
        calls, measurement_step = [], ekf._measurement_step

        def diverge_run_1_at_step_5(mean, record, observed, scenario):
            # one batched linearization per measured step, steps ascending
            calls.append(None)
            information, pull = measurement_step(mean, record, observed, scenario)
            if len(calls) == 5:
                assert len(pull) == 3
                pull[1, 0] = float("nan")
            return information, pull

        monkeypatch.setattr(ekf, "_measurement_step", diverge_run_1_at_step_5)
        out = tmp_path / "validate.csv"
        code = main(["--scenario", str(scenario_file), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "Monte-Carlo run 1 failed: step 5: non-finite" in err
        assert "run 0" not in err and "run 2" not in err
        assert not out.exists()

    def test_singular_information_in_one_run_of_a_batch(self, scenario_file, tmp_path,
                                                        capsys, monkeypatch):
        """An indefinite fused information in run 2 of the batch at step 5
        names run 2, the step and the weakest block."""
        calls, fuse = [], ekf.global_snapshot_fim

        def indefinite_run_2_at_step_5(jac, lam):
            calls.append(None)
            information = fuse(jac, lam)
            if len(calls) == 5:
                information[2] -= 1e12 * np.eye(information.shape[-1])
            return information

        monkeypatch.setattr(ekf, "global_snapshot_fim", indefinite_run_2_at_step_5)
        out = tmp_path / "validate.csv"
        code = main(["--scenario", str(scenario_file), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "Monte-Carlo run 2 failed: step 5:" in err and "weakest block" in err
        assert not out.exists()

    def test_singular_bound_reads_as_in_bounds_mode_after_a_run_failure(
            self, scenario_file, tmp_path, capsys, monkeypatch):
        """The truth information at step 6 is indefinite and run 0 diverges
        at step 3: the validate call exits 3 with the message of bounds mode,
        not the run's, since the bound steps on alone and its failure wins."""
        import mpslam_bounds.cli as cli_module

        exact_truth, exact_step = ekf.measurement_truth, ekf._measurement_step

        def indefinite_at_step_6(scenario, truth):
            table = exact_truth(scenario, truth)
            table[5] = replace(table[5], information=table[5].information
                               - 1e12 * np.eye(scenario.dim))
            return table

        def diverge_at_step_3(mean, record, observed, scenario):
            information, pull = exact_step(mean, record, observed, scenario)
            if record.step == 3:
                pull[0] = float("nan")
            return information, pull

        out = tmp_path / "out.csv"
        validate = ["--scenario", str(scenario_file), "--mc-runs", "1", "--out", str(out)]
        monkeypatch.setattr(ekf, "_measurement_step", diverge_at_step_3)
        assert main(validate) == 3
        assert "numerical failure: Monte-Carlo run 0 failed: step 3:" in capsys.readouterr().err
        for module in (cli_module, ekf):
            monkeypatch.setattr(module, "measurement_truth", indefinite_at_step_6)
        assert main(["--scenario", str(scenario_file), "--mode", "bounds",
                     "--out", str(out)]) == 3
        bounds_err = capsys.readouterr().err
        assert bounds_err.startswith("numerical failure: step 6: posterior information")
        assert main(validate) == 3
        assert capsys.readouterr().err == bounds_err
        assert not out.exists()


class TestPackaging:
    @pytest.mark.parametrize("module", ["scipy", "mpslam_bounds.checks"])
    def test_importing_the_command_line_leaves_out(self, module):
        """scipy is a test dependency only, and ``checks`` is imported by
        ``--self-check`` alone: importing the command line in a fresh
        interpreter leaves each out of sys.modules."""
        source = Path(__file__).resolve().parent.parent / "src"
        check = f"import sys, mpslam_bounds.cli; print({module!r} in sys.modules)"
        result = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(source)}, check=True)
        assert result.stdout.strip() == "False"

    @pytest.mark.parametrize("mode", ["bounds", "validate"])
    def test_neither_mode_imports_numpy_random(self, mode, tmp_path):
        """The streams draw their own Philox words, so a desk call in a fresh
        interpreter leaves numpy.random, and the secrets and OpenSSL modules
        it brings, out of sys.modules."""
        source = Path(__file__).resolve().parent.parent / "src"
        argv = ["--scenario", str(DESK_SCENARIO), "--mode", mode, "--mc-runs", "2",
                "--out", str(tmp_path / "out.csv")]
        check = (f"import sys; from mpslam_bounds.cli import main; code = main({argv!r}); "
                 "print(code, [m for m in ('numpy.random', 'secrets', '_hashlib') "
                 "if m in sys.modules])")
        result = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(source)}, check=True)
        assert result.stdout.strip() == "0 []"


class TestSelfCheck:
    def test_clean_build_passes(self, capsys):
        assert main(["--self-check"]) == 0
        assert "self-check passed" in capsys.readouterr().err

    def test_perturbed_gradient_column_fails(self, capsys, monkeypatch):
        """A wrong entry in the gradient the self-check differentiates
        against (the LOS distance column's x row) exits 4 and names it."""
        from mpslam_bounds import checks

        exact = checks.global_jacobian

        def perturbed(*args, **kwargs):
            params, degenerate, jac = exact(*args, **kwargs)
            if jac.size:  # a pass on no component has no column
                jac[0, 0] += 1e-3
            return params, degenerate, jac

        monkeypatch.setattr(checks, "global_jacobian", perturbed)
        assert main(["--self-check"]) == 4
        err = capsys.readouterr().err
        assert "gradient vs finite differences" in err and "self-check FAILED" in err

    def test_rooms_without_double_bounces_fail(self, capsys, monkeypatch):
        """Random rooms reduced to one surface never draw a double bounce, so
        the orientation check reports the missing path kind and exits 4."""
        from mpslam_bounds import checks

        exact = checks.random_instance
        monkeypatch.setattr(checks, "random_instance", lambda rng, _: exact(rng, 1))
        assert main(["--self-check"]) == 4
        assert "only [0, 1]-bounce paths drawn" in capsys.readouterr().err


    @pytest.mark.parametrize("target, perturb, message", [
        ("global_jacobian", lambda result: bend_arrival_row(result, 4),
         "orientation sensitivity: instance"),
        ("path_geometry", lambda geo: replace(geo, departure_local=geo.departure_local * 1.001),
         "mirror length: instance"),
        ("path_geometry", lambda geo: replace(geo, chain=geo.chain + 1e-3),
         "mirrored-agent sensitivity: instance"),
        ("channel_fim", lambda lam: -lam, "has eigenvalue"),
        ("global_jacobian", lambda result: bend_arrival_row(result, 2), "has velocity coupling"),
    ], ids=["orientation_row", "mirror_length", "chain", "negative_information",
            "velocity_row"])
    def test_each_invariant_can_fail(self, target, perturb, message, capsys, monkeypatch):
        """A wrong value where each check reads it exits 4 with that check's
        own message: row 4 of the gradient's arrival block, a departure
        vector or a reflection product of the geometry pass, negative
        channel information, a velocity row of the gradient."""
        from mpslam_bounds import checks

        exact = getattr(checks, target)
        monkeypatch.setattr(checks, target, lambda *args: perturb(exact(*args)))
        assert main(["--self-check"]) == 4
        err = capsys.readouterr().err
        assert message in err and "self-check FAILED" in err


def bend_arrival_row(result, row):
    """A channel pass's (params, degenerate, gradient) with 1e-3 added to
    gradient ``row`` across the arrival-azimuth block."""
    params, degenerate, jac = result
    n = jac.shape[-1] // 3
    jac[row, n:2 * n] += 1e-3
    return params, degenerate, jac


class TestBenchmarkTracerNames:
    def test_every_name_the_tracer_wraps_is_bound(self):
        """bench/tracing.py wraps package functions by name; each of its
        BOUNDARY and METHODS names must resolve, so a rename fails here and
        not only in the traced benchmark run. The file is parsed, not run."""
        source = (DESK_SCENARIO.parent.parent / "bench" / "tracing.py").read_text()
        tables = {target.id: ast.literal_eval(node.value)
                  for node in ast.parse(source).body if isinstance(node, ast.Assign)
                  for target in node.targets
                  if getattr(target, "id", None) in ("BOUNDARY", "METHODS")}
        unbound = []
        for layer, names in tables["BOUNDARY"].items():
            module = importlib.import_module(f"mpslam_bounds.{layer}")
            unbound += [f"{layer}.{name}" for name in names
                        if not callable(getattr(module, name, None))]
        for layer, (cls_name, methods) in tables["METHODS"].items():
            cls = getattr(importlib.import_module(f"mpslam_bounds.{layer}"), cls_name, None)
            unbound += [f"{layer}.{cls_name}.{name}" for name in methods
                        if cls is None or name not in vars(cls)]
        assert tables["BOUNDARY"] and unbound == []
