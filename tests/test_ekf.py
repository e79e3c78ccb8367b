"""EKF estimator: prediction, information-form updates and Monte-Carlo aggregation."""

import copy
import logging
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from mpslam_bounds.ekf import (
    _linearize,
    ekf_predict,
    ekf_update,
    max_runs,
    run_monte_carlo,
    run_single,
)
from mpslam_bounds.fim import ComponentOrder, PathPlan, channel_fim, global_jacobian
from mpslam_bounds.geometry import wrap_angle
from mpslam_bounds.pcrlb import (
    extract_bounds,
    fuse,
    predict_cov,
    predict_fim,
    process_noise_cov,
    run_recursion,
    transition_matrix,
)
from mpslam_bounds.scenario import (
    STEP_TABLE_BYTES,
    MonteCarloConfig,
    ScenarioError,
    draw_measurements,
    ground_truth,
    load_scenario,
    measurement_truth,
    scenario_from_mapping,
)
from mpslam_bounds.streams import derive_run_stream
from tests.reference_filter import filter_run, update_one
from tests.reference_geometry import lone_plan, virtual_anchor
from tests.reference_kalman import joseph_update
from tests.test_pcrlb import desk_mapping

DESK_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "desk.yaml"


def small_scenario(**overrides):
    return scenario_from_mapping(desk_mapping(**overrides))


def drawn_step(scenario, truth, step, rng):
    """The truth record of ``step`` and its rows in one draw of the whole table."""
    table = measurement_truth(scenario, truth)
    return table[step - 1], draw_measurements(table, [rng])[step - 1][0]


def side_by_side(blocks):
    """Per-block (..., 3 n_j) vectors laid side by side in the compact layout
    of all n paths: the distances of every block, then the arrivals, then
    the departures."""
    return np.concatenate([b.reshape(b.shape[:-1] + (3, -1)) for b in blocks],
                          axis=-1).reshape(blocks[0].shape[:-1] + (-1,))


class TestPredict:
    def test_stationary_mean_unchanged_without_noise(self):
        scenario = small_scenario()
        transition = transition_matrix(scenario.model, len(scenario.surfaces))
        mean = np.zeros(scenario.dim)
        mean[0:2] = [1.0, 2.0]  # zero velocity
        predicted, _ = ekf_predict(mean, np.eye(scenario.dim), transition,
                                   np.zeros((scenario.dim,) * 2))
        np.testing.assert_allclose(predicted, mean)

    def test_covariance_trace_never_shrinks_from_diagonal(self):
        # congruence with the velocity coupling only adds variance when the
        # covariance carries no negative position-velocity correlations
        scenario = small_scenario()
        transition = transition_matrix(scenario.model, len(scenario.surfaces))
        noise = process_noise_cov(scenario.model, len(scenario.surfaces))
        rng = np.random.default_rng(3)
        mean = rng.normal(size=scenario.dim)
        cov = np.diag(rng.uniform(0.1, 2.0, size=scenario.dim))
        _, predicted = ekf_predict(mean, cov, transition, noise)
        assert predicted.trace() >= cov.trace() - 1e-9

    def test_matches_information_prediction(self):
        """The information prediction inverts the covariance form F P F^T + Q."""
        scenario = small_scenario()
        transition = transition_matrix(scenario.model, len(scenario.surfaces))
        noise = process_noise_cov(scenario.model, len(scenario.surfaces))
        rng = np.random.default_rng(5)
        a = rng.normal(size=(scenario.dim, scenario.dim))
        cov = a @ a.T + np.eye(scenario.dim)
        _, predicted = ekf_predict(np.zeros(scenario.dim), cov, transition, noise)
        j_pred = predict_fim(predicted, 1)
        np.testing.assert_allclose(
            np.linalg.inv(predicted), j_pred, rtol=1e-8, atol=1e-10
        )


class TestUpdate:
    def test_no_measurements_leave_state_unchanged(self):
        scenario = small_scenario(visibility={"default": False})
        record = measurement_truth(scenario, ground_truth(scenario))[0]
        assert record.plan.owner.size == 0
        mean, cov = np.zeros((1, scenario.dim)), np.stack([np.eye(scenario.dim)] * 2)
        updated_mean, updated_cov = ekf_update(mean, cov, record, np.zeros((1, 0, 3)), scenario)
        assert updated_mean is mean
        np.testing.assert_array_equal(updated_cov[1:], cov[1:])

    @pytest.mark.parametrize(
        "agent_aperture",
        [{"kind": "isotropic", "d_squared": 0.005},
         {"kind": "ula", "num_elements": 4, "element_spacing": 0.025}],
        ids=["isotropic", "ula"],
    )
    def test_measurement_matrix_is_transposed_joint_gradient(self, agent_aperture):
        """The step's linearization holds, side by side, each anchor's
        joint-state gradient matrix of its measured components; its channel
        information maps the variances the measurements were drawn with
        (also where the aperture depends on the azimuth) and its innovation
        is observed minus predicted. Each anchor's plan gathers its position
        and orientation once per path, as the one pass over all anchors does,
        so the expected terms take the same arithmetic and must match bit for
        bit."""
        scenario = small_scenario(agent_aperture=agent_aperture)
        order = scenario.order
        truth = ground_truth(scenario)
        record, observed = drawn_step(scenario, truth, 3, derive_run_stream(0, 0))
        mean = truth[3]
        jac, lam, innovation = _linearize(mean, record, observed, scenario)
        owners = [record.plan.owner == j for j in range(len(scenario.anchors))]
        assert len(owners) == 2 and all(own.any() for own in owners)

        surfaces = mean[5:].reshape(-1, 2)
        gradients, residuals = [], []
        for anchor, own in zip(scenario.anchors, owners):
            params, _, gradient = global_jacobian(
                mean, lone_plan(order, record.plan.components[own], anchor), surfaces)
            residual = observed[own] - params
            residual[:, 1:] = np.vectorize(wrap_angle)(residual[:, 1:])
            gradients.append(gradient)
            residuals.append(residual.T.ravel())
        expected = side_by_side(gradients)
        assert jac.shape == expected.shape == (scenario.dim, 3 * record.plan.owner.size)
        np.testing.assert_array_equal(jac, expected)
        np.testing.assert_array_equal(
            lam, side_by_side([channel_fim(record.variances[own]) for own in owners]))
        np.testing.assert_array_equal(innovation, side_by_side(residuals))

    def test_near_exact_measurements_pull_position_error_down(self):
        mapping = desk_mapping()
        mapping["amplitude_model"] = {"reference_amplitude": 2e4, "bounce_loss": 1.0}
        mapping["visibility"] = {"default": False,
                                 "rules": [{"visible": True, "components": [[0, 0]]}]}
        scenario = scenario_from_mapping(mapping)
        truth = ground_truth(scenario)
        record, meas = drawn_step(scenario, truth, 1, derive_run_stream(1, 0))
        prior = scenario.prior_covariance() * 0.01
        rng = derive_run_stream(9, 0)
        mean = truth[1]
        mean = mean + np.sqrt(prior) * rng.standard_normal(prior.size)
        before = np.linalg.norm(mean[:2] - truth[1, 0:2])
        updated, _ = update_one(mean, np.diag(prior), record, meas, scenario)
        after = np.linalg.norm(updated[:2] - truth[1, 0:2])
        assert after < before

    def test_covariance_stays_positive_definite_over_fifty_steps(self):
        mapping = desk_mapping()
        mapping["trajectory"] = {"kind": "waypoints", "n_steps": 50,
                                 "points": [{"time": 0.0, "position": [1.0, 1.0]},
                                            {"time": 5.0, "position": [4.0, 2.5]}]}
        scenario = scenario_from_mapping(mapping)
        truth = ground_truth(scenario)
        rng = derive_run_stream(scenario.mc.seed, 0)
        prior = scenario.prior_covariance()
        mean = truth[0]
        mean = mean + np.sqrt(prior) * rng.standard_normal(prior.size)
        cov = np.diag(prior)
        table = measurement_truth(scenario, truth)
        measured = draw_measurements(table, [rng])
        transition = transition_matrix(scenario.model, len(scenario.surfaces))
        noise = process_noise_cov(scenario.model, len(scenario.surfaces))
        for n in range(1, 51):
            mean, cov = ekf_predict(mean, cov, transition, noise)
            mean, cov = update_one(mean, cov, table[n - 1], measured[n - 1][0], scenario)
            assert np.linalg.eigvalsh(cov)[0] > 0.0

    def test_degenerate_linearization_rows_are_skipped(self, caplog):
        """Components bouncing on a surface estimated at the origin get
        exactly zero information and innovation; the rest keep theirs."""
        scenario = small_scenario()
        order = scenario.order
        truth = ground_truth(scenario)
        record, observed = drawn_step(scenario, truth, 1, derive_run_stream(0, 0))
        mean = truth[1].copy()
        mean[5:7] = [0.0, 0.0]  # surface estimate collapsed onto the origin

        with caplog.at_level(logging.WARNING):
            _, lam, innovation = _linearize(mean, record, observed, scenario)
        on_surface = np.tile([1 in order.bounces(k) for k in record.plan.components], 3)
        np.testing.assert_array_equal(lam[~on_surface],
                                      channel_fim(record.variances)[~on_surface])
        assert on_surface.any() and not lam[on_surface].any()
        assert not innovation[on_surface].any() and innovation[~on_surface].all()
        assert any("surface estimate" in rec.message for rec in caplog.records)

    def test_estimate_on_a_virtual_anchor_skips_that_component(self, caplog):
        """The skipped path and its warning belong to the anchor whose
        virtual anchor the estimate sits on, in the one pass of both."""
        scenario = small_scenario()
        order = scenario.order
        truth = ground_truth(scenario)
        record, observed = drawn_step(scenario, truth, 1, derive_run_stream(0, 0))
        components = record.plan.components
        assert len(scenario.anchors) == 2
        for anchor in range(len(scenario.anchors)):
            target = next(k for k in components[record.plan.owner == anchor]
                          if order.n_bounces[k] == 1)
            assert order.bounces(target) == (1,)
            mean = truth[1].copy()
            mean[0:2] = virtual_anchor(scenario.anchors[anchor], (1,), scenario.surfaces)

            caplog.clear()
            with caplog.at_level(logging.WARNING):
                _, lam, innovation = _linearize(mean, record, observed, scenario)
            skipped = np.tile((components == target) & (record.plan.owner == anchor), 3)
            assert np.count_nonzero(skipped) == 3
            np.testing.assert_array_equal(lam[~skipped],
                                          channel_fim(record.variances)[~skipped])
            assert not lam[skipped].any() and not innovation[skipped].any()
            warnings = [rec.message for rec in caplog.records
                        if "skipping component" in rec.message]
            assert warnings == [f"step 1 anchor {anchor + 1}: agent coincides with virtual "
                                "anchor, skipping component [1, 1]"]


def polygon_room(num_walls, apothem=3.5):
    """Regular polygon room around the origin, two anchors, every component
    visible: mirror images 2 h n of the origin about each wall."""
    mapping = desk_mapping()
    angles = 2 * math.pi * np.arange(num_walls) / num_walls + 0.1
    mapping["surfaces"] = [[2 * apothem * math.cos(a), 2 * apothem * math.sin(a)]
                           for a in angles]
    mapping["anchors"][0]["position"] = [1.0, 0.5]
    mapping["anchors"][1]["position"] = [-1.2, -0.8]
    mapping["trajectory"] = {"kind": "waypoints", "n_steps": 3,
                             "points": [{"time": 0.0, "position": [-1.5, 1.0]},
                                        {"time": 0.3, "position": [-1.2, 0.8]}]}
    mapping["prior"]["surface_var"] = 0.04
    return scenario_from_mapping(mapping)


def predicted_state(scenario, truth, step, seed):
    """A (mean, covariance) pair: a correlated predicted covariance at the
    prior's scale, with a mean drawn from a tenth of it around the truth."""
    rng = np.random.default_rng(seed)
    scale = np.sqrt(scenario.prior_covariance())
    mixing = rng.normal(size=(scale.size, scale.size)) / np.sqrt(scale.size)
    cov = (0.5 * np.eye(scale.size) + 0.5 * mixing @ mixing.T) * np.outer(scale, scale)
    mean = truth[step]
    return mean + 0.1 * scale * rng.standard_normal(scale.size), cov


class TestInformationFormMatchesCovarianceForm:
    """The information-form update equals the stacked Joseph-form Kalman
    update (tests/reference_kalman.py) to 1e-9 relative."""

    @staticmethod
    def assert_same_update(mean, cov, record, observed, scenario):
        got_mean, got_cov = update_one(mean, cov, record, observed, scenario)
        expected_mean, expected_cov = joseph_update(mean, cov, record, observed, scenario)
        for a, b in ((got_mean - mean, expected_mean - mean), (got_cov, expected_cov)):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9 * np.abs(b).max())

    def test_desk_step(self):
        scenario = load_scenario(DESK_SCENARIO)
        truth = ground_truth(scenario)
        record, observed = drawn_step(scenario, truth, 7, derive_run_stream(0, 0))
        self.assert_same_update(*predicted_state(scenario, truth, 7, 1), record, observed,
                                scenario)

    def test_dense_twelve_wall_step(self):
        scenario = polygon_room(12)
        assert scenario.order.size == 145 and scenario.dim == 29
        truth = ground_truth(scenario)
        record, observed = drawn_step(scenario, truth, 2, derive_run_stream(0, 0))
        assert np.bincount(record.plan.owner).tolist() == [145, 145]
        self.assert_same_update(*predicted_state(scenario, truth, 2, 2), record, observed,
                                scenario)

    def test_step_with_a_skipped_component(self, caplog):
        scenario = load_scenario(DESK_SCENARIO)
        truth = ground_truth(scenario)
        record, observed = drawn_step(scenario, truth, 5, derive_run_stream(0, 0))
        mean, cov = predicted_state(scenario, truth, 5, 3)
        mean[5:7] = 0.0  # surface 1 estimated at the origin: its bounces drop out
        with caplog.at_level(logging.WARNING):
            self.assert_same_update(mean, cov, record, observed, scenario)
        assert any("surface estimate near origin" in rec.message for rec in caplog.records)


def octagon_mapping():
    """Octagon room, two anchors, every component visible, 12 steps."""
    mapping = desk_mapping()
    angles = 2 * math.pi * np.arange(8) / 8 + 0.1
    mapping["surfaces"] = [[7.0 * math.cos(a), 7.0 * math.sin(a)] for a in angles]
    mapping["anchors"][0]["position"] = [1.0, 0.5]
    mapping["anchors"][1]["position"] = [-1.2, -0.8]
    mapping["trajectory"] = {"kind": "waypoints", "n_steps": 12,
                             "points": [{"time": 0.0, "position": [-1.5, 1.0]},
                                        {"time": 1.2, "position": [0.3, 1.6]}]}
    mapping["prior"]["surface_var"] = 0.04
    return mapping


def dense_octagon():
    return scenario_from_mapping(octagon_mapping())


def sparse_octagon_mapping():
    """The octagon with only LOS and single bounces visible, anchor 2
    blanked for steps 3-5 and every anchor blanked for steps 8-9."""
    mapping = octagon_mapping()
    mapping["visibility"] = {"default": False, "rules": [
        {"visible": True, "components": [[s, s] for s in range(9)]},
        {"visible": False, "anchors": [2], "steps": {"from": 3, "to": 5}},
        {"visible": False, "steps": [8, 9]},
    ]}
    return mapping


def sparse_octagon():
    return scenario_from_mapping(sparse_octagon_mapping())


class TestFilterAtTheTruthIsTheBound:
    """The filter's step taken at the truth is the bound's step: predict,
    reset the mean to the true state, update on the truth record's
    noise-free parameters. The truth table's information is the filter's own
    compact pass at the truth, so its covariance gives the recursion's
    bounds bit for bit, up to the first step that no anchor measures. There
    the bound still fuses zero information (inverting the prediction and
    the sum), while the filter leaves its state as it is; after it the two
    differ by rounding only."""

    CASES = {"desk": lambda: load_scenario(DESK_SCENARIO), "dense_octagon": dense_octagon,
             "sparse_octagon": sparse_octagon}
    # measured worst after the blank steps: 4.7e-16 relative on the sparse octagon
    AFTER_BLANK_RTOL = 1e-14

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reproduces_the_recursion(self, case):
        scenario = self.CASES[case]()
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        transition = transition_matrix(scenario.model, len(scenario.surfaces))
        noise = process_noise_cov(scenario.model, len(scenario.surfaces))
        mean, cov = truth[0], np.diag(scenario.prior_covariance())
        blank = min((r.step for r in table if not r.plan.owner.size), default=math.inf)
        assert blank == {"desk": math.inf, "dense_octagon": math.inf, "sparse_octagon": 8}[case]
        for record, bound in zip(table, run_recursion(scenario, table), strict=True):
            _, predicted = ekf_predict(mean, cov, transition, noise)
            at_truth = truth[record.step]
            mean, cov = update_one(at_truth, predicted, record, record.params, scenario)
            np.testing.assert_allclose(mean, at_truth, rtol=0, atol=1e-12)
            got = extract_bounds(cov, len(scenario.surfaces))
            if record.step < blank:
                np.testing.assert_array_equal(got, bound)
            else:
                np.testing.assert_allclose(got, bound, rtol=self.AFTER_BLANK_RTOL, atol=0)


def unbatched_recursion(scenario, table):
    """The bound as it stepped before it joined the filter's batch: one
    unbatched prediction and fusion per step from the prior diagonal."""
    num_surfaces = len(scenario.surfaces)
    transition = transition_matrix(scenario.model, num_surfaces)
    noise = process_noise_cov(scenario.model, num_surfaces)
    cov, rows = np.diag(scenario.prior_covariance()), []
    for record in table:
        cov = fuse(predict_cov(cov, transition, noise), record.information, record.step)
        rows.append(extract_bounds(cov, num_surfaces))
    return np.array(rows)


def bound_bits(bounds):
    return bounds.shape, bounds.tobytes()


class TestBoundInTheBatch:
    """The bound steps as entry 0 of the filter's lockstep batch and keeps
    its bits: validate mode's bounds are run_recursion's, and both are one
    unbatched prediction and fusion per step, with or without runs."""

    CASES = {"desk": lambda: load_scenario(DESK_SCENARIO), "dense_octagon": dense_octagon,
             "sparse_octagon": sparse_octagon}

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_validate_bounds_are_the_recursion(self, case, runs):
        scenario = replace(self.CASES[case](), mc=MonteCarloConfig(runs=runs, seed=11))
        table = measurement_truth(scenario, ground_truth(scenario))
        expected = bound_bits(unbatched_recursion(scenario, table))
        assert bound_bits(run_recursion(scenario, table)) == expected
        assert bound_bits(run_monte_carlo(scenario)[0]) == expected

    def test_run_failure_is_raised_after_the_bound_steps_to_the_end(self, monkeypatch):
        """Every run fails by step 3: the bound steps on alone to the end, and
        then the first run's failure is raised (tests/test_cli.py checks that
        a bound failure after it wins)."""
        import mpslam_bounds.ekf as ekf_module

        scenario = small_scenario(mc={"runs": 2, "seed": 7})
        stepped, read_out = [], ekf_module.extract_bounds
        measurement_step = ekf_module._measurement_step

        def run_1_then_run_0_diverge(mean, record, observed, scenario):
            information, pull = measurement_step(mean, record, observed, scenario)
            if (record.step, len(pull)) in ((2, 2), (3, 1)):
                pull[-1] = float("nan")
            return information, pull

        monkeypatch.setattr(ekf_module, "_measurement_step", run_1_then_run_0_diverge)
        monkeypatch.setattr(ekf_module, "extract_bounds",
                            lambda *args, **kw: stepped.append(None) or read_out(*args, **kw))
        with pytest.raises(FloatingPointError,
                           match="^Monte-Carlo run 0 failed: step 3: non-finite"):
            run_monte_carlo(scenario)
        assert len(stepped) == scenario.n_steps

    def test_every_step_predicts_through_ekf_predict(self, monkeypatch):
        """The loop's time update is ekf_predict, once per step of the desk,
        whether the batch holds the bound alone or the bound and 3 runs."""
        import mpslam_bounds.ekf as ekf_module

        scenario = load_scenario(DESK_SCENARIO)
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        calls, exact = [], ekf_module.ekf_predict
        monkeypatch.setattr(ekf_module, "ekf_predict",
                            lambda *args: calls.append(None) or exact(*args))
        run_recursion(scenario, table)
        assert len(calls) == scenario.n_steps == 40
        run_single(scenario, truth, table, range(3))
        assert len(calls) == 80

    def test_every_step_updates_through_ekf_update(self, monkeypatch):
        """The loop's measurement update is ekf_update, once per step of the
        desk, whether the batch holds the bound alone or the bound and 3 runs;
        outside it, the loop fuses nothing."""
        import mpslam_bounds.ekf as ekf_module

        scenario = load_scenario(DESK_SCENARIO)
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        expected = run_single(scenario, truth, table, range(3))
        calls, fused = [], []
        exact_update, exact_fuse = ekf_module.ekf_update, ekf_module.fuse
        monkeypatch.setattr(ekf_module, "ekf_update",
                            lambda *args: calls.append(len(args[0])) or exact_update(*args))
        monkeypatch.setattr(ekf_module, "fuse",
                            lambda *args: fused.append(len(calls)) or exact_fuse(*args))
        run_recursion(scenario, table)
        assert calls == [0] * scenario.n_steps and scenario.n_steps == 40
        got = run_single(scenario, truth, table, range(3))
        assert calls[40:] == [3] * 40
        assert fused == list(range(1, 81))  # one fusion inside each update
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)

    def test_only_a_step_with_paths_and_runs_is_linearized(self, monkeypatch):
        """``ekf_update`` alone decides that there is nothing to measure: on
        the sparse octagon the filter linearizes at each of the 10 steps that
        have paths, and never at the two blanked steps or with no runs."""
        import mpslam_bounds.ekf as ekf_module

        scenario = sparse_octagon()
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        steps, exact = [], ekf_module._measurement_step

        def measured(mean, record, observed, scenario):
            assert len(mean) and record.plan.owner.size
            steps.append(record.step)
            return exact(mean, record, observed, scenario)

        monkeypatch.setattr(ekf_module, "_measurement_step", measured)
        run_single(scenario, truth, table, [])
        assert steps == []
        run_single(scenario, truth, table, range(2))
        assert steps == [1, 2, 3, 4, 5, 6, 7, 10, 11, 12]


class TestLockstepBatch:
    """All runs filtered as one batch equal the runs filtered one by one
    (tests/reference_filter.py) to 1e-12 relative."""

    @staticmethod
    def assert_matches_sequential(scenario, runs):
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        _, batch = run_single(scenario, truth, table, range(runs))
        for run in range(runs):
            expected = filter_run(scenario, truth, table, run)
            np.testing.assert_allclose(batch[:, :, run], expected, rtol=1e-12, atol=0)

    def test_desk_three_runs(self):
        self.assert_matches_sequential(load_scenario(DESK_SCENARIO), 3)

    def test_sparse_octagon_with_blanked_steps(self):
        scenario = sparse_octagon()
        blanked = [n for n in range(1, 13)
                   if not any(scenario.visibility.flags(j, n).any() for j in range(2))]
        assert blanked == [8, 9]
        self.assert_matches_sequential(scenario, 4)

    def test_step_with_a_skipped_component(self, caplog):
        """One batch entry estimates surface 1 at the origin: its bounces on
        that surface drop out of that entry's update only. The other entries
        keep the bits of their solo updates, which skip nothing."""
        scenario = load_scenario(DESK_SCENARIO)
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        streams = [derive_run_stream(0, run) for run in range(3)]
        record, observed = table[4], draw_measurements(table, streams)[4]
        states = [predicted_state(scenario, truth, 5, seed) for seed in range(3)]
        states[1][0][5:7] = 0.0
        means, covs = (np.stack(part) for part in zip(*states))
        with caplog.at_level(logging.WARNING):  # the bound's entry: a copy of entry 0's
            got_mean, got_cov = ekf_update(means, np.concatenate([covs[:1], covs]), record,
                                           observed, scenario)
        skipped = [rec.message for rec in caplog.records if "skipping component" in rec.message]
        assert skipped and all("batch entry 1: surface estimate near origin" in m
                               for m in skipped)
        for entry, (mean, cov) in enumerate(states):
            expected_mean, expected_cov = update_one(mean, cov, record, observed[entry], scenario)
            if entry != 1:
                np.testing.assert_array_equal(got_mean[entry], expected_mean)
                np.testing.assert_array_equal(got_cov[entry + 1], expected_cov)
            np.testing.assert_allclose(got_mean[entry], expected_mean, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got_cov[entry + 1], expected_cov, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected_cov).max())

    def test_run_errors_do_not_depend_on_the_batch(self):
        scenario = small_scenario()
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        _, four = run_single(scenario, truth, table, range(4))
        _, eight = run_single(scenario, truth, table, range(8))
        np.testing.assert_array_equal(four[..., 3], eight[..., 3])


class TestStepPlans:
    """The truth pass builds one path plan per step layout (which components
    of which anchors a step sees), and the filter linearizes each step
    through its record's plan; sharing a plan moves no bit."""

    @staticmethod
    def counted_plans(monkeypatch):
        """The plans built from here on, wherever they are built."""
        built, exact = [], PathPlan.__init__

        def counted(plan, *args, **kwargs):
            built.append(plan)
            exact(plan, *args, **kwargs)

        monkeypatch.setattr(PathPlan, "__init__", counted)
        return built

    def test_sparse_octagon_builds_one_plan_per_step_layout(self, monkeypatch):
        """Both anchors, anchor 1 alone (anchor 2 blanked for steps 3-5) and
        nothing at all (steps 8-9): three plans for twelve steps, all built by
        the truth pass; the lockstep batch builds none and linearizes every
        measured step through its record's own plan."""
        import mpslam_bounds.ekf as ekf_module

        scenario = sparse_octagon()
        truth = ground_truth(scenario)
        built = self.counted_plans(monkeypatch)
        table = measurement_truth(scenario, truth)
        assert len(built) == 3
        assert {id(record.plan) for record in table} == {id(plan) for plan in built}
        assert [np.unique(record.plan.owner).tolist() for record in table] == (
            [[0, 1]] * 2 + [[0]] * 3 + [[0, 1]] * 2 + [[]] * 2 + [[0, 1]] * 3)
        linearized, exact = [], ekf_module.global_jacobian
        monkeypatch.setattr(ekf_module, "global_jacobian", lambda agent, plan, surfaces: (
            linearized.append(plan) or exact(agent, plan, surfaces)))
        run_single(scenario, truth, table, range(2))
        assert len(built) == 3
        assert linearized == [record.plan for record in table if record.plan.owner.size]

    def test_equal_path_counts_with_other_components_do_not_share(self):
        """Steps 1 and 2 see two components of anchor 1 each, but not the
        same two; step 4 sees step 1's components from anchor 2; step 3
        repeats step 1's layout and shares its plan."""
        mapping = yaml.safe_load(DESK_SCENARIO.read_text())
        los, first, second = [0, 0], [1, 1], [2, 2]
        mapping["visibility"] = {"default": False, "rules": [
            {"visible": True, "anchors": [1], "components": [los, first], "steps": [1, 3]},
            {"visible": True, "anchors": [1], "components": [los, second], "steps": [2]},
            {"visible": True, "anchors": [2], "components": [los, first], "steps": [4]},
        ]}
        scenario = scenario_from_mapping(mapping)
        table = measurement_truth(scenario, ground_truth(scenario))[:4]
        plans = [record.plan for record in table]
        assert plans[0] is plans[2]
        assert len({id(plan) for plan in plans}) == 3
        for record, (seen, pairs) in zip(table, [(0, [los, first]), (0, [los, second]),
                                                 (0, [los, first]), (1, [los, first])]):
            assert [list(scenario.order.pair(k)) for k in record.plan.components] == pairs
            assert record.plan.owner.tolist() == [seen] * 2
            np.testing.assert_array_equal(record.plan.anchor_position,
                                          [scenario.anchors[seen].position] * 2)

    @pytest.mark.parametrize("case", ["desk", "sparse_octagon"])
    def test_a_shared_plan_gives_the_bytes_of_a_fresh_one(self, case):
        """The lockstep batch on the truth table's plans, one per step
        layout, equals byte for byte the batch on a plan built afresh for
        every step."""
        scenario = load_scenario(DESK_SCENARIO) if case == "desk" else sparse_octagon()
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        shared_bounds, shared = run_single(scenario, truth, table, range(3))
        fresh_table = [replace(record, plan=PathPlan(
            scenario.order, record.plan.owner, record.plan.components, scenario.anchors))
            for record in table]
        assert all(a.plan is not b.plan for a, b in zip(table, fresh_table))
        fresh_bounds, fresh = run_single(scenario, truth, fresh_table, range(3))
        assert shared.tobytes() == fresh.tobytes()
        assert bound_bits(shared_bounds) == bound_bits(fresh_bounds)


class TestMonteCarlo:
    def test_returns_the_bound_table_and_the_root_mean_of_the_squared_errors(self):
        """A plain (bounds, rmse) pair: the bound table is run_recursion's and
        the RMSE the root mean over the runs of run_single's squared errors,
        both bit for bit."""
        scenario = load_scenario(DESK_SCENARIO)
        scenario = replace(scenario, mc=replace(scenario.mc, runs=3))
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        result = run_monte_carlo(scenario)
        assert type(result) is tuple and len(result) == 2
        bounds, rmse = result
        _, squared = run_single(scenario, truth, table, range(3))
        assert bound_bits(bounds) == bound_bits(run_recursion(scenario, table))
        assert bound_bits(rmse) == bound_bits(np.sqrt(squared.sum(-1) / 3))

    def test_single_run_near_noiseless_converges_to_the_map(self):
        mapping = desk_mapping()
        mapping["amplitude_model"] = {"reference_amplitude": 2e4, "bounce_loss": 1.0}
        mapping["prior"] = {"position_var": 1e-4, "velocity_var": 1e-4,
                            "orientation_var": 1e-5, "surface_var": 1e-3}
        mapping["mc"] = {"runs": 1, "seed": 5}
        scenario = scenario_from_mapping(mapping)
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        _, squared = run_single(scenario, truth, table, [0])
        assert np.sqrt(squared[-1, 3:]).max() < 1e-3
        assert np.sqrt(squared[-1, 0]) < 1e-3

    def test_rmse_tracks_bounds_on_the_small_scenario(self):
        mapping = desk_mapping()
        mapping["prior"] = {"position_var": 2.5e-3, "velocity_var": 0.01,
                            "orientation_var": 1.9e-3, "surface_var": 0.09}
        mapping["model"] = {"time_step": 0.1, "accel_noise_var": 1e-6,
                            "orient_noise_var": 1e-12, "surface_noise_var": 0.0}
        mapping["mc"] = {"runs": 30, "seed": 41}
        scenario = scenario_from_mapping(mapping)
        bounds, rmse = run_monte_carlo(scenario)
        peb = bounds[:, 0]
        ratio = rmse[:, 0] / peb
        # lower-bound consistency with finite-sample slack
        assert np.all(ratio >= 1.0 - 0.15)
        assert ratio[5:].max() < 2.5

    def test_doubling_runs_changes_steady_state_rmse_mildly(self):
        mapping = desk_mapping()
        mapping["prior"] = {"position_var": 2.5e-3, "velocity_var": 0.01,
                            "orientation_var": 1.9e-3, "surface_var": 0.09}
        mapping["model"] = {"time_step": 0.1, "accel_noise_var": 1e-6,
                            "orient_noise_var": 1e-12, "surface_noise_var": 0.0}
        mapping["mc"] = {"runs": 60, "seed": 11}
        scenario = scenario_from_mapping(mapping)
        _, rmse_a = run_monte_carlo(scenario)
        mapping["mc"] = {"runs": 120, "seed": 11}
        _, rmse_b = run_monte_carlo(scenario_from_mapping(mapping))
        a = rmse_a[10:, 0].mean()
        b = rmse_b[10:, 0].mean()
        assert abs(a - b) / b < 0.10

    def test_mc_aggregation_is_reproducible(self):
        mapping = desk_mapping()
        mapping["mc"] = {"runs": 5, "seed": 3}
        _, rmse_a = run_monte_carlo(scenario_from_mapping(mapping))
        _, rmse_b = run_monte_carlo(scenario_from_mapping(mapping))
        np.testing.assert_array_equal(rmse_a, rmse_b)

    def test_fault_in_the_initial_draw_propagates(self, monkeypatch):
        """Nothing in the runs' initial draw raises for a loaded scenario, so
        a fault there is a programming error: it propagates as it is rather
        than failing run 0 (the failing run is named by the fusion and the
        post-step test, see the tests below)."""
        import mpslam_bounds.ekf as ekf_module

        scenario = small_scenario()

        def explode(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(ekf_module, "draw_measurements", explode)
        with pytest.raises(ValueError, match="^boom$"):
            run_monte_carlo(scenario)

    def test_lowest_numbered_failing_run_is_named(self, monkeypatch):
        """Run 2 diverges at step 5 and run 0 only at step 8: filtered one by
        one, run 0 fails first, so the batch names run 0 and step 8."""
        import mpslam_bounds.ekf as ekf_module

        scenario = small_scenario(mc={"runs": 3, "seed": 7})
        measurement_step = ekf_module._measurement_step

        def diverge(mean, record, observed, scenario):
            information, pull = measurement_step(mean, record, observed, scenario)
            step = record.step
            if step == 5 and len(mean) == 3:
                pull[2] = float("nan")
            if step == 8:
                pull[0] = float("nan")
            return information, pull

        monkeypatch.setattr(ekf_module, "_measurement_step", diverge)
        with pytest.raises(FloatingPointError,
                           match="^Monte-Carlo run 0 failed: step 8: non-finite"):
            run_monte_carlo(scenario)

    def test_non_finite_estimate_fails_its_own_run_at_its_step(self, monkeypatch):
        """Run 2's predicted estimate turns inf at step 5: only its own
        information is non-finite, and the fusion names run 2 and step 5."""
        import mpslam_bounds.ekf as ekf_module

        scenario = small_scenario(mc={"runs": 3, "seed": 7})
        measurement_step = ekf_module._measurement_step

        def diverge(mean, record, observed, scenario):
            if record.step == 5 and len(mean) == 3:
                mean[2, 0] = math.inf
            return measurement_step(mean, record, observed, scenario)

        monkeypatch.setattr(ekf_module, "_measurement_step", diverge)
        with pytest.raises(FloatingPointError) as caught:
            run_monte_carlo(scenario)
        assert str(caught.value) == ("Monte-Carlo run 2 failed: step 5: posterior information "
                                     "is not finite (weakest block: agent position)")

    def test_overflowing_estimate_fails_its_own_run_with_no_warning(self, monkeypatch):
        """Run 2 takes a finite pull of 1e308 at step 5: its squared error
        overflows to inf with no RuntimeWarning, and its next step fails,
        naming run 2 and step 6."""
        import mpslam_bounds.ekf as ekf_module

        scenario = small_scenario(mc={"runs": 3, "seed": 7})
        measurement_step = ekf_module._measurement_step

        def diverge(mean, record, observed, scenario):
            information, pull = measurement_step(mean, record, observed, scenario)
            if record.step == 5 and len(mean) == 3:
                pull[2] = 1e308
            return information, pull

        monkeypatch.setattr(ekf_module, "_measurement_step", diverge)
        with pytest.raises(FloatingPointError, match="^Monte-Carlo run 2 failed: step 6: "):
            run_monte_carlo(scenario)


def stretched(mapping, factor):
    """A copy of ``mapping`` whose waypoint trajectory takes ``factor`` times
    as many steps along the same path."""
    mapping = copy.deepcopy(mapping)
    mapping["trajectory"]["n_steps"] *= factor
    for point in mapping["trajectory"]["points"]:
        point["time"] *= factor
    return mapping


def layout_per_step(mapping, factor):
    """The desk ``mapping`` stretched, with each step hiding its own pair of
    anchor 1's and anchor 2's components: up to K^2 = 289 distinct layouts,
    so each step keeps a path plan of its own."""
    mapping = stretched(mapping, factor)
    order, rules = ComponentOrder.canonical(len(mapping["surfaces"])), []
    for n in range(1, mapping["trajectory"]["n_steps"] + 1):
        for anchor, k in ((1, n % order.size), (2, n // order.size % order.size)):
            rules.append({"visible": False, "anchors": [anchor],
                          "components": [list(order.pair(k))], "steps": [n]})
    mapping["visibility"] = {"default": True, "rules": rules}
    return mapping


def traced(build):
    """The bytes that ``build()``'s result holds and the peak bytes it took."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()  # alive until its bytes are read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held - base, peak - base


class TestMemoryCaps:
    """Each cap's count bounds, from above, the bytes measured with
    ``tracemalloc`` that it guards. The step cap counts what a scenario holds
    per step: its visibility flags, joint truth, truth table (records and
    path plans) and bound table, measured as the growth from a short to a
    long horizon, so a room's one path plan does not count. ``max_runs``
    counts what a lockstep batch takes per run at its peak, measured as the
    peak per run of a batch larger than the draw's chunk of streams (16, 14
    and 142 here), whose temporaries the batch takes once."""

    SCENES = {"desk": lambda: yaml.safe_load(DESK_SCENARIO.read_text()),
              "dense_octagon": octagon_mapping, "sparse_octagon": sparse_octagon_mapping}

    @staticmethod
    def counted_step_bytes(mapping):
        """The least per-step count that gives the exit-2 step limit of
        ``mapping``'s room: the limit is STEP_TABLE_BYTES // count - 1."""
        mapping = copy.deepcopy(mapping)
        mapping["trajectory"]["n_steps"] = 10**12
        with pytest.raises(ScenarioError) as caught:
            scenario_from_mapping(mapping)
        limit = int(re.search(r"must be at most (\d+) in this room", str(caught.value))[1])
        return STEP_TABLE_BYTES / (limit + 2)

    @pytest.mark.parametrize("scene", ["desk", "dense_octagon", "sparse_octagon",
                                       "desk_layout_per_step"])
    def test_step_cap_counts_what_a_step_holds(self, scene):
        if scene == "desk_layout_per_step":
            short, long = (layout_per_step(self.SCENES["desk"](), f) for f in (2, 7))
        else:
            short, long = (stretched(self.SCENES[scene](), f) for f in (1, 10))

        def build(mapping):
            scenario = scenario_from_mapping(copy.deepcopy(mapping))
            truth = ground_truth(scenario)
            table = measurement_truth(scenario, truth)
            return scenario, truth, table, run_recursion(scenario, table)

        build(short)  # caches and first-call allocations
        steps = [mapping["trajectory"]["n_steps"] for mapping in (short, long)]
        grown = traced(lambda: build(long))[0] - traced(lambda: build(short))[0]
        assert grown / (steps[1] - steps[0]) <= self.counted_step_bytes(short)

    @pytest.mark.parametrize("scene, runs", [("desk", 160), ("dense_octagon", 32),
                                             ("sparse_octagon", 160)])
    def test_run_cap_counts_what_a_run_takes(self, scene, runs):
        scenario = scenario_from_mapping(self.SCENES[scene]())
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        run_single(scenario, truth, table, range(2))  # caches and first-call allocations
        peak = traced(lambda: run_single(scenario, truth, table, range(runs)))[1]
        # the limit is STEP_TABLE_BYTES // count, so the count exceeds this
        assert peak / runs <= STEP_TABLE_BYTES / (max_runs(scenario) + 1)
