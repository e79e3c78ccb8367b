"""EKF estimator: prediction, stacked updates and Monte-Carlo aggregation."""

import numpy as np
import pytest

from mpslam_bounds.ekf import (
    EkfState,
    MonteCarloResult,
    _joint_truth,
    _linearize,
    ekf_predict,
    ekf_update,
    run_monte_carlo,
    run_single,
)
from mpslam_bounds.fim import global_jacobian
from mpslam_bounds.geometry import virtual_anchor
from mpslam_bounds.pcrlb import (
    predict_fim,
    process_noise_cov,
    transition_matrix,
)
from mpslam_bounds.scenario import (
    draw_measurements,
    ground_truth,
    measurement_truth,
    scenario_from_mapping,
)
from mpslam_bounds.streams import derive_run_stream
from tests.test_pcrlb import desk_mapping


def small_scenario(**overrides):
    return scenario_from_mapping(desk_mapping(**overrides))


def drawn_step(scenario, truth, step, rng):
    """The anchor blocks measured at ``step`` in one draw of the whole table."""
    return draw_measurements(measurement_truth(scenario, truth), rng)[step - 1]


class TestPredict:
    def test_stationary_mean_unchanged_without_noise(self):
        scenario = small_scenario()
        transition = transition_matrix(scenario.model)
        mean = np.zeros(scenario.dim)
        mean[0:2] = [1.0, 2.0]  # zero velocity
        state = EkfState(mean=mean, cov=np.eye(scenario.dim))
        predicted = ekf_predict(state, transition, np.zeros((scenario.dim,) * 2))
        np.testing.assert_allclose(predicted.mean, mean)

    def test_covariance_trace_never_shrinks_from_diagonal(self):
        # congruence with the velocity coupling only adds variance when the
        # covariance carries no negative position-velocity correlations
        scenario = small_scenario()
        transition = transition_matrix(scenario.model)
        noise = process_noise_cov(scenario.model)
        rng = np.random.default_rng(3)
        state = EkfState(mean=rng.normal(size=scenario.dim),
                         cov=np.diag(rng.uniform(0.1, 2.0, size=scenario.dim)))
        predicted = ekf_predict(state, transition, noise)
        assert predicted.cov.trace() >= state.cov.trace() - 1e-9

    def test_matches_information_prediction(self):
        """Covariance form F P F^T + Q inverts the information prediction."""
        scenario = small_scenario()
        transition = transition_matrix(scenario.model)
        noise = process_noise_cov(scenario.model)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(scenario.dim, scenario.dim))
        cov = a @ a.T + np.eye(scenario.dim)
        state = EkfState(mean=np.zeros(scenario.dim), cov=cov)
        predicted = ekf_predict(state, transition, noise)
        j_pred = predict_fim(cov, transition, noise)
        np.testing.assert_allclose(
            np.linalg.inv(predicted.cov), j_pred, rtol=1e-8, atol=1e-10
        )


class TestUpdate:
    def test_no_measurements_leave_state_unchanged(self):
        scenario = small_scenario()
        state = EkfState(mean=np.zeros(scenario.dim), cov=np.eye(scenario.dim))
        updated = ekf_update(state, [], scenario)
        np.testing.assert_array_equal(updated.mean, state.mean)
        np.testing.assert_array_equal(updated.cov, state.cov)

    @pytest.mark.parametrize(
        "agent_aperture",
        [{"kind": "isotropic", "d_squared": 0.005},
         {"kind": "ula", "num_elements": 4, "element_spacing": 0.025}],
        ids=["isotropic", "ula"],
    )
    def test_measurement_matrix_is_transposed_joint_gradient(self, agent_aperture):
        """The EKF's H equals the transposed joint-state gradient matrix
        restricted to the measured components, and its noise variances are
        the ones the measurements were drawn with, also where the aperture
        depends on the azimuth."""
        scenario = small_scenario(agent_aperture=agent_aperture)
        truth = ground_truth(scenario)
        blocks = drawn_step(scenario, truth, 3, derive_run_stream(0, 0))
        mean = _joint_truth(truth[3], scenario.surfaces)
        h_mat, observed, predicted, noise_diag, angle_row = _linearize(
            mean, blocks, scenario
        )
        from mpslam_bounds.geometry import AgentPose, SurfaceMap

        pose = AgentPose.from_state(mean[:5])
        surfaces = SurfaceMap(mean[5:].reshape(-1, 2))
        rows = 0
        for block in blocks:
            anchor = scenario.anchors[block.anchor]
            _, _, jac = global_jacobian(pose, anchor, scenario.order, surfaces,
                                        block.components)
            for k, variances in zip(block.components, block.variances):
                for col, variance in zip((scenario.order.dist_index(k),
                                          scenario.order.aoa_index(k),
                                          scenario.order.aod_index(k)), variances):
                    np.testing.assert_allclose(h_mat[rows], jac[:, col].T)
                    assert noise_diag[rows] == variance
                    rows += 1
        assert rows == h_mat.shape[0] == 3 * sum(b.components.size for b in blocks)

    def test_near_exact_measurements_pull_position_error_down(self):
        mapping = desk_mapping()
        mapping["amplitude_model"] = {"reference_amplitude": 2e4, "bounce_loss": 1.0}
        mapping["visibility"] = {"default": False,
                                 "rules": [{"visible": True, "components": [[0, 0]]}]}
        scenario = scenario_from_mapping(mapping)
        truth = ground_truth(scenario)
        meas = drawn_step(scenario, truth, 1, derive_run_stream(1, 0))
        prior = scenario.prior_covariance() * 0.01
        rng = derive_run_stream(9, 0)
        mean = _joint_truth(truth[1], scenario.surfaces)
        mean = mean + np.sqrt(prior) * rng.standard_normal(prior.size)
        state = EkfState(mean=mean, cov=np.diag(prior))
        before = np.linalg.norm(state.mean[:2] - truth[1].position)
        updated = ekf_update(state, meas, scenario)
        after = np.linalg.norm(updated.mean[:2] - truth[1].position)
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
        mean = _joint_truth(truth[0], scenario.surfaces)
        mean = mean + np.sqrt(prior) * rng.standard_normal(prior.size)
        state = EkfState(mean=mean, cov=np.diag(prior))
        measured = draw_measurements(measurement_truth(scenario, truth), rng)
        transition = transition_matrix(scenario.model)
        noise = process_noise_cov(scenario.model)
        for n in range(1, 51):
            state = ekf_predict(state, transition, noise)
            state = ekf_update(state, measured[n - 1], scenario)
            assert np.linalg.eigvalsh(state.cov)[0] > 0.0

    def test_degenerate_linearization_rows_are_skipped(self, caplog):
        scenario = small_scenario()
        truth = ground_truth(scenario)
        blocks = drawn_step(scenario, truth, 1, derive_run_stream(0, 0))
        mean = _joint_truth(truth[1], scenario.surfaces)
        mean[5:7] = [0.0, 0.0]  # surface estimate collapsed onto the origin
        import logging

        with caplog.at_level(logging.WARNING):
            h_mat, *_ = _linearize(mean, blocks, scenario)
        measured = [k for b in blocks for k in b.components]
        bounce_rows = sum(3 for k in measured if 1 in scenario.order.components[k].bounces)
        assert h_mat.shape[0] == 3 * len(measured) - bounce_rows
        assert any("surface estimate" in rec.message for rec in caplog.records)

    def test_estimate_on_a_virtual_anchor_skips_that_component(self, caplog):
        scenario = small_scenario()
        truth = ground_truth(scenario)
        blocks = drawn_step(scenario, truth, 1, derive_run_stream(0, 0))
        rows = [(b.anchor, k, p) for b in blocks for k, p in zip(b.components, b.params)]
        target = next(r for r in rows if scenario.order.components[r[1]].n_bounces == 1)
        path = scenario.order.components[target[1]]
        mean = _joint_truth(truth[1], scenario.surfaces)
        mean[0:2] = virtual_anchor(scenario.anchors[target[0]], path, scenario.surfaces)
        import logging

        with caplog.at_level(logging.WARNING):
            h_mat, observed, *_ = _linearize(mean, blocks, scenario)
        kept = [r for r in rows if r is not target]
        assert h_mat.shape[0] == 3 * len(kept)
        np.testing.assert_array_equal(observed, np.ravel([p for _, _, p in kept]))
        warnings = [rec.message for rec in caplog.records if "skipping component" in rec.message]
        assert warnings == [f"step 1 anchor {target[0] + 1}: agent coincides with virtual "
                            f"anchor, skipping component {path.bounces}"]


class TestMonteCarlo:
    def test_single_run_near_noiseless_converges_to_the_map(self):
        mapping = desk_mapping()
        mapping["amplitude_model"] = {"reference_amplitude": 2e4, "bounce_loss": 1.0}
        mapping["prior"] = {"position_var": 1e-4, "velocity_var": 1e-4,
                            "orientation_var": 1e-5, "surface_var": 1e-3}
        mapping["mc"] = {"runs": 1, "seed": 5}
        scenario = scenario_from_mapping(mapping)
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        metrics = run_single(scenario, truth, table, 0)
        assert np.sqrt(metrics.map_sq[-1]).max() < 1e-3
        assert np.sqrt(metrics.position_sq[-1]) < 1e-3

    def test_rmse_tracks_bounds_on_the_small_scenario(self):
        mapping = desk_mapping()
        mapping["prior"] = {"position_var": 2.5e-3, "velocity_var": 0.01,
                            "orientation_var": 1.9e-3, "surface_var": 0.09}
        mapping["model"] = {"time_step": 0.1, "accel_noise_var": 1e-6,
                            "orient_noise_var": 1e-12, "surface_noise_var": 0.0}
        mapping["mc"] = {"runs": 30, "seed": 41}
        scenario = scenario_from_mapping(mapping)
        result = run_monte_carlo(scenario)
        assert isinstance(result, MonteCarloResult)
        peb = np.array([b.peb for b in result.bounds])
        ratio = result.rmse_position / peb
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
        result_a = run_monte_carlo(scenario)
        mapping["mc"] = {"runs": 120, "seed": 11}
        result_b = run_monte_carlo(scenario_from_mapping(mapping))
        a = result_a.rmse_position[10:].mean()
        b = result_b.rmse_position[10:].mean()
        assert abs(a - b) / b < 0.10

    def test_mc_aggregation_is_reproducible(self):
        mapping = desk_mapping()
        mapping["mc"] = {"runs": 5, "seed": 3}
        res_a = run_monte_carlo(scenario_from_mapping(mapping))
        res_b = run_monte_carlo(scenario_from_mapping(mapping))
        np.testing.assert_array_equal(res_a.rmse_position, res_b.rmse_position)
        np.testing.assert_array_equal(res_a.rmse_map, res_b.rmse_map)

    def test_failed_run_reports_its_index(self, monkeypatch):
        import mpslam_bounds.ekf as ekf_module

        scenario = small_scenario()

        def explode(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(ekf_module, "run_single", explode)
        with pytest.raises(RuntimeError, match="run 0"):
            run_monte_carlo(scenario)
