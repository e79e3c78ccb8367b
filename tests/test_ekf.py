"""EKF estimator: prediction, information-form updates and Monte-Carlo aggregation."""

import logging
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mpslam_bounds.ekf import (
    EkfState,
    MonteCarloResult,
    _linearize,
    _measured_steps,
    ekf_predict,
    ekf_update,
    run_monte_carlo,
    run_single,
)
from mpslam_bounds.fim import PathPlan, channel_fim, global_jacobian
from mpslam_bounds.geometry import AgentPose, Anchor, SurfaceMap, joint_state, wrap_angle
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
    AnchorBlock,
    MonteCarloConfig,
    draw_measurements,
    ground_truth,
    load_scenario,
    measurement_truth,
    scenario_from_mapping,
)
from mpslam_bounds.streams import derive_run_stream
from tests.reference_filter import filter_run
from tests.reference_geometry import virtual_anchor
from tests.reference_kalman import joseph_update
from tests.test_pcrlb import desk_mapping

DESK_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "desk.yaml"


def small_scenario(**overrides):
    return scenario_from_mapping(desk_mapping(**overrides))


def drawn_step(scenario, truth, step, rng):
    """The anchor blocks measured at ``step`` in one draw of the whole table."""
    return draw_measurements(measurement_truth(scenario, truth), rng)[step - 1]


def linearize(mean, blocks, scenario):
    """The filter's linearization of one step's anchor blocks, through the
    step plan the lockstep loop builds."""
    return _linearize(mean, _measured_steps([blocks], scenario)[0], scenario)


def side_by_side(blocks):
    """Per-block (..., 3 n_j) vectors laid side by side in the compact layout
    of all n paths: the distances of every block, then the arrivals, then
    the departures."""
    return np.concatenate([b.reshape(b.shape[:-1] + (3, -1)) for b in blocks],
                          axis=-1).reshape(blocks[0].shape[:-1] + (-1,))


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
        """The step's linearization holds, side by side, each anchor's
        joint-state gradient matrix of its measured components; its channel
        information maps the variances the measurements were drawn with
        (also where the aperture depends on the azimuth) and its innovation
        is observed minus predicted. Each anchor is passed stacked, once per
        path, as the one pass over all anchors lists it, so the expected
        terms take the same arithmetic and must match bit for bit."""
        scenario = small_scenario(agent_aperture=agent_aperture)
        order = scenario.order
        truth = ground_truth(scenario)
        blocks = drawn_step(scenario, truth, 3, derive_run_stream(0, 0))
        mean = joint_state(truth[3], scenario.surfaces)
        jac, lam, innovation = linearize(mean, blocks, scenario)
        measured = [b for b in blocks if b.components.size]
        assert len(measured) == 2

        pose = AgentPose.from_state(mean[:5])
        surfaces = SurfaceMap(mean[5:].reshape(-1, 2))
        gradients, residuals = [], []
        for block in measured:
            anchor, n = scenario.anchors[block.anchor], block.components.size
            stacked = Anchor(np.tile(anchor.position, (n, 1)), np.full(n, anchor.orientation))
            params, _, gradient = global_jacobian(
                pose, PathPlan(order, block.components, stacked), surfaces)
            residual = block.params - params
            residual[:, 1:] = np.vectorize(wrap_angle)(residual[:, 1:])
            gradients.append(gradient)
            residuals.append(residual.T.ravel())
        expected = side_by_side(gradients)
        assert jac.shape == expected.shape == (scenario.dim, 3 * sum(
            b.components.size for b in measured))
        np.testing.assert_array_equal(jac, expected)
        np.testing.assert_array_equal(
            lam, side_by_side([channel_fim(b.variances) for b in measured]))
        np.testing.assert_array_equal(innovation, side_by_side(residuals))

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
        mean = joint_state(truth[1], scenario.surfaces)
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
        mean = joint_state(truth[0], scenario.surfaces)
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
        """Components bouncing on a surface estimated at the origin get
        exactly zero information and innovation; the rest keep theirs."""
        scenario = small_scenario()
        order = scenario.order
        truth = ground_truth(scenario)
        blocks = drawn_step(scenario, truth, 1, derive_run_stream(0, 0))
        mean = joint_state(truth[1], scenario.surfaces)
        mean[5:7] = [0.0, 0.0]  # surface estimate collapsed onto the origin

        with caplog.at_level(logging.WARNING):
            _, lam, innovation = linearize(mean, blocks, scenario)
        components = np.concatenate([b.components for b in blocks])
        on_surface = np.tile([1 in order.components[k].bounces for k in components], 3)
        variances = np.concatenate([b.variances for b in blocks])
        np.testing.assert_array_equal(lam[~on_surface], channel_fim(variances)[~on_surface])
        assert on_surface.any() and not lam[on_surface].any()
        assert not innovation[on_surface].any() and innovation[~on_surface].all()
        assert any("surface estimate" in rec.message for rec in caplog.records)

    def test_estimate_on_a_virtual_anchor_skips_that_component(self, caplog):
        """The skipped path and its warning belong to the anchor whose
        virtual anchor the estimate sits on, in the one pass of both."""
        scenario = small_scenario()
        order = scenario.order
        truth = ground_truth(scenario)
        blocks = drawn_step(scenario, truth, 1, derive_run_stream(0, 0))
        variances = np.concatenate([b.variances for b in blocks])
        for anchor, block in enumerate(blocks):
            target = next(k for k in block.components if order.components[k].n_bounces == 1)
            path = order.components[target]
            mean = joint_state(truth[1], scenario.surfaces)
            mean[0:2] = virtual_anchor(scenario.anchors[anchor], path, scenario.surfaces)

            caplog.clear()
            with caplog.at_level(logging.WARNING):
                _, lam, innovation = linearize(mean, blocks, scenario)
            skipped = np.tile(np.concatenate([(b.components == target) & (b.anchor == anchor)
                                              for b in blocks]), 3)
            assert np.count_nonzero(skipped) == 3
            np.testing.assert_array_equal(lam[~skipped], channel_fim(variances)[~skipped])
            assert not lam[skipped].any() and not innovation[skipped].any()
            warnings = [rec.message for rec in caplog.records
                        if "skipping component" in rec.message]
            assert warnings == [f"step 1 anchor {anchor + 1}: agent coincides with virtual "
                                f"anchor, skipping component {path.bounces}"]


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
    """A correlated predicted covariance at the prior's scale, with a mean
    drawn from a tenth of it around the truth."""
    rng = np.random.default_rng(seed)
    scale = np.sqrt(scenario.prior_covariance())
    mixing = rng.normal(size=(scale.size, scale.size)) / np.sqrt(scale.size)
    cov = (0.5 * np.eye(scale.size) + 0.5 * mixing @ mixing.T) * np.outer(scale, scale)
    mean = joint_state(truth[step], scenario.surfaces)
    return EkfState(mean=mean + 0.1 * scale * rng.standard_normal(scale.size), cov=cov)


class TestInformationFormMatchesCovarianceForm:
    """The information-form update equals the stacked Joseph-form Kalman
    update (tests/reference_kalman.py) to 1e-9 relative."""

    @staticmethod
    def assert_same_update(state, blocks, scenario):
        got = ekf_update(state, blocks, scenario)
        expected = joseph_update(state, blocks, scenario)
        for a, b in ((got.mean - state.mean, expected.mean - state.mean),
                     (got.cov, expected.cov)):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9 * np.abs(b).max())

    def test_desk_step(self):
        scenario = load_scenario(DESK_SCENARIO)
        truth = ground_truth(scenario)
        blocks = drawn_step(scenario, truth, 7, derive_run_stream(0, 0))
        self.assert_same_update(predicted_state(scenario, truth, 7, 1), blocks, scenario)

    def test_dense_twelve_wall_step(self):
        scenario = polygon_room(12)
        assert scenario.order.size == 145 and scenario.dim == 29
        truth = ground_truth(scenario)
        blocks = drawn_step(scenario, truth, 2, derive_run_stream(0, 0))
        assert all(b.components.size == 145 for b in blocks)
        self.assert_same_update(predicted_state(scenario, truth, 2, 2), blocks, scenario)

    def test_step_with_a_skipped_component(self, caplog):
        scenario = load_scenario(DESK_SCENARIO)
        truth = ground_truth(scenario)
        blocks = drawn_step(scenario, truth, 5, derive_run_stream(0, 0))
        state = predicted_state(scenario, truth, 5, 3)
        state.mean[5:7] = 0.0  # surface 1 estimated at the origin: its bounces drop out
        with caplog.at_level(logging.WARNING):
            self.assert_same_update(state, blocks, scenario)
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


def sparse_octagon():
    """The octagon with only LOS and single bounces visible, anchor 2
    blanked for steps 3-5 and every anchor blanked for steps 8-9."""
    mapping = octagon_mapping()
    mapping["visibility"] = {"default": False, "rules": [
        {"visible": True, "components": [[s, s] for s in range(9)]},
        {"visible": False, "anchors": [2], "steps": {"from": 3, "to": 5}},
        {"visible": False, "steps": [8, 9]},
    ]}
    return scenario_from_mapping(mapping)


class TestFilterAtTheTruthIsTheBound:
    """The filter's step taken at the truth is the bound's step: predict,
    reset the mean to the true state, update on the truth table's
    noise-free blocks. The truth table's information is the filter's own
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
        transition = transition_matrix(scenario.model)
        noise = process_noise_cov(scenario.model)
        state = EkfState(mean=joint_state(truth[0], scenario.surfaces),
                         cov=np.diag(scenario.prior_covariance()))
        blank = min((r.step for r in table if not any(b.components.size for b in r.blocks)),
                    default=math.inf)
        assert blank == {"desk": math.inf, "dense_octagon": math.inf, "sparse_octagon": 8}[case]
        for record, bound in zip(table, run_recursion(scenario, table), strict=True):
            predicted = ekf_predict(state, transition, noise)
            at_truth = EkfState(joint_state(truth[record.step], scenario.surfaces),
                                predicted.cov)
            state = ekf_update(at_truth, record.blocks, scenario)
            np.testing.assert_allclose(state.mean, at_truth.mean, rtol=0, atol=1e-12)
            got = extract_bounds(state.cov, len(scenario.surfaces), record.step)
            got = [got.peb, got.veb, got.oeb, *got.meb]
            expected = [bound.peb, bound.veb, bound.oeb, *bound.meb]
            if record.step < blank:
                np.testing.assert_array_equal(got, expected)
            else:
                np.testing.assert_allclose(got, expected, rtol=self.AFTER_BLANK_RTOL, atol=0)


def unbatched_recursion(scenario, table):
    """The bound as it stepped before it joined the filter's batch: one
    unbatched prediction and fusion per step from the prior diagonal."""
    transition, noise = transition_matrix(scenario.model), process_noise_cov(scenario.model)
    cov, records = np.diag(scenario.prior_covariance()), []
    for record in table:
        cov = fuse(predict_cov(cov, transition, noise), record.information, record.step)
        records.append(extract_bounds(cov, len(scenario.surfaces), record.step))
    return records


def bound_bits(records):
    return [(r.step, r.peb, r.veb, r.oeb, *r.meb) for r in records]


class TestBoundInTheBatch:
    """The bound steps as entry 0 of the filter's lockstep batch and keeps
    its bits: validate mode's bounds are run_recursion's, and both are one
    unbatched prediction and fusion per step, with or without runs."""

    CASES = {"desk": lambda: load_scenario(DESK_SCENARIO), "dense_octagon": dense_octagon,
             "sparse_octagon": sparse_octagon}

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_validate_bounds_are_the_recursion(self, case, runs):
        scenario = self.CASES[case]()
        scenario.mc = MonteCarloConfig(runs=runs, seed=11)
        table = measurement_truth(scenario, ground_truth(scenario))
        expected = bound_bits(unbatched_recursion(scenario, table))
        assert bound_bits(run_recursion(scenario, table)) == expected
        assert bound_bits(run_monte_carlo(scenario).bounds) == expected

    def test_run_failure_is_raised_after_the_bound_steps_to_the_end(self, monkeypatch):
        """Every run fails by step 3: the bound steps on alone to the end, and
        then the first run's failure is raised (tests/test_cli.py checks that
        a bound failure after it wins)."""
        import mpslam_bounds.ekf as ekf_module

        scenario = small_scenario(mc={"runs": 2, "seed": 7})
        stepped, read_out = [], ekf_module.extract_bounds
        measurement_step = ekf_module._measurement_step

        def run_1_then_run_0_diverge(mean, measured, scenario):
            information, pull = measurement_step(mean, measured, scenario)
            if (measured.step, len(pull)) in ((2, 2), (3, 1)):
                pull[-1] = float("nan")
            return information, pull

        monkeypatch.setattr(ekf_module, "_measurement_step", run_1_then_run_0_diverge)
        monkeypatch.setattr(ekf_module, "extract_bounds",
                            lambda *args, **kw: stepped.append(None) or read_out(*args, **kw))
        with pytest.raises(RuntimeError, match="^Monte-Carlo run 0 failed: step 3: non-finite"):
            run_monte_carlo(scenario)
        assert len(stepped) == scenario.n_steps


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
        that surface drop out of that entry's update only."""
        scenario = load_scenario(DESK_SCENARIO)
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        streams = [derive_run_stream(0, run) for run in range(3)]
        blocks = draw_measurements(table, streams)[4]
        states = [predicted_state(scenario, truth, 5, seed) for seed in range(3)]
        states[1].mean[5:7] = 0.0
        batch = EkfState(mean=np.stack([s.mean for s in states]),
                         cov=np.stack([s.cov for s in states]))
        with caplog.at_level(logging.WARNING):
            got = ekf_update(batch, blocks, scenario)
        skipped = [rec.message for rec in caplog.records if "skipping component" in rec.message]
        assert skipped and all("batch entry 1: surface estimate near origin" in m
                               for m in skipped)
        for entry, state in enumerate(states):
            entry_blocks = [replace(b, params=b.params[entry]) for b in blocks]
            expected = ekf_update(state, entry_blocks, scenario)
            np.testing.assert_allclose(got.mean[entry], expected.mean, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.cov[entry], expected.cov, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected.cov).max())

    def test_run_errors_do_not_depend_on_the_batch(self):
        scenario = small_scenario()
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        _, four = run_single(scenario, truth, table, range(4))
        _, eight = run_single(scenario, truth, table, range(8))
        np.testing.assert_array_equal(four[..., 3], eight[..., 3])


class TestStepPlans:
    """The filter builds one path plan per distinct step layout (which
    components of which anchors it measured) and reads each step's rows of
    one drawn table; sharing a plan moves no bit."""

    @staticmethod
    def counted_plans(monkeypatch):
        import mpslam_bounds.ekf as ekf_module

        built, exact = [], ekf_module.layout_plan

        def counted(scenario, owner, components):
            built.append(np.array(components))
            return exact(scenario, owner, components)

        monkeypatch.setattr(ekf_module, "layout_plan", counted)
        return built

    @staticmethod
    def layouts(table):
        """The distinct non-empty (anchor, components) lists of a table's steps."""
        lists = {tuple((b.anchor, tuple(b.components)) for b in record.blocks
                       if b.components.size) for record in table}
        return lists - {()}

    def test_sparse_octagon_builds_one_plan_per_path_list(self, monkeypatch):
        """Both anchors, anchor 1 alone (anchor 2 blanked for steps 3-5) and
        nothing at all (steps 8-9): two plans for twelve steps."""
        scenario = sparse_octagon()
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        assert len(self.layouts(table)) == 2
        built = self.counted_plans(monkeypatch)
        run_single(scenario, truth, table, range(2))
        assert len(built) == 2

    def test_equal_path_counts_with_other_components_do_not_share(self):
        """Steps 1 and 2 measure two components of anchor 1 each, but not the
        same two; step 4 measures step 1's components from anchor 2; step 3
        repeats step 1's list and shares its plan."""
        scenario = load_scenario(DESK_SCENARIO)
        lists = {1: (0, [0, 1]), 2: (0, [0, 2]), 3: (0, [0, 1]), 4: (1, [0, 1])}
        measured = [tuple(AnchorBlock(n, j, np.array(ks if j == seen else [], dtype=int),
                                      np.zeros((len(ks) * (j == seen), 3)),
                                      np.ones((len(ks) * (j == seen), 3)))
                          for j in range(2))
                    for n, (seen, ks) in lists.items()]
        steps = _measured_steps(measured, scenario)
        plans = [step.plan for step in steps]
        assert plans[0] is plans[2]
        assert len({id(plan) for plan in plans}) == 3
        for step, (seen, ks) in zip(steps, lists.values()):
            assert step.plan.components.tolist() == ks and step.owner.tolist() == [seen] * 2
            np.testing.assert_array_equal(step.plan.anchor_position,
                                          [scenario.anchors[seen].position] * 2)

    @pytest.mark.parametrize("case", ["desk", "sparse_octagon"])
    def test_a_shared_plan_gives_the_bytes_of_a_fresh_one(self, case, monkeypatch):
        """The lockstep batch with one plan per layout equals, byte for byte,
        the batch with a plan built afresh at every step."""
        import mpslam_bounds.ekf as ekf_module

        scenario = load_scenario(DESK_SCENARIO) if case == "desk" else sparse_octagon()
        truth = ground_truth(scenario)
        table = measurement_truth(scenario, truth)
        shared_bounds, shared = run_single(scenario, truth, table, range(3))
        exact = ekf_module._measured_steps
        monkeypatch.setattr(ekf_module, "_measured_steps", lambda measured, scenario: [
            exact([step], scenario)[0] for step in measured])
        fresh_bounds, fresh = run_single(scenario, truth, table, range(3))
        assert shared.tobytes() == fresh.tobytes()
        assert bound_bits(shared_bounds) == bound_bits(fresh_bounds)


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
        _, squared = run_single(scenario, truth, table, 0)
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
        result = run_monte_carlo(scenario)
        assert isinstance(result, MonteCarloResult)
        peb = np.array([b.peb for b in result.bounds])
        ratio = result.rmse[:, 0] / peb
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
        a = result_a.rmse[10:, 0].mean()
        b = result_b.rmse[10:, 0].mean()
        assert abs(a - b) / b < 0.10

    def test_mc_aggregation_is_reproducible(self):
        mapping = desk_mapping()
        mapping["mc"] = {"runs": 5, "seed": 3}
        res_a = run_monte_carlo(scenario_from_mapping(mapping))
        res_b = run_monte_carlo(scenario_from_mapping(mapping))
        np.testing.assert_array_equal(res_a.rmse, res_b.rmse)

    def test_failed_run_reports_its_index(self, monkeypatch):
        import mpslam_bounds.ekf as ekf_module

        scenario = small_scenario()

        def explode(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(ekf_module, "draw_measurements", explode)
        with pytest.raises(RuntimeError, match="run 0"):
            run_monte_carlo(scenario)

    def test_lowest_numbered_failing_run_is_named(self, monkeypatch):
        """Run 2 diverges at step 5 and run 0 only at step 8: filtered one by
        one, run 0 fails first, so the batch names run 0 and step 8."""
        import mpslam_bounds.ekf as ekf_module

        scenario = small_scenario(mc={"runs": 3, "seed": 7})
        measurement_step = ekf_module._measurement_step

        def diverge(mean, measured, scenario):
            information, pull = measurement_step(mean, measured, scenario)
            step = measured.step
            if step == 5 and len(mean) == 3:
                pull[2] = float("nan")
            if step == 8:
                pull[0] = float("nan")
            return information, pull

        monkeypatch.setattr(ekf_module, "_measurement_step", diverge)
        with pytest.raises(RuntimeError, match="^Monte-Carlo run 0 failed: step 8: non-finite"):
            run_monte_carlo(scenario)
