"""State-space matrices, information recursion and bound extraction."""

import math

import numpy as np
import pytest

from mpslam_bounds.checks import full_jacobian
from mpslam_bounds.fim import (
    ComponentOrder,
    IsotropicAperture,
    channel_fim,
    global_snapshot_fim,
    measurement_variances,
)
from mpslam_bounds.geometry import Anchor
from mpslam_bounds.pcrlb import (
    CONDITION_LIMIT,
    SingularFimError,
    StateSpaceModel,
    _spd_inverse,
    extract_bounds,
    fuse,
    gain_matrix,
    predict_cov,
    predict_fim,
    process_noise_cov,
    run_recursion,
    transition_matrix,
)
from mpslam_bounds.scenario import (
    ground_truth,
    measurement_truth,
    scenario_from_mapping,
    snapshot_fim,
)
from tests.reference_geometry import agent_state, channel_params


def predicted_information(cov_post, transition, process_cov):
    """(F P F^T + Q)^{-1}, the predicted information of a posterior
    covariance: the prediction, then :func:`predict_fim` (at step 1)."""
    return predict_fim(predict_cov(cov_post, transition, process_cov), 1)


def bounds_of(scenario):
    """Bound records of a scenario along its own truth table."""
    return run_recursion(scenario, measurement_truth(scenario, ground_truth(scenario)))


def desk_mapping(**overrides):
    """Small two-anchor, one-surface scenario mapping for recursion tests."""
    base = {
        "anchors": [
            {"position": [0.0, 0.0], "orientation": 0.4,
             "aperture": {"kind": "isotropic", "d_squared": 0.005}},
            {"position": [6.0, 4.0], "orientation": -2.0,
             "aperture": {"kind": "isotropic", "d_squared": 0.005}},
        ],
        "agent_aperture": {"kind": "isotropic", "d_squared": 0.005},
        "surfaces": [[10.0, 0.0]],
        "signal": {"carrier_freq": 6.0e9, "rms_bandwidth": 2.0e8},
        "model": {"time_step": 0.1, "accel_noise_var": 1e-4,
                  "orient_noise_var": 1e-8, "surface_noise_var": 0.0},
        "trajectory": {"kind": "waypoints", "n_steps": 20,
                       "points": [{"time": 0.0, "position": [1.0, 1.0]},
                                  {"time": 2.0, "position": [4.0, 2.5]}]},
        "amplitude_model": {"reference_amplitude": 30.0, "bounce_loss": 0.6},
        "visibility": {"default": True},
        "prior": {"position_var": 1.0, "velocity_var": 1.0,
                  "orientation_var": 0.0305, "surface_var": 4.0},
        "mc": {"runs": 2, "seed": 7},
    }
    base.update(overrides)
    return base


class TestStateSpaceMatrices:
    def test_transition_matrix_structure(self):
        model = StateSpaceModel(time_step=0.5)
        f = transition_matrix(model, 1)
        expected = np.eye(7)
        expected[0, 2] = expected[1, 3] = 0.5
        np.testing.assert_allclose(f, expected)

    def test_transition_tends_to_identity_for_small_steps(self):
        model = StateSpaceModel(time_step=1e-12)
        np.testing.assert_allclose(transition_matrix(model, 2), np.eye(9), atol=1e-11)

    def test_transition_has_unit_determinant(self):
        for t in (0.01, 0.5, 3.0):
            model = StateSpaceModel(time_step=t)
            assert np.linalg.det(transition_matrix(model, 3)) == pytest.approx(1.0)

    def test_gain_matrix_values(self):
        np.testing.assert_allclose(
            gain_matrix(2.0), [[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 2.0]]
        )
        np.testing.assert_allclose(gain_matrix(0.0), np.zeros((4, 2)))
        assert np.linalg.matrix_rank(gain_matrix(0.25)) == 2

    def test_process_noise_zero_when_variances_zero(self):
        model = StateSpaceModel(time_step=0.3)
        np.testing.assert_allclose(process_noise_cov(model, 2), np.zeros((9, 9)))

    def test_kinematic_block_expansion(self):
        t, var = 0.4, 2.5
        model = StateSpaceModel(time_step=t, accel_noise_var=var)
        q = process_noise_cov(model, 0)
        np.testing.assert_allclose(q[0, 0], t**4 / 4 * var)
        np.testing.assert_allclose(q[1, 1], t**4 / 4 * var)
        np.testing.assert_allclose(q[0, 2], t**3 / 2 * var)
        np.testing.assert_allclose(q[1, 3], t**3 / 2 * var)
        np.testing.assert_allclose(q[2, 2], t**2 * var)
        np.testing.assert_allclose(q[3, 3], t**2 * var)
        assert q[0, 1] == 0.0 and q[0, 3] == 0.0

    def test_process_noise_psd_and_layout(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            model = StateSpaceModel(
                time_step=rng.uniform(0.05, 1.0),
                accel_noise_var=rng.uniform(0, 2),
                orient_noise_var=rng.uniform(0, 0.1),
                surface_noise_var=rng.uniform(0, 0.5),
            )
            q = process_noise_cov(model, 2)
            assert np.linalg.eigvalsh(q)[0] >= -1e-12
            assert q[4, 4] == pytest.approx(model.orient_noise_var)
            start = 5 + 2 * (2 - 1)  # surface s = 2 has rows 5 + 2 * (s - 1) onwards
            np.testing.assert_allclose(
                q[start:start + 2, start:start + 2], model.surface_noise_var * np.eye(2)
            )

    def test_model_validation(self):
        with pytest.raises(ValueError):
            StateSpaceModel(time_step=0.0)
        with pytest.raises(ValueError):
            StateSpaceModel(time_step=0.1, accel_noise_var=-1.0)


class TestPredictAndFuse:
    def test_scalar_algebra_example(self):
        cov_prev = 0.5 * np.eye(3)  # information 2 I
        predicted = predicted_information(cov_prev, np.eye(3), 0.5 * np.eye(3))
        np.testing.assert_allclose(predicted, np.eye(3), atol=1e-12)

    def test_lossless_prediction_with_identity_and_zero_noise(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(5, 5))
        j_prev = a @ a.T + 5 * np.eye(5)
        predicted = predicted_information(np.linalg.inv(j_prev), np.eye(5), np.zeros((5, 5)))
        np.testing.assert_allclose(predicted, j_prev, rtol=1e-10)

    def test_process_noise_never_increases_information(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            j_prev = a @ a.T + np.eye(4)
            f = np.eye(4)
            f[0, 2] = f[1, 3] = 0.2
            b = rng.normal(size=(4, 2))
            q = b @ b.T
            cov_prev = np.linalg.inv(j_prev)
            lossless = predicted_information(cov_prev, f, np.zeros((4, 4)))
            lossy = predicted_information(cov_prev, f, q)
            assert np.linalg.eigvalsh(lossless - lossy)[0] >= -1e-9

    def test_fuse_inverts_its_prediction_through_predict_fim(self, monkeypatch):
        """The fusion's first inversion is predict_fim, once per call, on one
        covariance or a stack; the posterior keeps its bits."""
        import mpslam_bounds.pcrlb as pcrlb_module

        a = np.random.default_rng(29).normal(size=(3, 4, 4))
        stack = a @ np.swapaxes(a, -1, -2) + np.eye(4)
        information = np.diag([1.0, 2.0, 3.0, 4.0])
        expected = [fuse(stack, information, 2), fuse(stack[0], information, 6)]
        calls, exact = [], pcrlb_module.predict_fim
        monkeypatch.setattr(pcrlb_module, "predict_fim",
                            lambda *args: calls.append(args[1]) or exact(*args))
        got = [fuse(stack, information, 2), fuse(stack[0], information, 6)]
        assert calls == [2, 6]
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)
        np.testing.assert_array_equal(
            got[1], _spd_inverse(exact(stack[0], 6) + information, "posterior"))

    def test_singular_information_rejected(self):
        # a predicted covariance without (or with almost no) spread in one
        # direction has no finite information
        with pytest.raises(SingularFimError):
            predicted_information(np.zeros((3, 3)), np.eye(3), np.zeros((3, 3)))
        nearly = np.diag([1.0, 1e-20, 1.0])
        with pytest.raises(SingularFimError):
            predicted_information(nearly, np.eye(3), np.zeros((3, 3)))

    def test_stack_names_its_first_failing_matrix(self):
        """A stack is inverted matrix by matrix; a failure keeps the position
        of the first failing one, whichever test it fails."""
        rng = np.random.default_rng(23)
        a = rng.normal(size=(4, 3, 3))
        stack = a @ np.swapaxes(a, -1, -2) + np.eye(3)
        inverse = _spd_inverse(stack, "stack")
        for m, inv in zip(stack, inverse):
            np.testing.assert_array_equal(inv, _spd_inverse(m, "one"))
        indefinite, nearly = stack.copy(), stack.copy()
        indefinite[2] = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(SingularFimError, match="stack is not positive definite") as exc:
            _spd_inverse(indefinite, "stack")
        assert exc.value.index == 2
        nearly[1] = np.diag([1.0, 1e-20, 1.0])
        nearly[3] = indefinite[2]
        with pytest.raises(SingularFimError, match="stack is numerically singular") as exc:
            _spd_inverse(nearly, "stack")
        assert exc.value.index == 1

    def test_inverse_beyond_the_float_range_is_rejected(self):
        """A finite positive-definite matrix of subnormal variances has an
        inverse past the float range: it fails, named at its stack position,
        rather than coming back as inf or nan."""
        with pytest.raises(SingularFimError, match="^x has no finite inverse$") as exc:
            _spd_inverse(np.diag([1e-320, 1e-320]), "x")
        assert exc.value.index == 0
        stack = np.stack([np.eye(2), np.diag([1e-320, 1e-320]), np.diag([1e-320, 1.0])])
        with pytest.raises(SingularFimError, match="^x has no finite inverse$") as exc:
            _spd_inverse(stack, "x")
        assert exc.value.index == 1

    def test_stack_failing_its_joint_factorization_names_the_first_failing_matrix(self):
        """A later indefinite matrix breaks the stack's joint Cholesky
        factorization; an earlier matrix with no finite inverse is still the
        one named, with its own message."""
        indefinite = np.diag([1.0, -1.0])
        with pytest.raises(SingularFimError, match="^x has no finite inverse$") as exc:
            _spd_inverse(np.stack([1e-320 * np.eye(2), indefinite]), "x")
        assert exc.value.index == 0
        with pytest.raises(SingularFimError) as exc:
            fuse(np.stack([np.eye(2), 1e-320 * np.eye(2), indefinite]), 0, 7)
        assert exc.value.index == 1
        assert str(exc.value) == ("step 7: predicted covariance has no finite inverse "
                                  "(weakest block: agent position)")
        with pytest.raises(SingularFimError, match="^x is numerically singular") as exc:
            _spd_inverse(np.stack([np.diag([1e307, 1.0]), indefinite]), "x")
        assert exc.value.index == 0

    def test_zero_pivot_after_a_passing_cholesky_is_numerically_singular(self):
        """This matrix passes Cholesky, but its LU factorization meets an exact
        zero pivot, so it has no inverse; alone and in a stack it is named
        numerically singular."""
        nearly_rank_one = np.array([[0.6771953522254375, 1.8526328384806567],
                                    [1.8526328384806567, 5.068328397319395]])
        np.linalg.cholesky(nearly_rank_one)
        for stack, index in [(nearly_rank_one, 0), (np.stack([np.eye(2), nearly_rank_one]), 1)]:
            with pytest.raises(SingularFimError, match="^x is numerically singular") as exc:
                _spd_inverse(stack, "x")
            assert exc.value.index == index

    @pytest.mark.parametrize("which", ["predicted covariance", "posterior information"])
    def test_non_finite_stack_names_the_block_of_its_first_bad_row(self, which):
        """A NaN off the diagonal in a surface 2 row of entry 1 names that
        surface, not the block an argmin over the diagonal would pick."""
        stack = np.repeat(np.eye(9)[None], 3, axis=0)
        stack[1, 7, 2] = np.nan
        stack[2, 0, 0] = np.nan
        if which == "predicted covariance":
            call = lambda: fuse(stack, np.zeros((9, 9)), 4)  # noqa: E731
        else:
            # the identity's information plus (stack - identity) sums to stack exactly
            call = lambda: fuse(np.eye(9), stack - np.eye(9), 4)  # noqa: E731
        with pytest.raises(SingularFimError) as excinfo:
            call()
        assert excinfo.value.index == 1
        assert str(excinfo.value) == f"step 4: {which} is not finite (weakest block: surface 2)"

    def test_fuse_is_addition(self):
        """The recursion fuses by adding the snapshot to the prediction."""
        scenario = scenario_from_mapping(desk_mapping())
        model, num_surfaces = scenario.model, len(scenario.surfaces)
        prior_cov = _spd_inverse(np.diag(1.0 / scenario.prior_covariance()), "prior")
        j_pred = predicted_information(prior_cov, transition_matrix(model, num_surfaces),
                                       process_noise_cov(model, num_surfaces))
        truth = ground_truth(scenario)
        snapshot = snapshot_fim(scenario, truth[1:2], np.array([1]))[0].information
        expected = extract_bounds(_spd_inverse(j_pred + snapshot, "posterior"), num_surfaces)
        np.testing.assert_array_equal(bounds_of(scenario)[0], expected)

    def test_fusion_shrinks_covariance(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = rng.normal(size=(5, 5))
            j_pred = a @ a.T + np.eye(5)
            b = rng.normal(size=(5, 3))
            j_snap = b @ b.T
            p_pred = np.linalg.inv(j_pred)
            p_post = np.linalg.inv(j_pred + j_snap)
            assert np.linalg.eigvalsh(p_pred - p_post)[0] >= -1e-9


def exact_spd_inverse(matrix, what):
    """The inversion rule without the trace screen, kept as the reference:
    a Cholesky test and the eigenvalue condition test on every matrix of
    the stack, then the inverse."""
    sym = 0.5 * (matrix + np.swapaxes(matrix, -1, -2))
    stack = sym.reshape(-1, *sym.shape[-2:])
    definite = []
    for m in stack:
        try:
            np.linalg.cholesky(m)
            definite.append(True)
        except np.linalg.LinAlgError:
            definite.append(False)
    definite = np.array(definite)
    eigvals = np.linalg.eigvalsh(stack)
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = (eigvals[:, 0] <= 0) | (eigvals[:, -1] / eigvals[:, 0] > CONDITION_LIMIT)
    failed = ~definite | singular
    if failed.any():
        index = int(np.argmax(failed))
        problem = (f"is numerically singular (condition number above {CONDITION_LIMIT:g})"
                   if definite[index] else "is not positive definite")
        raise SingularFimError(f"{what} {problem}", index)
    inv = np.linalg.inv(sym)
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def conditioned(rng, dim, condition, scale=1.0, indefinite=False):
    """A random symmetric matrix with eigenvalues spread over [1, condition]
    (both ends taken) times ``scale``; one eigenvalue negated if indefinite."""
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigvals = np.exp(rng.uniform(0.0, np.log(condition), size=dim))
    eigvals[:2] = [1.0, condition]
    if indefinite:
        eigvals[rng.integers(dim)] *= -1.0
    return scale * (basis * eigvals) @ basis.T


class TestScreenedInversion:
    """The trace screen on top of the exact rule: the same decisions,
    messages and failing index as the rule without it (exact_spd_inverse),
    and bit-identical inverses."""

    @staticmethod
    def outcome(invert, stack):
        try:
            return invert(stack, "stack")
        except SingularFimError as exc:
            return str(exc), exc.index

    @staticmethod
    def count_eigvalsh(monkeypatch):
        calls, exact = [], np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(None)
            return exact(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    def test_matches_the_exact_rule_on_random_stacks(self, monkeypatch):
        """Seeded stacks of 1-6 matrices of size 2-21, each with a condition
        number log-uniform in [1, 1e16] at a scale in [1e-6, 1e6], one in ten
        indefinite."""
        rng = np.random.default_rng(20261018)
        calls = self.count_eigvalsh(monkeypatch)
        kinds = {"screened": 0, "exact": 0, "singular": 0, "not definite": 0}
        for _ in range(400):
            dim = int(rng.integers(2, 22))
            stack = np.stack([
                conditioned(rng, dim, 10.0 ** rng.uniform(0.0, 16.0), 10.0 ** rng.uniform(-6, 6),
                            indefinite=rng.random() < 0.1)
                for _ in range(int(rng.integers(1, 7)))])
            before = len(calls)
            got = self.outcome(_spd_inverse, stack)
            screened = len(calls) == before
            expected = self.outcome(exact_spd_inverse, stack)
            if isinstance(expected, tuple):
                assert got == expected
                kinds["singular" if "singular" in expected[0] else "not definite"] += 1
            else:
                assert got.tobytes() == expected.tobytes()
                kinds["screened" if screened else "exact"] += 1
        assert min(kinds.values()) >= 10, kinds

    @pytest.mark.parametrize("condition, accepted", [(0.99e14, True), (1.01e14, False)],
                             ids=["just_below", "just_above"])
    def test_condition_limit(self, condition, accepted, monkeypatch):
        """A diagonal matrix (exact eigenvalues) just inside or outside the
        condition limit fails the screen and takes the exact test."""
        matrix = np.diag([condition, 1.0, 3.0])
        calls = self.count_eigvalsh(monkeypatch)
        got = self.outcome(_spd_inverse, matrix)
        assert len(calls) == 1
        if accepted:
            assert got.tobytes() == exact_spd_inverse(matrix, "stack").tobytes()
        else:
            assert got == ("stack is numerically singular (condition number above 1e+14)", 0)

    @pytest.mark.parametrize("condition", [1e12, 1e13, 5e13])
    def test_fallback_zone_is_accepted_through_eigenvalues(self, condition, monkeypatch):
        """Between the screen limit and the condition limit a matrix is
        accepted, but only by the exact test; the stack's other matrices are
        well conditioned."""
        rng = np.random.default_rng(7)
        stack = np.stack([conditioned(rng, 13, 10.0), conditioned(rng, 13, condition),
                          conditioned(rng, 13, 1e3)])
        calls = self.count_eigvalsh(monkeypatch)
        got = _spd_inverse(stack, "stack")
        assert len(calls) == 1
        assert got.tobytes() == exact_spd_inverse(stack, "stack").tobytes()

    def test_well_conditioned_stack_takes_no_eigenvalues(self, monkeypatch):
        rng = np.random.default_rng(8)
        stack = np.stack([conditioned(rng, 21, c) for c in (1.0, 1e4, 1e8, 1e9)])
        calls = self.count_eigvalsh(monkeypatch)
        got = _spd_inverse(stack, "stack")
        assert calls == []
        assert got.tobytes() == exact_spd_inverse(stack, "stack").tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_is_rejected_before_any_factorization(self, bad, monkeypatch):
        """The first stack entry with a non-finite value is named, and no
        numpy.linalg routine sees the stack."""
        rng = np.random.default_rng(9)
        stack = np.stack([conditioned(rng, 5, 10.0) for _ in range(4)])
        stack[2, 1, 3] = bad
        stack[3, 0, 0] = bad
        for name in ("cholesky", "eigvalsh", "inv"):
            monkeypatch.setattr(np.linalg, name, None)
        assert self.outcome(_spd_inverse, stack) == ("stack is not finite", 2)


class TestExtractBounds:
    def test_diagonal_example(self):
        row = extract_bounds(0.25 * np.eye(7), num_surfaces=1)  # information 4 I
        assert row.shape == (4,)  # peb, veb, oeb, meb_1
        half = 1.0 / math.sqrt(2.0)
        assert row == pytest.approx([half, half, 0.5, half])

    def test_scaling_information_scales_bounds(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(9, 9))
        j = a @ a.T + 3 * np.eye(9)
        rec1 = extract_bounds(np.linalg.inv(j), num_surfaces=2)
        rec4 = extract_bounds(np.linalg.inv(4.0 * j), num_surfaces=2)
        assert rec4[:3] == pytest.approx(rec1[:3] / 2)
        np.testing.assert_allclose(rec4[3:], rec1[3:] / 2)

    def test_block_diagonal_bounds_depend_on_own_blocks(self):
        j = np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0])
        rec = extract_bounds(np.diag(1.0 / np.diag(j)), num_surfaces=1)
        j2 = j.copy()
        j2[5, 5] = j2[6, 6] = 16.0  # only the surface block changes
        rec2 = extract_bounds(np.diag(1.0 / np.diag(j2)), num_surfaces=1)
        assert np.array_equal(rec2[:3], rec[:3])
        assert rec2[3] == pytest.approx(rec[3] / 2)

    def test_stack_gives_each_entry_its_unbatched_row(self):
        """A (4, N, N) stack of covariances gives the (4, 3 + S) stack of rows,
        each entry's row the bits of its unbatched call."""
        rng = np.random.default_rng(29)
        a = rng.normal(size=(4, 9, 9))
        stack = np.linalg.inv(a @ np.swapaxes(a, -1, -2) + 3 * np.eye(9))
        rows = extract_bounds(stack, num_surfaces=2)
        assert rows.shape == (4, 5)
        for cov, row in zip(stack, rows):
            np.testing.assert_array_equal(row, extract_bounds(cov, num_surfaces=2))


def snapshot_for(agent, anchors, surfaces, order, aperture=IsotropicAperture(0.005)):
    terms = []
    for anchor in anchors:
        params = np.array([channel_params(agent, anchor, order.bounces(k), surfaces).as_array()
                           for k in range(order.size)])
        squared = np.stack([aperture.squared_aperture(params[:, 1]),
                            aperture.squared_aperture(params[:, 2])], axis=-1)
        variances = measurement_variances(20.0 / params[:, 0], squared, 6e9, 2e8)
        jac = full_jacobian(agent, anchor, order, surfaces)
        terms.append((jac, channel_fim(variances)))
    # one pass over every anchor's paths: their columns side by side
    return global_snapshot_fim(np.concatenate([jac for jac, _ in terms], axis=-1),
                               np.concatenate([lam for _, lam in terms]))


class TestRecursionCore:
    def test_pure_information_accumulation(self):
        """With identity transition and zero noise the posterior is the prior
        plus the running snapshot sum."""
        agent = agent_state([1.0, 2.0], orientation=0.1)
        anchors = [Anchor(position=[0, 0], orientation=0.2),
                   Anchor(position=[5, 1], orientation=2.0)]
        surfaces = np.array([[8.0, 0.0]])
        order = ComponentOrder.canonical(1)
        snapshot = snapshot_for(agent, anchors, surfaces, order)
        dim = snapshot.shape[0]
        j0 = np.diag(np.full(dim, 2.0))
        identity = np.eye(dim)
        zero_q = np.zeros((dim, dim))
        j = j0.copy()
        for n in range(1, 6):
            j = predicted_information(np.linalg.inv(j), identity, zero_q) + snapshot
            expected = j0 + n * snapshot
            assert np.max(np.abs(j - expected)) <= 1e-9 * max(1.0, np.max(np.abs(expected)))


class TestRunRecursion:
    def test_no_observations_follow_propagated_prior(self):
        """With every existence zero the bounds equal the closed form implied
        by propagating the diagonal prior through the transition."""
        mapping = desk_mapping(visibility={"default": False})
        mapping["model"] = {"time_step": 0.1, "accel_noise_var": 0.0,
                            "orient_noise_var": 0.0, "surface_noise_var": 0.0}
        scenario = scenario_from_mapping(mapping)
        records = bounds_of(scenario)
        t = scenario.model.time_step
        pos_var, vel_var = 1.0, 1.0
        for n, (peb, veb, oeb, meb_1) in enumerate(records, start=1):
            expected_peb = math.sqrt(2.0 * (pos_var + (n * t) ** 2 * vel_var))
            assert peb == pytest.approx(expected_peb, rel=1e-9)
            assert veb == pytest.approx(math.sqrt(2.0 * vel_var), rel=1e-9)
            assert oeb == pytest.approx(math.sqrt(0.0305), rel=1e-9)
            assert meb_1 == pytest.approx(math.sqrt(8.0), rel=1e-9)

    def test_duplicated_anchor_weakly_tightens_all_bounds(self):
        mapping = desk_mapping()
        base = bounds_of(scenario_from_mapping(mapping))
        doubled = desk_mapping()
        doubled["anchors"] = mapping["anchors"] + [dict(mapping["anchors"][0])]
        both = bounds_of(scenario_from_mapping(doubled))
        assert base.shape == both.shape
        assert np.all(both <= base * (1 + 1e-9))

    def test_stationary_agent_peb_nonincreasing_without_process_noise(self):
        mapping = desk_mapping()
        mapping["model"] = {"time_step": 0.1, "accel_noise_var": 0.0,
                            "orient_noise_var": 0.0, "surface_noise_var": 0.0}
        mapping["trajectory"] = {"kind": "waypoints", "n_steps": 20,
                                 "points": [{"time": 0.0, "position": [2.0, 1.5]},
                                            {"time": 2.0, "position": [2.0, 1.5]}]}
        records = bounds_of(scenario_from_mapping(mapping))
        pebs = records[:, 0]
        for a, b in zip(pebs, pebs[1:]):
            assert b <= a * (1 + 1e-9)

    def test_veb_decreases_through_coupling_in_moving_los_scenario(self):
        mapping = desk_mapping(visibility={"default": False,
                                           "rules": [{"visible": True,
                                                      "components": [[0, 0]]}]})
        records = bounds_of(scenario_from_mapping(mapping))
        vebs = records[:6, 1]
        for a, b in zip(vebs, vebs[1:]):
            assert b < a

    def test_memoryless_limit_reaches_per_snapshot_bounds(self):
        """Huge process noise makes prediction carry almost no information:
        position, orientation and mapping bounds match the per-snapshot-only
        values within 1%. (Velocity is excluded: no snapshot observes it.)"""
        mapping = desk_mapping()
        mapping["model"] = {"time_step": 0.1, "accel_noise_var": 1e6,
                            "orient_noise_var": 1e6, "surface_noise_var": 1e6}
        scenario = scenario_from_mapping(mapping)
        records = bounds_of(scenario)
        snaps = [r.information for r in measurement_truth(scenario, ground_truth(scenario))]
        for rec, snap in zip(records, snaps):
            floor = 1e-6 * np.eye(snap.shape[0])
            only = extract_bounds(np.linalg.inv(snap + floor), len(scenario.surfaces))
            assert rec[0] == pytest.approx(only[0], rel=0.01)  # peb
            assert rec[2] == pytest.approx(only[2], rel=0.01)  # oeb
            np.testing.assert_allclose(rec[3:], only[3:], rtol=0.01)

    def test_blanked_step_carries_only_the_prediction(self, monkeypatch):
        """Every anchor blanked at step 5: the table holds no observation
        there, its snapshot information is exactly zero, the bound row is
        the bound of the prediction, and the filter skips the update."""
        import mpslam_bounds.ekf as ekf_module
        from mpslam_bounds.scenario import draw_measurements
        from mpslam_bounds.streams import derive_run_stream

        mapping = desk_mapping()
        mapping["visibility"] = {"default": True, "rules": [{"visible": False, "steps": [5]}]}
        scenario = scenario_from_mapping(mapping)
        table = measurement_truth(scenario, ground_truth(scenario))
        blank = table[4]
        assert blank.step == 5 and blank.plan.owner.size == blank.plan.components.size == 0
        assert blank.params.shape == blank.variances.shape == (0, 3)
        assert not blank.information.any()
        assert all(np.unique(record.plan.owner).size == len(scenario.anchors)
                   for record in table if record is not blank)

        model, num_surfaces = scenario.model, len(scenario.surfaces)
        transition = transition_matrix(model, num_surfaces)
        noise = process_noise_cov(model, num_surfaces)
        cov = _spd_inverse(np.diag(1.0 / scenario.prior_covariance()), "prior")
        for record in table[:4]:
            information = predicted_information(cov, transition, noise) + record.information
            cov = _spd_inverse(information, "post")
        predicted = predicted_information(cov, transition, noise)
        expected = extract_bounds(_spd_inverse(predicted, "pred"), num_surfaces)
        np.testing.assert_array_equal(run_recursion(scenario, table)[4], expected)  # step 5

        def no_linearization(*args, **kwargs):
            raise AssertionError("a blanked step was linearized")

        monkeypatch.setattr(ekf_module, "global_jacobian", no_linearization)
        measured = draw_measurements(table, [derive_run_stream(0, 0)])[4][0]
        assert measured.shape == (0, 3)
        mean, cov = np.zeros((1, scenario.dim)), np.stack([np.eye(scenario.dim)] * 2)
        updated_mean, updated_cov = ekf_module.ekf_update(mean, cov, blank, measured[None],
                                                          scenario)
        assert updated_mean is mean
        np.testing.assert_array_equal(updated_cov[1], cov[1])
        np.testing.assert_array_equal(updated_cov[0], fuse(cov[0], blank.information, 5))

    def test_never_observed_surface_with_zero_prior_information_fails(self):
        mapping = desk_mapping(visibility={"default": False,
                                           "rules": [{"visible": True,
                                                      "components": [[0, 0]]}]})
        mapping["prior"]["surface_var"] = [1e16]  # effectively no prior surface knowledge
        scenario = scenario_from_mapping(mapping)
        table = measurement_truth(scenario, ground_truth(scenario))
        with pytest.raises(SingularFimError) as excinfo:
            run_recursion(scenario, table)
        assert "step 1: predicted covariance" in str(excinfo.value)
        assert "surface 1" in str(excinfo.value)

    def test_bit_identical_reruns(self):
        mapping = desk_mapping()
        rec_a = bounds_of(scenario_from_mapping(mapping))
        rec_b = bounds_of(scenario_from_mapping(mapping))
        assert np.array_equal(rec_a, rec_b)
