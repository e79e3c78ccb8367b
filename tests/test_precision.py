"""How far the float64 bound lies from the recursion in extended precision.

The reference (tests/reference_extended.py) runs the bound's recursion in
``np.longdouble`` on the same float64 truth table, so the distance measures
the float64 prediction and fusion's own rounding. Each scene's limit is 4
times the distance measured when the test was written (x86-64, 64-bit
longdouble mantissa), written beside it: a change that moves the bound's
bits may move the distance, but not by that much without saying so.
"""

import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import yaml

from mpslam_bounds.pcrlb import run_recursion
from mpslam_bounds.scenario import (
    ground_truth,
    load_scenario,
    measurement_truth,
    scenario_from_mapping,
)
from tests.reference_extended import block_traces, extended_bounds, posterior_covariances
from tests.test_ekf import DESK_SCENARIO, dense_octagon, sparse_octagon, stretched
from tests.test_pcrlb import desk_mapping

pytestmark = pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                                reason="np.longdouble is no wider than float64 here")


def wide_prior_desk():
    """The desk with every prior variance times 1e4."""
    desk = load_scenario(DESK_SCENARIO)
    prior = desk.prior
    return replace(desk, prior=replace(
        prior, position_var=1e4 * prior.position_var, velocity_var=1e4 * prior.velocity_var,
        orientation_var=1e4 * prior.orientation_var,
        surface_var=tuple(1e4 * v for v in prior.surface_var)))


def long_desk():
    """The desk stretched to 400 steps along the same path."""
    return scenario_from_mapping(stretched(yaml.safe_load(DESK_SCENARIO.read_text()), 10))


def bench_octagon(sparse: bool):
    """The benchmark's generated octagon at workload seed 0, as
    bench/workloads.py builds it: every component visible (room8-bounds), or
    LOS and single bounces with blanked steps (sparse8-validate)."""
    bench = str(DESK_SCENARIO.parent.parent / "bench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads

    return scenario_from_mapping(workloads.octagon_scenario(0, sparse))


# scene -> (builder, worst relative distance measured)
SCENES = {
    "desk": (lambda: load_scenario(DESK_SCENARIO), 3.8e-15),
    "desk_prior_x1e4": (wide_prior_desk, 4.4e-13),
    "desk_400_steps": (long_desk, 7.0e-15),
    "octagon": (dense_octagon, 4.0e-15),  # S=8, every component visible, 12 steps
    "sparse_octagon": (sparse_octagon, 2.8e-15),  # LOS and single bounces, blanked steps
    "room8_seed0": (lambda: bench_octagon(False), 1.2e-15),  # S=8, 30 steps, all visible
    "sparse8_seed0": (lambda: bench_octagon(True), 1.5e-15),  # S=8, 30 steps, blanked steps
}
LIMIT_OVER_MEASURED = 4


@pytest.mark.parametrize("scene", sorted(SCENES))
def test_float64_bound_is_near_the_extended_recursion(scene):
    build, measured = SCENES[scene]
    scenario = build()
    table = measurement_truth(scenario, ground_truth(scenario))
    reference = extended_bounds(scenario, table)
    distance = np.max(np.abs(run_recursion(scenario, table) - reference) / reference)
    assert 0 < distance <= LIMIT_OVER_MEASURED * measured


def test_extended_reference_is_near_exact_arithmetic():
    """On a 2-step, one-surface scene the longdouble reference's squared
    bounds lie within 1e-17 relative of the same recursion in exact rational
    arithmetic (measured: 1.3e-18), far inside the float64 distances above."""
    mapping = desk_mapping()
    mapping["trajectory"]["n_steps"] = 2
    scenario = scenario_from_mapping(mapping)
    table = measurement_truth(scenario, ground_truth(scenario))
    to_fraction = np.vectorize(lambda x: Fraction(*x.as_integer_ratio()), otypes=[object])
    extended = posterior_covariances(scenario, table)
    rational = posterior_covariances(scenario, table, dtype=object)
    assert len(extended) == len(rational) == 2
    for cov, exact_cov in zip(extended, rational):
        exact_traces = block_traces(exact_cov, 1)
        errors = (to_fraction(block_traces(cov, 1)) - exact_traces) / exact_traces
        assert max(abs(error) for error in errors) < Fraction(1, 10**17)
