"""Posterior Cramer-Rao bounds and EKF validation for multipath radio SLAM.

Evaluates recursive posterior lower bounds on agent position, velocity and
orientation errors (PEB, VEB, OEB) and on the position error of specular
reflecting surfaces (MEB) for SLAM with distributed anchors observing
line-of-sight, single-bounce and double-bounce paths, and validates the
bounds empirically with a model-matched EKF-SLAM estimator.

The supported API is ``__all__``, the pipeline from a scenario to its bound
table and Monte-Carlo RMSE; the submodules are internals that change.
"""

from .ekf import run_monte_carlo
from .pcrlb import SingularFimError, run_recursion
from .scenario import Scenario, ScenarioError, ground_truth, load_scenario, measurement_truth

__version__ = "0.1.0"

__all__ = [
    "Scenario",
    "ScenarioError",
    "SingularFimError",
    "ground_truth",
    "load_scenario",
    "measurement_truth",
    "run_monte_carlo",
    "run_recursion",
]
