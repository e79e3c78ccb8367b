"""Posterior Cramer-Rao bounds and EKF validation for multipath radio SLAM.

Evaluates recursive posterior lower bounds on agent position, velocity and
orientation errors (PEB, VEB, OEB) and on the position error of specular
reflecting surfaces (MEB) for SLAM with distributed anchors observing
line-of-sight, single-bounce and double-bounce paths, and validates the
bounds empirically with a model-matched EKF-SLAM estimator.
"""

from .ekf import run_monte_carlo
from .fim import (
    ComponentOrder,
    IsotropicAperture,
    UniformLinearArray,
    channel_fim,
    global_jacobian,
    global_snapshot_fim,
)
from .geometry import Anchor
from .pcrlb import (
    SingularFimError,
    StateSpaceModel,
    extract_bounds,
    predict_fim,
    run_recursion,
)
from .scenario import (
    Scenario,
    ScenarioError,
    generate_trajectory,
    ground_truth,
    load_scenario,
    measurement_truth,
)
from .streams import derive_run_stream

__version__ = "0.1.0"

__all__ = [
    "Anchor",
    "ComponentOrder",
    "IsotropicAperture",
    "Scenario",
    "ScenarioError",
    "SingularFimError",
    "StateSpaceModel",
    "UniformLinearArray",
    "channel_fim",
    "derive_run_stream",
    "extract_bounds",
    "generate_trajectory",
    "global_jacobian",
    "global_snapshot_fim",
    "ground_truth",
    "load_scenario",
    "measurement_truth",
    "predict_fim",
    "run_monte_carlo",
    "run_recursion",
]
