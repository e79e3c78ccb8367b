"""Recursive posterior Cramer-Rao bound over the joint agent-plus-map state.

The joint state follows a nearly-constant-velocity transition: position
integrates velocity over the step length, orientation and surface points
random-walk. The recursion is the information-form posterior bound of
Tichavsky, Muravchik and Nehorai (IEEE TSP 1998). From the prior diagonal
as the start covariance, each step is

    P_pred = F P F^T + Q                         (prediction, :func:`predict_cov`)
    P      = (P_pred^{-1} + J_snapshot)^{-1}     (fusion, :func:`fuse`)

and the error bounds are square roots of traces of blocks of P: position
(PEB), velocity (VEB), orientation (OEB) and one mapping bound per surface
(MEB), read out by :func:`block_sums`. The EKF takes the same two steps and
the same readout; it adds only the mean, so its covariance run at the truth
is this recursion, and the bound steps as entry 0 of the filter's lockstep
batch (:func:`~.ekf.run_single`; alone in bounds mode). Every inversion
checks for a symmetric positive-definite (Cholesky) factorization and
inverts the symmetrized matrix; it rejects non-finite matrices and condition
numbers beyond 1e14 (screened from above by tr(A) tr(A^-1)). A stack gives
each entry the bits of its unbatched call.

The snapshot information comes from the scenario's truth table, the one
channel evaluation at the true poses that also feeds the measurement
generator and the filter; this module does not evaluate the channel.

State layout (0-based): position 0:2, velocity 2:4, orientation 4,
surface s (1-based) at 5 + 2*(s-1). Reports use 1-based surface ids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

CONDITION_LIMIT = 1e14
SCREEN_LIMIT = 1e-2 * CONDITION_LIMIT  # on tr(A) tr(A^-1) >= condition; 1e-2 for rounding


class SingularFimError(RuntimeError):
    """An information matrix was numerically singular (missing prior information).

    ``index`` is the position, in a stack of matrices, of the first one that
    failed (0 for a single matrix).
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class StateSpaceModel:
    """Joint-state transition model parameters.

    ``accel_noise_var`` drives the kinematic agent block ((m/s^2)^2),
    ``orient_noise_var`` the orientation random walk (rad^2 per step) and
    ``surface_noise_var`` each surface coordinate (m^2 per step, accounting
    for wall non-idealities).
    """

    time_step: float
    num_surfaces: int
    accel_noise_var: float = 0.0
    orient_noise_var: float = 0.0
    surface_noise_var: float = 0.0

    def __post_init__(self):
        if not self.time_step > 0:
            raise ValueError("time step must be positive")
        if self.num_surfaces < 0:
            raise ValueError("surface count must be >= 0")
        for name in ("accel_noise_var", "orient_noise_var", "surface_noise_var"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def dim(self) -> int:
        return 5 + 2 * self.num_surfaces


def surface_slice(surface: int) -> slice:
    """State slice of surface ``surface`` (1-based)."""
    start = 5 + 2 * (surface - 1)
    return slice(start, start + 2)


def gain_matrix(time_step: float) -> np.ndarray:
    """4x2 noise gain of the kinematic block: acceleration to (position, velocity)."""
    t = float(time_step)
    half_t2 = 0.5 * t * t
    return np.array([[half_t2, 0.0], [0.0, half_t2], [t, 0.0], [0.0, t]])


def transition_matrix(model: StateSpaceModel) -> np.ndarray:
    """N x N transition: identity plus position-from-velocity coupling."""
    f = np.eye(model.dim)
    f[0, 2] = model.time_step
    f[1, 3] = model.time_step
    return f


def process_noise_cov(model: StateSpaceModel) -> np.ndarray:
    """N x N process noise covariance; symmetric positive semidefinite."""
    q = np.zeros((model.dim, model.dim))
    gain = gain_matrix(model.time_step)
    q[0:4, 0:4] = model.accel_noise_var * (gain @ gain.T)
    q[4, 4] = model.orient_noise_var
    for s in range(1, model.num_surfaces + 1):
        sl = surface_slice(s)
        q[sl, sl] = model.surface_noise_var * np.eye(2)
    return q


def _spd_inverse(matrix: np.ndarray, what: str) -> np.ndarray:
    """Invert a symmetric positive-definite matrix, or a (..., N, N) stack of
    them; symmetrized output.

    Raises :class:`SingularFimError`, with the stack position of the first
    failing matrix, when it is not finite, when its Cholesky factorization
    fails or when its condition number exceeds ``CONDITION_LIMIT``, tested
    exactly unless tr(A) tr(A^-1) <= ``SCREEN_LIMIT`` throughout the stack.
    """
    sym = 0.5 * (matrix + np.swapaxes(matrix, -1, -2))
    stack = sym.reshape(-1, *sym.shape[-2:])
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise SingularFimError(f"{what} is not finite", int(np.argmin(finite)))
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        definite, inv = np.array([_has_cholesky(m) for m in stack]), None
    else:
        definite, inv = np.ones(len(stack), dtype=bool), np.linalg.inv(sym)
        screen = np.einsum("kii->k", stack) * np.einsum("kii->k", inv.reshape(stack.shape))
        if np.all(screen <= SCREEN_LIMIT):
            return 0.5 * (inv + np.swapaxes(inv, -1, -2))
    eigvals = np.linalg.eigvalsh(stack)
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = (eigvals[:, 0] <= 0) | (eigvals[:, -1] / eigvals[:, 0] > CONDITION_LIMIT)
    failed = ~definite | singular
    if failed.any():
        index = int(np.argmax(failed))
        problem = (f"is numerically singular (condition number above {CONDITION_LIMIT:g})"
                   if definite[index] else "is not positive definite")
        raise SingularFimError(f"{what} {problem}", index)
    inv = np.linalg.inv(sym) if inv is None else inv  # inverted already when it factored
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def _has_cholesky(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


# A covariance near the float range overflows in the symmetrizing sum; the
# fusion reports the non-finite prediction.
@np.errstate(over="ignore")
def predict_cov(cov: np.ndarray, transition: np.ndarray, process_cov: np.ndarray) -> np.ndarray:
    """Predicted covariance F P F^T + Q of one covariance or a stack; symmetrized."""
    predicted = transition @ cov @ transition.T + process_cov
    return 0.5 * (predicted + np.swapaxes(predicted, -1, -2))


def predict_fim(
    cov_post: np.ndarray, transition: np.ndarray, process_cov: np.ndarray,
    what: str = "predicted covariance",
) -> np.ndarray:
    """Predicted information from the posterior covariance P: (F P F^T + Q)^{-1};
    ``what`` names the predicted covariance in a :class:`SingularFimError`."""
    return _spd_inverse(predict_cov(cov_post, transition, process_cov), what)


@dataclass(frozen=True)
class BoundRecord:
    """Error bounds extracted from one posterior information matrix."""

    step: int
    peb: float  # m, position
    veb: float  # m/s, velocity
    oeb: float  # rad, orientation
    meb: np.ndarray = field(repr=False)  # m, one entry per surface (1-based id s -> meb[s-1])


@functools.cache
def _block_starts(num_surfaces: int) -> np.ndarray:
    starts = np.r_[0, 2, 4, 5 + 2 * np.arange(num_surfaces)]
    starts.flags.writeable = False
    return starts


def block_sums(values: np.ndarray, num_surfaces: int) -> np.ndarray:
    """Sum per-row values (..., N) into the (..., 3 + S) state blocks:
    position, velocity, orientation, then each surface."""
    return np.add.reduceat(values, _block_starts(num_surfaces), axis=-1)


def extract_bounds(cov: np.ndarray, num_surfaces: int, step: int = 0) -> BoundRecord:
    """Square-root trace bounds of the posterior covariance blocks."""
    bounds = np.sqrt(block_sums(np.diagonal(cov), num_surfaces))
    return BoundRecord(step=step, peb=float(bounds[0]), veb=float(bounds[1]),
                       oeb=float(bounds[2]), meb=bounds[3:])


def _block_name(row: int) -> str:
    if row >= 5:
        return f"surface {1 + (row - 5) // 2}"
    return "agent " + ("position", "position", "velocity", "velocity", "orientation")[row]


def _inverse_at(matrix: np.ndarray, step: int, what: str, weakest) -> np.ndarray:
    """:func:`_spd_inverse` whose error names the step and a state block of the
    failing matrix: that of its first row holding a non-finite entry, else
    the one ``weakest`` picks from its diagonal. Keeps the stack position."""
    try:
        return _spd_inverse(matrix, what)
    except SingularFimError as exc:
        failed = matrix.reshape(-1, *matrix.shape[-2:])[exc.index]
        finite = np.isfinite(failed).all(axis=-1)
        row = int(np.argmin(finite)) if not finite.all() else int(weakest(np.diag(failed)))
        raise SingularFimError(
            f"step {step}: {exc} (weakest block: {_block_name(row)})", exc.index
        ) from exc


def fuse(cov_pred: np.ndarray, information: np.ndarray, step: int) -> np.ndarray:
    """Posterior covariance (P_pred^{-1} + J)^{-1} of one step of the bound or
    the filter (stacks of them for the lockstep batch). A singular
    predicted covariance raises :class:`SingularFimError` naming the block
    with the largest variance; a singular posterior, the block with the
    least information. Either keeps the failing stack position."""
    j_pred = _inverse_at(cov_pred, step, "predicted covariance", np.argmax)
    return _inverse_at(j_pred + information, step, "posterior information", np.argmin)


def run_recursion(scenario, table) -> list[BoundRecord]:
    """Evaluate the bound recursion along a scenario's truth table.

    ``table`` is the scenario's truth table (``scenario.measurement_truth``),
    one record per step with its snapshot information built from the true
    geometry and the visibility schedule. Starts from the scenario's diagonal
    prior covariance, then alternates prediction and fusion; each step's
    covariance gives its bounds and the next step's prediction: the filter's
    lockstep loop (:func:`~.ekf.run_single`) with no runs. Deterministic.
    """
    from .ekf import run_single  # ekf imports this module at load time
    return run_single(scenario, None, table, ())[0]
