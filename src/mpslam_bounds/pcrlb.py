"""Recursive posterior Cramer-Rao bound over the joint agent-plus-map state.

The joint state follows a nearly-constant-velocity transition: position
integrates velocity over the step length, orientation and surface points
random-walk. The recursion is the information-form posterior bound of
Tichavsky, Muravchik and Nehorai (IEEE TSP 1998). From the prior diagonal
as the start covariance, each step is

    P_pred = F P F^T + Q                         (prediction, :func:`predict_cov`)
    P      = (P_pred^{-1} + J_snapshot)^{-1}     (fusion, :func:`fuse` through :func:`predict_fim`)

and the error bounds are square roots of traces of blocks of P: position
(PEB), velocity (VEB), orientation (OEB) and one mapping bound per surface
(MEB), read out by :func:`extract_bounds` as one row of the (n_steps, 3 + S)
bound table, in the columns of the filter's RMSE. The EKF takes the same
two steps and the same readout; it adds only the mean, so its covariance
run at the truth is this recursion, and the bound steps as entry 0 of the
filter's lockstep batch (:func:`~.ekf.run_single`; alone in bounds mode).
Every inversion checks for a symmetric positive-definite (Cholesky)
factorization and inverts the symmetrized matrix; it rejects non-finite
matrices and condition numbers beyond 1e14 (screened from above by
tr(A) tr(A^-1)). A stack gives each entry the bits of its unbatched call.

The snapshot information comes from the scenario's truth table, the one
channel evaluation at the true poses that also feeds the measurement
generator and the filter; this module does not evaluate the channel.

State layout (0-based): position 0:2, velocity 2:4, orientation 4,
surface s (1-based) at 5 + 2*(s-1). Reports use 1-based surface ids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

CONDITION_LIMIT = 1e14
SCREEN_LIMIT = 1e-2 * CONDITION_LIMIT  # on tr(A) tr(A^-1) >= condition; 1e-2 for rounding


class SingularFimError(FloatingPointError):
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
    accel_noise_var: float = 0.0
    orient_noise_var: float = 0.0
    surface_noise_var: float = 0.0

    def __post_init__(self):
        if not 0 < self.time_step < np.inf:
            raise ValueError("time step must be positive and finite")
        for name in ("accel_noise_var", "orient_noise_var", "surface_noise_var"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")


def gain_matrix(time_step: float) -> np.ndarray:
    """4x2 noise gain of the kinematic block: acceleration to (position, velocity)."""
    t = float(time_step)
    half_t2 = 0.5 * t * t
    return np.array([[half_t2, 0.0], [0.0, half_t2], [t, 0.0], [0.0, t]])


def transition_matrix(model: StateSpaceModel, num_surfaces: int) -> np.ndarray:
    """N x N transition, N = 5 + 2S: identity plus position-from-velocity coupling."""
    f = np.eye(5 + 2 * num_surfaces)
    f[0, 2] = model.time_step
    f[1, 3] = model.time_step
    return f


def process_noise_cov(model: StateSpaceModel, num_surfaces: int) -> np.ndarray:
    """N x N process noise covariance, N = 5 + 2S; symmetric positive semidefinite."""
    q = np.zeros((5 + 2 * num_surfaces,) * 2)
    gain = gain_matrix(model.time_step)
    q[0:4, 0:4] = model.accel_noise_var * (gain @ gain.T)
    q[4, 4] = model.orient_noise_var
    q[5:, 5:] = model.surface_noise_var * np.eye(2 * num_surfaces)
    return q


@np.errstate(over="ignore", invalid="ignore")  # inf and nan fail the tests and the screen
def _spd_inverse(matrix: np.ndarray, what: str) -> np.ndarray:
    """Invert a symmetric positive-definite matrix, or a (..., N, N) stack of
    them; symmetrized output.

    Raises :class:`SingularFimError`, with the stack position of the first
    failing matrix, when it is not finite, when its Cholesky factorization
    fails, when its condition number exceeds ``CONDITION_LIMIT`` (tested
    exactly unless the stack inverts with tr(A) tr(A^-1) <= ``SCREEN_LIMIT``)
    or when its inverse passes the float range. The whole stack is tested
    for non-finite entries first; then each matrix is judged alone, so the
    first one failing any other test is named, with that test's message.
    """
    sym = 0.5 * (matrix + matrix.swapaxes(-1, -2))
    stack = sym.reshape(-1, *sym.shape[-2:])
    if not np.isfinite(stack).all():
        finite = np.isfinite(stack).all(axis=(1, 2))
        raise SingularFimError(f"{what} is not finite", int(np.argmin(finite)))
    definite = False
    try:
        np.linalg.cholesky(stack)
        definite = True
        inv = np.linalg.inv(sym)
        inv = 0.5 * (inv + inv.swapaxes(-1, -2))
    except np.linalg.LinAlgError:
        if len(stack) > 1:  # name the first matrix that fails alone
            for index, single in enumerate(matrix.reshape(stack.shape)):
                try:
                    _spd_inverse(single, what)
                except SingularFimError as exc:
                    raise SingularFimError(str(exc), index) from None
        if not definite:
            raise SingularFimError(f"{what} is not positive definite", 0) from None
        inv = np.full_like(sym, np.inf)  # the LU factorization met a zero pivot
    screen = stack.trace(0, 1, 2) * inv.reshape(stack.shape).trace(0, 1, 2)
    if (screen <= SCREEN_LIMIT).all() and np.isfinite(inv).all():
        return inv
    eigvals = np.linalg.eigvalsh(stack)
    with np.errstate(divide="ignore"):
        singular = (eigvals[:, 0] <= 0) | (eigvals[:, -1] / eigvals[:, 0] > CONDITION_LIMIT)
    failed = singular | ~np.isfinite(inv.reshape(stack.shape)).all(axis=(1, 2))
    if failed.any():
        index = int(np.argmax(failed))
        problem = (f"is numerically singular (condition number above {CONDITION_LIMIT:g})"
                   if singular[index] else "has no finite inverse")
        raise SingularFimError(f"{what} {problem}", index)
    return inv


# A covariance near the float range overflows in the symmetrizing sum; the
# fusion reports the non-finite prediction.
@np.errstate(over="ignore")
def predict_cov(cov: np.ndarray, transition: np.ndarray, process_cov: np.ndarray) -> np.ndarray:
    """Predicted covariance F P F^T + Q of one covariance or a stack; symmetrized."""
    predicted = transition @ cov @ transition.T + process_cov
    return 0.5 * (predicted + predicted.swapaxes(-1, -2))


@functools.cache
def _block_starts(num_surfaces: int) -> np.ndarray:
    starts = np.r_[0, 2, 4, 5 + 2 * np.arange(num_surfaces)]
    starts.flags.writeable = False
    return starts


def block_sums(values: np.ndarray, num_surfaces: int) -> np.ndarray:
    """Sum per-row values (..., N) into the (..., 3 + S) state blocks:
    position, velocity, orientation, then each surface."""
    return np.add.reduceat(values, _block_starts(num_surfaces), axis=-1)


def extract_bounds(cov: np.ndarray, num_surfaces: int) -> np.ndarray:
    """Square-root trace bounds of the posterior covariance blocks: the
    (3 + S) row peb, veb, oeb, then each surface's meb (1-based id s at
    column 2 + s), or a (..., 3 + S) stack of rows for a stack."""
    return np.sqrt(block_sums(cov.diagonal(0, -2, -1), num_surfaces))


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


def predict_fim(cov_pred: np.ndarray, step: int) -> np.ndarray:
    """Predicted information P_pred^{-1} of one step, or a stack; a singular
    prediction raises :class:`SingularFimError` naming its largest-variance block."""
    return _inverse_at(cov_pred, step, "predicted covariance", np.argmax)


def fuse(cov_pred: np.ndarray, information: np.ndarray, step: int) -> np.ndarray:
    """Posterior covariance (P_pred^{-1} + J)^{-1} of one step of the bound or
    the filter (stacks of them for the lockstep batch), through
    :func:`predict_fim`. A singular posterior raises :class:`SingularFimError`
    naming the block with the least information. Either keeps the stack position."""
    return _inverse_at(predict_fim(cov_pred, step) + information, step,
                       "posterior information", np.argmin)


def run_recursion(scenario, table) -> np.ndarray:
    """Evaluate the bound recursion along a scenario's truth table.

    ``table`` is the scenario's truth table (``scenario.measurement_truth``),
    one record per step with its snapshot information built from the true
    geometry and the visibility schedule. Starts from the scenario's diagonal
    prior covariance, then alternates prediction and fusion; each step's
    covariance gives its bounds and the next step's prediction: the filter's
    lockstep loop (:func:`~.ekf.run_single`) with no runs. Returns the
    (n_steps, 3 + S) bound table, row n - 1 for step n. Deterministic.
    """
    from .ekf import run_single  # ekf imports this module at load time
    return run_single(scenario, None, table, ())[0]
