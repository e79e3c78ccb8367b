"""Extended-precision reference of the bound recursion.

The recursion of ``pcrlb`` from the prior diagonal, P_pred = F P F^T + Q and
P = (P_pred^{-1} + J)^{-1} per step, with the bounds the square roots of the
block traces of P, computed in ``np.longdouble`` with a Gauss-Jordan inverse
of its own: no ``pcrlb`` kernel and no float64 LAPACK call enters it. Its
inputs are the float64 ones of the bound (the prior, F, Q and each truth
record's information J, symmetrized as the fusion does), converted exactly,
so its distance from ``run_recursion``'s table measures the float64
recursion's own rounding, not the channel's. Where ``np.longdouble`` is
float64 it measures nothing.

The arithmetic is generic over the element type: with ``dtype=object`` it
runs on ``fractions.Fraction`` entries and is exact, which checks the
reference itself.
"""

from fractions import Fraction

import numpy as np

from mpslam_bounds.pcrlb import process_noise_cov, transition_matrix

EXTENDED = np.longdouble


def exact(values, dtype=EXTENDED):
    """The float64 ``values`` in ``dtype`` without rounding: longdouble, or
    ``object`` for an array of Fractions."""
    values = np.asarray(values, dtype=float)
    if dtype is object:
        return np.vectorize(Fraction, otypes=[object])(values)
    return values.astype(dtype)


def gauss_jordan_inverse(matrix):
    """The inverse of a square matrix by Gauss-Jordan elimination with
    partial pivoting, in the matrix's own element type."""
    n = len(matrix)
    work = np.concatenate([matrix, np.eye(n, dtype=matrix.dtype)], axis=1)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(work[col:, col])))
        work[[col, pivot]] = work[[pivot, col]]
        work[col] = work[col] / work[col, col]
        others = np.arange(n) != col
        work[others] = work[others] - np.outer(work[others, col], work[col])
    return work[:, n:]


def posterior_covariances(scenario, table, dtype=EXTENDED):
    """The posterior covariance P of each step of the truth ``table``, in ``dtype``."""
    num_surfaces = len(scenario.surfaces)
    transition = exact(transition_matrix(scenario.model, num_surfaces), dtype)
    noise = exact(process_noise_cov(scenario.model, num_surfaces), dtype)
    cov = np.diag(exact(scenario.prior_covariance(), dtype))
    covs = []
    for record in table:
        information = exact(record.information, dtype)
        predicted = transition @ cov @ transition.T + noise
        cov = gauss_jordan_inverse(gauss_jordan_inverse(predicted)
                                   + (information + information.T) / 2)
        covs.append(cov)
    return covs


def block_traces(cov, num_surfaces):
    """The (3 + S) squared bounds of a covariance: the traces of its position,
    velocity, orientation and surface blocks."""
    diag = np.diagonal(cov)
    return np.array([diag[0] + diag[1], diag[2] + diag[3], diag[4]]
                    + [diag[5 + 2 * s] + diag[6 + 2 * s] for s in range(num_surfaces)],
                    dtype=cov.dtype)


def extended_bounds(scenario, table):
    """The (n_steps, 3 + S) bound table of the recursion in ``np.longdouble``."""
    num_surfaces = len(scenario.surfaces)
    return np.sqrt(np.array([block_traces(cov, num_surfaces)
                             for cov in posterior_covariances(scenario, table)]))
