"""Shared helpers: spectral oracles and scenario builders."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, identity, kron, vstack

import torusflow as tf
from torusflow.grid import Grid, VectorField, minimal_image


@pytest.fixture
def unconverged_transport(monkeypatch):
    """Every sinkhorn_w2 solve reports a marginal error of 1 after 7 iterations."""

    def fake(mu, nu, eps, tol):
        return tf.TransportResult(
            w2_sq=0.0, plan_marginal_err=1.0, iterations=7, eps=eps, converged=False
        )

    monkeypatch.setattr("torusflow.transport.sinkhorn_w2", fake)


def lp_w2_sq(mu: tf.Density, nu: tf.Density) -> float:
    """Squared W2 between two grid densities by linear programming.

    An independent reference, accurate to about the solver's 1e-10
    feasibility tolerance.  The last column-sum constraint is implied by the
    others and is dropped, so unit masses that differ in the last bits stay
    feasible.
    """
    grid = mu.grid
    vol = grid.cell_volume
    ones = csr_matrix(np.ones((1, grid.cells)))
    marginals = vstack([kron(identity(grid.cells), ones), kron(ones, identity(grid.cells))])
    res = linprog(
        tf.cost_matrix(grid).ravel(),
        A_eq=marginals.tocsr()[:-1],
        b_eq=np.concatenate([mu.values.ravel() * vol, nu.values.ravel()[:-1] * vol]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def exact_w2_permutation(xs, ys) -> float:
    """Exact squared W2 between uniform atomic measures by enumeration.

    Valid because an optimal plan between two uniform N-point measures is
    induced by a permutation.
    """
    xa = np.asarray(xs, dtype=float)
    ya = np.asarray(ys, dtype=float)
    if xa.ndim == 1:
        xa = xa[:, None]
    if ya.ndim == 1:
        ya = ya[:, None]
    if xa.shape != ya.shape:
        raise ValueError("atom lists must have equal shapes")
    n = xa.shape[0]
    if n > 8:
        raise ValueError("permutation oracle limited to 8 atoms")
    d2 = np.zeros((n, n))
    for a in range(xa.shape[1]):
        d2 += minimal_image(xa[:, a][:, None] - ya[:, a][None, :]) ** 2
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, float(d2[np.arange(n), perm].sum()))
    return best / n


def circular_convolve_direct(grid: Grid, kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(kernel * values)(x_i) = sum_j kernel[(i-j) mod n] values[j] dx^d by
    direct summation: the reference for ``_kernel_sums``; O(cells^2), tests only."""
    n = grid.n
    out = np.zeros(grid.shape)
    for idx in np.ndindex(grid.shape):
        shifted = kernel
        for axis, i in enumerate(idx):
            take = (i - np.arange(n)) % n
            shifted = np.take(shifted, take, axis=axis)
        out[idx] = np.sum(shifted * values)
    return out * grid.cell_volume


def trig_vector_field(grid: Grid, frequency: int = 1, phase: float = 0.0) -> VectorField:
    """Smooth built-in test field: each component sin(2 pi f x_axis + phase)."""
    coords = grid.coordinate_grids()
    comps = [np.sin(2.0 * np.pi * frequency * c + phase) for c in coords]
    return VectorField(grid, np.stack(comps))


def heat_values(grid: tf.Grid, amplitude: float, t: float, frequency: int = 1) -> np.ndarray:
    """Exact heat-equation solution 1 + a e^{-4 pi^2 f^2 t} cos(2 pi f x)."""
    vals = np.ones(grid.shape)
    mode = np.ones(grid.shape)
    for c in grid.coordinate_grids():
        mode = mode * np.cos(2 * np.pi * frequency * c)
    decay = np.exp(-4 * np.pi**2 * frequency**2 * t)
    return vals + amplitude * decay * mode


def cosine_density(grid: tf.Grid, amplitude: float = 0.5, frequency: int = 1) -> tf.Density:
    return tf.normalize(tf.Density(grid, heat_values(grid, amplitude, 0.0, frequency)))


def mode_amplitude(values: np.ndarray, frequency: int = 1) -> float:
    """Amplitude of the frequency-f Fourier mode of a 1-d cell array.

    Uses the modulus: cell centers sit half a cell off the lattice, so the
    raw coefficient carries a phase exp(i pi f / n).
    """
    coeff = np.fft.fft(values)[frequency]
    return 2.0 * float(np.abs(coeff)) / values.size


def heat_problem(n: int = 128, amplitude: float = 0.5, horizon: float = 0.05, h: float = 1e-3) -> tf.Problem:
    grid = tf.make_grid(1, n)
    return tf.Problem(
        grid=grid,
        energies=(tf.InternalEnergy.entropy(),),
        drift=tf.DriftModel.none(grid),
        rho0=(cosine_density(grid, amplitude),),
        horizon=horizon,
        h=h,
    )


def spectral_heat_trajectory(problem: tf.Problem, amplitude: float = 0.5) -> tf.Trajectory:
    """Trajectory whose states sample the exact heat solution on the problem's
    time grid (the injected oracle for weak-form residual checks)."""
    grid = problem.grid
    times = problem.h * np.arange(problem.step_count + 1)
    states = [
        (tf.normalize(tf.Density(grid, heat_values(grid, amplitude, t))),) for t in times
    ]
    return tf.Trajectory(grid=grid, h=problem.h, times=times, states=states)
