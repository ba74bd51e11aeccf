"""Shared helpers: spectral oracles and scenario builders."""

from __future__ import annotations

import numpy as np
import pytest

import torusflow as tf


@pytest.fixture
def unconverged_transport(monkeypatch):
    """Every sinkhorn_w2 solve reports a marginal error of 1 after 7 iterations."""

    def fake(mu, nu, eps, tol):
        return tf.TransportResult(
            w2_sq=0.0, plan_marginal_err=1.0, iterations=7, eps=eps, converged=False
        )

    monkeypatch.setattr("torusflow.transport.sinkhorn_w2", fake)


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
    states = []
    energies = np.zeros((len(times), 1))
    for k, t in enumerate(times):
        rho = tf.normalize(tf.Density(grid, heat_values(grid, amplitude, t)))
        states.append((rho,))
        energies[k, 0] = problem.energies[0].total(rho.values, grid.cell_volume)
    return tf.Trajectory(grid=grid, h=problem.h, times=times, states=states, energies=energies)
