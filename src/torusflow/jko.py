"""Outer time loop of the semi-implicit minimizing-movement scheme.

Each step freezes the interaction potential at the previous iterate, so the
per-species minimizations decouple even for nonsymmetric cross-interactions:

    rho_i^{k+1} = argmin  W2^2(rho, rho_i^k)/(2h) + int E_i(rho)
                          + int U_i[rho^k] rho.

The trajectory extends the iterates piecewise-constantly in time, with the
value on ((k-1)h, kh] equal to state k.  It takes one step per entry of
``Problem.record_times`` (every h up to the horizon T, and T itself when it
is not a multiple of h), so the last step is the first to reach T and the
finite-volume route, which records at those times, keeps as many states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import InternalEnergy
from .grid import (
    Density,
    Grid,
    ScalarField,
    VectorField,
    centered_grad_values,
    minimal_image,
)
from .interaction import DriftModel, potential_from_kernel
from .transport import jko_step

__all__ = [
    "Problem",
    "Trajectory",
    "run_jko",
    "el_residual",
]


@dataclass(frozen=True)
class Problem:
    """A drift-diffusion evolution for one or more species on one grid."""

    grid: Grid
    energies: tuple[InternalEnergy, ...]
    drift: DriftModel
    rho0: tuple[Density, ...]
    horizon: float
    h: float

    def __post_init__(self) -> None:
        energies = tuple(self.energies)
        rho0 = tuple(self.rho0)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "rho0", rho0)
        if len(energies) != len(rho0):
            raise ValueError("need one energy per species")
        if self.drift.species_count != len(rho0):
            raise ValueError("drift model species count does not match")
        if self.drift.grid != self.grid:
            raise ValueError("drift model lives on a different grid")
        for k, r in enumerate(rho0):
            if not isinstance(r, Density):
                raise TypeError(f"rho0[{k}] must be a Density, not {type(r).__name__}")
            if r.grid != self.grid:
                raise ValueError("initial density lives on a different grid")
            if abs(r.mass() - 1.0) > 1e-8:
                raise ValueError("initial densities must be normalized")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not self.h > 0:
            raise ValueError("step size must be positive")
        for k, (e, r) in enumerate(zip(energies, rho0)):
            if not isinstance(e, InternalEnergy):
                raise TypeError(f"energies[{k}] must be an InternalEnergy, not {type(e).__name__}")
            with np.errstate(over="ignore"):  # an overflow is reported below
                val = e.total(r.values, self.grid.cell_volume)
            if not np.isfinite(val):
                raise ValueError("initial energy is not finite")

    @property
    def species_count(self) -> int:
        return len(self.energies)

    @property
    def record_times(self) -> np.ndarray:
        """Times after t = 0 at which both solvers record a state: every h up
        to the horizon, then the horizon itself unless the last multiple of h
        lies within 1e-12 of it."""
        times = self.h * np.arange(1, int(np.floor(self.horizon / self.h)) + 1)
        if times.size == 0 or times[-1] < self.horizon - 1e-12:
            times = np.append(times, self.horizon)
        return times

    @property
    def step_count(self) -> int:
        return len(self.record_times)


@dataclass
class Trajectory:
    """Recorded states with per-step diagnostics.

    ``states[k]`` holds the density tuple at ``times[k]``; the semantics in
    continuous time are piecewise constant on half-open intervals ending at
    the recorded time.  ``w2_sq`` is per transition (one row per step).
    Energies are not stored: ``energy_ledger`` recomputes them from the
    states.  Finite-volume runs also record, per super-step, the ``step_dt``
    taken, the CFL term that bounded it (``step_bound``: "diffusion" or
    "advection"), the mass clipped (``step_clipped``) and the number of RKL2
    stages (``step_stages``; 1 is a forward-Euler step); the trajectories
    that one ``run_parabolic`` call returns for several initial states share
    one step sequence, so they differ only in their states and
    ``step_clipped``.  Minimizing-movement runs leave these None.
    """

    grid: Grid
    h: float
    times: np.ndarray
    states: list[tuple[Density, ...]]
    w2_sq: np.ndarray | None = None  # (len(times) - 1, species)
    jko_eps: float | None = None  # inner entropic parameter of the transport steps
    step_dt: np.ndarray | None = None  # (finite-volume super-steps,)
    step_bound: tuple[str, ...] | None = None
    step_clipped: np.ndarray | None = None
    step_stages: np.ndarray | None = None

    @property
    def species_count(self) -> int:
        return len(self.states[0])


def run_jko(problem: Problem, eps: float, tol: float = 1e-9) -> Trajectory:
    """Semi-implicit scheme with gradient drift for any number of species.

    All potentials are frozen at the previous tuple, so the per-species
    minimizations are independent within a step.  Each species' step starts
    from a guess of its log scalings: none on the first step, the last
    step's on the second, and 2 x_k - x_(k-1) from its last two steps after
    that.  A step that returns none (it did not mix) clears the species'
    history, so its next step starts cold.
    """
    l = problem.species_count
    n_steps = problem.step_count

    states: list[tuple[Density, ...]] = [problem.rho0]
    w2 = np.zeros((n_steps, l))

    # Per species, the log scalings of its last mixed steps, oldest first.
    history: list[list[np.ndarray]] = [[] for _ in range(l)]

    current = problem.rho0
    for k in range(n_steps):
        potentials = potential_from_kernel(problem.drift, current)
        nxt: list[Density] = []
        for i in range(l):
            past = history[i]
            guess = None
            if len(past) == 2:
                guess = 2.0 * past[1] - past[0]
            elif past:
                guess = past[0]
            try:
                rho_i, res = jko_step(
                    current[i],
                    problem.h,
                    problem.energies[i],
                    potentials[i],
                    eps=eps,
                    tol=tol,
                    guess=guess,
                )
            except RuntimeError as exc:
                raise RuntimeError(f"step {k} (species {i}) failed: {exc}") from exc
            nxt.append(rho_i)
            w2[k, i] = res.w2_sq
            if res.log_scalings is None:
                past.clear()
            else:
                history[i] = past[-1:] + [res.log_scalings]
        current = tuple(nxt)
        states.append(current)

    times = problem.h * np.arange(n_steps + 1)
    return Trajectory(
        grid=problem.grid,
        h=problem.h,
        times=times,
        states=states,
        w2_sq=w2,
        jko_eps=eps,
    )


def el_residual(
    rho_prev: Density,
    rho_next: Density,
    h: float,
    energy: InternalEnergy,
    potential: ScalarField | None,
    xi: VectorField,
    plan: np.ndarray | None,
) -> float:
    """First-variation residual of a minimizing-movement step.

    Evaluates | int xi(y).(x - y) dplan + h int F'(rho_next) div xi
    - h int grad U . xi rho_next | with the displacement taken from the
    step's dense plan: sinkhorn_w2(rho_prev, rho_next, eps, return_plan=True).
    """
    if plan is None:
        raise ValueError("missing plan: take it from sinkhorn_w2(return_plan=True)")
    grid = rho_prev.grid
    vol = grid.cell_volume
    if plan.shape != (grid.cells, grid.cells):
        raise ValueError("plan shape does not match the grid")
    centers = grid.cell_centers()

    # Transport term: rows of the plan are the previous state (x), columns the
    # new one (y); displacements use the minimal torus representative.
    xi_flat = xi.values.reshape(grid.dim, grid.cells)
    transport = 0.0
    for a in range(grid.dim):
        delta = minimal_image(centers[:, a][:, None] - centers[:, a][None, :])
        transport += float(np.sum(plan * delta * xi_flat[a][None, :]))

    div_xi = np.zeros(grid.shape)
    for a in range(grid.dim):
        div_xi += (
            np.roll(xi.values[a], -1, axis=a) - np.roll(xi.values[a], 1, axis=a)
        ) / (2.0 * grid.dx)
    pressure = h * float(np.sum(energy.f_prime(rho_next.values) * div_xi) * vol)

    drift = 0.0
    if potential is not None:
        grad_u = centered_grad_values(grid, potential.values)
        drift = h * float(
            np.sum(np.sum(grad_u * xi.values, axis=0) * rho_next.values) * vol
        )

    return abs(transport + pressure - drift)
