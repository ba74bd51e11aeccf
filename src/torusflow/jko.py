"""Outer time loop of the semi-implicit minimizing-movement scheme.

Each step freezes the interaction potential at the previous iterate, so the
per-species minimizations decouple even for nonsymmetric cross-interactions:

    rho_i^{k+1} = argmin  W2^2(rho, rho_i^k)/(2h) + int E_i(rho)
                          + int U_i[rho^k] rho.

The trajectory extends the iterates piecewise-constantly in time, with the
value on ((k-1)h, kh] equal to state k, and runs N = floor(T/h) + 1 steps.
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
    "trig_vector_field",
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
        for r in rho0:
            if r.grid != self.grid:
                raise ValueError("initial density lives on a different grid")
            if abs(r.mass() - 1.0) > 1e-8:
                raise ValueError("initial densities must be normalized")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not self.h > 0:
            raise ValueError("step size must be positive")
        for e, r in zip(energies, rho0):
            val = e.total(r.values, self.grid.cell_volume)
            if not np.isfinite(val):
                raise ValueError("initial energy is not finite")

    @property
    def species_count(self) -> int:
        return len(self.energies)

    @property
    def step_count(self) -> int:
        return int(np.floor(self.horizon / self.h)) + 1


@dataclass
class Trajectory:
    """Recorded states with per-step diagnostics.

    ``states[k]`` holds the density tuple at ``times[k]``; the semantics in
    continuous time are piecewise constant on half-open intervals ending at
    the recorded time.  ``w2_sq`` is per transition (one row per step),
    ``energies`` per recorded state.
    """

    grid: Grid
    h: float
    times: np.ndarray
    states: list[tuple[Density, ...]]
    energies: np.ndarray  # (len(times), species)
    w2_sq: np.ndarray | None = None  # (len(times) - 1, species)
    clipped_mass: float = 0.0
    jko_eps: float | None = None  # inner entropic parameter of the transport steps

    @property
    def species_count(self) -> int:
        return len(self.states[0])


def run_jko(
    problem: Problem,
    eps: float,
    tol: float = 1e-9,
    max_iter: int = 20000,
    debias: bool = True,
) -> Trajectory:
    """Semi-implicit scheme with gradient drift for any number of species.

    All potentials are frozen at the previous tuple, so the per-species
    minimizations are independent within a step.
    """
    grid = problem.grid
    vol = grid.cell_volume
    l = problem.species_count
    n_steps = problem.step_count

    states: list[tuple[Density, ...]] = [problem.rho0]
    energies = np.zeros((n_steps + 1, l))
    w2 = np.zeros((n_steps, l))
    for i in range(l):
        energies[0, i] = problem.energies[i].total(problem.rho0[i].values, vol)

    current = problem.rho0
    for k in range(n_steps):
        potentials = potential_from_kernel(problem.drift, current)
        nxt: list[Density] = []
        for i in range(l):
            try:
                rho_i, res = jko_step(
                    current[i],
                    problem.h,
                    problem.energies[i],
                    potentials[i],
                    eps=eps,
                    tol=tol,
                    max_iter=max_iter,
                    debias=debias,
                )
            except RuntimeError as exc:
                raise RuntimeError(f"step {k} (species {i}) failed: {exc}") from exc
            nxt.append(rho_i)
            w2[k, i] = res.w2_sq
            energies[k + 1, i] = problem.energies[i].total(rho_i.values, vol)
        current = tuple(nxt)
        states.append(current)

    times = problem.h * np.arange(n_steps + 1)
    return Trajectory(
        grid=grid,
        h=problem.h,
        times=times,
        states=states,
        energies=energies,
        w2_sq=w2,
        jko_eps=eps,
    )


def trig_vector_field(grid: Grid, frequency: int = 1, phase: float = 0.0) -> VectorField:
    """Smooth built-in test field: each component sin(2 pi f x_axis + phase)."""
    coords = grid.coordinate_grids()
    comps = [np.sin(2.0 * np.pi * frequency * c + phase) for c in coords]
    return VectorField(grid, np.stack(comps))


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
    transport plan of the step (run with plan retention).
    """
    if plan is None:
        raise ValueError("missing plan: run jko_step with return_plan=True")
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
