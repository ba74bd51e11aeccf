"""Explicit conservative finite-volume solver for the regularized flow.

Advances d_t rho_i = Lap F'_{i,eps}(rho_i) - div(rho_i V_i[rho]) with the
uniformly elliptic truncation F_eps, valid for velocity-mode (non-gradient)
drifts as well as potential ones.  Face fluxes combine the staggered gradient
of F'_eps with first-order upwind advection on the face-averaged velocity;
the flux-difference update conserves mass to roundoff by telescoping, and
negative undershoots are clipped to zero (renormalizing, with the clipped
mass accumulated for inspection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import RegularizedEnergy, regularize
from .grid import Density, Grid, grad_values, normalize
from .interaction import DriftModel, potential_from_kernel, velocity_field
from .jko import Problem, Trajectory

__all__ = ["ParabolicState", "CFLError", "parabolic_step", "run_parabolic", "cfl_bound"]


class CFLError(ValueError):
    """Requested time step exceeds the stability bound."""


@dataclass(frozen=True)
class ParabolicState:
    densities: tuple[Density, ...]
    time: float
    clipped_mass: float = 0.0  # cumulative over the run

    def __post_init__(self) -> None:
        object.__setattr__(self, "densities", tuple(self.densities))


def _face_velocities(
    drift: DriftModel, state: tuple[Density, ...]
) -> list[np.ndarray]:
    """Per-species face velocities, component a stored at face i+1/2.

    Potential mode differences the potential across the face (exactly the
    staggered gradient); velocity mode averages the collocated field onto
    faces.
    """
    grid = drift.grid
    out = []
    if drift.mode == "potential":
        for field in potential_from_kernel(drift, state):
            out.append(-grad_values(grid, field.values))
    else:
        for field in velocity_field(drift, state):
            faces = np.stack(
                [
                    0.5 * (field.values[a] + np.roll(field.values[a], -1, axis=a))
                    for a in range(grid.dim)
                ]
            )
            out.append(faces)
    return out


def _bound_from(
    grid: Grid,
    densities: tuple[Density, ...],
    reg_energies: tuple[RegularizedEnergy, ...],
    velocities: list[np.ndarray],
) -> float:
    bound = np.inf
    for rho, reg, vel in zip(densities, reg_energies, velocities):
        fpp_max = float(np.max(reg.f_second(rho.values)))
        if fpp_max > 0:
            bound = min(bound, 0.25 * grid.dx**2 / fpp_max)
        vmax = float(np.max(np.abs(vel)))
        if vmax > 0:
            bound = min(bound, 0.5 * grid.dx / vmax)
    return bound


def cfl_bound(
    state: ParabolicState,
    reg_energies: tuple[RegularizedEnergy, ...],
    drift: DriftModel,
) -> float:
    """Largest admissible dt: min(dx^2 / (4 max F''_eps), dx / (2 max |V|))."""
    grid = state.densities[0].grid
    velocities = _face_velocities(drift, state.densities)
    return _bound_from(grid, state.densities, reg_energies, velocities)


def parabolic_step(
    state: ParabolicState,
    reg_energies: tuple[RegularizedEnergy, ...],
    drift: DriftModel,
    dt: float,
) -> ParabolicState:
    """One explicit conservative update of all species."""
    grid = state.densities[0].grid
    velocities = _face_velocities(drift, state.densities)
    limit = _bound_from(grid, state.densities, reg_energies, velocities)
    return _advance(state, reg_energies, velocities, limit, dt)


def _advance(
    state: ParabolicState,
    reg_energies: tuple[RegularizedEnergy, ...],
    velocities: list[np.ndarray],
    limit: float,
    dt: float,
) -> ParabolicState:
    """Update with face velocities and CFL bound already evaluated on state."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > limit * (1.0 + 1e-12):
        raise CFLError(f"dt={dt:.3e} exceeds the stability bound {limit:.3e}")
    grid = state.densities[0].grid
    new_densities = []
    clipped = 0.0
    for rho, reg, vel in zip(state.densities, reg_energies, velocities):
        vals = rho.values
        flux = -grad_values(grid, reg.f_prime(vals))
        for a in range(grid.dim):
            w = vel[a]
            donor = np.where(w >= 0, vals, np.roll(vals, -1, axis=a))
            flux[a] += w * donor
        divergence = np.zeros(grid.shape)
        for a in range(grid.dim):
            divergence += (flux[a] - np.roll(flux[a], 1, axis=a)) / grid.dx
        updated = vals - dt * divergence
        if not np.all(np.isfinite(updated)):
            raise RuntimeError("parabolic step produced non-finite values")
        pre_clip_mass = float(np.sum(updated) * grid.cell_volume)
        if abs(pre_clip_mass - rho.mass()) > 1e-13 * max(1.0, rho.mass()):
            raise RuntimeError("flux telescoping violated; mass drifted in one step")
        negative = np.minimum(updated, 0.0)
        clipped += float(-np.sum(negative) * grid.cell_volume)
        updated = np.maximum(updated, 0.0)
        new_densities.append(normalize(Density(grid, updated)))
    return ParabolicState(
        densities=tuple(new_densities),
        time=state.time + dt,
        clipped_mass=state.clipped_mass + clipped,
    )


def run_parabolic(
    problem: Problem,
    eps_reg: float = 1e-3,
    cfl_safety: float = 0.9,
) -> Trajectory:
    """March the regularized equation to the problem horizon.

    Velocities are re-evaluated from the current tuple once per step and
    serve both the CFL bound and the update.  States are recorded every
    problem h (and at the horizon), so trajectories are directly comparable
    with the minimizing-movement route.
    """
    if not (0 < cfl_safety <= 1):
        raise ValueError("cfl_safety must lie in (0, 1]")
    reg = tuple(regularize(e, eps_reg) for e in problem.energies)
    grid = problem.grid
    vol = grid.cell_volume
    h = problem.h
    record_times = h * np.arange(1, int(np.floor(problem.horizon / h)) + 1)
    if record_times.size == 0 or record_times[-1] < problem.horizon - 1e-12:
        record_times = np.append(record_times, problem.horizon)

    state = ParabolicState(densities=problem.rho0, time=0.0)
    states: list[tuple[Density, ...]] = [problem.rho0]
    times = [0.0]
    for target in record_times:
        while state.time < target - 1e-13:
            velocities = _face_velocities(problem.drift, state.densities)
            limit = _bound_from(grid, state.densities, reg, velocities)
            dt = min(cfl_safety * limit, target - state.time)
            state = _advance(state, reg, velocities, limit, dt)
        states.append(state.densities)
        times.append(state.time)

    l = problem.species_count
    energies = np.zeros((len(states), l))
    for k, tup in enumerate(states):
        for i in range(l):
            energies[k, i] = problem.energies[i].total(tup[i].values, vol)
    return Trajectory(
        grid=grid,
        h=h,
        times=np.asarray(times),
        states=states,
        energies=energies,
        kind="parabolic",
        clipped_mass=state.clipped_mass,
    )
