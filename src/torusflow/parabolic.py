"""Explicit conservative finite-volume solver for the regularized flow.

Advances d_t rho_i = Lap F'_{i,eps}(rho_i) - div(rho_i V_i[rho]) with the
uniformly elliptic truncation F_eps, valid for velocity-mode (non-gradient)
drifts as well as potential ones.  Face fluxes combine the staggered gradient
of F'_eps with first-order upwind advection on the face-averaged velocity;
the flux-difference update conserves mass to roundoff by telescoping, and
negative undershoots are clipped to zero (renormalizing, with the clipped
mass accumulated for inspection).

The step runs on all species at once, as one (species, *shape) array.  The
drift comes from the model's kernel transforms, taken once per run, with one
batched forward and one batched inverse transform per step; species with
equal regularized energies are evaluated together, and periodic shifts use
index arrays built once.  Each step evaluates F'_eps once, and F''_eps once
for the CFL bound (not for entropy, whose F''_eps is 1).  The fluxes and
their divergence are formed in place in scratch arrays that the scheme
holds for the whole run, so a step allocates little beyond the new state.
Its guards run on the per-species masses, with the full finiteness scan
only when a mass is not finite.  ``Density`` tuples are built only at
recorded times.

``run_parabolic`` is the one entry point: it picks every dt from the CFL
bound.  Fixed steps need no other API.  ``Problem(..., h=dt, horizon=k*dt)``
takes exactly one step of dt per record, k in all, whenever dt is below
``cfl_safety`` times the bound; ``len(traj.step_dt)`` confirms the count.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import RegularizedEnergy, regularize
from .grid import Density
from .interaction import DriftModel, _kernel_sums
from .jko import Problem, Trajectory

__all__ = ["run_parabolic"]


class _Scheme:
    """What the stacked step needs from a run, evaluated once per run."""

    def __init__(self, reg_energies: tuple[RegularizedEnergy, ...], drift: DriftModel) -> None:
        self.grid = drift.grid
        self.species = len(reg_energies)
        self.drift = drift
        # An advection term only where some kernel is nonzero; its transforms
        # are taken here, at run start.
        self.advects = bool(drift._transforms.rows.size)
        members: dict[RegularizedEnergy, list[int]] = {}
        for i, reg in enumerate(reg_energies):
            members.setdefault(reg, []).append(i)
        self.groups = [(reg, np.array(idx)) for reg, idx in members.items()]
        n = drift.grid.n
        cells = np.arange(n)
        self.ahead = (cells + 1) % n  # entry i holds cell i + 1
        self.behind = (cells - 1) % n  # entry i holds cell i - 1
        # Scratch arrays of the update, reused by every step.
        stacked = (self.species,) + drift.grid.shape
        self._flux, self._term, self._divergence = (np.empty(stacked) for _ in range(3))

    def _pressure(self, values: np.ndarray) -> np.ndarray:
        """F'_eps on stacked values, one call per energy group."""
        if len(self.groups) == 1:
            return self.groups[0][0].f_prime(values)
        out = np.empty_like(values)
        for reg, idx in self.groups:
            out[idx] = reg.f_prime(values[idx])
        return out

    def _curvature(self, values: np.ndarray) -> float:
        """Largest F''_eps over all species.  Entropy's F''_eps is 1 on
        nonnegative values (its delta_eps is 0), so it is not evaluated."""
        single = len(self.groups) == 1
        return max(
            1.0
            if reg.base.kind == "entropy"
            else float(reg.f_second(values if single else values[idx]).max())
            for reg, idx in self.groups
        )

    def _masses(self, values: np.ndarray) -> list[float]:
        vol = self.grid.cell_volume
        return [m * vol for m in values.reshape(self.species, -1).sum(axis=1).tolist()]

    def velocities(self, values: np.ndarray) -> tuple[np.ndarray | None, float, str]:
        """Face velocities (species, dim, *shape), component a at face i+1/2,
        with the largest admissible dt and the CFL term that sets it.

        Potential mode differences the potential across the face (exactly the
        staggered gradient); velocity mode averages the collocated field onto
        faces.  None stands for a drift without nonzero kernels.  The bound is
        min(dx^2 / (4 max F''_eps), dx / (2 max |V|)).
        """
        grid, dx = self.grid, self.grid.dx
        curvature = self._curvature(values)
        diffusion = 0.25 * dx**2 / curvature if curvature > 0 else np.inf
        if not self.advects:
            return None, float(diffusion), "diffusion"
        fields = _kernel_sums(self.drift, values)
        faces = np.empty((self.species, grid.dim) + grid.shape)
        for a in range(grid.dim):
            face = faces[:, a]
            if self.drift.mode == "potential":  # -(U_ahead - U) / dx
                fields.take(self.ahead, axis=1 + a, out=face, mode="wrap")
                face -= fields
                face /= -dx
            else:  # (V_ahead + V) / 2
                comp = fields[:, a]
                comp.take(self.ahead, axis=1 + a, out=face, mode="wrap")
                face += comp
                face *= 0.5
        # The largest |V| is NaN or inf exactly when some face velocity is.
        vmax = float(np.abs(faces).max())
        if not math.isfinite(vmax):
            raise RuntimeError("drift velocities are not finite")
        advection = 0.5 * dx / vmax if vmax > 0 else np.inf
        if advection < diffusion:
            return faces, float(advection), "advection"
        return faces, float(diffusion), "diffusion"

    def advance(
        self, values: np.ndarray, faces: np.ndarray | None, dt: float
    ) -> tuple[np.ndarray, float]:
        """One update with velocities already evaluated on values and a dt
        within their bound; returns the new values and the mass clipped."""
        grid, dx = self.grid, self.grid.dx
        pressure = self._pressure(values)
        flux, term, divergence = self._flux, self._term, self._divergence
        for a in range(grid.dim):
            axis = 1 + a
            pressure.take(self.ahead, axis=axis, out=flux, mode="wrap")
            flux -= pressure
            flux /= -dx  # -(p_ahead - p) / dx
            if faces is not None:
                w = faces[:, a]
                values.take(self.ahead, axis=axis, out=term, mode="wrap")
                np.copyto(term, values, where=w >= 0)  # the upwind cell
                term *= w
                flux += term
            # The first axis writes the divergence, later ones add to it.
            if a:
                flux.take(self.behind, axis=axis, out=term, mode="wrap")
                np.subtract(flux, term, out=term)
                term /= dx
                divergence += term
            else:
                flux.take(self.behind, axis=axis, out=divergence, mode="wrap")
                np.subtract(flux, divergence, out=divergence)
                divergence /= dx
        divergence *= dt
        updated = values - divergence
        # A sum is finite only if every summand is, so the full test runs
        # only when some species' mass is not finite.
        pre_clip_mass = self._masses(updated)
        if not all(map(math.isfinite, pre_clip_mass)) and not np.isfinite(updated).all():
            raise RuntimeError("parabolic step produced non-finite values")
        mass = self._masses(values)
        if any(abs(p - m) > 1e-13 * max(1.0, m) for p, m in zip(pre_clip_mass, mass)):
            raise RuntimeError("flux telescoping violated; mass drifted in one step")
        clipped = 0.0
        negative = updated.min() < 0
        if negative:
            for c in self._masses(np.minimum(updated, 0.0)):
                clipped -= c
        np.maximum(updated, 0.0, out=updated)  # also turns -0.0 into 0.0
        totals = self._masses(updated) if negative else pre_clip_mass
        if any(t <= 0 for t in totals):
            raise ValueError("degenerate density: total mass is not positive")
        for species, total in zip(updated, totals):
            species /= total
        return updated, clipped


def run_parabolic(
    problem: Problem,
    eps_reg: float = 1e-3,
    cfl_safety: float = 0.9,
) -> Trajectory:
    """March the regularized equation to the problem horizon.

    Velocities are re-evaluated from the current densities once per step and
    serve both the CFL bound and the update.  States are recorded every
    problem h (and at the horizon), so trajectories are directly comparable
    with the minimizing-movement route.  Each step's dt, the CFL term that
    bounded it and the mass it clipped are recorded on the trajectory.
    """
    if not (0 < cfl_safety <= 1):
        raise ValueError("cfl_safety must lie in (0, 1]")
    reg = tuple(regularize(e, eps_reg) for e in problem.energies)
    grid = problem.grid
    h = problem.h
    record_times = h * np.arange(1, int(np.floor(problem.horizon / h)) + 1)
    if record_times.size == 0 or record_times[-1] < problem.horizon - 1e-12:
        record_times = np.append(record_times, problem.horizon)

    scheme = _Scheme(reg, problem.drift)
    values = np.stack([rho.values for rho in problem.rho0])
    time = 0.0
    clipped_mass = 0.0
    step_dt: list[float] = []
    step_bound: list[str] = []
    step_clipped: list[float] = []
    states: list[tuple[Density, ...]] = [problem.rho0]
    times = [0.0]
    for target in record_times:
        # The tolerance spares a roundoff-sized last step.  It shrinks with
        # record intervals below 1e-10, so every record takes at least one
        # step and recorded times strictly increase.
        tol = min(1e-13, 1e-3 * (target - time))
        while time < target - tol:
            faces, limit, term = scheme.velocities(values)
            dt = min(cfl_safety * limit, target - time)
            values, clipped = scheme.advance(values, faces, dt)
            time = time + dt
            clipped_mass = clipped_mass + clipped
            step_dt.append(dt)
            step_bound.append(term)
            step_clipped.append(clipped)
        states.append(tuple(Density(grid, v) for v in values))
        times.append(time)

    return Trajectory(
        grid=grid,
        h=h,
        times=np.asarray(times),
        states=states,
        clipped_mass=clipped_mass,
        step_dt=np.asarray(step_dt),
        step_bound=tuple(step_bound),
        step_clipped=np.asarray(step_clipped),
    )
