"""Explicit conservative finite-volume solver for the regularized flow.

Advances d_t rho_i = Lap F'_{i,eps}(rho_i) - div(rho_i V_i[rho]) with the
uniformly elliptic truncation F_eps, valid for velocity-mode (non-gradient)
drifts as well as potential ones.  Face fluxes combine the staggered gradient
of F'_eps with first-order upwind advection on the face-averaged velocity;
the flux-difference update conserves mass to roundoff by telescoping, and
negative undershoots are clipped to zero (renormalizing, with the clipped
mass accumulated for inspection).

The step runs on all species of all runs at once, as one (runs, species,
*shape) array: problems that share grid, energies, drift, horizon and h and
differ only in their initial densities march in lock step, so the per-call
cost of numpy, which dominates on small grids, is paid once per step for all
of them.  Every operation is per row or per element, so each run comes out
bit for bit as it would alone.  The CFL bound, dt, guards, clipping and
records are per run; a run that reaches the horizon drops out of the stack.
The drift comes from the model's kernel transforms, taken once per model,
with one batched forward and one batched inverse transform per step; species
with equal regularized energies are evaluated together, and periodic shifts
use index arrays built once.  Each step evaluates F'_eps and, for the CFL
bound, F''_eps together, with one range test per energy group (entropy's
F''_eps is 1 and is not evaluated).  The fluxes and their divergence are
formed in place in scratch arrays that the scheme holds for the whole run,
so a step allocates little beyond the new state.
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


def _row_error(cls: type[Exception], message: str, row: int) -> Exception:
    """A step failure of one row (run) of the stacked values; ``run_parabolic``
    names the problem that the row belongs to."""
    exc = cls(message)
    exc.row = row
    return exc


class _Scheme:
    """What the stacked step needs from a set of runs, evaluated once per call.

    Values are stacked as (runs, species, *shape); every operation is per
    row or per element, so each run evolves exactly as it would alone.
    """

    def __init__(self, reg_energies: tuple[RegularizedEnergy, ...], drift: DriftModel) -> None:
        self.grid = drift.grid
        self.species = len(reg_energies)
        self.drift = drift
        self.cells = drift.grid.cells
        self.cell_volume = drift.grid.cell_volume
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
        # Scratch arrays of the update, reused by every step with as many runs.
        self._scratch = (np.empty(0),)

    def _pressure_and_curvature(self, values: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """F'_eps on stacked values and the largest F''_eps over all species
        per run, one call and one range test per energy group.  Entropy's
        F''_eps is 1 on nonnegative values (its delta_eps is 0), so it is not
        evaluated."""
        runs = len(values)
        single = len(self.groups) == 1
        pressure = None if single else np.empty_like(values)
        largest: list[float] | None = None
        for reg, idx in self.groups:
            group_values = values if single else values[:, idx]
            if reg.base.kind == "entropy":
                fp = reg.f_prime(group_values)
                group = [1.0] * runs
            else:
                fp, fpp = reg.f_prime_and_second(group_values)
                group = fpp.reshape(runs, -1).max(axis=1).tolist()
            if single:
                pressure = fp
            else:
                pressure[:, idx] = fp
            largest = group if largest is None else list(map(max, largest, group))
        return pressure, largest

    def _masses(self, values: np.ndarray) -> list[float]:
        """Mass of every (run, species) row, flat: row k belongs to run
        k // species."""
        vol = self.cell_volume
        return [m * vol for m in values.reshape(-1, self.cells).sum(axis=1).tolist()]

    def velocities(
        self, values: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray, list[float], list[str]]:
        """Face velocities (runs, species, dim, *shape), component a at face
        i+1/2, and the pressure F'_eps, with each run's largest admissible dt
        and the CFL term that sets it.

        Potential mode differences the potential across the face (exactly the
        staggered gradient); velocity mode averages the collocated field onto
        faces.  None stands for a drift without nonzero kernels.  The bound is
        min(dx^2 / (4 max F''_eps), dx / (2 max |V|)).
        """
        grid, dx = self.grid, self.grid.dx
        runs = len(values)
        pressure, curvatures = self._pressure_and_curvature(values)
        diffusion = [
            0.25 * dx**2 / curvature if curvature > 0 else np.inf for curvature in curvatures
        ]
        if not self.advects:
            return None, pressure, diffusion, ["diffusion"] * runs
        fields = _kernel_sums(self.drift, values)
        faces = np.empty((runs, self.species, grid.dim) + grid.shape)
        for a in range(grid.dim):
            face = faces[:, :, a]
            if self.drift.mode == "potential":  # -(U_ahead - U) / dx
                fields.take(self.ahead, axis=2 + a, out=face, mode="wrap")
                face -= fields
                face /= -dx
            else:  # (V_ahead + V) / 2
                comp = fields[:, :, a]
                comp.take(self.ahead, axis=2 + a, out=face, mode="wrap")
                face += comp
                face *= 0.5
        # The largest |V| is NaN or inf exactly when some face velocity is.
        vmax = np.abs(faces).reshape(runs, -1).max(axis=1).tolist()
        limits, terms = [], []
        for row, (v, d) in enumerate(zip(vmax, diffusion)):
            if not math.isfinite(v):
                raise _row_error(RuntimeError, "drift velocities are not finite", row)
            advection = 0.5 * dx / v if v > 0 else np.inf
            if advection < d:
                limits.append(advection)
                terms.append("advection")
            else:
                limits.append(d)
                terms.append("diffusion")
        return faces, pressure, limits, terms

    def advance(
        self,
        values: np.ndarray,
        faces: np.ndarray | None,
        pressure: np.ndarray,
        dt: list[float],
    ) -> tuple[np.ndarray, list[float]]:
        """One update with velocities and pressure already evaluated on values
        and, per run, a dt within their bound; returns the new values and
        the mass clipped from each run."""
        grid, dx = self.grid, self.grid.dx
        if self._scratch[0].shape != values.shape:
            self._scratch = tuple(np.empty(values.shape) for _ in range(3))
        flux, term, divergence = self._scratch
        for a in range(grid.dim):
            axis = 2 + a
            pressure.take(self.ahead, axis=axis, out=flux, mode="wrap")
            flux -= pressure
            flux /= -dx  # -(p_ahead - p) / dx
            if faces is not None:
                w = faces[:, :, a]
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
        # Transposed, the runs axis comes last, so dt broadcasts one per run.
        by_run = divergence.T
        by_run *= dt
        updated = values - divergence
        species = self.species
        pre_clip_mass = self._masses(updated)
        # A sum is finite only if every summand is, so the full test runs
        # only on a run with some mass that is not finite.
        if not all(map(math.isfinite, pre_clip_mass)):
            for k, p in enumerate(pre_clip_mass):
                if not math.isfinite(p) and not np.isfinite(updated[k // species]).all():
                    raise _row_error(
                        RuntimeError, "parabolic step produced non-finite values", k // species
                    )
        mass = self._masses(values)
        drifted = [abs(p - m) > 1e-13 * max(1.0, m) for p, m in zip(pre_clip_mass, mass)]
        if True in drifted:
            raise _row_error(
                RuntimeError,
                "flux telescoping violated; mass drifted in one step",
                drifted.index(True) // species,
            )
        # A run without negative values clips 0.0 from each species and keeps
        # its masses exactly, so every run is treated alike.
        clipped = [0.0] * len(values)
        negative = updated.min() < 0
        if negative:
            for k, c in enumerate(self._masses(np.minimum(updated, 0.0))):
                clipped[k // species] -= c
        np.maximum(updated, 0.0, out=updated)  # also turns -0.0 into 0.0
        totals = self._masses(updated) if negative else pre_clip_mass
        if min(totals) <= 0:
            empty = [t <= 0 for t in totals].index(True)
            raise _row_error(
                ValueError, "degenerate density: total mass is not positive", empty // species
            )
        by_row = updated.reshape(-1, self.cells).T
        by_row /= totals
        return updated, clipped


class _Run:
    """One problem's walk over the record times, with its per-step record."""

    def __init__(self, index: int, problem: Problem, record_times: list[float]) -> None:
        self.index = index
        self.record_times = record_times
        self.target = 0  # index of the next record time
        self.time = 0.0
        self.clipped_mass = 0.0
        self.step_dt: list[float] = []
        self.step_bound: list[str] = []
        self.step_clipped: list[float] = []
        self.states: list[tuple[Density, ...]] = [problem.rho0]
        self.times = [0.0]
        self.done = False
        self._aim()

    def _aim(self) -> None:
        """Set the next record time and the time past which it is reached."""
        self.next_time = self.record_times[self.target]
        # The tolerance spares a roundoff-sized last step.  It shrinks with
        # record intervals below 1e-10, so every record takes at least one
        # step and recorded times strictly increase.
        self.reached = self.next_time - min(1e-13, 1e-3 * (self.next_time - self.time))

    def record(self, grid, values: np.ndarray) -> None:
        """Record values at every record time reached: one, but for
        intervals below the loop tolerance."""
        while not self.time < self.reached:
            self.states.append(tuple(Density(grid, v) for v in values))
            self.times.append(self.time)
            self.target += 1
            self.done = self.target == len(self.record_times)
            if self.done:
                return
            self._aim()

    def trajectory(self, grid, h: float) -> Trajectory:
        return Trajectory(
            grid=grid,
            h=h,
            times=np.asarray(self.times),
            states=self.states,
            clipped_mass=self.clipped_mass,
            step_dt=np.asarray(self.step_dt),
            step_bound=tuple(self.step_bound),
            step_clipped=np.asarray(self.step_clipped),
        )


def _same_drift(a: DriftModel, b: DriftModel) -> bool:
    return a is b or (
        a.grid == b.grid
        and a.mode == b.mode
        and a.nonneg_shift == b.nonneg_shift
        and np.array_equal(a.kernels, b.kernels)
    )


def _check_lock_step(problems: tuple[Problem, ...]) -> None:
    """Problems marched together share everything but their initial data."""
    first = problems[0]
    for k, other in enumerate(problems[1:], 1):
        for name, same in (
            ("grid", other.grid == first.grid),
            ("energies", other.energies == first.energies),
            ("drift", _same_drift(other.drift, first.drift)),
            ("horizon", other.horizon == first.horizon),
            ("h", other.h == first.h),
        ):
            if not same:
                raise ValueError(
                    f"problem {k} differs from problem 0 in {name}; problems run "
                    "together share grid, energies, drift, horizon and h"
                )


def run_parabolic(
    *problems: Problem,
    eps_reg: float = 1e-3,
    cfl_safety: float = 0.9,
) -> Trajectory | tuple[Trajectory, ...]:
    """March the regularized equation to the problem horizon.

    Velocities are re-evaluated from the current densities once per step and
    serve both the CFL bound and the update.  States are recorded at the
    problem's ``record_times``, one per minimizing-movement step, so the two
    routes' trajectories pair record by record.  Each step's dt, the CFL term
    that bounded it and the mass it clipped are recorded on the trajectory.

    Several problems that differ only in their initial densities march in
    lock step, one stacked step for all, each with its own dt and records;
    a run that has reached the horizon takes no further step.  Each
    trajectory is bit for bit the one its problem gives alone.  One problem
    returns its Trajectory, several a tuple with one per problem; a step
    failure of a lock-step call names the problem's index.
    """
    if not problems:
        raise TypeError("run_parabolic needs at least one problem")
    if not (0 < cfl_safety <= 1):
        raise ValueError("cfl_safety must lie in (0, 1]")
    _check_lock_step(problems)
    first = problems[0]
    reg = tuple(regularize(e, eps_reg) for e in first.energies)
    grid, h = first.grid, first.h
    record_times = first.record_times.tolist()

    scheme = _Scheme(reg, first.drift)
    values = np.stack([[rho.values for rho in p.rho0] for p in problems])
    runs = [_Run(k, p, record_times) for k, p in enumerate(problems)]
    active = runs
    while active:
        try:
            faces, pressure, limits, terms = scheme.velocities(values)
            dts = [
                min(cfl_safety * limit, run.next_time - run.time)
                for run, limit in zip(active, limits)
            ]
            values, clipped = scheme.advance(values, faces, pressure, dts)
        except (RuntimeError, ValueError) as exc:
            row = getattr(exc, "row", None)
            if len(problems) == 1 or row is None:
                raise
            raise type(exc)(f"problem {active[row].index}: {exc}") from exc
        finished = False
        for row, (run, dt, term, c) in enumerate(zip(active, dts, terms, clipped)):
            run.time = run.time + dt
            run.clipped_mass = run.clipped_mass + c
            run.step_dt.append(dt)
            run.step_bound.append(term)
            run.step_clipped.append(c)
            if not run.time < run.reached:
                run.record(grid, values[row])
                finished = finished or run.done
        if finished:
            keep = [row for row, run in enumerate(active) if not run.done]
            values = values[keep]
            active = [active[row] for row in keep]

    trajectories = tuple(run.trajectory(grid, h) for run in runs)
    return trajectories[0] if len(problems) == 1 else trajectories
