"""Conservative finite-volume solver for the regularized flow.

Advances d_t rho_i = Lap F'_{i,eps}(rho_i) - div(rho_i V_i[rho]) with the
uniformly elliptic truncation F_eps, valid for velocity-mode (non-gradient)
drifts as well as potential ones.  Face fluxes combine the staggered gradient
of F'_eps with first-order upwind advection on the face-averaged velocity;
every update is a flux difference, so mass is conserved to roundoff by
telescoping, and negative undershoots are clipped to zero (renormalizing,
with the clipped mass recorded per super-step).

Time stepping.  A forward-Euler step is stable up to the CFL bound
min(dx^2 / (4 max F''_eps), dx / (2 max |V|)), and on fine grids the
diffusion term binds.  Runs therefore advance by Runge-Kutta-Legendre
super-steps (RKL2: Meyer, Balsara & Aslam, J. Comput. Phys. 257, 2014): s
stages, each a flux-difference update, stable up to (s^2 + s - 2) / 4
forward-Euler diffusion limits and second order in time.  Take f =
``cfl_safety`` times the bound at the start of a super-step.  When one step
of f reaches the next record time (within the loop's tolerance), or when no
super-step can be longer than f (the advection bound binds it), the run
takes a forward-Euler step of min(f, rest of the interval): s = 1.
Otherwise the longest super-step is L = cfl_safety min(diffusion (S^2 + S -
2) / 4, advection) with S = ``_MAX_STAGES``; the rest of the interval is
split into ceil(rest / L) equal super-steps of tau, and s is the fewest
stages whose diffusion limit covers tau: 1 when tau <= f.  Every stage
re-evaluates the drift and F'_eps on the stage values.  The CFL limits are
taken once per super-step, on its start values, and the guards, clipping
and renormalization once, on its result.

The step runs on all species of all runs at once, as one (runs, species,
*shape) array: runs of one problem from several initial states march in lock
step, so the per-call cost of numpy, which dominates on small grids, is paid
once per stage for all of them.  The runs share one step sequence: the CFL
limits are taken over the whole stack (the largest F''_eps at any run's
peak, the largest |V| of any run), and they set one length and one stage
count for every run.  Every operation is per row or per element, so a run
whose own limits bind on every super-step comes out bit for bit as it would
alone; another run takes the shared steps, which stay within its own
limits.  The guards, clipping and clipped mass are per run.
The drift comes from the model's kernel transforms, taken once per model,
with one batched forward and one batched inverse transform per stage; species
with equal regularized energies are evaluated together, and periodic shifts
use index arrays built once.  Each stage evaluates F'_eps once, with one range
test per energy group.  F''_eps is nondecreasing, so the diffusion limit
needs it only at each run's peak, one call per energy group and super-step.
The fluxes are formed in place in scratch arrays that the scheme holds for
the whole run.
Its guards run on the per-species masses, with the full finiteness scan
only when a mass is not finite.  ``Density`` tuples are built only at
recorded times.

``run_parabolic`` is the one entry point: it picks every step from the CFL
bound.  Fixed steps need no other API.  ``Problem(..., h=dt, horizon=k*dt)``
takes exactly one forward-Euler step of dt per record, k in all, whenever dt
is at most ``cfl_safety`` times the bound; ``len(traj.step_dt)`` confirms the
count, and ``traj.step_stages`` reads 1 on every step.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .energy import EPS_REG, RegularizedEnergy, regularize
from .grid import Density
from .interaction import DriftModel, _kernel_sums
from .jko import Problem, Trajectory

__all__ = ["run_parabolic"]

# Most stages of one super-step.  On the shipped stability pair, 10 stages
# keep the distance from a fine forward-Euler reference below forward
# Euler's own; 16 stages raise it sixfold.
_MAX_STAGES = 10


def _row_error(cls: type[Exception], message: str, row: int) -> Exception:
    """A step failure of one row (run) of the stacked values; ``run_parabolic``
    names the problem that the row belongs to."""
    exc = cls(message)
    exc.row = row
    return exc


def _legendre_b(j: int) -> float:
    """The RKL2 weight b_j: 1/3 up to j = 2, then (j^2 + j - 2) / (2 j (j + 1))."""
    return 1.0 / 3.0 if j <= 2 else (j * j + j - 2) / (2.0 * j * (j + 1))


def _stage_limit(s: int) -> float:
    """Forward-Euler diffusion limits that s RKL2 stages cover."""
    return (s * s + s - 2) / 4.0


class _Scheme:
    """What the stacked step needs from a set of runs, evaluated once per call.

    Values are stacked as (runs, species, *shape); every operation but the
    CFL limits is per row or per element.
    """

    def __init__(self, reg_energies: tuple[RegularizedEnergy, ...], drift: DriftModel) -> None:
        self.grid = drift.grid
        self.species = len(reg_energies)
        self.drift = drift
        self.cells = drift.grid.cells
        self.cell_volume = drift.grid.cell_volume
        # An advection term only where some kernel is nonzero; its transforms
        # are taken here, at run start.
        self.advects = drift._kernel_hats is not None
        members: dict[RegularizedEnergy, list[int]] = {}
        for i, reg in enumerate(reg_energies):
            members.setdefault(reg, []).append(i)
        self.groups = [(reg, np.array(idx)) for reg, idx in members.items()]
        n = drift.grid.n
        cells = np.arange(n)
        self.ahead = (cells + 1) % n  # entry i holds cell i + 1
        self.behind = (cells - 1) % n  # entry i holds cell i - 1
        # Scratch arrays of the flux, made on the first call.
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def _pressure(self, values: np.ndarray) -> np.ndarray:
        """F'_eps on stacked values, one call and one range test per energy
        group."""
        if len(self.groups) == 1:
            return self.groups[0][0].f_prime(values)
        pressure = np.empty_like(values)
        for reg, idx in self.groups:
            pressure[:, idx] = reg.f_prime(values[:, idx])
        return pressure

    def _masses(self, values: np.ndarray) -> list[float]:
        """Mass of every (run, species) row, flat: row k belongs to run
        k // species."""
        vol = self.cell_volume
        return [m * vol for m in values.reshape(-1, self.cells).sum(axis=1).tolist()]

    def velocities(self, values: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        """Face velocities (runs, species, dim, *shape), component a at face
        i+1/2, and the pressure F'_eps.

        Potential mode differences the potential across the face (exactly the
        staggered gradient); velocity mode averages the collocated field onto
        faces.  None stands for a drift without nonzero kernels.
        """
        grid, dx = self.grid, self.grid.dx
        runs = len(values)
        pressure = self._pressure(values)
        if not self.advects:
            return None, pressure
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
        finite = np.isfinite(faces).reshape(runs, -1).all(axis=1).tolist()
        if False in finite:
            raise _row_error(RuntimeError, "drift velocities are not finite", finite.index(False))
        return faces, pressure

    def limits(self, values: np.ndarray, faces: np.ndarray | None) -> tuple[float, float]:
        """The stack's diffusion limit dx^2 / (4 max F''_eps) and advection
        limit dx / (2 max |V|) on values and their face velocities: the
        smallest of its runs' limits.

        F''_eps is nondecreasing, so its max is F''_eps of a run's peak, one
        call per energy group.  (Rounding can put the middle piece an ulp
        below eps just above delta_eps, or above 1/eps just below M_eps; only
        a peak within ulps of a junction sees it, as an ulp in the limit.)
        Without nonzero kernels the advection limit is inf.
        """
        dx = self.grid.dx
        peaks = values.reshape(len(values), self.species, -1).max(axis=2)
        curvature = max(
            float(reg.f_second(peaks[:, idx].max(axis=1)).max()) for reg, idx in self.groups
        )
        diffusion = 0.25 * dx**2 / curvature if curvature > 0 else np.inf
        vmax = 0.0 if faces is None else float(np.abs(faces).max())
        return diffusion, 0.5 * dx / vmax if vmax > 0 else np.inf

    def divergence(
        self, values: np.ndarray, faces: np.ndarray | None, pressure: np.ndarray
    ) -> np.ndarray:
        """The flux divergence, with velocities and pressure already evaluated
        on values: d_t values = -divergence."""
        grid, dx = self.grid, self.grid.dx
        if self._scratch is None:
            self._scratch = (np.empty(values.shape), np.empty(values.shape))
        flux, term = self._scratch
        divergence = np.empty(values.shape)
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
        return divergence

    def finish(self, values: np.ndarray, updated: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """The guards of a super-step from values to updated: finiteness,
        mass telescoping, clipping and renormalization; returns the new
        values and the mass clipped from each run."""
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


def _plan(
    time: float, next_time: float, reached: float, diffusion: float, advection: float, cfl: float
) -> tuple[float, int, str]:
    """The next super-step from the stack's CFL limits: its length, its
    stage count and the CFL term that bounds it."""
    rest = next_time - time
    euler = cfl * min(diffusion, advection)
    longest = min(cfl * diffusion * _stage_limit(_MAX_STAGES), cfl * advection)
    if not time + euler < reached or longest <= euler:  # a forward-Euler step
        term = "advection" if advection < diffusion else "diffusion"
        return min(euler, rest), 1, term
    tau = rest / math.ceil(rest / longest)
    term = "advection" if longest < cfl * diffusion * _stage_limit(_MAX_STAGES) else "diffusion"
    if tau <= euler:  # an advection-capped step that one stage covers
        return tau, 1, term
    stages = 2
    while stages < _MAX_STAGES and cfl * diffusion * _stage_limit(stages) < tau:
        stages += 1
    return tau, stages, term


def _super_step(
    scheme: _Scheme,
    values: np.ndarray,
    faces: np.ndarray | None,
    pressure: np.ndarray,
    tau: float,
    stages: int,
) -> np.ndarray:
    """One RKL2 super-step of every run, before its guards: stages stages
    over tau, with velocities and pressure already evaluated on values.  One
    stage is the forward-Euler step."""
    d0 = scheme.divergence(values, faces, pressure)
    if stages == 1:
        return values - tau * d0
    w = tau / _stage_limit(stages)  # w1 tau, w1 = 4 / (s^2 + s - 2)
    prev2, prev = values, values - _legendre_b(1) * w * d0
    for j in range(2, stages + 1):
        dj = scheme.divergence(prev, *scheme.velocities(prev))
        b1, b2 = _legendre_b(j - 1), _legendre_b(j - 2)
        mu = (2 * j - 1) / j * _legendre_b(j) / b1
        nu = -(j - 1) / j * _legendre_b(j) / b2
        new = mu * prev
        new += nu * prev2
        new += (1.0 - mu - nu) * values
        new -= mu * w * dj
        new += (1.0 - b1) * mu * w * d0
        prev2, prev = prev, new
    return prev


def run_parabolic(
    problem: Problem,
    *rho0: tuple[Density, ...],
    eps_reg: float = EPS_REG,
    cfl_safety: float = 0.9,
) -> Trajectory | tuple[Trajectory, ...]:
    """March the regularized equation to the problem horizon.

    Velocities are re-evaluated from the current densities at every stage;
    the CFL limits at the start of a super-step set its length and stage
    count.
    States are recorded at the problem's ``record_times``, one per
    minimizing-movement step, so the two routes' trajectories pair record by
    record.  Each super-step's length, stage count, the CFL term that
    bounded it and the mass it clipped are recorded on the trajectory.

    Each further argument is a tuple of initial densities, one per species:
    the problem run from that state instead of ``problem.rho0``, checked as
    ``Problem`` checks its own (species count, type, grid, unit mass, finite
    energy) before any step.  The runs march in lock step, one stacked
    super-step for all, with one step sequence: the smallest of their CFL
    limits sets every super-step, so all trajectories carry equal ``times``,
    ``step_dt``, ``step_stages`` and ``step_bound``, and each its own states
    and ``step_clipped``.  A trajectory is bit for bit the one its run gives
    alone when that run's limits bind on every super-step; any other takes
    steps within its own limits.
    Without initial states the call returns the problem's Trajectory, with
    them a tuple, one per run and the problem's own first; a refused initial
    state or a step failure of a lock-step call names the run as ``problem
    k``, k its index in that tuple.
    """
    if not (0 < cfl_safety <= 1):
        raise ValueError("cfl_safety must lie in (0, 1]")
    starts = [problem.rho0]
    for k, start in enumerate(rho0, start=1):
        try:
            starts.append(dataclasses.replace(problem, rho0=start).rho0)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"problem {k}: {exc}") from exc
    reg = tuple(regularize(e, eps_reg) for e in problem.energies)
    grid = problem.grid

    scheme = _Scheme(reg, problem.drift)
    values = np.stack([[rho.values for rho in start] for start in starts])
    states: list[list[tuple[Density, ...]]] = [[start] for start in starts]
    step_clipped: list[list[float]] = [[] for _ in starts]
    times, step_dt, step_bound, step_stages = [0.0], [], [], []
    time = 0.0
    for next_time in problem.record_times.tolist():
        # The tolerance spares a roundoff-sized last step.  It shrinks with
        # record intervals below 1e-10, so every record takes at least one
        # step and recorded times strictly increase.
        reached = next_time - min(1e-13, 1e-3 * (next_time - time))
        while time < reached:
            try:
                faces, pressure = scheme.velocities(values)
                diffusion, advection = scheme.limits(values, faces)
                tau, stages, term = _plan(
                    time, next_time, reached, diffusion, advection, cfl_safety
                )
                updated = _super_step(scheme, values, faces, pressure, tau, stages)
                values, clipped = scheme.finish(values, updated)
            except (RuntimeError, ValueError) as exc:
                row = getattr(exc, "row", None)
                if not rho0 or row is None:
                    raise
                raise type(exc)(f"problem {row}: {exc}") from exc
            time = time + tau
            step_dt.append(tau)
            step_bound.append(term)
            step_stages.append(stages)
            for record, c in zip(step_clipped, clipped):
                record.append(c)
        times.append(time)
        for record, run in zip(states, values):
            record.append(tuple(Density(grid, v) for v in run))

    trajectories = tuple(
        Trajectory(
            grid=grid,
            h=problem.h,
            times=np.asarray(times),
            states=record,
            step_dt=np.asarray(step_dt),
            step_bound=tuple(step_bound),
            step_clipped=np.asarray(clipped),
            step_stages=np.asarray(step_stages),
        )
        for record, clipped in zip(states, step_clipped)
    )
    return trajectories if rho0 else trajectories[0]
