"""Numerical verification of the scheme's a priori estimates.

The checks mirror, on computed trajectories, the quantities a minimizing
movement controls: the per-step energy-dissipation inequality, the Holder
time-regularity ratio, the dissipated Sobolev norm of rho^(m/2), the weak
form residual of the PDE (one quadrature for both drift kinds, through
``velocity_field``), and the exponential stability bound between two
trajectories of the same system.  The ledger recomputes every energy from
the states; trajectories carry none.

All Wasserstein evaluations here go through ``species_w2_sq``, which sets
their accuracy: on 1-d grids its distances are exact, on 2-d grids they are
Sinkhorn estimates at the entropic parameter 1e-4.  A distance that fails
its optimality check (1-d) or a solve that does not converge (2-d) raises
RuntimeError naming the species (and, in ``stability_compare``, the record
time) instead of feeding an unverified value into a ratio or a series.
``holder_check`` and ``stability_compare`` each make one ``species_w2_sq``
call, so all their 1-d distances share one search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import InternalEnergy
from .grid import Density, Grid, grad_values
from .interaction import potential_from_kernel, velocity_field
from .jko import Problem, Trajectory
from .transport import TransportCheckError, species_w2_sq

__all__ = [
    "Ledger",
    "TestFunction",
    "StabilitySeries",
    "default_ledger_slack",
    "energy_ledger",
    "holder_check",
    "sobolev_integrand",
    "sobolev_estimate",
    "separable_test_function",
    "weak_residual",
    "stability_compare",
    "entropy_value",
]

# The reported per-step cost <c, plan> of each species carries an entropic
# floor close to eps * dim / 2 (the spread of the Gibbs kernel), which the
# species-summed dissipation inequality must absorb: after dividing by 2h that
# is species * eps * dim / (4h).
# Calibrated on the zero-drift heat scenario, where the measured residual
# stays within 0.1% of the model; the factor leaves 2% headroom plus a small
# absolute cushion so a corrupted trajectory still trips the flag.
LEDGER_SLACK_FACTOR = 1.02
LEDGER_SLACK_CUSHION = 1e-6


def default_ledger_slack(eps: float, h: float, dim: int, species: int) -> float:
    return LEDGER_SLACK_FACTOR * species * eps * dim / (4.0 * h) + LEDGER_SLACK_CUSHION

_ENTROPY = InternalEnergy.entropy()


def entropy_value(rho: Density) -> float:
    """int rho log rho with the 0 log 0 = 0 convention."""
    return _ENTROPY.total(rho.values, rho.grid.cell_volume)


def sobolev_integrand(rho: Density, m: float) -> float:
    """Squared L2 norm of the staggered gradient of rho^(m/2)."""
    if m < 1:
        raise ValueError("exponent m must be at least 1")
    g = grad_values(rho.grid, rho.values ** (m / 2.0))
    return float(np.sum(g**2) * rho.grid.cell_volume)


def sobolev_estimate(traj: Trajectory, m: float) -> float:
    """Time-integrated dissipation sum_k dt * |grad rho_k^(m/2)|_L2^2."""
    total = 0.0
    for k in range(1, len(traj.times)):
        dt = traj.times[k] - traj.times[k - 1]
        total += dt * sum(sobolev_integrand(rho, m) for rho in traj.states[k])
    return total


@dataclass
class Ledger:
    """Per-step record of the dissipation bookkeeping, species-summed."""

    times: np.ndarray
    energy: np.ndarray      # per state
    entropy: np.ndarray     # per state
    sobolev: np.ndarray     # per state
    w2_sq: np.ndarray       # per step
    drift_term: np.ndarray  # <U[rho^k], rho^{k+1}> per step
    violation: np.ndarray   # lhs - rhs of the dissipation inequality
    flags: np.ndarray       # violation > 0
    slack: float


def energy_ledger(traj: Trajectory, problem: Problem) -> Ledger:
    """Check (per step) w2_sq/(2h) <= drop of [energy + frozen drift work].

    Requires per-step transport records, so the trajectory must come from the
    minimizing-movement solver.  The slack is ``default_ledger_slack`` of the
    trajectory's own entropic parameter, step, dimension and species count.
    """
    if traj.w2_sq is None or traj.jko_eps is None:
        raise ValueError("trajectory carries no transport records")
    slack = default_ledger_slack(traj.jko_eps, traj.h, traj.grid.dim, traj.species_count)
    grid = traj.grid
    vol = grid.cell_volume
    l = traj.species_count
    n_states = len(traj.states)
    n_steps = n_states - 1

    # Recompute every functional from the states themselves; the ledger is a
    # verifier and must not trust the run's own records.
    energy = np.array(
        [
            sum(problem.energies[i].total(tup[i].values, vol) for i in range(l))
            for tup in traj.states
        ]
    )
    ent = np.array([sum(entropy_value(r) for r in tup) for tup in traj.states])
    sobo = np.array(
        [
            sum(
                sobolev_integrand(tup[i], problem.energies[i].m)
                for i in range(l)
            )
            for tup in traj.states
        ]
    )

    drift_term = np.zeros(n_steps)
    violation = np.zeros(n_steps)
    for k in range(n_steps):
        potentials = potential_from_kernel(problem.drift, traj.states[k])
        work_prev = sum(
            float(np.sum(potentials[i].values * traj.states[k][i].values) * vol)
            for i in range(l)
        )
        work_next = sum(
            float(np.sum(potentials[i].values * traj.states[k + 1][i].values) * vol)
            for i in range(l)
        )
        drift_term[k] = work_next
        lhs = float(traj.w2_sq[k].sum()) / (2.0 * traj.h)
        rhs = (energy[k] - energy[k + 1]) + (work_prev - work_next) + slack
        violation[k] = lhs - rhs
    flags = violation > 0
    return Ledger(
        times=traj.times,
        energy=energy,
        entropy=ent,
        sobolev=sobo,
        w2_sq=traj.w2_sq.sum(axis=1),
        drift_term=drift_term,
        violation=violation,
        flags=flags,
        slack=slack,
    )


def _pair_indices(n_states: int, sample_pairs: int) -> list[tuple[int, int]]:
    all_pairs = [(i, j) for i in range(n_states) for j in range(i + 1, n_states)]
    if len(all_pairs) <= sample_pairs:
        return all_pairs
    rng = np.random.default_rng(0)
    chosen = rng.choice(len(all_pairs), size=sample_pairs, replace=False)
    return [all_pairs[int(k)] for k in sorted(chosen)]


def holder_check(traj: Trajectory, sample_pairs: int = 20) -> float:
    """Empirical Holder constant: max W2(rho_t, rho_s)/sqrt(|t-s| + h).

    For systems the product-space distance sqrt(sum_i W2^2) is used.  All
    sampled pairs share one ``species_w2_sq`` call.
    """
    if len(traj.states) < 2:
        raise ValueError("need at least two states")
    pairs = _pair_indices(len(traj.states), sample_pairs)
    w2 = species_w2_sq([traj.states[i] for i, _ in pairs], [traj.states[j] for _, j in pairs])
    worst = 0.0
    for (i, j), row in zip(pairs, w2):
        w2sq = float(np.sum(row))
        dt = abs(traj.times[j] - traj.times[i])
        worst = max(worst, float(np.sqrt(w2sq) / np.sqrt(dt + traj.h)))
    return worst


@dataclass(frozen=True)
class TestFunction:
    """Space-time test function phi on the trajectory's time grid.

    The final slice must vanish identically (phi(T, .) = 0), which the weak
    form requires.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray  # shape (len(times),) + grid.shape

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        times = np.asarray(self.times, dtype=float)
        if vals.shape != (len(times),) + self.grid.shape:
            raise ValueError("test function values have the wrong shape")
        if not np.all(np.isfinite(vals)):
            raise ValueError("test function contains non-finite entries")
        if np.any(vals[-1] != 0.0):
            raise ValueError("test function must vanish at the final time")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "times", times)


def separable_test_function(
    grid: Grid,
    times: np.ndarray,
    frequency: int = 1,
    power: int = 2,
    mean: float = 0.0,
) -> TestFunction:
    """phi(t, x) = (1 - t/T)^power * (mean + prod_a cos(2 pi f x_a))."""
    times = np.asarray(times, dtype=float)
    T = times[-1]
    space = np.ones(grid.shape) * 1.0
    for c in grid.coordinate_grids():
        space = space * np.cos(2.0 * np.pi * frequency * c)
    space = mean + space
    weights = (1.0 - times / T) ** power
    weights[-1] = 0.0
    vals = weights[:, None] * space.ravel()[None, :]
    return TestFunction(grid, times, vals.reshape((len(times),) + grid.shape))


def _face_average(f: np.ndarray, axis: int) -> np.ndarray:
    return 0.5 * (f + np.roll(f, -1, axis=axis))


def weak_residual(traj: Trajectory, problem: Problem, phi: TestFunction) -> float:
    """Residual of the weak form of d_t rho = Lap F'(rho) - div(rho V[rho])
    under piecewise-constant-in-time states.

    V is ``velocity_field`` of the problem's drift, which is -grad U for a
    potential model, so one quadrature serves both drift kinds.  Quadrature
    is cell sums in space, step sums in time; the diffusion term pairs the
    staggered gradients of F'(rho) and phi, and the drift term pairs the
    face-averaged flux rho V with the gradient of phi.
    """
    if len(phi.times) != len(traj.times) or not np.allclose(phi.times, traj.times):
        raise ValueError("test function and trajectory time grids differ")
    grid = traj.grid
    vol = grid.cell_volume
    l = traj.species_count

    totals = [
        float(np.sum(phi.values[0] * traj.states[0][i].values) * vol) for i in range(l)
    ]
    drift_on = bool(np.any(problem.drift.kernels != 0.0))
    for k in range(1, len(traj.times)):
        state = traj.states[k]
        dt = traj.times[k] - traj.times[k - 1]
        dphi = phi.values[k] - phi.values[k - 1]
        gphi = 0.5 * (
            grad_values(grid, phi.values[k]) + grad_values(grid, phi.values[k - 1])
        )
        velocities = velocity_field(problem.drift, state) if drift_on else None
        for i in range(l):
            rho_k = state[i].values
            acc = float(np.sum(rho_k * dphi) * vol)
            g_f = grad_values(grid, problem.energies[i].f_prime(rho_k))
            acc -= dt * float(np.sum(g_f * gphi) * vol)
            if drift_on:
                vel = velocities[i].values
                for a in range(grid.dim):
                    rv_face = _face_average(rho_k * vel[a], a)
                    acc += dt * float(np.sum(rv_face * gphi[a]) * vol)
            totals[i] += acc
    return abs(sum(totals))


@dataclass
class StabilitySeries:
    times: np.ndarray
    w2_sums: np.ndarray
    bounds: np.ndarray
    flags: np.ndarray
    c_hat: float


def _same_record_times(times_a: np.ndarray, times_b: np.ndarray) -> bool:
    """Each pair of record times differs by at most 1e-2 of the shorter
    record interval ending there (the first pair, of the first interval).
    Solvers land within 1e-3 of an interval of each record time, so the
    tolerance is well above their roundoff and well below the spacing."""
    if times_a.shape != times_b.shape:
        return False
    if times_a.size < 2:
        return bool(np.array_equal(times_a, times_b))
    spacing = np.minimum(np.diff(times_a), np.diff(times_b))
    tol = 1e-2 * np.concatenate([spacing[:1], spacing])
    return bool(np.all(np.abs(times_a - times_b) <= tol))


def stability_compare(
    traj_a: Trajectory,
    traj_b: Trajectory,
    c_hat: float,
    margin: float = 0.2,
) -> StabilitySeries:
    """Per-time sum_i W2^2 between two trajectories against the exponential
    bound exp(4 c_hat t) * (initial sum) * (1 + margin).

    All record times share one ``species_w2_sq`` call; a distance that fails
    its check raises naming its record time and species."""
    if traj_a.grid != traj_b.grid:
        raise ValueError("trajectories live on different grids")
    if traj_a.species_count != traj_b.species_count:
        raise ValueError("trajectories have different species counts")
    if not _same_record_times(np.asarray(traj_a.times), np.asarray(traj_b.times)):
        raise ValueError("trajectories use different time grids")
    try:
        w2 = species_w2_sq(traj_a.states, traj_b.states)
    except TransportCheckError as exc:
        raise TransportCheckError(f"{exc} at time {traj_a.times[exc.pair]:g}", exc.pair) from exc
    sums = np.array([np.sum(row) for row in w2])
    bounds = np.exp(4.0 * c_hat * traj_a.times) * sums[0] * (1.0 + margin)
    flags = sums > bounds
    return StabilitySeries(
        times=traj_a.times, w2_sums=sums, bounds=bounds, flags=flags, c_hat=c_hat
    )
