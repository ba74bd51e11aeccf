"""Shared helpers: spectral oracles and scenario builders."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, identity, kron, vstack

import torusflow as tf
from torusflow import transport as tr
from torusflow.energy import _kl_prox_power
from torusflow.grid import Grid, VectorField, minimal_image
from torusflow.interaction import _kernel_sums, as_velocity_model


@pytest.fixture
def unconverged_transport(monkeypatch):
    """Every sinkhorn_w2 solve reports a marginal error of 1 after 7 iterations."""

    def fake(mu, nu, eps, tol):
        return tf.TransportResult(
            w2_sq=0.0, plan_marginal_err=1.0, iterations=7, converged=False
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


def reference_circle_w2_sq(mu: tf.Density, nu: tf.Density) -> tuple[float, float, float]:
    """The single-pair bisection that ``_circle_w2_sq`` batches, verbatim:
    one scalar ``_shift_cost`` call per halving.  The batched search must
    return the same triple bit for bit."""
    _shift_cost, _check_normalized = tr._shift_cost, tr._check_normalized
    if mu.grid != nu.grid:
        raise ValueError("densities live on different grids")
    _check_normalized(mu, "mu")
    _check_normalized(nu, "nu")
    centers = mu.grid.axis_centers
    a, b = mu.values, nu.values
    x, y = centers[a > 0], centers[b > 0]
    cum_a, cum_b = np.cumsum(a[a > 0]), np.cumsum(b[b > 0])
    cum_a, cum_b = cum_a / cum_a[-1], cum_b / cum_b[-1]
    lifts = np.arange(-2.0, 4.0)[:, None]
    y, cum_b = (y + lifts).ravel(), (cum_b + lifts).ravel()

    lo, hi = -2.0, 2.0
    at_lo, at_hi = (_shift_cost(t, x, cum_a, y, cum_b) for t in (lo, hi))
    # 54 exact halvings leave a bracket 2^-52 wide, the float spacing of the
    # cuts near 1: a finer shift does not move them.
    for _ in range(54):
        mid = 0.5 * (lo + hi)
        at_mid = _shift_cost(mid, x, cum_a, y, cum_b)
        if at_mid[1] < 0.0:
            lo, at_lo = mid, at_mid
        else:
            hi, at_hi = mid, at_mid
    return at_hi[0], at_lo[1], at_hi[1]


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


def random_smooth_density(grid: Grid, rng: np.random.Generator) -> tf.Density:
    """A positive trigonometric density with three random modes per axis."""
    coords = grid.coordinate_grids()
    vals = np.ones(grid.shape)
    for k in (1, 2, 3):
        for c in coords:
            a, b = rng.uniform(-0.4 / k, 0.4 / k, size=2)
            vals = vals + a * np.cos(2 * np.pi * k * c) + b * np.sin(2 * np.pi * k * c)
    vals = np.maximum(vals, 1e-3)
    return tf.normalize(tf.Density(grid, vals))


def sampled_w2_lipschitz(model: tf.DriftModel, pairs: int, seed: int) -> float:
    """Largest ratio max_i |V_i[rho] - V_i[nu]|_inf / sum_j W2(rho_j, nu_j)
    over random smooth density pairs: a lower estimate of the W2-Lipschitz
    constant that ``estimate_constants`` bounds.  1-d distances are exact;
    2-d ones come from ``lp_w2_sq``, which needs no Sinkhorn convergence."""
    rng = np.random.default_rng(seed)
    l = model.species_count
    ratio = 0.0
    for _ in range(pairs):
        rho = tuple(random_smooth_density(model.grid, rng) for _ in range(l))
        nu = tuple(random_smooth_density(model.grid, rng) for _ in range(l))
        v_rho = tf.velocity_field(model, rho)
        v_nu = tf.velocity_field(model, nu)
        diff = max(float(np.max(np.abs(a.values - b.values))) for a, b in zip(v_rho, v_nu))
        if model.grid.dim == 1:
            w2_sq = tf.species_w2_sq(rho, nu)
        else:
            w2_sq = np.array([lp_w2_sq(a, b) for a, b in zip(rho, nu)])
        ratio = max(ratio, diff / float(np.sum(np.sqrt(w2_sq))))
    return ratio


def all_pairs_lipschitz(model: tf.DriftModel) -> float:
    """max over i, j, a and cell pairs p != q of |B_ija(p) - B_ija(q)| / |p - q|
    at torus distance, for the velocity kernels B of ``model``; O(cells^2)."""
    grid = model.grid
    centres = grid.cell_centers()
    dist = np.sqrt(np.sum(minimal_image(centres[:, None] - centres[None]) ** 2, axis=-1))
    np.fill_diagonal(dist, np.inf)
    kernels = as_velocity_model(model).kernels
    comps = kernels.reshape((-1, grid.cells))
    return max(float(np.max(np.abs(b[:, None] - b[None]) / dist)) for b in comps)


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


def barenblatt_values(grid: tf.Grid, t: float) -> np.ndarray:
    """The 1-d m = 2 Barenblatt profile t^(-1/3) (C - |x - 1/2|^2 t^(-2/3) / 12)_+
    at the cell centres, C fixed by unit mass: the exact solution of
    d_t rho = Lap rho^2 while its support stays inside one period (Vazquez,
    The Porous Medium Equation, Oxford 2007)."""
    k = 1.0 / 12.0
    # (C - k y^2)_+ has mass (4/3) C^(3/2) / sqrt(k).
    c = (0.75 * math.sqrt(k)) ** (2.0 / 3.0)
    x = minimal_image(grid.axis_centers - 0.5)
    return t ** (-1.0 / 3.0) * np.maximum(c - k * x**2 * t ** (-2.0 / 3.0), 0.0)


def barenblatt_problem(t0: float = 1e-3, horizon: float = 8e-3, h: float = 1e-3) -> tf.Problem:
    """1-d n = 128 porous medium m = 2 from the Barenblatt profile at t0,
    support radius 0.21, which reaches 0.43 at t0 + horizon."""
    grid = tf.make_grid(1, 128)
    return tf.Problem(
        grid=grid,
        energies=(tf.InternalEnergy.power(2.0),),
        drift=tf.DriftModel.none(grid),
        rho0=(tf.normalize(tf.Density(grid, barenblatt_values(grid, t0))),),
        horizon=horizon,
        h=h,
    )


def barenblatt_l1(traj: tf.Trajectory, t0: float = 1e-3) -> float:
    """L1 distance of the last state from the normalized exact profile."""
    grid = traj.grid
    exact = tf.normalize(tf.Density(grid, barenblatt_values(grid, t0 + traj.times[-1])))
    return float(np.sum(np.abs(traj.states[-1][0].values - exact.values)) * grid.cell_volume)


def clipped_mass(traj: tf.Trajectory) -> float:
    """The mass clipped over all super-steps, added in step order from 0.0
    (a plain loop: ``sum`` compensates from Python 3.12 on); 0.0 for a
    minimizing-movement run, which records no super-steps."""
    total = 0.0
    if traj.step_clipped is not None:
        for c in traj.step_clipped.tolist():
            total += c
    return total


def spectral_heat_trajectory(problem: tf.Problem, amplitude: float = 0.5) -> tf.Trajectory:
    """Trajectory whose states sample the exact heat solution on the problem's
    time grid (the injected oracle for weak-form residual checks)."""
    grid = problem.grid
    times = problem.h * np.arange(problem.step_count + 1)
    states = [
        (tf.normalize(tf.Density(grid, heat_values(grid, amplitude, t))),) for t in times
    ]
    return tf.Trajectory(grid=grid, h=problem.h, times=times, states=states)


# The finite-volume step and the JKO scaling loop as they were written before
# their hot loops were reworked for speed: the references that the shipped
# code must reproduce bit for bit.


def _reference_regularized(reg, method: str, t: np.ndarray) -> np.ndarray:
    """F_eps' or F_eps'' by masks built on every call."""
    base, d, M, eps = reg.base, reg.delta_eps, reg.M_eps, reg.eps
    middle, below, above = {
        "f_prime": (
            base.f_prime,
            lambda tt: base.f_prime(d) + eps * (tt - d),
            lambda tt: base.f_prime(M) + (tt - M) / eps,
        ),
        "f_second": (
            base.f_second,
            lambda tt: np.full_like(tt, eps),
            lambda tt: np.full_like(tt, 1.0 / eps),
        ),
    }[method]
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.asarray(middle(tt), dtype=float).copy()
    lo = tt < d
    hi = tt > M
    if lo.any():
        out[lo] = below(tt[lo])
    if hi.any():
        out[hi] = above(tt[hi])
    return out


def _on_row(row, step, *args):
    """step(*args) for one run, its row set on a step failure."""
    try:
        return step(*args)
    except (RuntimeError, ValueError) as exc:
        exc.row = row
        raise


class ReferenceScheme:
    """The stacked finite-volume step with fresh temporaries, a zeroed
    divergence accumulator and every check on whole arrays; a drop-in
    replacement for ``torusflow.parabolic._Scheme``.  ``velocities``,
    ``divergence`` and ``finish`` take (runs, species, *shape) values and
    treat each run on its own; a failing run's row is set on the error.
    ``limits`` returns the smallest of the runs' limits.  ``velocities``
    returns no pressure, and ``divergence`` ignores the one it is passed and
    evaluates F'_eps itself."""

    def __init__(self, reg_energies, drift) -> None:
        self.grid = drift.grid
        self.species = len(reg_energies)
        self.drift = drift
        self.advects = drift._kernel_hats is not None
        members: dict = {}
        for i, reg in enumerate(reg_energies):
            members.setdefault(reg, []).append(i)
        self.groups = [(reg, np.array(idx)) for reg, idx in members.items()]
        n = drift.grid.n
        cells = np.arange(n)
        self.ahead = (cells + 1) % n
        self.behind = (cells - 1) % n

    def _energy(self, method, values):
        out = np.empty_like(values)
        for reg, idx in self.groups:
            out[idx] = _reference_regularized(reg, method, values[idx])
        return out

    def _per_species(self, values):
        return values.reshape(self.species, -1)

    def velocities(self, values):
        out = [_on_row(row, self.run_velocities, v) for row, v in enumerate(values)]
        return (None if out[0] is None else np.stack(out)), None

    def limits(self, values, faces):
        out = [
            self.run_limits(v, None if faces is None else faces[row])
            for row, v in enumerate(values)
        ]
        return min(d for d, _ in out), min(a for _, a in out)

    def divergence(self, values, faces, pressure):
        return np.stack(
            [
                self.run_divergence(v, None if faces is None else faces[row])
                for row, v in enumerate(values)
            ]
        )

    def finish(self, values, updated):
        out = [
            _on_row(row, self.run_finish, v, u) for row, (v, u) in enumerate(zip(values, updated))
        ]
        return np.stack([u for u, _ in out]), [c for _, c in out]

    def run_velocities(self, values):
        """One run's face velocities (None without drift)."""
        grid, dx = self.grid, self.grid.dx
        if not self.advects:
            return None
        fields = _kernel_sums(self.drift, values)
        faces = np.empty((self.species, grid.dim) + grid.shape)
        for a in range(grid.dim):
            if self.drift.mode == "potential":
                faces[:, a] = -((fields.take(self.ahead, axis=1 + a) - fields) / dx)
            else:
                comp = fields[:, a]
                faces[:, a] = 0.5 * (comp + comp.take(self.ahead, axis=1 + a))
        if not np.isfinite(faces).all():
            raise RuntimeError("drift velocities are not finite")
        return faces

    def run_limits(self, values, faces):
        """One run's diffusion limit and advection limit."""
        dx = self.grid.dx
        fpp_max = self._per_species(self._energy("f_second", values)).max(axis=1)
        diffusion = min((0.25 * dx**2 / f for f in fpp_max if f > 0), default=np.inf)
        if faces is None:
            return float(diffusion), np.inf
        vmax = self._per_species(np.abs(faces)).max(axis=1)
        advection = min((0.5 * dx / v for v in vmax if v > 0), default=np.inf)
        return float(diffusion), float(advection)

    def run_divergence(self, values, faces):
        """One run's flux divergence: d_t values = -divergence."""
        grid, dx = self.grid, self.grid.dx
        pressure = self._energy("f_prime", values)
        divergence = np.zeros_like(values)
        for a in range(grid.dim):
            axis = 1 + a
            flux = -((pressure.take(self.ahead, axis=axis) - pressure) / dx)
            if faces is not None:
                w = faces[:, a]
                flux += w * np.where(w >= 0, values, values.take(self.ahead, axis=axis))
            divergence += (flux - flux.take(self.behind, axis=axis)) / dx
        return divergence

    def run_finish(self, values, updated):
        """One run's guards from values to updated; the clipped, renormalized
        state and the mass clipped."""
        grid, vol = self.grid, self.grid.cell_volume
        if not np.isfinite(updated).all():
            raise RuntimeError("parabolic step produced non-finite values")
        mass = self._per_species(values).sum(axis=1) * vol
        pre_clip_mass = self._per_species(updated).sum(axis=1) * vol
        if (np.abs(pre_clip_mass - mass) > 1e-13 * np.maximum(1.0, mass)).any():
            raise RuntimeError("flux telescoping violated; mass drifted in one step")
        clipped = 0.0
        for c in -self._per_species(np.minimum(updated, 0.0)).sum(axis=1) * vol:
            clipped += float(c)
        updated = np.maximum(updated, 0.0)
        totals = self._per_species(updated).sum(axis=1) * vol
        if (totals <= 0).any():
            raise ValueError("degenerate density: total mass is not positive")
        return updated / totals.reshape((-1,) + (1,) * grid.dim), clipped


def textbook_rkl2_step(scheme: ReferenceScheme, values: np.ndarray, tau: float, s: int):
    """One run's RKL2 super-step of s stages over tau, written out as in
    Meyer, Balsara & Aslam (J. Comput. Phys. 257, 2014, eqs. 16-17), with
    M Y = -divergence(Y) and the drift re-evaluated at every stage; s = 1 is
    the forward-Euler step.  Guards are not applied."""

    def m(y):
        return -scheme.run_divergence(y, scheme.run_velocities(y))

    m0 = m(values)
    if s == 1:
        return values + tau * m0
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2) / (2.0 * j * (j + 1)) for j in range(3, s + 1)]
    w1 = 4.0 / (s * s + s - 2)
    y_prev2, y_prev = values, values + b[1] * w1 * tau * m0
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        mu_tilde = mu * w1
        gamma_tilde = -(1.0 - b[j - 1]) * mu_tilde
        y = (
            mu * y_prev
            + nu * y_prev2
            + (1.0 - mu - nu) * values
            + mu_tilde * tau * m(y_prev)
            + gamma_tilde * tau * m0
        )
        y_prev2, y_prev = y_prev, y
    return y_prev


def cold_log_wright_omega(z: np.ndarray) -> np.ndarray:
    """The three-step Wright omega solve as it stood before the warm start,
    each Fritsch-Shafer-Crowley step written out with fresh arrays."""
    zb = np.maximum(z, 1.0)
    y = np.where(z > 1.0, np.log(zb - np.log(zb)), z)
    for _ in range(3):
        w = np.exp(y)
        r = z - w - y
        t = r / (2.0 * (1.0 + w)) / (1.0 + w + 2.0 * r / 3.0)
        y = y + np.log1p(r / (1.0 + w) * (1.0 - t) / (1.0 - 2.0 * t))
    return y


def cold_kl_prox_power(energy, s: np.ndarray, eps: float, tau: float, u) -> np.ndarray:
    """The power-energy ``kl_prox`` as it stood before the warm start: the
    cold Wright omega solve and the 1e-12 residual check."""
    m = energy.m
    log_a = math.log(m * (m - 1.0) * tau / eps)
    with np.errstate(all="ignore"):
        z = (m - 1.0) * (np.log(s) - tau * u / eps) + log_a
        rho = np.exp((cold_log_wright_omega(z) - log_a) / (m - 1.0))
        residual = np.abs(eps * np.log(rho / s) + tau * (m * rho ** (m - 1.0) + u))
    if not np.all(residual <= 1e-12):
        raise RuntimeError("kl_prox residual check failed (cold reference)")
    return rho


def reference_kl_prox(
    energy, s: np.ndarray, eps: float, tau: float, u: np.ndarray, start=None
) -> np.ndarray:
    """``kl_prox`` on arrays with a broadcast copy of u on every call."""
    if eps <= 0 or tau <= 0:
        raise ValueError("eps and tau must be positive")
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0):
        raise ValueError("prox center s must be positive")
    u_arr = np.broadcast_to(np.asarray(u, dtype=float), s_arr.shape).astype(float)
    if energy.kind == "zero":
        return s_arr * np.exp(-tau * u_arr / eps)
    if energy.kind == "entropy":
        return np.exp((eps * np.log(s_arr) - tau * (1.0 + u_arr)) / (eps + tau))
    return _kl_prox_power(energy, s_arr, eps, tau, u_arr, start)


def reference_jko_step(
    rho_prev,
    h,
    energy,
    potential,
    eps,
    tol=1e-9,
    debias=True,
    warm=True,
    mixed=True,
    vacuum=False,
    guess=None,
):
    """``jko_step`` with every kernel product through ``_kron_apply``, fresh
    arrays on each iteration and the whole-array scaling bound; returns the
    state values, the step's W2^2, marginal error and iteration count.
    With ``warm`` the prox starts from the previous iterate from the second
    iteration on, as ``jko_step`` does; without it every prox solves cold.
    With ``mixed`` the log scalings are Anderson-mixed as in ``jko_step``
    (when the smallest mass is at least ``_MIX_MIN_RATIO`` of the largest,
    until a scaling is 0, which restarts the step unmixed); without it the
    step never mixes.  u = a / (K v) on every iteration.
    With ``vacuum`` cells whose prox centre is 0 get no mass, as in
    ``jko_step``; without it the prox rejects them.  A mixed step starts
    from the log scalings ``guess`` (only its log v without ``debias``)
    when every entry it uses is within the mixing bound."""
    grid = rho_prev.grid
    c1 = tr._gibbs_axis_cost(grid, h, eps)
    tau = 2.0 * h
    vol = grid.cell_volume
    a = np.maximum(rho_prev.values.ravel(), tr._MASS_FLOOR) * vol
    u_pot = np.zeros_like(a) if potential is None else potential.values.ravel()
    k1 = np.exp(-c1 / eps)
    kernel = (k1,) * grid.dim
    kernel_t = (k1.T,) * grid.dim
    v = np.ones_like(a)
    d = np.ones_like(a)
    rho_curr = a / vol
    mixing = mixed and a.min() >= tr._MIX_MIN_RATIO * a.max()
    x = np.zeros((2, a.size))
    if mixing and guess is not None:
        used = guess[: 2 if debias else 1]
        if float(np.max(np.abs(used))) <= np.log(tr._SCALING_BOUND) / 2.0:
            x[: used.shape[0]] = used
            v, d = np.exp(x)
    g_prev = f_prev = None
    hist_g = np.empty((tr._MIX_DEPTH, 2 * a.size))
    hist_f = np.empty((tr._MIX_DEPTH, 2 * a.size))
    gram = np.empty((tr._MIX_DEPTH, tr._MIX_DEPTH))
    iterations = 0
    passes = 0
    for _ in range(tr._JKO_MAX_ITER):
        u = a / tr._kron_apply(kernel, v)
        s = tr._kron_apply(kernel_t, u)
        sigma = s * d / vol
        start = rho_curr if warm and passes else None
        full = sigma != 0 if vacuum else np.ones(sigma.shape, dtype=bool)
        rho_new = np.zeros_like(sigma)
        rho_new[full] = reference_kl_prox(
            energy, sigma[full], eps, tau, u_pot[full], None if start is None else start[full]
        )
        v = np.zeros_like(s)
        v[full] = rho_new[full] * vol / s[full]
        if debias:
            d = np.sqrt(d * (rho_new * vol) / tr._kron_apply(kernel, d))
        iterations += 1
        passes += 1
        delta = float(np.max(np.abs(rho_new - rho_curr)))
        rho_curr = rho_new
        big = max(float(np.max(u)), float(np.max(v)), float(np.max(d)))
        if not np.isfinite(big) or big > tr._SCALING_BOUND:
            raise RuntimeError("jko_step scalings left the stable range")
        if not mixing:
            if delta <= tol and passes > 1:
                break
            continue
        if min(float(np.min(v)), float(np.min(d))) <= 0.0:
            # A zero scaling: restart unmixed from the first pass.
            mixing = False
            passes = 0
            v = np.ones_like(a)
            d = np.ones_like(a)
            rho_curr = a / vol
            continue
        g = np.log(np.stack([v, d]))
        f = g - x
        if (
            delta <= tr._MIX_STOP_CHANGE * tol
            and iterations > 1
            and float(np.max(np.abs(f))) <= tr._MIX_STOP_RESIDUAL * tol
        ):
            break
        x = g
        if iterations > 1:
            # The differences of pass k (from 2) sit in row (k - 2) mod
            # _MIX_DEPTH, and each new row updates its Gram row and column.
            j = (iterations - 2) % tr._MIX_DEPTH
            depth = min(iterations - 1, tr._MIX_DEPTH)
            hist_g[j] = (g - g_prev).ravel()
            hist_f[j] = (f - f_prev).ravel()
            gram[j, :depth] = gram[:depth, j] = hist_f[:depth] @ hist_f[j]
            try:
                gamma = np.linalg.solve(gram[:depth, :depth], hist_f[:depth] @ f.ravel())
            except np.linalg.LinAlgError:
                gamma = None
            if gamma is not None:
                mixed_x = g - (gamma @ hist_g[:depth]).reshape(g.shape)
                if float(np.max(np.abs(mixed_x))) <= np.log(tr._SCALING_BOUND) / 2.0:
                    x = mixed_x
        g_prev, f_prev = g, f
        v, d = np.exp(x)
    else:
        raise RuntimeError("reference jko_step did not converge")
    row_err = float(np.max(np.abs(u * tr._kron_apply(kernel, v) - a)))
    col_err = float(np.max(np.abs(v * tr._kron_apply(kernel_t, u) - rho_curr * vol)))
    kc1 = k1 * c1
    w2_sq = sum(
        float(np.sum(u * tr._kron_apply(kernel[:ax] + (kc1,) + kernel[ax + 1 :], v)))
        for ax in range(grid.dim)
    )
    rho_out = tf.normalize(tf.Density(grid, rho_curr.reshape(grid.shape)))
    return rho_out.values, w2_sq, max(row_err, col_err), iterations


def same_bits(x, y) -> bool:
    """Equal as IEEE doubles, bit for bit: sign of zero and NaN payload included."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))
