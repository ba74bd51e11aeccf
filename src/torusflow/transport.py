"""Periodic quadratic-cost optimal transport and the entropic JKO step.

``sinkhorn_w2`` estimates the squared 2-Wasserstein distance between grid
densities by alternating marginal scalings on the Gibbs kernel exp(-c/eps),
with potential absorption for numerical stability and a deterministic
eps-scaling warm start when the kernel would underflow.  It works on the
dense cost ``cost_matrix(grid)``, restricted to the supports, so its grids
are capped at ``_MAX_COST_CELLS`` cells.  The reported value is the primal
transport cost <c, plan> of the computed plan, without the entropic term.
``sinkhorn_w2`` reports convergence; it stops after ``_SINKHORN_MAX_ITER``
iterations over all levels of the warm start.  Kernel entries below the
smallest normal float are set to 0, so no mat-vec runs on subnormals.  The
support leaves out every cell whose mass is at most tol / cells: such a
cell gets no plan mass, as an empty cell does, and its mass counts in
``plan_marginal_err``, so each errs by at most tol / cells and all of them
together hold at most tol.  A kernel row or column whose entries all
underflow, on any level of the ladder, raises RuntimeError naming the cell,
its mass and the level.

The scaling updates are over-relaxed (Thibault, Chizat, Dossal & Papadakis,
Algorithms 14(5), 2021): u <- u (a / (u K v))^omega, then v <- v (b / (v
K^T u))^omega, with omega ``_OMEGA``, in place of u = a / (K v) and
v = b / (K^T u).  Each update is safeguarded (after Lehmann, von Renesse,
Sambale & Uschmajew, Optim. Lett. 16, 2022): the plain update maximizes the
entropic dual objective over its block of scalings, and the over-relaxed one
is kept only when it is finite, positive and gains at least ``_ASCENT`` of
the plain update's dual gain; otherwise the plain update is taken.  The
dual is bounded above and rises by that share at every update, so the
plain gains, and with them the marginal errors, go to zero.  When every
cell has |log(x / plain)| <= ``_FAST_LOG`` the test would pass cell by
cell, so the over-relaxed update is kept without forming the gains.  An
over-relaxed v update leaves the column marginal inexact, so a level stops
only when the row error is within its tolerance and one extra product
K^T u puts the column error there too.  The warm-up levels of the eps
ladder only seed the next level, so they stop at marginal error
``_WARMUP_TOL``; the last level stops at ``tol``, which sets ``converged``.

``species_w2_sq`` is the per-species distance every diagnostic uses, and
this module alone sets its accuracy.  On 1-d grids it is exact:
``_circle_w2_sq`` minimizes the transport cost over one shift of the
periodic quantile functions, with one bisection for all 1-d pairs of a
call.  On 2-d grids it is the ``sinkhorn_w2`` estimate at eps ``_W2_EPS``
and tol ``_W2_TOL``.  It raises when a 1-d value fails its optimality check
or a 2-d solve has not converged.

``jko_step`` solves one semi-implicit minimizing-movement step

    min_rho  W2^2(rho, rho_prev)/(2h) + int E(rho) + int U rho

through its entropic relaxation: the first marginal is matched by scaling,
the second through the per-cell KL proximal of the energy with tau = 2h.  By
default the step is debiased with the symmetric self-transport scaling d
(d * (K d) = second marginal at convergence), which cancels the O(eps) blur of
the plain entropic scheme; ``debias=False`` gives the plain alternation.
One pass of the alternation maps the log scalings x = (log v, log d) to
their plain update g(x): u = a / (K v), then v = mass / (K^T u) and the
debiased d.  The step accelerates that fixed-point map by type-II Anderson
mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011): the next x is g(x)
minus the combination of the last ``_MIX_DEPTH`` differences of g whose
residual differences best cancel the residual g(x) - x, in least squares.
An extrapolated point with any |x| above half the log of ``_SCALING_BOUND``,
or a singular least-squares system, gives the plain g instead.  A mixed step
stops when the density changes by at most ``_MIX_STOP_CHANGE`` tol and the
log residual is at most ``_MIX_STOP_RESIDUAL`` tol: a change of tol alone
stops mixed iterates too early, and the residual test guards against
iterates that stall with a small change.  A state with vacuum (a smallest
mass below ``_MIX_MIN_RATIO`` of the largest) is not mixed.  Nor is a step
once a scaling hits 0: it has no log, and no later pass revives its cell,
which an overshooting mixed iterate may have emptied, so the step restarts
unmixed from v = d = 1.  A mixed step starts from v = d = 1 too, or from
the log scalings ``guess`` when it is given (``run_jko`` extrapolates it
from the species' last two steps) and within that same bound; a plain step
takes only its log v, as it never updates d.  It returns the stopping
pass's g as ``log_scalings``, the guess for the next step; an unmixed step
returns None.  Unmixed, each pass takes the plain update, and the step
stops at a density change of tol.  The torus cost is a sum over axes, so
the step's Gibbs kernel is the Kronecker product of one n x n per-axis
kernel K1 and each kernel product runs axis by axis (K1 V K1^T in 2-d).  No
cells x cells array is built, and the step has no grid cap; its implicit
plan is the unique entropic plan between its two states, which
``sinkhorn_w2`` rebuilds at its eps.  A step that has not converged within
``_JKO_MAX_ITER`` iterations raises, and so does a stopped step whose plan
misses its marginals by more than ``_JKO_MAX_PLAN_ERR`` tol: its density
change stalled at a point that is not the step's minimizer.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .energy import InternalEnergy, kl_prox
from .grid import Density, Grid, ScalarField, minimal_image, normalize

__all__ = [
    "TransportResult",
    "cost_matrix",
    "sinkhorn_w2",
    "species_w2_sq",
    "TransportCheckError",
    "jko_step",
]

_MAX_COST_CELLS = 4096
_SCALING_BOUND = 1e290
_MASS_FLOOR = 1e-300
_JKO_MAX_ITER = 20000
_SINKHORN_MAX_ITER = 200000
# Entropic scale and marginal tolerance of the 2-d diagnostic distances.
_W2_EPS = 1e-4
_W2_TOL = 1e-9
# Over-relaxation of the scaling updates, and the least share of the plain
# update's dual gain an over-relaxed update must reach to be kept.
_OMEGA = 1.9
_ASCENT = 0.05
# Largest |log(x / plain)| in every cell at which the over-relaxed update
# always passes the dual-gain test, so that test is skipped.
_FAST_LOG = 0.25
_FAST_LO, _FAST_HI = math.exp(-_FAST_LOG), math.exp(_FAST_LOG)
# Anderson mixing in jko_step: the number of past iterates it combines, the
# least ratio of the smallest to the largest cell mass at which a step mixes,
# and the shares of tol of its stop test on the density change and on the
# log-scaling residual.
_MIX_DEPTH = 5
_MIX_MIN_RATIO = 1e-8
_MIX_STOP_CHANGE = 0.1
_MIX_STOP_RESIDUAL = 10.0
# Largest plan marginal error, in shares of tol, at which a stopped jko_step
# returns.
_JKO_MAX_PLAN_ERR = 1e3
# Marginal tolerance of sinkhorn_w2's warm-up levels, which only seed the next.
_WARMUP_TOL = 1e-4
_TINY = np.finfo(float).tiny
# Exponents whose exp is certainly below _TINY.
_LOG_FLUSH = math.log(_TINY) - 1.0


@dataclass(frozen=True)
class TransportResult:
    w2_sq: float
    plan_marginal_err: float
    iterations: int
    converged: bool = True
    # The dense plan; only sinkhorn_w2(return_plan=True) sets it.
    plan: np.ndarray | None = None
    # The converged log scalings (log v, log d), shape (2, cells); only a
    # mixed jko_step sets them.
    log_scalings: np.ndarray | None = None


@functools.lru_cache(maxsize=1)
def cost_matrix(grid: Grid) -> np.ndarray:
    """Pairwise squared torus distances between cell centers, read-only.

    Only the most recent grid's matrix is kept, so a run's repeated solves
    on one grid share a single array.
    """
    if grid.cells > _MAX_COST_CELLS:
        raise ValueError(
            f"grid has {grid.cells} cells; dense cost matrices are limited to "
            f"{_MAX_COST_CELLS}"
        )
    centers = grid.cell_centers()
    c = np.zeros((grid.cells, grid.cells))
    for a in range(grid.dim):
        diff = minimal_image(centers[:, a][:, None] - centers[:, a][None, :])
        c += diff**2
    c.setflags(write=False)
    return c


def _check_normalized(rho: Density, name: str) -> None:
    if abs(rho.mass() - 1.0) > 1e-8:
        raise ValueError(f"{name} must be normalized to unit mass")


def _eps_schedule(eps: float, c_max: float) -> list[float]:
    """Warm-start ladder; a single level when the kernel is representable."""
    if c_max / eps <= 200.0 or c_max == 0.0:
        return [eps]
    levels = [c_max / 10.0]
    while levels[-1] > 5.0 * eps:
        levels.append(levels[-1] / 5.0)
    levels.append(eps)
    return levels


def _gibbs(f: np.ndarray, g: np.ndarray, c: np.ndarray, level: float) -> np.ndarray:
    """Kernel exp((f_i + g_j - c_ij) / level) with absorbed potentials f, g.

    Subnormal entries are set to 0: they carry less than 2.3e-308 of mass
    each, and every mat-vec that touches one runs several times slower.
    Exponents below ``_LOG_FLUSH`` give such entries, so they are set to -inf
    first: exp returns 0 for them at once, where underflowing made a
    fine-level build (76% of it flushed at 16 x 16 cells) 2.7 times slower.
    """
    kernel = f[:, None] + g[None, :]
    kernel -= c
    kernel /= level
    kernel[kernel < _LOG_FLUSH] = -np.inf
    np.exp(kernel, out=kernel)
    kernel[kernel < _TINY] = 0.0
    return kernel


def _relaxed(x: np.ndarray, plain: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Over-relaxed scaling update x (plain / x)^_OMEGA, or plain.

    In log form, s = log(x / plain) moves to (1 - _OMEGA) s: the absorbed
    potential level * log(x) moves _OMEGA times as far as the plain update
    would move it.  The plain update maximizes the entropic dual objective
    over this block of scalings, and a move from s to r gains level * sum
    mass (h(s) - h(r)) there, with h(s) = expm1(s) - s.  The over-relaxed
    update is kept when it is finite and positive and gains at least
    ``_ASCENT`` of what the plain update gains; otherwise the plain update
    is returned.  Every cell with |s| <= ``_FAST_LOG`` has h((1 - _OMEGA) s)
    <= (1 - _ASCENT) h(s), so when all cells do, the update is kept
    without forming the gains.  It is then finite: ``sinkhorn_w2`` keeps x
    below ``_SCALING_BOUND``, so plain, and the step, stay within
    e^(2 _FAST_LOG) of that bound.
    """
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        q = x / plain
        s = np.log(q)
        r = (1.0 - _OMEGA) * s
        grow = np.expm1(r)
        step = plain * (grow + 1.0)
        # A NaN fails both comparisons.
        if q.min() >= _FAST_LO and q.max() <= _FAST_HI:
            return step
        gain_plain = mass @ (np.expm1(s) - s)
        gain = gain_plain - mass @ (grow - r)
    if gain >= _ASCENT * gain_plain and np.all(np.isfinite(step)) and step.min() > 0.0:
        return step
    return plain


def sinkhorn_w2(
    mu: Density,
    nu: Density,
    eps: float,
    tol: float = 1e-9,
    return_plan: bool = False,
) -> TransportResult:
    """Entropic estimate of W2^2 on the torus, deterministic given inputs.

    The scalings run on the supports of the two densities only, the cells
    with mass above tol / cells; empty or left-out cells carry no plan mass,
    a returned plan is zero on their rows/columns, and ``plan_marginal_err``
    counts their mass.  ``tol`` must lie in (0, 1).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    # From tol = 1 on, a uniform density would leave every cell out.
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    if mu.grid != nu.grid:
        raise ValueError("densities live on different grids")
    _check_normalized(mu, "mu")
    _check_normalized(nu, "nu")
    c_full = cost_matrix(mu.grid)
    vol = mu.grid.cell_volume
    a_full, b_full = mu.values.ravel() * vol, nu.values.ravel() * vol
    # A cell at or below the floor errs by at most tol / cells when it gets
    # no plan mass, and all of them together hold at most tol.
    floor = tol / a_full.size
    rows, cols = np.flatnonzero(a_full > floor), np.flatnonzero(b_full > floor)
    a, b = a_full[rows], b_full[cols]
    # Indexing copies, so a fully supported pair keeps the shared cost array.
    c = c_full if a.size * b.size == c_full.size else c_full[np.ix_(rows, cols)]

    f = np.zeros_like(a)
    g = np.zeros_like(b)
    total_iter = 0
    for level in _eps_schedule(eps, float(np.max(c_full))):
        level_tol = tol if level == eps else max(tol, _WARMUP_TOL)
        level_budget = (
            _SINKHORN_MAX_ITER - total_iter if level == eps else min(5000, _SINKHORN_MAX_ITER)
        )
        kernel = _gibbs(f, g, c, level)
        u = np.ones_like(a)
        v = np.ones_like(b)
        for _ in range(max(level_budget, 1)):
            kv = kernel @ v
            if kv.min() <= 0:
                i = int(np.argmin(kv))
                raise RuntimeError(
                    f"sinkhorn kernel row of cell {rows[i]} (mass {a[i]:.3e}) "
                    f"underflows at eps level {level:.3e}"
                )
            err = np.abs(u * kv - a).max()
            total_iter += 1
            if (
                err <= level_tol
                and total_iter > 1
                and np.abs(v * (kernel.T @ u) - b).max() <= level_tol
            ):
                break
            u = _relaxed(u, a / kv, a)
            ktu = kernel.T @ u
            if ktu.min() <= 0:
                j = int(np.argmin(ktu))
                raise RuntimeError(
                    f"sinkhorn kernel column of cell {cols[j]} (mass {b[j]:.3e}) "
                    f"underflows at eps level {level:.3e}"
                )
            v = _relaxed(v, b / ktu, b)
            if (
                u.max() > _SCALING_BOUND
                or v.max() > _SCALING_BOUND
                or u.min() < 1.0 / _SCALING_BOUND
                or v.min() < 1.0 / _SCALING_BOUND
            ):
                f = f + level * np.log(u)
                g = g + level * np.log(v)
                kernel = _gibbs(f, g, c, level)
                u = np.ones_like(a)
                v = np.ones_like(b)
        # Absorb before moving to the next (smaller) level.
        f = f + level * np.log(u)
        g = g + level * np.log(v)

    plan = _gibbs(f, g, c, eps)
    # Over all cells, so a left-out cell's mass counts as its error.
    row_sum, col_sum = np.zeros_like(a_full), np.zeros_like(b_full)
    row_sum[rows], col_sum[cols] = plan.sum(axis=1), plan.sum(axis=0)
    err = float(max(np.abs(row_sum - a_full).max(), np.abs(col_sum - b_full).max()))
    w2_sq = float(np.sum(plan * c))
    if return_plan and plan.shape != c_full.shape:
        full = np.zeros(c_full.shape)
        full[np.ix_(rows, cols)] = plan
        plan = full
    return TransportResult(
        w2_sq=w2_sq,
        plan_marginal_err=err,
        iterations=total_iter,
        converged=err <= tol,
        plan=plan if return_plan else None,
    )


def _shift_cost(
    theta: float, x: np.ndarray, cum_a: np.ndarray, y: np.ndarray, cum_b: np.ndarray
) -> tuple[float, float]:
    """Value and right slope at theta of int_0^1 (Q_a(t) - Q_b(t + theta))^2 dt.

    Q_a is x[i] on (cum_a[i-1], cum_a[i]], from 0 up to cum_a's last
    entry 1.  Q_b is the lifted quantile function, y[j] on
    (cum_b[j-1], cum_b[j]], with y and cum_b listed over enough periods that
    Q_b(s + 1) = Q_b(s) + 1 holds on the window (theta, theta + 1].  The
    integrand is constant between the merged cuts cum_a and cum_b - theta.
    """
    first, stop = np.searchsorted(cum_b, [theta, theta + 1.0], side="right")
    # theta + 1 is rounded, so a b cut can land an ulp above 1.
    cut_b = np.minimum(cum_b[first:stop] - theta, 1.0)
    cuts = np.concatenate([cut_b, cum_a])
    # Stable: on a tie the b cut comes first, so Q_a is read left-continuously.
    order = np.argsort(cuts, kind="stable")
    is_b = order < cut_b.size
    ia = np.cumsum(~is_b) - ~is_b  # atoms of the piece that ends at each cut
    ib = first + np.cumsum(is_b) - is_b
    value = float(np.diff(cuts[order], prepend=0.0) @ (x[ia] - y[ib]) ** 2)
    # Raising theta moves each b jump left, so the piece just before it
    # passes from y[j] to y[j + 1].
    q, lo, hi = x[ia[is_b]], y[ib[is_b]], y[ib[is_b] + 1]
    slope = float(np.sum((hi - lo) * (hi + lo - 2.0 * q)))
    return value, slope


def _pair_keys(pair: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Complex search keys pair + 1j * value, built without rounding.

    Complex numbers sort by real part and then by imaginary part, so keys
    of pairs listed one after another sort by pair and then by value, and
    one searchsorted serves every pair.
    """
    keys = np.empty(value.shape, dtype=complex)
    keys.real, keys.imag = pair, value
    return keys


def _circle_w2_sq(pairs: list[tuple[Density, Density]]) -> list[tuple[float, float, float]]:
    """Exact squared W2 on the circle between the atoms at the cell centres,
    for each pair (mu, nu).

    On the circle the quadratic cost reduces to min over theta of the
    convex, piecewise linear ``_shift_cost`` (Delon, Salomon & Sobolevski,
    SIAM J. Appl. Math. 2010).  An optimal theta pairs mass at most 1/2
    apart, so it lies in [-1, 1]; bisection on the sign of the slope over
    [-2, 2] runs to the float resolution of the cuts.  The bisection runs
    for all pairs at once: each halving takes every pair's slope in one
    array pass, by ``_shift_cost``'s rules and with its summation, so each
    pair's bracket is the one a search of its own would reach.  Returns per
    pair ``_shift_cost``'s value at the upper end of the final bracket with
    its slopes at both ends, which change sign there when the search
    succeeded.
    """
    cases = []
    for mu, nu in pairs:
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
        cases.append((x, cum_a, y, cum_b))
    if not cases:
        return []

    # Each pair's atoms and lifted cuts fill one block of the flat arrays.
    count = len(cases)
    x_all = np.concatenate([case[0] for case in cases])
    a_keys = np.concatenate([_pair_keys(p, case[1]) for p, case in enumerate(cases)])
    y_all = np.concatenate([case[2] for case in cases])
    cum_b_all = np.concatenate([case[3] for case in cases])
    b_pair = np.repeat(np.arange(count), [case[3].size for case in cases])
    lo, hi = np.full(count, -2.0), np.full(count, 2.0)
    # 54 exact halvings leave a bracket 2^-52 wide, the float spacing of the
    # cuts near 1: a finer shift does not move them.
    for _ in range(54):
        mid = 0.5 * (lo + hi)
        # As in _shift_cost: the b cuts in (theta, theta + 1], each read
        # against the first a atom whose cut is not below it (on a tie the b
        # cut sorts first).
        theta = mid[b_pair]
        j = np.flatnonzero((cum_b_all > theta) & (cum_b_all <= (mid + 1.0)[b_pair]))
        pair = b_pair[j]
        cut_b = np.minimum(cum_b_all[j] - theta[j], 1.0)
        q = x_all[np.searchsorted(a_keys, _pair_keys(pair, cut_b), side="left")]
        below, above = y_all[j], y_all[j + 1]
        # np.sum adds a 1-d array's pairwise sum to 0, and reduceat adds a
        # segment's tail to its head, so a 0 ahead of each pair's terms gives
        # every pair _shift_cost's slope bit for bit.
        padded = np.zeros(j.size + count)
        padded[np.arange(j.size) + pair + 1] = (above - below) * (above + below - 2.0 * q)
        sizes = np.bincount(pair, minlength=count)
        slope = np.add.reduceat(padded, np.cumsum(sizes) - sizes + np.arange(count))
        down = slope < 0.0
        lo, hi = np.where(down, mid, lo), np.where(down, hi, mid)

    out = []
    for case, t_lo, t_hi in zip(cases, lo.tolist(), hi.tolist()):
        at_lo, at_hi = (_shift_cost(t, *case) for t in (t_lo, t_hi))
        out.append((at_hi[0], at_lo[1], at_hi[1]))
    return out


class TransportCheckError(RuntimeError):
    """A diagnostic distance that failed its check; ``pair`` is the index of
    its pair of states in the ``species_w2_sq`` call (0 for a single pair)."""

    def __init__(self, message: str, pair: int) -> None:
        super().__init__(message)
        self.pair = pair


def species_w2_sq(
    rho_a: tuple[Density, ...] | Sequence[tuple[Density, ...]],
    rho_b: tuple[Density, ...] | Sequence[tuple[Density, ...]],
) -> np.ndarray:
    """Per-species squared W2 between two density tuples, one entry each.

    Given two equal-length sequences of density tuples instead, it returns
    one row per pair of tuples, each equal to the call on that pair alone.
    On 1-d grids the distance is exact (``_circle_w2_sq``, one search for
    all 1-d pairs of the call); on 2-d grids it is the entropic
    ``sinkhorn_w2`` estimate at eps ``_W2_EPS``.  Raises TransportCheckError,
    a RuntimeError, naming the species when a 1-d value fails its optimality
    check or a 2-d solve does not converge, so no caller can sum an
    unverified value.
    """
    single = all(isinstance(rho, Density) for rho in rho_a)
    states = [(rho_a, rho_b)] if single else list(zip(rho_a, rho_b, strict=True))
    jobs = [
        (k, i, a, b)
        for k, (state_a, state_b) in enumerate(states)
        for i, (a, b) in enumerate(zip(state_a, state_b, strict=True))
    ]
    out = [np.zeros(len(state_a)) for state_a, _ in states]

    exact = [job for job in jobs if job[2].grid.dim == 1]
    for (k, i, _, _), (value, left, right) in zip(
        exact, _circle_w2_sq([(a, b) for _, _, a, b in exact])
    ):
        if not (left < 0.0 <= right and math.isfinite(value)):
            raise TransportCheckError(
                f"species {i} transport failed its optimality check (value "
                f"{value:.3e}, slopes {left:.3e} and {right:.3e} around the "
                "optimal shift)",
                k,
            )
        out[k][i] = value
    for k, i, a, b in jobs:
        if a.grid.dim == 1:
            continue
        res = sinkhorn_w2(a, b, eps=_W2_EPS, tol=_W2_TOL)
        if not res.converged:
            raise TransportCheckError(
                f"species {i} transport did not converge (marginal error "
                f"{res.plan_marginal_err:.3e} after {res.iterations} iterations, "
                f"tol {_W2_TOL:g})",
                k,
            )
        out[k][i] = res.w2_sq
    return out[0] if single else np.array(out)


def _kron_apply(mats: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """kron(mats[0], ..., mats[dim-1]) @ x for a flat cell vector x, per axis."""
    if len(mats) == 1:
        return mats[0] @ x
    n = mats[0].shape[0]
    return (mats[0] @ x.reshape(n, n) @ mats[1].T).ravel()


def _least_eps(need: float) -> float:
    """need rounded up to three significant digits, and above it."""
    unit = 10.0 ** (math.floor(math.log10(need)) - 2)
    return math.ceil(need * (1 + 1e-12) / unit) * unit


def _gibbs_axis_cost(grid: Grid, h: float, eps: float) -> np.ndarray:
    """Per-axis cost c1 of ``jko_step``'s Gibbs kernel, checked against eps.

    The kernel exp(-dim c1/eps) and the KL proximal at tau = 2h both need
    exponents of at most 600; otherwise a ValueError gives the smallest
    admissible eps, rounded up to three significant digits.
    """
    x = grid.axis_centers
    c1 = minimal_image(x[:, None] - x[None, :]) ** 2
    spread = grid.dim * float(np.max(c1))
    # tau / eps and tau / 600 as 2 (h / eps) and h / 300: the same values,
    # and finite for every finite h, where tau = 2h overflows near the
    # float maximum.
    if max(spread / eps, 2.0 * (h / eps)) > 600.0:
        least = _least_eps(max(spread / 600.0, h / 300.0))
        reason = (
            "the Gibbs kernel on this grid"
            if spread >= 2.0 * h
            else "h (h/eps is too large for stable scalings)"
        )
        raise ValueError(
            f"eps {eps:g} is too small for {reason}; increase eps to at least {least:.3g}"
        )
    return c1


def _default_jko_eps(grid: Grid) -> float:
    """5 dx^2, or the least eps the Gibbs kernel admits on grids where
    5 dx^2 is smaller: 1-d grids with n >= 110 and 2-d grids with n >= 78."""
    # Every centre is as far from the others as the first is: c1's largest
    # entry is in its first row.
    x = grid.axis_centers
    spread = grid.dim * float(np.max(minimal_image(x - x[0]) ** 2))
    return max(5.0 * grid.dx**2, _least_eps(spread / 600.0))


def jko_step(
    rho_prev: Density,
    h: float,
    energy: InternalEnergy,
    potential: ScalarField | None,
    eps: float,
    tol: float = 1e-9,
    debias: bool = True,
    guess: np.ndarray | None = None,
) -> tuple[Density, TransportResult]:
    """One semi-implicit minimizing-movement step via entropic scaling.

    The potential is the frozen field evaluated at the previous iterate, on
    the density's grid, or None for no potential; the returned density is the
    implicit plan's second marginal renormalized to unit mass, and the result
    carries that plan's primal cost as the step's W2^2.  The log scalings
    are Anderson-mixed, except from a state with vacuum or after a scaling
    hits 0, which restarts the step unmixed (module docstring).  ``kl_prox``
    starts from the previous iterate's density, which power energies use as
    a warm start.

    ``guess`` is a finite (2, cells) array of log scalings (log v, log d), a
    ValueError otherwise.  A mixed step starts from it unless an entry it
    uses exceeds half the log of ``_SCALING_BOUND``; an unmixed step, or
    the unmixed restart, ignores it.  The result's ``log_scalings`` are the
    converged log scalings of a mixed step, None otherwise.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_normalized(rho_prev, "rho_prev")
    grid = rho_prev.grid
    c1 = _gibbs_axis_cost(grid, h, eps)
    tau = 2.0 * h

    vol = grid.cell_volume
    a = np.maximum(rho_prev.values.ravel(), _MASS_FLOOR) * vol
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != (2, a.size):
            raise ValueError(f"guess must have shape (2, {a.size}), got {guess.shape}")
        if not np.all(np.isfinite(guess)):
            raise ValueError("guess must be finite")
    if potential is None:
        u_pot = np.zeros_like(a)
    elif potential.grid != grid:
        raise ValueError("potential grid does not match the density")
    else:
        u_pot = potential.values.ravel()

    k1 = np.exp(-c1 / eps)
    kernel = (k1,) * grid.dim
    apply_k = functools.partial(_kron_apply, kernel)
    apply_kt = functools.partial(_kron_apply, (k1.T,) * grid.dim)
    # The column and debiasing scalings v and d, as rows of one array so that
    # the mixed loop takes their logs and exps in one call each.
    scal = np.ones((2, a.size))
    v, d = scal
    rho_curr = a / vol
    change = np.empty_like(a)
    mixing = a.min() >= _MIX_MIN_RATIO * a.max()
    if mixing:
        log_bound = math.log(_SCALING_BOUND) / 2.0
        x = np.zeros_like(scal)  # log scalings the map was evaluated at
        # Plain steps never update d, so they take only the guess's log v.
        rows = 2 if debias else 1
        if guess is not None and float(np.abs(guess[:rows]).max()) <= log_bound:
            x[:rows] = guess[:rows]
            np.exp(x, out=scal)
        # Two buffers each for the plain update g and the residual g - x:
        # this pass's and the previous pass's.
        g_buf, f_buf = np.empty((2,) + scal.shape), np.empty((2,) + scal.shape)
        # Ring buffers of the last _MIX_DEPTH differences of g and of g - x,
        # flat, and the Gram matrix of the residual differences.
        hist_g = np.empty((_MIX_DEPTH, scal.size))
        hist_f = np.empty((_MIX_DEPTH, scal.size))
        gram = np.empty((_MIX_DEPTH, _MIX_DEPTH))
    iterations = 0
    passes = 0  # iterations since the (re)start of the unmixed loop
    converged = False
    for _ in range(_JKO_MAX_ITER):
        u = a / apply_k(v)
        s = apply_kt(u)  # second-marginal proposal in mass units
        sigma = s * d
        sigma /= vol
        # Far from the support the prox centre underflows to 0: those cells
        # stay empty, and the prox runs on the others.
        full = sigma != 0
        rho_new = np.zeros_like(sigma)
        rho_new[full] = kl_prox(
            energy,
            sigma[full],
            eps,
            tau,
            u_pot[full],
            start=rho_curr[full] if passes else None,
        )
        mass_new = rho_new * vol
        v = np.divide(mass_new, s, out=np.zeros_like(s), where=full)
        if debias:
            kd = apply_k(d)
            d *= mass_new
            d /= kd
            np.sqrt(d, out=d)
        iterations += 1
        passes += 1
        np.subtract(rho_new, rho_curr, out=change)
        delta = float(np.abs(change, out=change).max())
        rho_curr = rho_new
        big = max(float(u.max()), float(v.max()), float(d.max()))
        if not math.isfinite(big) or big > _SCALING_BOUND:
            raise RuntimeError("jko_step scalings left the stable range")
        if not mixing:
            if delta <= tol and passes > 1:
                converged = True
                break
            continue
        scal[0] = v
        if float(scal.min()) <= 0.0:
            # A zero scaling has no log, and no later pass revives its cell,
            # which an overshooting mixed iterate may have emptied: restart
            # unmixed from the first pass.
            mixing = False
            passes = 0
            scal.fill(1.0)
            v = scal[0]
            rho_curr = a / vol
            continue
        # Type-II Anderson mixing of the log scalings: x moves to the plain
        # update g minus the combination of the last g differences whose
        # residual differences best cancel this pass's residual g - x.
        g, f = g_buf[iterations % 2], f_buf[iterations % 2]
        np.log(scal, out=g)
        np.subtract(g, x, out=f)
        if (
            delta <= _MIX_STOP_CHANGE * tol
            and iterations > 1
            and float(np.abs(f).max()) <= _MIX_STOP_RESIDUAL * tol
        ):
            converged = True
            break
        mixed = False
        if iterations > 1:
            j = (iterations - 2) % _MIX_DEPTH
            depth = min(iterations - 1, _MIX_DEPTH)
            np.subtract(g, g_buf[(iterations - 1) % 2], out=hist_g[j].reshape(g.shape))
            np.subtract(f, f_buf[(iterations - 1) % 2], out=hist_f[j].reshape(f.shape))
            gram[j, :depth] = gram[:depth, j] = hist_f[:depth] @ hist_f[j]
            try:
                gamma = np.linalg.solve(gram[:depth, :depth], hist_f[:depth] @ f.ravel())
            except np.linalg.LinAlgError:
                pass  # a singular system: take the plain update
            else:
                np.matmul(gamma, hist_g[:depth], out=x.reshape(-1))
                np.subtract(g, x, out=x)
                # A NaN fails the comparison too.
                mixed = float(np.abs(x).max()) <= log_bound
        if not mixed:
            x[...] = g
        np.exp(x, out=scal)
        v = scal[0]
    if not converged:
        raise RuntimeError(
            f"jko_step did not converge within {_JKO_MAX_ITER} iterations "
            f"(last density change {delta:.3e}, tol {tol:.3e})"
        )

    # The plan u_i K_ij v_j stays implicit: its marginals and its primal cost
    # are kernel products: K * C is the sum over axes of the product with
    # K1 * c1 on that axis and K1 on the others.
    row_err = float(np.max(np.abs(u * apply_k(v) - a)))
    col_err = float(np.max(np.abs(v * apply_kt(u) - rho_curr * vol)))
    plan_err = max(row_err, col_err)
    if not plan_err <= _JKO_MAX_PLAN_ERR * tol:
        raise RuntimeError(
            f"jko_step stopped with plan marginal error {plan_err:.3e} after "
            f"{iterations} iterations (tol {tol:.3e})"
        )
    kc1 = k1 * c1
    w2_sq = sum(
        float(np.sum(u * _kron_apply(kernel[:ax] + (kc1,) + kernel[ax + 1 :], v)))
        for ax in range(grid.dim)
    )
    rho_out = normalize(Density(grid, rho_curr.reshape(grid.shape)))
    result = TransportResult(
        w2_sq=w2_sq,
        plan_marginal_err=plan_err,
        iterations=iterations,
        converged=True,
        log_scalings=g.copy() if mixing else None,
    )
    return rho_out, result
