"""Periodic quadratic-cost optimal transport and the entropic JKO step.

``sinkhorn_w2`` estimates the squared 2-Wasserstein distance between grid
densities by alternating marginal scalings on the Gibbs kernel exp(-c/eps),
with potential absorption for numerical stability and a deterministic
eps-scaling warm start when the kernel would underflow.  It works on the
dense cost ``cost_matrix(grid)``, restricted to the supports, so its grids
are capped at ``_MAX_COST_CELLS`` cells.  The reported value is the primal
transport cost <c, plan> of the computed plan, without the entropic term.
``sinkhorn_w2`` reports convergence; ``species_w2_sq``, the per-species
distance every diagnostic uses, raises when a solve has not converged.

``jko_step`` solves one semi-implicit minimizing-movement step

    min_rho  W2^2(rho, rho_prev)/(2h) + int E(rho) + int U rho

through its entropic relaxation: the first marginal is matched exactly by
scaling, the second through the per-cell KL proximal of the energy with
tau = 2h.  By default the step is debiased with the symmetric self-transport
scaling d (d * (K d) = second marginal at convergence), which cancels the
O(eps) blur of the plain entropic scheme; ``debias=False`` gives the plain
alternation.  The torus cost is a sum over axes, so the step's Gibbs kernel
is the Kronecker product of one n x n per-axis kernel K1 and each kernel
product runs axis by axis (K1 V K1^T in 2-d).  No cells x cells array is
built unless the caller asks for the plan, and the step has no grid cap.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .energy import InternalEnergy, kl_prox
from .grid import Density, Grid, ScalarField, minimal_image, normalize

__all__ = [
    "TransportResult",
    "cost_matrix",
    "sinkhorn_w2",
    "species_w2_sq",
    "exact_w2_permutation",
    "jko_step",
]

_MAX_COST_CELLS = 16384
_SCALING_BOUND = 1e290
_MASS_FLOOR = 1e-300


@dataclass(frozen=True)
class TransportResult:
    w2_sq: float
    plan_marginal_err: float
    iterations: int
    eps: float
    converged: bool = True
    plan: np.ndarray | None = None


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
    """Kernel exp((f_i + g_j - c_ij) / level) with absorbed potentials f, g."""
    return np.exp((f[:, None] + g[None, :] - c) / level)


def sinkhorn_w2(
    mu: Density,
    nu: Density,
    eps: float,
    tol: float = 1e-9,
    max_iter: int = 200000,
    return_plan: bool = False,
) -> TransportResult:
    """Entropic estimate of W2^2 on the torus, deterministic given inputs.

    The scalings run on the supports of the two densities only; empty cells
    carry no plan mass, and a returned plan is zero on their rows/columns.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mu.grid != nu.grid:
        raise ValueError("densities live on different grids")
    _check_normalized(mu, "mu")
    _check_normalized(nu, "nu")
    c_full = cost_matrix(mu.grid)
    vol = mu.grid.cell_volume
    a_full, b_full = mu.values.ravel() * vol, nu.values.ravel() * vol
    rows, cols = np.flatnonzero(a_full), np.flatnonzero(b_full)
    a, b = a_full[rows], b_full[cols]
    # Indexing copies, so a fully supported pair keeps the shared cost array.
    c = c_full if a.size * b.size == c_full.size else c_full[np.ix_(rows, cols)]

    f = np.zeros_like(a)
    g = np.zeros_like(b)
    total_iter = 0
    for level in _eps_schedule(eps, float(np.max(c_full))):
        level_tol = tol if level == eps else max(tol, 1e-7)
        level_budget = max_iter - total_iter if level == eps else min(5000, max_iter)
        kernel = _gibbs(f, g, c, level)
        u = np.ones_like(a)
        v = np.ones_like(b)
        for _ in range(max(level_budget, 1)):
            kv = kernel @ v
            if np.any(kv <= 0):
                # Row underflow despite absorbed potentials: tighten the ladder.
                raise RuntimeError(
                    "sinkhorn kernel underflow; eps is too small for this cost"
                )
            err = float(np.max(np.abs(u * kv - a)))
            total_iter += 1
            if err <= level_tol and total_iter > 1:
                break
            u = a / kv
            ktu = kernel.T @ u
            v = b / np.where(ktu > 0, ktu, 1.0)
            big = max(float(np.max(u)), float(np.max(v)))
            small = min(float(np.min(u)), float(np.min(v)))
            if big > _SCALING_BOUND or small < 1.0 / _SCALING_BOUND:
                f = f + level * np.log(u)
                g = g + level * np.log(v)
                kernel = _gibbs(f, g, c, level)
                u = np.ones_like(a)
                v = np.ones_like(b)
        # Absorb before moving to the next (smaller) level.
        f = f + level * np.log(u)
        g = g + level * np.log(v)

    plan = _gibbs(f, g, c, eps)
    row_err = float(np.max(np.abs(plan.sum(axis=1) - a)))
    col_err = float(np.max(np.abs(plan.sum(axis=0) - b)))
    err = max(row_err, col_err)
    w2_sq = float(np.sum(plan * c))
    if return_plan and plan.shape != c_full.shape:
        full = np.zeros(c_full.shape)
        full[np.ix_(rows, cols)] = plan
        plan = full
    return TransportResult(
        w2_sq=w2_sq,
        plan_marginal_err=err,
        iterations=total_iter,
        eps=eps,
        converged=err <= tol,
        plan=plan if return_plan else None,
    )


def species_w2_sq(
    rho_a: tuple[Density, ...], rho_b: tuple[Density, ...], eps: float, tol: float
) -> np.ndarray:
    """Per-species squared W2 between two density tuples, one entry each.

    Raises RuntimeError naming the species when its solve does not converge,
    so no caller can sum an unconverged estimate.
    """
    out = np.zeros(len(rho_a))
    for i, (a, b) in enumerate(zip(rho_a, rho_b, strict=True)):
        res = sinkhorn_w2(a, b, eps=eps, tol=tol)
        if not res.converged:
            raise RuntimeError(
                f"species {i} transport did not converge (marginal error "
                f"{res.plan_marginal_err:.3e} after {res.iterations} iterations, "
                f"tol {tol:g})"
            )
        out[i] = res.w2_sq
    return out


def _kron_apply(mats: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """kron(mats[0], ..., mats[dim-1]) @ x for a flat cell vector x, per axis."""
    if len(mats) == 1:
        return mats[0] @ x
    n = mats[0].shape[0]
    return (mats[0] @ x.reshape(n, n) @ mats[1].T).ravel()


def _gibbs_axis_cost(grid: Grid, h: float, eps: float) -> np.ndarray:
    """Per-axis cost c1 of ``jko_step``'s Gibbs kernel, checked against eps.

    The kernel exp(-dim c1/eps) and the KL proximal at tau = 2h both need
    exponents of at most 600; otherwise a ValueError gives the smallest
    admissible eps, rounded up to three significant digits.
    """
    x = grid.axis_centers
    c1 = minimal_image(x[:, None] - x[None, :]) ** 2
    spread, tau = grid.dim * float(np.max(c1)), 2.0 * h
    if max(spread, tau) / eps > 600.0:
        need = max(spread, tau) / 600.0
        unit = 10.0 ** (math.floor(math.log10(need)) - 2)
        least = math.ceil(need * (1 + 1e-12) / unit) * unit
        reason = (
            "the Gibbs kernel on this grid"
            if spread >= tau
            else "h (h/eps is too large for stable scalings)"
        )
        raise ValueError(
            f"eps {eps:g} is too small for {reason}; increase eps to at least {least:.3g}"
        )
    return c1


def jko_step(
    rho_prev: Density,
    h: float,
    energy: InternalEnergy,
    potential: ScalarField | np.ndarray | None,
    eps: float,
    tol: float = 1e-9,
    max_iter: int = 20000,
    debias: bool = True,
    return_plan: bool = False,
) -> tuple[Density, TransportResult]:
    """One semi-implicit minimizing-movement step via entropic scaling.

    The potential is the frozen field evaluated at the previous iterate; the
    returned density is the plan's second marginal renormalized to unit mass,
    and the result carries the plan's primal cost as the step's W2^2.
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
    if potential is None:
        u_pot = np.zeros_like(a)
    elif isinstance(potential, ScalarField):
        if potential.grid != grid:
            raise ValueError("potential grid does not match the density")
        u_pot = potential.values.ravel()
    else:
        u_pot = np.asarray(potential, dtype=float).ravel()
        if u_pot.shape != a.shape:
            raise ValueError("potential has the wrong number of cells")

    k1 = np.exp(-c1 / eps)
    kernel = (k1,) * grid.dim
    kernel_t = (k1.T,) * grid.dim
    v = np.ones_like(a)
    d = np.ones_like(a)
    rho_curr = a / vol
    u = np.ones_like(a)
    iterations = 0
    converged = False
    for _ in range(max_iter):
        kv = _kron_apply(kernel, v)
        u = a / kv
        s = _kron_apply(kernel_t, u)  # second-marginal proposal in mass units
        sigma = s * d / vol
        rho_new = kl_prox(energy, sigma, eps, tau, u_pot)
        v = rho_new * vol / s
        if debias:
            d = np.sqrt(d * (rho_new * vol) / _kron_apply(kernel, d))
        iterations += 1
        delta = float(np.max(np.abs(rho_new - rho_curr)))
        rho_curr = rho_new
        big = max(float(np.max(u)), float(np.max(v)), float(np.max(d)))
        if not np.isfinite(big) or big > _SCALING_BOUND:
            raise RuntimeError("jko_step scalings left the stable range")
        if delta <= tol and iterations > 1:
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"jko_step did not converge within {max_iter} iterations "
            f"(last density change {delta:.3e}, tol {tol:.3e})"
        )

    # The plan u_i K_ij v_j stays implicit: its marginals and its primal cost
    # are kernel products: K * C is the sum over axes of the product with
    # K1 * c1 on that axis and K1 on the others.
    row_err = float(np.max(np.abs(u * _kron_apply(kernel, v) - a)))
    col_err = float(np.max(np.abs(v * _kron_apply(kernel_t, u) - rho_curr * vol)))
    kc1 = k1 * c1
    w2_sq = sum(
        float(np.sum(u * _kron_apply(kernel[:ax] + (kc1,) + kernel[ax + 1 :], v)))
        for ax in range(grid.dim)
    )
    plan = None
    if return_plan:
        plan = u[:, None] * functools.reduce(np.kron, kernel) * v[None, :]
    rho_out = normalize(Density(grid, rho_curr.reshape(grid.shape)))
    result = TransportResult(
        w2_sq=w2_sq,
        plan_marginal_err=max(row_err, col_err),
        iterations=iterations,
        eps=eps,
        converged=True,
        plan=plan,
    )
    return rho_out, result
