"""Drift functionals built from periodic convolution kernels.

A model couples l species through an l x l matrix of kernels sampled on the
lattice offsets k*dx of the working grid:

* potential mode: scalar kernels W_ij and U_i[rho] = sum_j W_ij * rho_j plus
  a nonnegativity shift.  The induced advection velocity is -grad U_i (mass
  slides down the potential), so the minimizing-movement route and the
  finite-volume route integrate the same dynamics.
* velocity mode: vector kernels B_ij and V_i[rho] = sum_j B_ij * rho_j, not
  necessarily a gradient.

Every drift evaluation goes through one convolution path, ``_kernel_sums``:
one batched forward transform of the stacked densities and one batched
inverse transform of the nonzero kernel terms, with the terms tiled once per
run when several runs are stacked.  The kernel transforms are
taken the first time a model is evaluated and kept on it.

``estimate_constants`` bounds the regularity constants of the drift's
velocity form in closed form: the velocity kernel gradients (lip_x), the
Wasserstein-Lipschitz constant of rho -> V[rho] (lip_w2) and the positive
part of the velocity kernel divergence (lap_plus).  No transport problem is
solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import (
    Density,
    Grid,
    ScalarField,
    VectorField,
    centered_grad_values,
    grad_values,
    minimal_image,
)

__all__ = [
    "DriftModel",
    "DriftConstants",
    "potential_from_kernel",
    "velocity_field",
    "estimate_constants",
    "as_velocity_model",
    "cosine_kernel",
    "gaussian_bump_kernel",
    "zero_kernel",
]


def cosine_kernel(grid: Grid, amplitude: float = 1.0, frequency: int = 1) -> np.ndarray:
    offs = grid.offset_grids()
    out = np.full(grid.shape, amplitude)
    for z in offs:
        out = out * np.cos(2.0 * np.pi * frequency * z)
    return out


def gaussian_bump_kernel(grid: Grid, sigma: float, amplitude: float = 1.0) -> np.ndarray:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    offs = grid.offset_grids()
    r2 = np.zeros(grid.shape)
    for z in offs:
        r2 += minimal_image(z) ** 2
    return amplitude * np.exp(-r2 / (2.0 * sigma**2))


def zero_kernel(grid: Grid) -> np.ndarray:
    return np.zeros(grid.shape)


@dataclass(frozen=True)
class DriftModel:
    """Convolution-backed drift for l interacting species."""

    grid: Grid
    mode: str  # "potential" or "velocity"
    kernels: np.ndarray  # potential: (l, l, *shape); velocity: (l, l, dim, *shape)
    nonneg_shift: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("potential", "velocity"):
            raise ValueError(f"unknown drift mode {self.mode!r}")
        arr = np.asarray(self.kernels, dtype=float)
        if self.mode == "potential":
            want_tail = self.grid.shape
        else:
            want_tail = (self.grid.dim,) + self.grid.shape
        if arr.ndim != 2 + len(want_tail) or arr.shape[0] != arr.shape[1]:
            raise ValueError("kernels must form a square species matrix")
        if arr.shape[2:] != want_tail:
            raise ValueError(
                f"kernel entries have shape {arr.shape[2:]}, expected {want_tail}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("kernels contain non-finite entries")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "kernels", arr)

    @property
    def species_count(self) -> int:
        return self.kernels.shape[0]

    @classmethod
    def potential(cls, grid: Grid, kernels, nonneg_shift: float | None = None) -> "DriftModel":
        arr = np.asarray(kernels, dtype=float)
        if nonneg_shift is None:
            # sum_j max|W_ij| bounds |U_i| from below after shifting.
            per_species = np.max(np.abs(arr), axis=tuple(range(2, arr.ndim))).sum(axis=1)
            nonneg_shift = float(np.max(per_species)) if per_species.size else 0.0
        return cls(grid=grid, mode="potential", kernels=arr, nonneg_shift=nonneg_shift)

    @classmethod
    def velocity(cls, grid: Grid, kernels) -> "DriftModel":
        return cls(grid=grid, mode="velocity", kernels=np.asarray(kernels, dtype=float))

    @classmethod
    def none(cls, grid: Grid, species: int = 1, mode: str = "potential") -> "DriftModel":
        if mode == "potential":
            kernels = np.zeros((species, species) + grid.shape)
        else:
            kernels = np.zeros((species, species, grid.dim) + grid.shape)
        return cls(grid=grid, mode=mode, kernels=kernels, nonneg_shift=0.0)

    @cached_property
    def _transforms(self) -> "_KernelTransforms":
        return _KernelTransforms.of(self)


@dataclass(frozen=True)
class _KernelTransforms:
    """Transforms of a model's nonzero kernels, one per (field row, species) term.

    A field row is species i in potential mode and component a of species i
    (row i * dim + a) in velocity mode.  Terms run in (i, j, a) order, so
    each row sums its species j in ascending order.
    """

    rows: np.ndarray  # field row of each term
    sources: np.ndarray  # species convolved by each term
    hats: np.ndarray  # (terms, *shape) forward transforms of the kernels
    species: int
    width: int  # field rows per run
    _tiles: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, model: DriftModel) -> "_KernelTransforms":
        grid = model.grid
        l = model.species_count
        comps = 1 if model.mode == "potential" else grid.dim
        kernels = model.kernels.reshape((l, l, comps) + grid.shape)
        terms = [
            (i * comps + a, j)
            for i in range(l)
            for j in range(l)
            for a in range(comps)
            if np.any(kernels[i, j, a])
        ]
        rows = np.array([r for r, _ in terms], dtype=int)
        sources = np.array([j for _, j in terms], dtype=int)
        picked = np.zeros((len(terms),) + grid.shape)
        for t, (r, j) in enumerate(terms):
            picked[t] = kernels[r // comps, j, r % comps]
        hats = _transform(grid, picked, np.fft.fft)
        return cls(rows=rows, sources=sources, hats=hats, species=l, width=l * comps)

    def tiled(self, runs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, sources, hats) of ``runs`` runs stacked row by row: run r's
        terms read density row r * species + j and write field row
        r * width + i, in the same order as one run's."""
        if runs not in self._tiles:
            offsets = np.arange(runs)[:, None]
            self._tiles[runs] = (
                (offsets * self.width + self.rows).ravel(),
                (offsets * self.species + self.sources).ravel(),
                np.concatenate([self.hats] * runs),
            )
        return self._tiles[runs]


def _transform(grid: Grid, stacked: np.ndarray, fft) -> np.ndarray:
    """fftn (or ifftn) over the space axes of a (k, *shape) stack, axis by
    axis from the last one as fftn does, without fftn's per-call set-up."""
    for axis in range(grid.dim, 0, -1):
        stacked = fft(stacked, axis=axis)
    return stacked


def _kernel_sums(model: DriftModel, values: np.ndarray) -> np.ndarray:
    """sum_j K_ij * rho_j for stacked densities ``values`` of shape
    (..., l, *shape); leading axes hold separate runs.

    Potential mode returns U, shape (..., l, *shape), with the nonneg shift
    added; velocity mode returns V, shape (..., l, dim, *shape).
    """
    grid = model.grid
    l = model.species_count
    tr = model._transforms
    lead = values.shape[: -1 - grid.dim]
    if model.mode == "potential":
        out = np.full(lead + (l,) + grid.shape, model.nonneg_shift)
    else:
        out = np.zeros(lead + (l, grid.dim) + grid.shape)
    if tr.rows.size:
        rows, sources, hats = tr.tiled(math.prod(lead))
        rho_hat = _transform(grid, values.reshape((-1,) + grid.shape), np.fft.fft)
        conv = np.real(_transform(grid, hats * rho_hat[sources], np.fft.ifft))
        conv = conv * grid.cell_volume
        flat = out.reshape((-1,) + grid.shape)
        for row, term in zip(rows, conv):
            flat[row] += term
    return out


def _kernel_sums_bound(model: DriftModel) -> float:
    """sum |K| * cells^3 over the stored kernels: finite only if every value
    ``_kernel_sums`` computes stays finite for every unit-mass density.

    |fft K| <= sum |K| and |fft rho| <= sum rho = cells, and an inverse pass
    of length n sums at most n such products before it rescales, so no
    intermediate exceeds sum |K| * cells * n; cells^3 leaves at least a
    further factor n for the transform's own partial sums.
    """
    return float(np.sum(np.abs(model.kernels))) * model.grid.cells**3


def _stacked(model: DriftModel, rho: tuple[Density, ...]) -> np.ndarray:
    rho = tuple(rho)
    if len(rho) != model.species_count:
        raise ValueError(
            f"model couples {model.species_count} species, got {len(rho)} densities"
        )
    for r in rho:
        if r.grid != model.grid:
            raise ValueError("density grid does not match the drift model grid")
    return np.stack([r.values for r in rho])


def potential_from_kernel(model: DriftModel, rho: tuple[Density, ...]) -> tuple[ScalarField, ...]:
    """U_i = sum_j W_ij * rho_j + nonneg_shift (potential mode only)."""
    if model.mode != "potential":
        raise ValueError("mode mismatch: potential_from_kernel needs a potential model")
    return tuple(
        ScalarField(model.grid, u) for u in _kernel_sums(model, _stacked(model, rho))
    )


def velocity_field(model: DriftModel, rho: tuple[Density, ...]) -> tuple[VectorField, ...]:
    """Advection velocity per species, cell-collocated.

    Potential mode returns -grad U_i so that both solver routes advance
    d_t rho_i = Lap F_i'(rho_i) - div(rho_i V_i[rho]) with the same V.
    """
    grid = model.grid
    fields = _kernel_sums(model, _stacked(model, rho))
    if model.mode == "potential":
        fields = [-centered_grad_values(grid, u) for u in fields]
    return tuple(VectorField(grid, v) for v in fields)


@dataclass(frozen=True)
class DriftConstants:
    lip_x: float
    lip_w2: float
    lap_plus: float

    @property
    def c_hat(self) -> float:
        """Growth constant max(lip_x, lip_w2) of the stability bound."""
        return max(self.lip_x, self.lip_w2)


def estimate_constants(model: DriftModel) -> DriftConstants:
    """Bounds on the regularity constants of the drift's velocity form.

    A potential model is first rewritten as its velocity kernels
    B_ij = -grad W_ij (``as_velocity_model``), so lip_x bounds the spatial
    Lipschitz constant of the velocity itself.  lip_x is the max over species
    and cells of sum_j |grad B_ij| and lap_plus that of sum_j (div B_ij)_+.
    lip_w2 bounds the W2-Lipschitz constant of rho -> V[rho]: by
    Kantorovich-Rubinstein duality |V_i[rho] - V_i[nu]|_inf <=
    max_j Lip(B_ij) sum_j W2(rho_j, nu_j).  Between the cell centres, where
    the densities sit, a path that walks the axes one at a time gives
    Lip(B) <= sqrt(dim) times the largest quotient of a component of B
    between neighbouring cells.  All-zero kernels are skipped.  A ValueError
    means the velocity kernels of a potential model are not finite.
    """
    model = as_velocity_model(model)
    grid = model.grid
    lip_x = step = lap_plus = 0.0
    for i in range(model.species_count):
        grad_acc = np.zeros(grid.shape)
        lap_acc = np.zeros(grid.shape)
        for j in range(model.species_count):
            kernel = model.kernels[i, j]
            if not np.any(kernel):
                continue
            comps = [centered_grad_values(grid, b) for b in kernel]
            grad_acc += np.sqrt(sum(np.sum(g**2, axis=0) for g in comps))
            lap = np.zeros(grid.shape)
            for a, g in enumerate(comps):
                lap += g[a]
            lap_acc += np.maximum(lap, 0.0)
            for b in kernel:
                step = max(step, float(np.max(np.abs(grad_values(grid, b)))))
        lip_x = max(lip_x, float(np.max(grad_acc)))
        lap_plus = max(lap_plus, float(np.max(lap_acc)))
    return DriftConstants(lip_x=lip_x, lip_w2=math.sqrt(grid.dim) * step, lap_plus=lap_plus)


def as_velocity_model(model: DriftModel) -> DriftModel:
    """Rewrite a potential model as the equivalent velocity-kernel model."""
    if model.mode == "velocity":
        return model
    grid = model.grid
    l = model.species_count
    kernels = np.zeros((l, l, grid.dim) + grid.shape)
    for i in range(l):
        for j in range(l):
            kernels[i, j] = -centered_grad_values(grid, model.kernels[i, j])
    return DriftModel.velocity(grid, kernels)
