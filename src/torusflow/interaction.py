"""Drift functionals built from periodic convolution kernels.

A model couples l species through an l x l matrix of kernels sampled on the
lattice offsets k*dx of the working grid:

* potential mode: scalar kernels W_ij and U_i[rho] = sum_j W_ij * rho_j.
  The induced advection velocity is -grad U_i (mass slides down the
  potential), so the minimizing-movement route and the finite-volume route
  integrate the same dynamics.  A constant added to U would move neither:
  the step keeps unit mass and the gradient drops it.
* velocity mode: vector kernels B_ij and V_i[rho] = sum_j B_ij * rho_j, not
  necessarily a gradient.

Every drift evaluation goes through one convolution path, ``_kernel_sums``:
one batched forward transform of the stacked densities, one broadcast
product with the kernel transforms for every run at once, one batched
inverse transform, and one sum of the products over the source species j.
The kernel transforms are one array, taken the first time a model is
evaluated and kept on it; a model whose kernels are all zero has none and
takes no transform.

``estimate_constants`` bounds the regularity constants of the drift's
velocity form in closed form: the velocity kernel gradients (lip_x) and
the Wasserstein-Lipschitz constant of rho -> V[rho] (lip_w2).  No transport
problem is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    def potential(cls, grid: Grid, kernels) -> "DriftModel":
        return cls(grid=grid, mode="potential", kernels=np.asarray(kernels, dtype=float))

    @classmethod
    def velocity(cls, grid: Grid, kernels) -> "DriftModel":
        return cls(grid=grid, mode="velocity", kernels=np.asarray(kernels, dtype=float))

    @classmethod
    def none(cls, grid: Grid, species: int = 1, mode: str = "potential") -> "DriftModel":
        if mode == "potential":
            kernels = np.zeros((species, species) + grid.shape)
        else:
            kernels = np.zeros((species, species, grid.dim) + grid.shape)
        return cls(grid=grid, mode=mode, kernels=kernels)

    @cached_property
    def _kernel_hats(self) -> np.ndarray | None:
        """Transforms of the kernels, shape (l, comps, l, *shape): entry
        [i, a, j] transforms component a of K_ij (comps is 1 in potential
        mode).  None when every kernel is zero."""
        if not np.any(self.kernels):
            return None
        l = self.species_count
        comps = 1 if self.mode == "potential" else self.grid.dim
        kernels = self.kernels.reshape((l, l, comps) + self.grid.shape)
        return _transform(self.grid, np.moveaxis(kernels, 2, 1), np.fft.fft)


def _transform(grid: Grid, stacked: np.ndarray, fft) -> np.ndarray:
    """fftn (or ifftn) over the space axes, the last ``grid.dim`` axes of
    stacked, axis by axis from the last one as fftn does, without fftn's
    per-call set-up."""
    for axis in range(-1, -1 - grid.dim, -1):
        stacked = fft(stacked, axis=axis)
    return stacked


def _kernel_sums(model: DriftModel, values: np.ndarray) -> np.ndarray:
    """sum_j K_ij * rho_j for stacked densities ``values`` of shape
    (..., l, *shape); leading axes hold separate runs.

    Potential mode returns U, shape (..., l, *shape); velocity mode returns
    V, shape (..., l, dim, *shape).  Species j is added in ascending order; a
    zero kernel adds an exact 0 (but spreads a non-finite density through its
    run).
    """
    grid = model.grid
    l = model.species_count
    lead = values.shape[: -1 - grid.dim]
    potential = model.mode == "potential"
    hats = model._kernel_hats
    if hats is None:
        out = np.zeros(lead + (l, 1 if potential else grid.dim) + grid.shape)
    else:
        rho_hat = _transform(grid, values, np.fft.fft).reshape(lead + (1, 1, l) + grid.shape)
        conv = np.real(_transform(grid, hats * rho_hat, np.fft.ifft))
        out = (conv * grid.cell_volume).sum(axis=-1 - grid.dim)
    return out.reshape(lead + (l,) + grid.shape) if potential else out


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
    """U_i = sum_j W_ij * rho_j (potential mode only)."""
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

    @property
    def c_hat(self) -> float:
        """Growth constant max(lip_x, lip_w2) of the stability bound."""
        return max(self.lip_x, self.lip_w2)


def estimate_constants(model: DriftModel) -> DriftConstants:
    """Bounds on the regularity constants of the drift's velocity form.

    A potential model is first rewritten as its velocity kernels
    B_ij = -grad W_ij (``as_velocity_model``), so lip_x bounds the spatial
    Lipschitz constant of the velocity itself.  lip_x is the max over species
    and cells of sum_j |grad B_ij|.
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
    lip_x = step = 0.0
    for i in range(model.species_count):
        grad_acc = np.zeros(grid.shape)
        for j in range(model.species_count):
            kernel = model.kernels[i, j]
            if not np.any(kernel):
                continue
            comps = [centered_grad_values(grid, b) for b in kernel]
            grad_acc += np.sqrt(sum(np.sum(g**2, axis=0) for g in comps))
            for b in kernel:
                step = max(step, float(np.max(np.abs(grad_values(grid, b)))))
        lip_x = max(lip_x, float(np.max(grad_acc)))
    return DriftConstants(lip_x=lip_x, lip_w2=math.sqrt(grid.dim) * step)


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
