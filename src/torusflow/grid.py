"""Flat-torus discretization and discrete vector calculus.

The torus [0, 1)^d (d = 1 or 2) is covered by n uniform cells per axis with
cell centers at (i + 1/2)/n.  All index arithmetic wraps modulo n.  The
gradient lives on cell faces (forward difference, entry i holding the value
at face i + 1/2) and the divergence, which the finite-volume scheme forms
from its face fluxes, maps face values back to cells (backward difference),
so that

    sum(div(w) * phi) == -sum(w . grad(phi))        (exact telescoping)

and div(grad(.)) is the compact three-point Laplacian per axis, with Fourier
symbol -(2/dx^2) * (1 - cos(2*pi*k*dx)) on mode k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Density",
    "ScalarField",
    "VectorField",
    "make_grid",
    "minimal_image",
    "normalize",
    "grad_values",
    "centered_grad_values",
]


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on the flat torus [0, 1)^d."""

    dim: int
    n: int

    def __post_init__(self) -> None:
        # numpy integers are stored as int; floats and bools are refused.
        dim, n = (int(v) if isinstance(v, np.integer) else v for v in (self.dim, self.n))
        if type(dim) is not int or dim not in (1, 2):
            raise ValueError(f"unsupported dimension {self.dim}; expected 1 or 2")
        if type(n) is not int or n < 2:
            raise ValueError(f"cells per axis must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "n", n)

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def cells(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def axis_centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.dx

    def coordinate_grids(self) -> tuple[np.ndarray, ...]:
        """Per-axis center coordinates, each shaped like a cell array."""
        return tuple(np.meshgrid(*([self.axis_centers] * self.dim), indexing="ij"))

    def offset_grids(self) -> tuple[np.ndarray, ...]:
        """Per-axis lattice offsets k*dx; convolution kernels are sampled here."""
        offs = np.arange(self.n) * self.dx
        return tuple(np.meshgrid(*([offs] * self.dim), indexing="ij"))

    def cell_centers(self) -> np.ndarray:
        """All cell centers as an (cells, dim) array in C (row-major) order."""
        coords = self.coordinate_grids()
        return np.stack([c.ravel() for c in coords], axis=-1)


def make_grid(dim: int, n: int) -> Grid:
    return Grid(dim=dim, n=n)


def minimal_image(delta: np.ndarray) -> np.ndarray:
    """Wrap coordinate differences to the representative in [-1/2, 1/2]."""
    delta = np.asarray(delta, dtype=float)
    return delta - np.round(delta)


def _validated_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Density:
    """Nonnegative density on a grid; unit mass is enforced by normalize()."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _validated_array(self.values, self.grid.shape, "density values")
        if np.any(arr < 0):
            raise ValueError("density values must be nonnegative")
        object.__setattr__(self, "values", arr)

    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.cell_volume)


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", _validated_array(self.values, self.grid.shape, "field values")
        )


@dataclass(frozen=True)
class VectorField:
    grid: Grid
    values: np.ndarray  # shape (dim, n, ...) with one component per axis

    def __post_init__(self) -> None:
        shape = (self.grid.dim,) + self.grid.shape
        object.__setattr__(
            self, "values", _validated_array(self.values, shape, "field values")
        )


def normalize(rho: Density) -> Density:
    # Finite values can still sum past the float maximum.
    with np.errstate(over="ignore"):
        total = rho.mass()
    if not math.isfinite(total):
        raise ValueError("degenerate density: total mass is not finite")
    if total <= 0:
        raise ValueError("degenerate density: total mass is not positive")
    return Density(rho.grid, rho.values / total)


def grad_values(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Forward difference per axis; component a, entry i sits at face i+1/2."""
    return np.stack(
        [(np.roll(f, -1, axis=a) - f) / grid.dx for a in range(grid.dim)]
    )


def centered_grad_values(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Cell-collocated centered gradient, used for velocity sampling."""
    return np.stack(
        [
            (np.roll(f, -1, axis=a) - np.roll(f, 1, axis=a)) / (2.0 * grid.dx)
            for a in range(grid.dim)
        ]
    )
