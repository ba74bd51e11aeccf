"""JSON run configuration: parsing, validation and scenario vocabulary.

A config names the grid, the species (energy kind plus initial profile), the
drift kernels, the solver(s), the horizon, the step h and the JKO entropic
scale, the stability check's second initial profiles and the output
location; the solvers' other constants (the JKO tolerance, eps_reg, the CFL
safety factor, the stability margin) are their defaults.  Parsing validates
every field with an error naming the offending path, rejects unknown fields
in every object (each profile and kernel kind has its own field list), and
rejects up front what the solvers would refuse at their start: non-finite
drift bounds, a JKO entropic scale too small for the grid, and an energy the
finite-volume route cannot regularize at ``EPS_REG``.  Every energy kind
satisfies the paper's hypotheses in closed form (see energy.py), so none is
sampled here.

The parsed ``RunConfig`` is the run plan: it carries the run's ``Problem``
(and the stability run's initial densities, checked as that problem's) and
the JKO eps; its ``resolved`` echo is built from those same values.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .energy import EPS_REG, InternalEnergy, regularize
from .grid import Density, Grid, make_grid, minimal_image, normalize
from .interaction import (
    DriftConstants,
    DriftModel,
    _kernel_sums_bound,
    cosine_kernel,
    estimate_constants,
    gaussian_bump_kernel,
    zero_kernel,
)
from .jko import Problem
from .transport import _MAX_COST_CELLS, _default_jko_eps, _gibbs_axis_cost

__all__ = ["RunConfig", "ConfigError", "parse_config", "build_profile", "build_kernel"]

_ROOT_FIELDS = ("grid", "species", "drift", "solver", "horizon", "jko", "output", "stability")
_SPECIES_FIELDS = ("energy", "initial")
# Every energy kind echoes m in the resolved config, so each accepts it;
# entropy and zero take only m = 1.
_ENERGY_FIELDS = ("kind", "m")
_PROFILE_FIELDS = {
    "uniform": ("profile",),
    "cosine": ("profile", "amplitude", "frequency"),
    "bump": ("profile", "center", "width"),
    "two_bumps": ("profile", "center_a", "center_b", "width_a", "width_b", "weight"),
    "inline": ("profile", "values"),
}
_KERNEL_FIELDS = {
    "zero": ("kind",),
    "cosine": ("kind", "amplitude", "frequency"),
    "gaussian_bump": ("kind", "sigma", "amplitude"),
    "inline": ("kind", "values"),
}


class ConfigError(ValueError):
    """Configuration rejected; the message names the failing field."""


def build_profile(grid: Grid, spec: dict, where: str = "initial") -> Density:
    """Resolve a named initial profile into a normalized density.

    ``where`` is the profile's path in the config, used in error messages.
    """
    if not isinstance(spec, dict) or "profile" not in spec:
        raise ConfigError(f"{where}: expected an object with a 'profile' name")
    name = spec["profile"]
    fields = _PROFILE_FIELDS.get(name) if isinstance(name, str) else None
    if fields is None:
        raise ConfigError(f"{where}.profile: unknown profile {name!r}")
    _object(spec, where, fields)
    coords = grid.coordinate_grids()
    if name == "uniform":
        vals = np.ones(grid.shape)
    elif name == "cosine":
        amp = _number(spec.get("amplitude", 0.5), f"{where}.amplitude")
        freq = _integer(spec.get("frequency", 1), f"{where}.frequency")
        if not (0 <= abs(amp) <= 1):
            raise ConfigError(f"{where}.amplitude: must lie in [-1, 1] for positivity")
        vals = np.ones(grid.shape)
        mode = np.ones(grid.shape)
        for c in coords:
            mode = mode * np.cos(2 * np.pi * freq * c)
        vals = vals + amp * mode
    elif name in ("bump", "two_bumps"):
        def bump(center_key, center_default, width_key, width_default):
            at = f"{where}.{width_key}"
            width = _number(spec.get(width_key, width_default), at, positive=True)
            try:
                spread = 2.0 * width**2
            except OverflowError as exc:
                raise ConfigError(f"{at}: too large (its square overflows)") from exc
            center = spec.get(center_key, center_default)
            center = np.atleast_1d(_array(center, f"{where}.{center_key}"))
            if center.size != grid.dim:
                raise ConfigError(f"{where}.{center_key}: needs one coordinate per axis")
            r2 = np.zeros(grid.shape)
            for a, c in enumerate(coords):
                r2 += minimal_image(c - center[a]) ** 2
            return np.exp(-r2 / spread)

        if name == "bump":
            vals = bump("center", 0.5, "width", 0.1)
        else:
            first = bump("center_a", 0.25, "width_a", 0.05)
            second = bump("center_b", 0.75, "width_b", 0.05)
            weight = _number(spec.get("weight", 0.5), f"{where}.weight")
            if not (0 < weight < 1):
                raise ConfigError(f"{where}.weight: must lie in (0, 1)")
            vals = weight * first + (1.0 - weight) * second
    else:  # inline
        vals = _array(spec.get("values"), f"{where}.values")
        if vals.shape != grid.shape:
            raise ConfigError(
                f"{where}.values: shape {vals.shape} does not match grid {grid.shape}"
            )
    try:
        return normalize(Density(grid, vals))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_kernel(grid: Grid, spec: dict, where: str, vector: bool) -> np.ndarray:
    """Resolve one kernel entry; vector entries get one array per axis."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where}: expected an object with a 'kind' name")
    kind = spec["kind"]
    fields = _KERNEL_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ConfigError(f"{where}.kind: unknown kernel {kind!r}")
    _object(spec, where, fields)
    if kind == "zero":
        scalar = zero_kernel(grid)
    elif kind == "cosine":
        scalar = cosine_kernel(
            grid,
            amplitude=_number(spec.get("amplitude", 1.0), f"{where}.amplitude"),
            frequency=_integer(spec.get("frequency", 1), f"{where}.frequency"),
        )
    elif kind == "gaussian_bump":
        scalar = gaussian_bump_kernel(
            grid,
            sigma=_number(spec.get("sigma", 0.1), f"{where}.sigma", positive=True),
            amplitude=_number(spec.get("amplitude", 1.0), f"{where}.amplitude"),
        )
    else:  # inline
        arr = _array(spec.get("values"), f"{where}.values")
        want = ((grid.dim,) + grid.shape) if vector else grid.shape
        if arr.shape != want:
            raise ConfigError(f"{where}.values: shape {arr.shape}, expected {want}")
        return arr
    if vector:
        # Scalar named kernels used in velocity mode act along the first axis.
        out = np.zeros((grid.dim,) + grid.shape)
        out[0] = scalar
        return out
    return scalar


@dataclass
class RunConfig:
    problem: Problem
    solver: str
    jko_eps: float  # run_jko's eps
    stability: tuple[Density, ...] | None  # the stability run's initial densities
    output_cadence: int
    output_directory: str | None
    load_constants: DriftConstants  # the velocity form's drift bounds
    resolved: dict


def _require(raw: dict, key: str, where: str):
    if key not in raw:
        raise ConfigError(f"{where}{key}: missing required field")
    return raw[key]


def _number(raw, where: str, positive: bool = False) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{where}: expected a number")
    try:
        val = float(raw)
    except OverflowError:  # an integer beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(f"{where}: must be finite")
    if positive and val <= 0:
        raise ConfigError(f"{where}: must be positive")
    return val


def _integer(raw, where: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{where}: expected an integer")
    return raw


def _object(raw, where: str, fields: tuple[str, ...] | None = None) -> dict:
    """raw as an object; given its fields, any other key is rejected."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in raw:
        if fields is not None and key not in fields:
            raise ConfigError(f"{where}.{key}".lstrip(".") + ": unknown field")
    return raw


def _array(raw, where: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{where}: must be finite") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected an array of numbers") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where}: must be finite")
    return arr


def _energy_from(raw: dict, where: str) -> InternalEnergy:
    _object(raw, where, _ENERGY_FIELDS)
    kind = _require(raw, "kind", where + ".")
    if kind == "power":
        m = _number(_require(raw, "m", where + "."), where + ".m")
        if not m > 1:
            raise ConfigError(f"{where}.m: must exceed 1")
        return InternalEnergy.power(m)
    if kind in ("entropy", "zero"):
        if _number(raw.get("m", 1.0), where + ".m") != 1.0:
            raise ConfigError(f"{where}.m: the {kind} energy has fixed exponent m = 1")
        return InternalEnergy(kind=kind)
    raise ConfigError(f"{where}.kind: unknown energy kind {kind!r}")


def parse_config(path: str | Path) -> RunConfig:
    """Load and validate a run configuration."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        # A directory, bytes that are not UTF-8, nesting past the parser's depth.
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config file {path}: {reason}") from exc
    return parse_config_dict(raw)


def parse_config_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _object(raw, "", _ROOT_FIELDS)

    grid_raw = _object(_require(raw, "grid", ""), "grid", ("dim", "n"))
    dim = _integer(_require(grid_raw, "dim", "grid."), "grid.dim")
    n = _integer(_require(grid_raw, "n", "grid."), "grid.n")
    try:
        grid = make_grid(dim, n)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    species_raw = _require(raw, "species", "")
    if not isinstance(species_raw, list) or not species_raw:
        raise ConfigError("species: expected a non-empty list")
    energies = []
    rho0 = []
    for idx, sp in enumerate(species_raw):
        where = f"species[{idx}]"
        _object(sp, where, _SPECIES_FIELDS)
        energies.append(_energy_from(_require(sp, "energy", where + "."), where + ".energy"))
        rho0.append(build_profile(grid, _require(sp, "initial", where + "."), where + ".initial"))
    l = len(energies)

    drift_raw = _object(raw.get("drift", {"mode": "potential"}), "drift", ("mode", "kernels"))
    mode = drift_raw.get("mode", "potential")
    if mode not in ("potential", "velocity"):
        raise ConfigError(f"drift.mode: unknown mode {mode!r}")
    kernels_raw = drift_raw.get("kernels")
    vector = mode == "velocity"
    if kernels_raw is None:
        drift = DriftModel.none(grid, species=l, mode=mode)
    else:
        if not (
            isinstance(kernels_raw, list)
            and len(kernels_raw) == l
            and all(isinstance(row, list) and len(row) == l for row in kernels_raw)
        ):
            raise ConfigError(f"drift.kernels: expected an {l} x {l} matrix of kernel objects")
        tail = ((grid.dim,) + grid.shape) if vector else grid.shape
        kernels = np.zeros((l, l) + tail)
        for i in range(l):
            for j in range(l):
                kernels[i, j] = build_kernel(
                    grid, kernels_raw[i][j], f"drift.kernels[{i}][{j}]", vector
                )
        drift = (DriftModel.velocity if vector else DriftModel.potential)(grid, kernels)

    solver = raw.get("solver", "jko")
    if solver not in ("jko", "parabolic", "both"):
        raise ConfigError(f"solver: expected jko | parabolic | both, got {solver!r}")
    if solver in ("jko", "both") and drift.mode != "potential":
        raise ConfigError("solver: the jko route requires a potential-mode drift")

    horizon = _number(_require(raw, "horizon", ""), "horizon", positive=True)

    jko_raw = _object(raw.get("jko", {}), "jko", ("h", "eps"))
    h = _number(jko_raw.get("h", 1e-3), "jko.h", positive=True)
    # Both solvers build their step times with np.arange (8-byte entries).
    if not horizon / h < np.iinfo(np.intp).max / 8:
        raise ConfigError(
            f"jko.h: horizon / h = {horizon / h:g} steps exceed what an array can hold "
            f"(h = {h:g})"
        )
    jko_eps = _number(jko_raw.get("eps", _default_jko_eps(grid)), "jko.eps", positive=True)
    if solver in ("jko", "both"):
        try:
            _gibbs_axis_cost(grid, h, jko_eps)  # jko_step's own scale check
        except ValueError as exc:
            # The default eps fits the grid's kernel, so only h can refuse it.
            if "eps" in jko_raw:
                raise ConfigError(f"jko.eps: {exc}") from exc
            raise ConfigError(
                f"jko.h: h {h:g} is too large for the default eps (jko.eps is not set): {exc}"
            ) from exc

    out_raw = _object(raw.get("output", {}), "output", ("cadence", "directory"))
    cadence = _integer(out_raw.get("cadence", 1), "output.cadence")
    if cadence < 1:
        raise ConfigError("output.cadence: must be a positive integer")
    directory = out_raw.get("directory")
    # "" would write into the working directory; no filesystem accepts NUL.
    if directory is not None and (
        not isinstance(directory, str) or not directory or "\0" in directory
    ):
        raise ConfigError("output.directory: expected a nonempty string without NUL, or null")

    stab_raw = raw.get("stability")
    if stab_raw is not None:
        _object(stab_raw, "stability", ("initial",))
        init_list = _require(stab_raw, "initial", "stability.")
        if not isinstance(init_list, list) or len(init_list) != l:
            raise ConfigError("stability.initial: needs one profile per species")
        stability_rho0 = tuple(
            build_profile(grid, spec, f"stability.initial[{k}]")
            for k, spec in enumerate(init_list)
        )

    # The finite-volume route, which a stability section also takes,
    # regularizes every energy at EPS_REG; what it refuses is a config error.
    if solver in ("parabolic", "both") or stab_raw is not None:
        for idx, e in enumerate(energies):
            try:
                regularize(e, EPS_REG)
            except ValueError as exc:
                at = "kind" if e.kind == "zero" else "m"
                raise ConfigError(f"species[{idx}].energy.{at}: {exc}") from exc

    # The drift constants of the velocity form are closed-form kernel bounds;
    # they feed meta.json and c_hat.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            load_constants = estimate_constants(drift)
        except ValueError as exc:  # a velocity kernel overflowed
            raise ConfigError(f"drift.kernels: drift bounds are not finite ({exc})") from exc
        bounds = {
            **dataclasses.asdict(load_constants),
            "kernel_sums": _kernel_sums_bound(drift),
        }
    if not all(math.isfinite(b) for b in bounds.values()):
        listed = ", ".join(f"{k} {v:g}" for k, v in bounds.items())
        raise ConfigError(f"drift.kernels: drift bounds are not finite ({listed})")
    # On 2-d grids the stability series' W2 needs the dense Sinkhorn cost,
    # which transport.py caps; say so before any run.  1-d distances are exact
    # and build no cost.
    if grid.dim == 2 and grid.cells > _MAX_COST_CELLS and stab_raw is not None:
        raise ConfigError(
            f"grid.n: {grid.cells} cells exceed the {_MAX_COST_CELLS} cells of the "
            "dense W2 cost needed by a stability section"
        )

    try:
        problem = Problem(grid, energies, drift, rho0, horizon, h)
    except ValueError as exc:
        raise ConfigError(f"species: {exc}") from exc
    stability = None
    if stab_raw is not None:
        try:
            stability = dataclasses.replace(problem, rho0=stability_rho0).rho0
        except ValueError as exc:
            raise ConfigError(f"stability.initial: {exc}") from exc

    resolved = {
        "grid": {"dim": grid.dim, "n": grid.n},
        "species": [
            {
                "energy": {"kind": e.kind, "m": e.m},
                "initial": species_raw[i]["initial"],
            }
            for i, e in enumerate(energies)
        ],
        "drift": {"mode": drift.mode, "kernels": drift_raw.get("kernels")},
        "solver": solver,
        "horizon": horizon,
        "jko": {"h": problem.h, "eps": jko_eps},
        "output": {"cadence": cadence, "directory": directory},
        "stability": stab_raw,
    }

    return RunConfig(
        problem=problem,
        solver=solver,
        jko_eps=jko_eps,
        stability=stability,
        output_cadence=cadence,
        output_directory=directory,
        load_constants=load_constants,
        resolved=resolved,
    )
