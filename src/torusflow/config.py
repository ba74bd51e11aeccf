"""JSON run configuration: parsing, validation and scenario vocabulary.

A config names the grid, the species (energy kind plus initial profile), the
drift kernels, the solver(s) and their knobs, the horizon and the output
location.  Parsing validates every field with an error naming the offending
path, and runs the hypothesis checks (energy growth, displacement convexity
when a stability comparison is requested, drift constants, the JKO entropic
scale) up front, collecting warnings.

The parsed ``RunConfig`` is the run plan: it carries the run's ``Problem``
(and the stability run's second one) and the exact keyword arguments of
``run_jko``, ``run_parabolic`` and ``stability_compare``, and its
``resolved`` echo is built from those same values.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import default_ledger_slack
from .energy import InternalEnergy, mccann_check, validate_growth
from .grid import Density, Grid, make_grid, minimal_image, normalize
from .interaction import (
    DriftConstants,
    DriftModel,
    cosine_kernel,
    estimate_constants,
    gaussian_bump_kernel,
    zero_kernel,
)
from .jko import Problem
from .transport import _MAX_COST_CELLS, _gibbs_axis_cost

__all__ = ["RunConfig", "ConfigError", "parse_config", "build_profile", "build_kernel"]


class ConfigError(ValueError):
    """Configuration rejected; the message names the failing field."""


def build_profile(grid: Grid, spec: dict) -> Density:
    """Resolve a named initial profile into a normalized density."""
    if not isinstance(spec, dict) or "profile" not in spec:
        raise ConfigError("initial: expected an object with a 'profile' name")
    name = spec["profile"]
    coords = grid.coordinate_grids()
    if name == "uniform":
        vals = np.ones(grid.shape)
    elif name == "cosine":
        amp = _number(spec.get("amplitude", 0.5), "initial.amplitude")
        freq = _integer(spec.get("frequency", 1), "initial.frequency")
        if not (0 <= abs(amp) <= 1):
            raise ConfigError("initial.amplitude: must lie in [-1, 1] for positivity")
        vals = np.ones(grid.shape)
        mode = np.ones(grid.shape)
        for c in coords:
            mode = mode * np.cos(2 * np.pi * freq * c)
        vals = vals + amp * mode
    elif name in ("bump", "two_bumps"):
        def bump(center, width_key, width_default):
            where = f"initial.{width_key}"
            width = _number(spec.get(width_key, width_default), where, positive=True)
            try:
                spread = 2.0 * width**2
            except OverflowError as exc:
                raise ConfigError(f"{where}: too large (its square overflows)") from exc
            try:
                center = np.atleast_1d(np.asarray(center, dtype=float))
            except (TypeError, ValueError) as exc:
                raise ConfigError("initial.center: expected numbers") from exc
            if center.size != grid.dim:
                raise ConfigError("initial.center: needs one coordinate per axis")
            r2 = np.zeros(grid.shape)
            for a, c in enumerate(coords):
                r2 += minimal_image(c - center[a]) ** 2
            return np.exp(-r2 / spread)

        if name == "bump":
            vals = bump(spec.get("center", 0.5), "width", 0.1)
        else:
            first = bump(spec.get("center_a", 0.25), "width_a", 0.05)
            second = bump(spec.get("center_b", 0.75), "width_b", 0.05)
            weight = _number(spec.get("weight", 0.5), "initial.weight")
            if not (0 < weight < 1):
                raise ConfigError("initial.weight: must lie in (0, 1)")
            vals = weight * first + (1.0 - weight) * second
    elif name == "inline":
        vals = _array(spec.get("values"), "initial.values")
        if vals.shape != grid.shape:
            raise ConfigError(
                f"initial.values: shape {vals.shape} does not match grid {grid.shape}"
            )
    else:
        raise ConfigError(f"initial.profile: unknown profile {name!r}")
    try:
        return normalize(Density(grid, vals))
    except ValueError as exc:
        raise ConfigError(f"initial: {exc}") from exc


def build_kernel(grid: Grid, spec: dict, where: str, vector: bool) -> np.ndarray:
    """Resolve one kernel entry; vector entries get one array per axis."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where}: expected an object with a 'kind' name")
    kind = spec["kind"]
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
    elif kind == "inline":
        arr = _array(spec.get("values"), f"{where}.values")
        want = ((grid.dim,) + grid.shape) if vector else grid.shape
        if arr.shape != want:
            raise ConfigError(f"{where}.values: shape {arr.shape}, expected {want}")
        return arr
    else:
        raise ConfigError(f"{where}.kind: unknown kernel {kind!r}")
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
    jko: dict  # run_jko keyword arguments: eps, tol, max_iter, debias
    parabolic: dict  # run_parabolic keyword arguments: eps_reg, cfl_safety
    # The stability run's Problem and stability_compare's eps and margin.
    stability: tuple[Problem, dict] | None
    output_cadence: int
    output_directory: str | None
    ledger_slack: float
    load_constants: DriftConstants  # kernel-based drift bounds from parse time
    warnings: list[str]
    resolved: dict

    @property
    def species_count(self) -> int:
        return self.problem.species_count


def _require(raw: dict, key: str, where: str):
    if key not in raw:
        raise ConfigError(f"{where}{key}: missing required field")
    return raw[key]


def _number(raw, where: str, positive: bool = False) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{where}: expected a number")
    val = float(raw)
    if not math.isfinite(val):
        raise ConfigError(f"{where}: must be finite")
    if positive and val <= 0:
        raise ConfigError(f"{where}: must be positive")
    return val


def _integer(raw, where: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{where}: expected an integer")
    return raw


def _object(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    return raw


def _array(raw, where: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected an array of numbers") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where}: must be finite")
    return arr


def _energy_from(raw: dict, where: str) -> InternalEnergy:
    _object(raw, where)
    kind = _require(raw, "kind", where + ".")
    C = _number(raw.get("C", 10.0), where + ".C", positive=True)
    if kind == "entropy":
        return InternalEnergy.entropy(C=C)
    if kind == "zero":
        return InternalEnergy.zero()
    if kind == "power":
        m = _number(_require(raw, "m", where + "."), where + ".m")
        if not m > 1:
            raise ConfigError(f"{where}.m: must exceed 1")
        return InternalEnergy.power(m, C=C)
    raise ConfigError(f"{where}.kind: unknown energy kind {kind!r}")


def parse_config(path: str | Path) -> RunConfig:
    """Load, validate, and hypothesis-check a run configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config_dict(raw)


def parse_config_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    warnings: list[str] = []

    grid_raw = _object(_require(raw, "grid", ""), "grid")
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
        if not isinstance(sp, dict):
            raise ConfigError(f"{where}: expected an object")
        try:
            energies.append(_energy_from(_require(sp, "energy", where + "."), where + ".energy"))
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{where}.energy: {exc}") from exc
        try:
            rho0.append(build_profile(grid, _require(sp, "initial", where + ".")))
        except ConfigError as exc:
            raise ConfigError(f"{where}.{exc}") from exc
    l = len(energies)

    drift_raw = _object(raw.get("drift", {"mode": "potential"}), "drift")
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
        if mode == "potential":
            shift = drift_raw.get("nonneg_shift")
            drift = DriftModel.potential(
                grid, kernels, None if shift is None else _number(shift, "drift.nonneg_shift")
            )
        else:
            drift = DriftModel.velocity(grid, kernels)

    solver = raw.get("solver", "jko")
    if solver not in ("jko", "parabolic", "both"):
        raise ConfigError(f"solver: expected jko | parabolic | both, got {solver!r}")
    if solver in ("jko", "both") and drift.mode != "potential":
        raise ConfigError("solver: the jko route requires a potential-mode drift")

    horizon = _number(_require(raw, "horizon", ""), "horizon", positive=True)

    jko_raw = _object(raw.get("jko", {}), "jko")
    h = _number(jko_raw.get("h", 1e-3), "jko.h", positive=True)
    jko = {
        "eps": _number(jko_raw.get("eps", 5.0 * grid.dx**2), "jko.eps", positive=True),
        "tol": _number(jko_raw.get("tol", 1e-9), "jko.tol", positive=True),
        "max_iter": _integer(jko_raw.get("max_iter", 20000), "jko.max_iter"),
        "debias": jko_raw.get("debias", True),
    }
    if jko["max_iter"] <= 0:
        raise ConfigError("jko.max_iter: must be positive")
    if not isinstance(jko["debias"], bool):
        raise ConfigError("jko.debias: expected true or false")
    if solver in ("jko", "both"):
        try:
            _gibbs_axis_cost(grid, h, jko["eps"])  # jko_step's own scale check
        except ValueError as exc:
            raise ConfigError(f"jko.eps: {exc}") from exc

    par_raw = _object(raw.get("parabolic", {}), "parabolic")
    eps_reg = _number(par_raw.get("eps_reg", 1e-3), "parabolic.eps_reg", positive=True)
    if not eps_reg < 1:
        raise ConfigError("parabolic.eps_reg: must lie in (0, 1)")
    cfl_safety = _number(par_raw.get("cfl_safety", 0.9), "parabolic.cfl_safety", positive=True)
    if cfl_safety > 1:
        raise ConfigError("parabolic.cfl_safety: must lie in (0, 1]")
    parabolic = {"eps_reg": eps_reg, "cfl_safety": cfl_safety}
    if solver in ("parabolic", "both") and any(e.kind == "zero" for e in energies):
        raise ConfigError(
            "parabolic solver: zero-kind energies cannot be regularized (F'' = 0)"
        )

    out_raw = _object(raw.get("output", {}), "output")
    cadence = _integer(out_raw.get("cadence", 1), "output.cadence")
    if cadence < 1:
        raise ConfigError("output.cadence: must be a positive integer")
    directory = out_raw.get("directory")
    if directory is not None and not isinstance(directory, str):
        raise ConfigError("output.directory: expected a string or null")

    diag_raw = _object(raw.get("diagnostics", {}), "diagnostics")
    ledger_slack_raw = diag_raw.get("ledger_slack")
    if ledger_slack_raw is None:
        ledger_slack = default_ledger_slack(jko["eps"], h, grid.dim)
    else:
        ledger_slack = _number(ledger_slack_raw, "diagnostics.ledger_slack")

    stab_raw = raw.get("stability")
    if stab_raw is not None:
        if not isinstance(stab_raw, dict):
            raise ConfigError("stability: expected an object")
        init_list = _require(stab_raw, "initial", "stability.")
        if not isinstance(init_list, list) or len(init_list) != l:
            raise ConfigError("stability.initial: needs one profile per species")
        stability_rho0 = tuple(build_profile(grid, spec) for spec in init_list)
        compare = {
            "margin": _number(stab_raw.get("margin", 0.2), "stability.margin"),
            "eps": _number(stab_raw.get("w2_eps", 1e-4), "stability.w2_eps", positive=True),
        }

    # Hypothesis checks at load time.  The kernel-based drift constants are
    # cheap; the sampled W2-Lipschitz estimate is deferred to the run.
    with np.errstate(over="ignore", invalid="ignore"):
        load_constants = estimate_constants(drift, pairs=0)
    bounds = {
        "lip_x": load_constants.lip_x,
        "lap_plus": load_constants.lap_plus,
        "nonneg_shift": drift.nonneg_shift,
    }
    if not all(math.isfinite(b) for b in bounds.values()):
        listed = ", ".join(f"{k} {v:g}" for k, v in bounds.items())
        raise ConfigError(f"drift.kernels: drift bounds are not finite ({listed})")
    # The sampled W2 passes (drift constants, stability series) need the
    # dense Sinkhorn cost, which transport.py caps; say so before any run.
    if grid.cells > _MAX_COST_CELLS and (np.any(drift.kernels) or stab_raw is not None):
        raise ConfigError(
            f"grid.n: {grid.cells} cells exceed the {_MAX_COST_CELLS} cells of the "
            "dense W2 cost needed by nonzero drift kernels or a stability section"
        )
    for idx, e in enumerate(energies):
        for msg in validate_growth(e):
            warnings.append(f"species[{idx}].energy: {msg}")
    for idx, e in enumerate(energies):
        if not mccann_check(e, grid.dim):
            msg = (
                f"species[{idx}].energy: fails McCann's displacement-convexity "
                "condition (r -> r^d E(r^-d) convex nonincreasing)"
            )
            if stab_raw is not None:
                raise ConfigError(msg + "; required for stability diagnostics")
            warnings.append(msg)

    try:
        problem = Problem(grid, energies, drift, rho0, horizon, h)
    except ValueError as exc:
        raise ConfigError(f"species: {exc}") from exc
    stability = None
    if stab_raw is not None:
        try:
            stability = (dataclasses.replace(problem, rho0=stability_rho0), compare)
        except ValueError as exc:
            raise ConfigError(f"stability.initial: {exc}") from exc

    resolved = {
        "grid": {"dim": grid.dim, "n": grid.n},
        "species": [
            {
                "energy": {"kind": e.kind, "m": e.m, "C": e.C},
                "initial": species_raw[i]["initial"],
            }
            for i, e in enumerate(energies)
        ],
        "drift": {
            "mode": drift.mode,
            "kernels": drift_raw.get("kernels"),
            "nonneg_shift": drift.nonneg_shift,
        },
        "solver": solver,
        "horizon": horizon,
        "jko": {"h": problem.h, **jko},
        "parabolic": parabolic,
        "output": {"cadence": cadence, "directory": directory},
        "diagnostics": {"ledger_slack": ledger_slack},
        "stability": stab_raw,
    }

    return RunConfig(
        problem=problem,
        solver=solver,
        jko=jko,
        parabolic=parabolic,
        stability=stability,
        output_cadence=cadence,
        output_directory=directory,
        ledger_slack=ledger_slack,
        load_constants=load_constants,
        warnings=warnings,
        resolved=resolved,
    )
