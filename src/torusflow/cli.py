"""Command-line front end: run, check, w2.

    torusflow run --config cfg.json [--strict]
    torusflow check --config cfg.json
    torusflow w2 --a states_a.csv --b states_b.csv --time T --eps E [--dim D]

Outputs of a run (all deterministic; floats printed as 17-significant-digit
lowercase scientific text):

    states.csv   time, species, cell_index, value for the primary solver
    states_parabolic.csv  second state set when solver = both
    ledger.csv   per-step dissipation bookkeeping (minimizing-movement runs)
    series.csv   comparison series (cross-solver L1, stability bound)
    meta.json    resolved config, version, measured constants, slack values

Exit codes: 0 success, 1 flagged inequality under --strict, 2 configuration
or input error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .diagnostics import Ledger, StabilitySeries, energy_ledger, stability_compare
from .grid import Density, make_grid, normalize
from .interaction import as_velocity_model, estimate_constants, stability_constant
from .jko import Trajectory, run_jko
from .parabolic import run_parabolic
from .transport import species_w2_sq

__all__ = ["main", "run_command", "emit_outputs", "read_states_csv"]


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def _output_indices(n_times: int, cadence: int) -> list[int]:
    idx = list(range(0, n_times, cadence))
    if idx[-1] != n_times - 1:
        idx.append(n_times - 1)
    return idx


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write header and rows; rows may be a generator, so large files stream."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _state_rows(traj: Trajectory, cadence: int):
    for k in _output_indices(len(traj.times), cadence):
        t = _fmt(traj.times[k])
        for i, rho in enumerate(traj.states[k]):
            for cell, value in enumerate(rho.values.ravel()):
                yield t, i, cell, _fmt(value)


def _ledger_rows(ledger: Ledger):
    for k in range(len(ledger.w2_sq)):
        yield (
            k,
            _fmt(ledger.times[k + 1]),
            _fmt(ledger.w2_sq[k]),
            _fmt(ledger.energy[k]),
            _fmt(ledger.drift_term[k]),
            _fmt(ledger.entropy[k]),
            _fmt(ledger.sobolev[k]),
            int(ledger.flags[k]),
        )


_STATES_HEADER = ["time", "species", "cell_index", "value"]
_LEDGER_HEADER = ["step", "time", "w2_sq", "energy", "drift_term", "entropy", "sobolev", "flag"]
_SERIES_HEADER = ["series", "time", "species", "value", "bound"]


def emit_outputs(
    traj: Trajectory,
    ledger: Ledger | None,
    cfg: RunConfig,
    constants: dict,
    extra_traj: Trajectory | None = None,
    series_rows: list[tuple] | None = None,
) -> list[Path]:
    """Write the run's files into cfg.output_directory; returns their paths."""
    out = Path(cfg.output_directory)
    out.mkdir(parents=True, exist_ok=True)
    tables = [("states.csv", _STATES_HEADER, _state_rows(traj, cfg.output_cadence))]
    if extra_traj is not None:
        tables.append(
            ("states_parabolic.csv", _STATES_HEADER, _state_rows(extra_traj, cfg.output_cadence))
        )
    if ledger is not None:
        tables.append(("ledger.csv", _LEDGER_HEADER, _ledger_rows(ledger)))
    if series_rows:
        tables.append(("series.csv", _SERIES_HEADER, series_rows))
    written: list[Path] = []
    for name, header, rows in tables:
        _write_csv(out / name, header, rows)
        written.append(out / name)

    meta = {
        "package": "torusflow",
        "version": __version__,
        "config": cfg.resolved,
        "constants": constants,
        "slack": {"ledger": cfg.ledger_slack},
        "warnings": cfg.warnings,
    }
    meta_path = out / "meta.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    written.append(meta_path)
    return written


def _shared_time_indices(a: Trajectory, b: Trajectory) -> list[tuple[int, int]]:
    pairs = []
    jb = {round(float(t) / 1e-12): k for k, t in enumerate(b.times)}
    for ka, t in enumerate(a.times):
        key = round(float(t) / 1e-12)
        if key in jb:
            pairs.append((ka, jb[key]))
    return pairs


def _solve_and_check(cfg: RunConfig):
    """Run the configured solver(s) and diagnostics; returns (primary, extra
    trajectory or None, ledger or None, stability or None, constants, rows)."""
    problem = cfg.problem
    traj_jko = run_jko(problem, **cfg.jko) if cfg.solver in ("jko", "both") else None
    traj_par = (
        run_parabolic(problem, **cfg.parabolic) if cfg.solver in ("parabolic", "both") else None
    )

    ledger = None
    if traj_jko is not None:
        ledger = energy_ledger(traj_jko, problem, slack=cfg.ledger_slack)

    series_rows: list[tuple] = []
    if traj_jko is not None and traj_par is not None:
        for ka, kb in _shared_time_indices(traj_jko, traj_par):
            for i in range(problem.species_count):
                l1 = float(
                    np.sum(
                        np.abs(
                            traj_jko.states[ka][i].values - traj_par.states[kb][i].values
                        )
                    )
                    * problem.grid.cell_volume
                )
                series_rows.append(
                    ("cross_l1", _fmt(traj_jko.times[ka]), i, _fmt(l1), "")
                )

    # One sampled pass, on the velocity-kernel form, feeds meta's lip_w2 and
    # c_hat; the kernel bounds were computed when the config loaded.
    sampled = estimate_constants(as_velocity_model(problem.drift))
    constants = {
        "lip_x": cfg.load_constants.lip_x,
        "lip_w2": sampled.lip_w2,
        "lap_plus": cfg.load_constants.lap_plus,
    }

    stability: StabilitySeries | None = None
    if cfg.stability is not None:
        problem_b, compare = cfg.stability
        stab_a = traj_par or run_parabolic(problem, **cfg.parabolic)
        stab_b = run_parabolic(problem_b, **cfg.parabolic)
        constants["c_hat"] = c_hat = stability_constant(sampled)
        stability = stability_compare(stab_a, stab_b, c_hat=c_hat, **compare)
        for k, t in enumerate(stability.times):
            series_rows.append(
                (
                    "stability_w2_sum",
                    _fmt(t),
                    "",
                    _fmt(stability.w2_sums[k]),
                    _fmt(stability.bounds[k]),
                )
            )

    primary = traj_jko if traj_jko is not None else traj_par
    extra = traj_par if traj_jko is not None else None
    return primary, extra, ledger, stability, constants, series_rows


def run_command(cfg: RunConfig, strict: bool = False) -> int:
    """Execute the configured solver(s); returns the process exit status."""
    try:
        primary, extra, ledger, stability, constants, series_rows = _solve_and_check(cfg)
    except (RuntimeError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3

    if cfg.output_directory is not None:
        emit_outputs(
            primary, ledger, cfg, constants, extra_traj=extra, series_rows=series_rows
        )

    flagged = False
    if ledger is not None and bool(ledger.flags.any()):
        print(
            f"ledger: {int(ledger.flags.sum())} step(s) violate the dissipation "
            f"inequality at slack {cfg.ledger_slack:g}",
            file=sys.stderr,
        )
        flagged = True
    if stability is not None and bool(stability.flags.any()):
        print("stability: bound exceeded at some output time", file=sys.stderr)
        flagged = True
    if strict and flagged:
        return 1
    return 0


def read_states_csv(path: str | Path) -> dict[float, list[np.ndarray]]:
    """Parse a states.csv into {time: [per-species flat value arrays]}."""
    rows: dict[float, dict[int, dict[int, float]]] = {}
    with Path(path).open() as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            t = float(row["time"])
            s = int(row["species"])
            rows.setdefault(t, {}).setdefault(s, {})[int(row["cell_index"])] = float(
                row["value"]
            )
    out: dict[float, list[np.ndarray]] = {}
    for t, per_species in rows.items():
        species = []
        for s in sorted(per_species):
            cells = per_species[s]
            arr = np.zeros(len(cells))
            for idx, val in cells.items():
                arr[idx] = val
            species.append(arr)
        out[t] = species
    return out


def _w2_command(args) -> int:
    try:
        states_a = read_states_csv(args.a)
        states_b = read_states_csv(args.b)
    except (OSError, KeyError, ValueError) as exc:
        print(f"failed to read states: {exc}", file=sys.stderr)
        return 2

    def pick(states: dict[float, list[np.ndarray]], label: str):
        for t in states:
            if abs(t - args.time) <= 1e-9:
                return states[t]
        avail = ", ".join(f"{t:g}" for t in sorted(states))
        print(f"time {args.time:g} not recorded in {label}; available: {avail}", file=sys.stderr)
        return None

    sa = pick(states_a, args.a)
    sb = pick(states_b, args.b)
    if sa is None or sb is None:
        return 2
    if len(sa) != len(sb):
        print("species counts differ between the two files", file=sys.stderr)
        return 2
    cells = sa[0].size
    n = round(cells ** (1.0 / args.dim))
    if n**args.dim != cells:
        print(f"cannot infer a {args.dim}-d grid from {cells} cells", file=sys.stderr)
        return 2
    try:
        grid = make_grid(args.dim, n)
        rho_a, rho_b = (
            tuple(normalize(Density(grid, v.reshape(grid.shape))) for v in species)
            for species in (sa, sb)
        )
        w2_sq = species_w2_sq(rho_a, rho_b, eps=args.eps, tol=args.tol)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    for i, value in enumerate(w2_sq):
        print(f"species {i} w2_sq {_fmt(value)}")
    print(f"total w2_sq {_fmt(np.sum(w2_sq))}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="torusflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the configured solver(s)")
    p_run.add_argument("--config", required=True)
    p_run.add_argument(
        "--strict", action="store_true", help="nonzero exit on any flagged inequality"
    )

    p_check = sub.add_parser("check", help="validate a config without running")
    p_check.add_argument("--config", required=True)

    p_w2 = sub.add_parser("w2", help="distance between two recorded states")
    p_w2.add_argument("--a", required=True)
    p_w2.add_argument("--b", required=True)
    p_w2.add_argument("--time", type=float, required=True)
    p_w2.add_argument("--eps", type=float, default=1e-4)
    p_w2.add_argument("--tol", type=float, default=1e-9)
    p_w2.add_argument("--dim", type=int, default=1)

    args = parser.parse_args(argv)

    if args.command == "w2":
        return _w2_command(args)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    for msg in cfg.warnings:
        print(f"warning: {msg}", file=sys.stderr)

    if args.command == "check":
        consts = cfg.load_constants
        print(
            f"config OK ({len(cfg.warnings)} warning(s)); "
            f"drift bounds: lip_x {consts.lip_x:g}, lap_plus {consts.lap_plus:g}"
        )
        return 0

    return run_command(cfg, strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
