"""Command-line front end: run, check, w2.

    torusflow run --config cfg.json [--strict]
    torusflow check --config cfg.json
    torusflow w2 --a states_a.csv --b states_b.csv --time T [--dim D]

w2 distances are exact on 1-d grids and Sinkhorn estimates at eps 1e-4 on
2-d grids.

Each command imports only the modules it runs: w2 loads grid, and energy and
transport once both files' states at the time match; check loads config (with
energy, grid, interaction, jko and transport), not parabolic or diagnostics;
run loads the solvers and diagnostics its route uses.

Outputs of a run (all deterministic; floats printed as 17-significant-digit
lowercase scientific text):

    states.csv   time, species, cell_index, value for the primary solver
    states_parabolic.csv  second state set when solver = both
    ledger.csv   per-step dissipation bookkeeping (minimizing-movement runs)
    series.csv   comparison series (cross-solver L1, stability bound)
    meta.json    resolved config, version, drift constants, ledger slack
                 (when a ledger exists)

Exit codes: 0 success, 1 flagged inequality under --strict, 2 configuration,
input or output error (a config file that cannot be read, parsed or
validated; an unusable output.directory, found by check and by run before
any solve), 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .grid import Density, make_grid, normalize

if TYPE_CHECKING:
    from .config import RunConfig
    from .diagnostics import Ledger, StabilitySeries
    from .jko import Trajectory

__all__ = ["main", "run_command", "emit_outputs", "read_states_csv"]


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def _output_indices(n_times: int, cadence: int) -> list[int]:
    idx = list(range(0, n_times, cadence))
    if idx[-1] != n_times - 1:
        idx.append(n_times - 1)
    return idx


def _line(fields) -> str:
    """One CSV line: the fields as given, joined by commas, in csv.writer's
    line ending."""
    return ",".join(map(str, fields)) + "\r\n"


def _write_csv(path: Path, header: list[str], lines) -> None:
    """Write the header, then lines of CSV text that each end in "\r\n";
    lines may be a generator, so large files stream."""
    with path.open("w", newline="") as fh:
        fh.write(_line(header))
        fh.writelines(lines)


def _state_blocks(traj: Trajectory, cadence: int):
    """One block of CSV text per (time, species): a single %-format of the
    cell-index template, built once, over the block's values; ``%.16e``
    prints exactly what ``_fmt`` does."""
    template = [f"{j},%.16e\r\n" for j in range(traj.states[0][0].values.size)]
    for k in _output_indices(len(traj.times), cadence):
        t = _fmt(traj.times[k])
        for i, rho in enumerate(traj.states[k]):
            head = f"{t},{i},"
            yield (head + head.join(template)) % tuple(rho.values.ravel().tolist())


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


def _record_time(text: str) -> float:
    """A states.csv time: a finite float, so that --time can select it."""
    t = float(text)
    if not math.isfinite(t):
        raise ValueError(f"time {text!r} is not finite")
    return t


_STATES_HEADER = ["time", "species", "cell_index", "value"]
_STATES_KINDS = (_record_time, int, int, float)
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
    """Write the run's files into cfg.output_directory; returns their paths.

    Row fields, the ledger's and series_rows', are written as given, joined
    by commas: each must be a number formatted by _fmt, an int or a string
    that csv.writer would not quote.
    """
    import json

    out = Path(cfg.output_directory)
    out.mkdir(parents=True, exist_ok=True)
    cadence = cfg.output_cadence
    tables = [("states.csv", _STATES_HEADER, _state_blocks(traj, cadence))]
    if extra_traj is not None:
        tables.append(("states_parabolic.csv", _STATES_HEADER, _state_blocks(extra_traj, cadence)))
    if ledger is not None:
        tables.append(("ledger.csv", _LEDGER_HEADER, map(_line, _ledger_rows(ledger))))
    if series_rows:
        tables.append(("series.csv", _SERIES_HEADER, map(_line, series_rows)))
    written: list[Path] = []
    for name, header, lines in tables:
        _write_csv(out / name, header, lines)
        written.append(out / name)

    meta = {
        "package": "torusflow",
        "version": __version__,
        "config": cfg.resolved,
        "constants": constants,
    }
    if ledger is not None:
        meta["slack"] = {"ledger": ledger.slack}
    meta_path = out / "meta.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    written.append(meta_path)
    return written


def _check_output_directory(directory: str) -> None:
    """Raise OSError when directory cannot hold the run's files: when it, or
    else its nearest existing ancestor, is not a directory."""
    path = Path(directory)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, "Not a directory", str(existing))


def _output_error(cfg: RunConfig, exc: OSError) -> int:
    print(f"output error: output.directory {cfg.output_directory!r}: {exc}", file=sys.stderr)
    return 2


def _solve_and_check(cfg: RunConfig):
    """Run the configured solver(s) and diagnostics; returns (primary, extra
    trajectory or None, ledger or None, stability or None, constants, rows)."""
    problem = cfg.problem
    traj_jko = None
    if cfg.solver in ("jko", "both"):
        from .jko import run_jko

        traj_jko = run_jko(problem, eps=cfg.jko_eps)
    wants_par = cfg.solver in ("parabolic", "both")
    stability_runs = traj_par = None
    if cfg.stability is not None:
        from .parabolic import run_parabolic

        # Both stability trajectories march in one lock-step call with one
        # step sequence; the first is also the finite-volume solution when
        # the solver asks for one, so the second run's CFL limits can
        # shorten its steps.
        try:
            stability_runs = run_parabolic(problem, cfg.stability)
        except (RuntimeError, ValueError) as exc:
            raise type(exc)(f"stability run: {exc}") from exc
        traj_par = stability_runs[0] if wants_par else None
    elif wants_par:
        from .parabolic import run_parabolic

        traj_par = run_parabolic(problem)

    ledger = None
    if traj_jko is not None:
        from .diagnostics import energy_ledger

        ledger = energy_ledger(traj_jko, problem)

    series_rows: list[tuple] = []
    if traj_jko is not None and traj_par is not None:
        # Both routes record at the problem's record times, state k of one
        # beside state k of the other; a last JKO step past a horizon that is
        # not a multiple of h has no partner.
        for k, (t_jko, t_par) in enumerate(zip(traj_jko.times, traj_par.times)):
            if abs(t_jko - t_par) > 1e-12:
                continue
            for i in range(problem.species_count):
                l1 = float(
                    np.sum(np.abs(traj_jko.states[k][i].values - traj_par.states[k][i].values))
                    * problem.grid.cell_volume
                )
                series_rows.append(("cross_l1", _fmt(t_jko), i, _fmt(l1), ""))

    constants = dataclasses.asdict(cfg.load_constants)
    stability: StabilitySeries | None = None
    if stability_runs is not None:
        from .diagnostics import stability_compare

        constants["c_hat"] = c_hat = cfg.load_constants.c_hat
        stability = stability_compare(*stability_runs, c_hat=c_hat)
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
        try:
            emit_outputs(
                primary, ledger, cfg, constants, extra_traj=extra, series_rows=series_rows
            )
        except OSError as exc:
            return _output_error(cfg, exc)

    flagged = False
    if ledger is not None and bool(ledger.flags.any()):
        print(
            f"ledger: {int(ledger.flags.sum())} step(s) violate the dissipation "
            f"inequality at slack {ledger.slack:g}",
            file=sys.stderr,
        )
        flagged = True
    if stability is not None and bool(stability.flags.any()):
        print("stability: bound exceeded at some output time", file=sys.stderr)
        flagged = True
    if strict and flagged:
        return 1
    return 0


def _field_error(path: str | Path, line: int, row: dict[str, str]) -> ValueError:
    """The error of the first field of a states.csv row that does not parse."""
    for column, kind in zip(_STATES_HEADER, _STATES_KINDS):
        try:
            kind(row[column])
        except ValueError as exc:
            return ValueError(f"{path}: line {line}: column {column!r}: {exc}")
    raise AssertionError("every field of the row parses")


def read_states_csv(path: str | Path) -> dict[float, list[np.ndarray]]:
    """Parse a states.csv into {time: [per-species flat value arrays]}.

    Each time must list species 0..l-1, each (time, species) block must list
    cells 0..k-1 exactly once, in any order, and all species at one time must
    have the same k; anything else is a ValueError naming the file, time and
    species.  A header without one of the four columns, a row whose field
    count differs from the header's, and a field that does not parse or a
    time that is not finite are ValueErrors naming the file, the line and,
    for a column or a field, the column.
    """
    rows: dict[float, dict[int, dict[int, float]]] = {}
    with Path(path).open() as fh:
        reader = csv.DictReader(fh)
        for column in _STATES_HEADER:
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: line 1: no column {column!r}")
        for row in reader:
            if None in row or None in row.values():  # a surplus or a missing field
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected {len(reader.fieldnames)} fields"
                )
            try:
                t = _record_time(row["time"])
                s = int(row["species"])
                idx = int(row["cell_index"])
                value = float(row["value"])
            except ValueError:
                raise _field_error(path, reader.line_num, row) from None
            cells = rows.setdefault(t, {}).setdefault(s, {})
            if idx in cells:
                raise ValueError(f"{path}: time {t:g}, species {s}: cell {idx} repeated")
            cells[idx] = value
    out: dict[float, list[np.ndarray]] = {}
    for t, per_species in rows.items():
        species = []
        for s in sorted(per_species):
            # Distinct ids within 0..l-1 are all of them; so are distinct cell
            # indices (repeats are rejected on reading) within 0..k-1.
            if not 0 <= s < len(per_species):
                raise ValueError(
                    f"{path}: time {t:g}, species {s}: species ids are not "
                    f"0..{len(per_species) - 1}"
                )
            cells = per_species[s]
            if min(cells) < 0 or max(cells) >= len(cells):
                raise ValueError(
                    f"{path}: time {t:g}, species {s}: cell indices are not "
                    f"0..{len(cells) - 1}"
                )
            if species and len(cells) != species[0].size:
                raise ValueError(
                    f"{path}: time {t:g}, species {s}: {len(cells)} cells, but "
                    f"species 0 has {species[0].size}"
                )
            species.append(np.array([cells[idx] for idx in range(len(cells))]))
        out[t] = species
    return out


def _w2_command(args) -> int:
    try:
        states_a = read_states_csv(args.a)
        states_b = read_states_csv(args.b)
    except (OSError, ValueError) as exc:
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
        print(
            f"species counts differ at time {args.time:g}: {args.a} has {len(sa)}, "
            f"{args.b} has {len(sb)}",
            file=sys.stderr,
        )
        return 2
    cells = sa[0].size
    if sb[0].size != cells:
        print(
            f"cell counts differ at time {args.time:g}: {args.a} has {cells}, "
            f"{args.b} has {sb[0].size}",
            file=sys.stderr,
        )
        return 2
    n = round(cells ** (1.0 / args.dim))
    if n**args.dim != cells:
        print(f"cannot infer a {args.dim}-d grid from {cells} cells", file=sys.stderr)
        return 2
    from .transport import species_w2_sq

    try:
        grid = make_grid(args.dim, n)
        rho_a, rho_b = (
            tuple(normalize(Density(grid, v.reshape(grid.shape))) for v in species)
            for species in (sa, sb)
        )
        w2_sq = species_w2_sq(rho_a, rho_b)
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
    p_w2.add_argument("--dim", type=int, choices=(1, 2), default=1)

    args = parser.parse_args(argv)

    if args.command == "w2":
        return _w2_command(args)

    from .config import ConfigError, parse_config

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if cfg.output_directory is not None:
        try:
            _check_output_directory(cfg.output_directory)
        except OSError as exc:
            return _output_error(cfg, exc)

    if args.command == "check":
        consts = cfg.load_constants
        print(f"config OK; drift bounds: lip_x {consts.lip_x:g}")
        return 0

    return run_command(cfg, strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
