"""Workload generators and output checks for the torusflow benchmark.

Each generator turns a seed into the files one workload command reads and
the command lines that run it.  The program only ever sees those files.
Seed 0 of ``heat1d`` and ``stability1d`` is the shipped config unchanged, so
their outputs can be compared with the tracked ``out/`` artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("heat1d", "stability1d", "pme2d", "w2_2d")

# Tolerances of the output checks.
MASS_TOL = 1e-12
SUM_TOL = 1e-12


@dataclass
class Workload:
    """Inputs, command lines and expectations of one seeded workload."""

    name: str
    files: dict[str, bytes]  # input file name -> content, written to the run dir
    command: list[str]  # torusflow CLI arguments of the timed command
    setup: list[str]  # torusflow CLI arguments of the set-up command
    setup_status: int  # expected exit status of the set-up command
    outputs: list[str] = field(default_factory=list)  # files the command writes
    reference: str | None = None  # tracked out/ directory the outputs must equal


def _config_bytes(cfg: dict) -> bytes:
    return (json.dumps(cfg, indent=2) + "\n").encode()


def _shipped(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / name).read_text())


def _run_outputs(cfg: dict) -> list[str]:
    directory = cfg["output"]["directory"]
    names = ["states.csv", "meta.json"]
    if cfg.get("solver", "jko") == "both":
        names.append("states_parabolic.csv")
    if cfg.get("solver", "jko") in ("jko", "both"):
        names.append("ledger.csv")
    if cfg.get("solver", "jko") == "both" or cfg.get("stability") is not None:
        names.append("series.csv")
    return [f"{directory}/{n}" for n in sorted(names)]


def _run_workload(name: str, cfg: dict, strict: bool, reference: str | None) -> Workload:
    command = ["run", "--config", "{dir}/config.json"] + (["--strict"] if strict else [])
    return Workload(
        name=name,
        files={"config.json": _config_bytes(cfg)},
        command=command,
        setup=["check", "--config", "{dir}/config.json"],
        setup_status=0,
        outputs=_run_outputs(cfg),
        reference=reference,
    )


def heat1d(seed: int, root: Path) -> Workload:
    """configs/heat.json with a seeded cosine amplitude and frequency."""
    cfg = _shipped(root, "heat.json")
    if seed:
        rng = np.random.default_rng(seed)
        initial = cfg["species"][0]["initial"]
        initial["amplitude"] = round(float(rng.uniform(0.35, 0.6)), 4)
        initial["frequency"] = int(rng.choice([1, 2]))
    return _run_workload("heat1d", cfg, strict=True, reference="heat" if seed == 0 else None)


def stability1d(seed: int, root: Path) -> Workload:
    """configs/two_species_stability.json with seeded offsets of the second
    trajectory's profiles (cosine amplitude, bump centres)."""
    cfg = _shipped(root, "two_species_stability.json")
    if seed:
        rng = np.random.default_rng(seed)
        first, second = cfg["stability"]["initial"]
        base_cos, base_bumps = cfg["species"][0]["initial"], cfg["species"][1]["initial"]
        first["amplitude"] = round(base_cos["amplitude"] - float(rng.uniform(0.03, 0.07)), 4)
        for key in ("center_a", "center_b"):
            second[key] = round(base_bumps[key] + float(rng.uniform(0.01, 0.03)), 4)
    return _run_workload(
        "stability1d", cfg, strict=True, reference="stability" if seed == 0 else None
    )


def pme2d(seed: int, root: Path) -> Workload:
    """Two porous-medium species on a 2-d n = 48 grid, no drift, both solvers.

    Runs without --strict: multi-species JKO runs flag ledger steps, and the
    flags are reported as a number.
    """
    center, width, amplitude = [0.5, 0.5], 0.3, 0.4
    if seed:
        rng = np.random.default_rng(seed)
        center = [round(float(c), 4) for c in rng.uniform(0.0, 1.0, 2)]
        width = round(float(rng.uniform(0.27, 0.33)), 4)
        amplitude = round(float(rng.uniform(0.35, 0.45)), 4)
    cfg = {
        "grid": {"dim": 2, "n": 48},
        "species": [
            {
                "energy": {"kind": "power", "m": 2.0},
                "initial": {"profile": "bump", "center": center, "width": width},
            },
            {
                "energy": {"kind": "power", "m": 1.5},
                "initial": {"profile": "cosine", "amplitude": amplitude, "frequency": 1},
            },
        ],
        "solver": "both",
        "horizon": 0.02,
        "jko": {"h": 2e-3},
        "output": {"cadence": 1, "directory": "out/pme2d"},
    }
    return _run_workload("pme2d", cfg, strict=False, reference=None)


# w2_2d: fixed two_bumps pairs (centre_a, centre_b, width_a, width_b, weight)
# per species for file a and file b, on a 2-d n = 16 grid.
_W2_N = 16
_W2_TIME = 0.05
_W2_PAIRS = (
    ((0.25, 0.5), (0.75, 0.5), 0.08, 0.1, 0.5),
    ((0.3, 0.55), (0.7, 0.45), 0.08, 0.1, 0.5),
), (
    ((0.3, 0.3), (0.7, 0.6), 0.1, 0.12, 0.4),
    ((0.35, 0.25), (0.65, 0.7), 0.1, 0.12, 0.6),
)


def _two_bumps(n: int, center_a, center_b, width_a, width_b, weight) -> np.ndarray:
    x = (np.arange(n) + 0.5) / n
    coords = np.meshgrid(x, x, indexing="ij")

    def bump(center, width):
        r2 = sum((c - c0 - np.round(c - c0)) ** 2 for c, c0 in zip(coords, center))
        return np.exp(-r2 / (2.0 * width**2))

    vals = weight * bump(center_a, width_a) + (1.0 - weight) * bump(center_b, width_b)
    return vals / (vals.sum() / n**2)


def _isometry(seed: int):
    """A torus isometry of the n x n cell lattice: translation, transpose and
    reflections.  Seed 0 is the identity."""
    if seed == 0:
        return lambda a: a
    rng = np.random.default_rng(seed)
    shift = tuple(int(s) for s in rng.integers(0, _W2_N, 2))
    transpose, flip_x, flip_y = (bool(b) for b in rng.integers(0, 2, 3))

    def apply(a: np.ndarray) -> np.ndarray:
        a = np.roll(a, shift, axis=(0, 1))
        if transpose:
            a = a.T
        if flip_x:
            a = a[::-1, :]
        if flip_y:
            a = a[:, ::-1]
        return a

    return apply


def _states_csv(time: float, species: list[np.ndarray]) -> bytes:
    lines = ["time,species,cell_index,value"]
    for i, vals in enumerate(species):
        for cell, v in enumerate(vals.ravel()):
            lines.append(f"{time:.16e},{i},{cell},{float(v):.16e}")
    return ("\r\n".join(lines) + "\r\n").encode()


def w2_2d(seed: int, root: Path) -> Workload:
    """`torusflow w2 --dim 2` between two generated two-species states files.

    The seed draws one torus isometry of the lattice and applies it to every
    profile.  Transport cost is invariant under it, so the seed changes the
    files and the cell order the solver sees but not the amount of work.
    """
    iso = _isometry(seed)
    files = {}
    for label, side in (("a", 0), ("b", 1)):
        species = [iso(_two_bumps(_W2_N, *pair[side])) for pair in _W2_PAIRS]
        files[f"states_{label}.csv"] = _states_csv(_W2_TIME, species)
    args = ["w2", "--a", "{dir}/states_a.csv", "--b", "{dir}/states_b.csv", "--dim", "2"]
    return Workload(
        name="w2_2d",
        files=files,
        command=args + ["--time", repr(_W2_TIME)],
        # A time absent from both files: reads both CSVs, exits 2 before transport.
        setup=args + ["--time", "1.0"],
        setup_status=2,
    )


GENERATORS = {"heat1d": heat1d, "stability1d": stability1d, "pme2d": pme2d, "w2_2d": w2_2d}


def generate(name: str, seed: int, root: Path) -> Workload:
    return GENERATORS[name](seed, root)


def self_check(name: str, seed: int, root: Path) -> list[str]:
    """Generators are deterministic per seed; seed 0 is the shipped config."""
    problems = []
    first, second = generate(name, seed, root), generate(name, seed, root)
    if first.files != second.files or first.command != second.command:
        problems.append(f"{name}: generator is not deterministic for seed {seed}")
    shipped = {"heat1d": "heat.json", "stability1d": "two_species_stability.json"}
    if name in shipped:
        zero = json.loads(generate(name, 0, root).files["config.json"])
        if zero != _shipped(root, shipped[name]):
            problems.append(f"{name}: seed 0 does not reproduce configs/{shipped[name]}")
    return problems


# ---------------------------------------------------------------- checks


def digests(directory: Path, names: list[str]) -> dict[str, str]:
    out = {}
    for n in names:
        path = directory / n
        out[n] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""
    return out


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _states(path: Path) -> dict[float, dict[int, np.ndarray]]:
    """{time: {species: values in cell order}} of a states CSV."""
    out: dict[float, dict[int, list]] = {}
    for row in _read_rows(path):
        cells = out.setdefault(float(row["time"]), {}).setdefault(int(row["species"]), [])
        if int(row["cell_index"]) != len(cells):
            raise ValueError(f"{path.name}: cells out of order")
        cells.append(float(row["value"]))
    return {t: {s: np.asarray(v) for s, v in sp.items()} for t, sp in out.items()}


def check_states(path: Path) -> list[str]:
    """Every recorded state has unit mass within MASS_TOL and is nonnegative."""
    problems = []
    for t, per_species in _states(path).items():
        for s, vals in per_species.items():
            mass = float(np.sum(vals)) / vals.size
            if not abs(mass - 1.0) <= MASS_TOL:
                problems.append(f"{path.name}: t={t:g} species {s} mass {mass!r}")
            if not np.all(vals >= 0.0):
                problems.append(f"{path.name}: t={t:g} species {s} has negative values")
    return problems


def check_w2_stdout(text: str) -> list[str]:
    """Finite nonnegative per-species values that sum to the printed total."""
    species, total = [], None
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "species" and parts[2] == "w2_sq":
            species.append(float(parts[3]))
        elif len(parts) == 3 and parts[:2] == ["total", "w2_sq"]:
            total = float(parts[2])
    if len(species) != 2 or total is None:
        return [f"w2: expected 2 species lines and a total, got {text!r}"]
    if not all(math.isfinite(v) and v >= 0.0 for v in species + [total]):
        return [f"w2: values not finite and nonnegative: {species}, {total}"]
    if abs(sum(species) - total) > SUM_TOL * max(1.0, abs(total)):
        return [f"w2: species values {species} do not sum to total {total}"]
    return []


def _mode_amplitude(values: np.ndarray, frequency: int) -> float:
    return 2.0 * float(np.abs(np.fft.fft(values)[frequency])) / values.size


def _oracle_err(path: Path, cfg: dict) -> float:
    """|final cosine-mode amplitude / (a e^(-4 pi^2 f^2 T)) - 1| (dim 1)."""
    initial = cfg["species"][0]["initial"]
    a, f = initial["amplitude"], initial.get("frequency", 1)
    states = _states(path)
    t_final = max(states)
    target = a * math.exp(-4.0 * math.pi**2 * f**2 * t_final)
    return abs(_mode_amplitude(states[t_final][0], f) / target - 1.0)


def quality(work: Workload, out_dir: Path) -> dict[str, float]:
    """Numbers the program's outputs carry about its own accuracy."""
    if work.name == "w2_2d":
        return {}
    cfg = json.loads(work.files["config.json"])
    result_dir = out_dir / cfg["output"]["directory"]
    metrics: dict[str, float] = {}
    if work.name == "heat1d":
        metrics["oracle_err_jko"] = _oracle_err(result_dir / "states.csv", cfg)
        metrics["oracle_err_fv"] = _oracle_err(result_dir / "states_parabolic.csv", cfg)
    series = _read_rows(result_dir / "series.csv")
    if cfg.get("solver") == "both":
        t_final = max(float(r["time"]) for r in series if r["series"] == "cross_l1")
        metrics["cross_l1_final"] = sum(
            float(r["value"])
            for r in series
            if r["series"] == "cross_l1" and float(r["time"]) == t_final
        )
        ledger = _read_rows(result_dir / "ledger.csv")
        metrics["ledger_flagged_steps"] = float(sum(int(r["flag"]) for r in ledger))
    if cfg.get("stability") is not None:
        metrics["stability_flagged_times"] = float(
            sum(
                float(r["value"]) > float(r["bound"])
                for r in series
                if r["series"] == "stability_w2_sum"
            )
        )
    return metrics


def check_outputs(work: Workload, out_dir: Path, stdout: str) -> list[str]:
    """Content checks of one command's outputs."""
    if work.name == "w2_2d":
        return check_w2_stdout(stdout)
    problems = []
    for name in work.outputs:
        if not (out_dir / name).is_file():
            problems.append(f"missing output {name}")
    if problems:
        return problems
    for name in work.outputs:
        if Path(name).name.startswith("states"):
            problems += check_states(out_dir / name)
    return problems
