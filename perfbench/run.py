"""torusflow benchmark: time one seeded workload from outside the process.

    python3 perfbench/run.py --workload heat1d --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each invocation

1. generates the workload's inputs from the seed (perfbench/workloads.py)
   and checks that the generator is deterministic;
2. runs the set-up command once as a discarded warm-up (it imports the whole
   package, compiles the bytecode and fills the file cache);
3. runs the workload command, one process at a time, until the next run
   would take the measured time past ``--seconds``, and checks every run's
   outputs;  SETUP_REPEATS set-up runs for ``setup_s`` go one before each
   workload run, and any left over after the last;
4. with ``--trace 1``, runs the command once more under perfbench/tracer.py,
   checks that its outputs are byte-identical, and reports per-layer
   metrics instead of end-to-end ones.

Scratch files live under ``.bench_work/`` in the checkout and are removed,
except the span file of the last traced run.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a report with sample counts, tail
percentiles, output-quality numbers and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 21  # enough for a tail percentile (11 or more samples)
DEADLINE_S = 170.0  # every child is killed by then, so the run exits within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "config.parse_config.s": "s",
    "interaction.estimate_constants.calls": "count",
    "interaction.estimate_constants.s": "s",
    "interaction.stability_constant.calls": "count",
    "interaction.stability_constant.s": "s",
    "interaction.potential_from_kernel.calls": "count",
    "interaction.potential_from_kernel.s": "s",
    "interaction.velocity_field.calls": "count",
    "interaction.velocity_field.s": "s",
    "transport.cost_matrix.calls": "count",
    "transport.cost_matrix.s": "s",
    "transport.jko_step.calls": "count",
    "transport.jko_step.s": "s",
    "transport.jko_step.self_s": "s",
    "transport.jko_step.iters": "count",
    "transport.jko_step.marginal_err_max": "mass",
    "transport.sinkhorn_w2.calls": "count",
    "transport.sinkhorn_w2.s": "s",
    "transport.sinkhorn_w2.iters": "count",
    "transport.sinkhorn_w2.unconverged": "count",
    "transport.kernel_bytes_computed": "B",
    "energy.kl_prox.entropy.calls": "count",
    "energy.kl_prox.entropy.s": "s",
    "energy.kl_prox.power.calls": "count",
    "energy.kl_prox.power.s": "s",
    "jko.run.s": "s",
    "jko.run.self_s": "s",
    "jko.steps": "count",
    "parabolic.run_parabolic.s": "s",
    "parabolic.run_parabolic.self_s": "s",
    "parabolic.parabolic_step.calls": "count",
    "parabolic.parabolic_step.s": "s",
    "parabolic.cfl_bound.calls": "count",
    "parabolic.cfl_bound.s": "s",
    "diagnostics.energy_ledger.s": "s",
    "diagnostics.stability_compare.s": "s",
    "diagnostics.stability_compare.self_s": "s",
    "cli.emit_outputs.s": "s",
    "cli.emit_outputs.bytes": "B",
    "cli.read_states_csv.s": "s",
    "cli.read_states_csv.bytes": "B",
    "trace.overhead_s": "s",
    "check.failed_frac": "ratio",
    "check.oracle_err_jko": "ratio",
    "check.oracle_err_fv": "ratio",
    "check.cross_l1_final": "mass",
    "check.ledger_flagged_steps": "count",
    "check.stability_flagged_times": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------- processes


@dataclass
class Sample:
    wall: float  # seconds
    rss_mb: float  # peak resident set of the child
    status: int | None  # exit status; None when killed by a signal
    cwd: Path


def run_child(argv: list[str], cwd: Path, env: dict, deadline: float) -> Sample:
    """Run argv to completion; wall time, peak RSS and exit status.

    Standard output and error go to files in cwd.  A watchdog kills the child
    at the deadline; the child is always reaped before returning.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    with (cwd / "stdout.txt").open("wb") as out, (cwd / "stderr.txt").open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, raw_status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    status = os.waitstatus_to_exitcode(raw_status)
    proc.returncode = status
    return Sample(wall, usage.ru_maxrss / 1024.0, status if status >= 0 else None, cwd)


def child_env() -> tuple[dict, int]:
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, threads


def environment(threads: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


# ---------------------------------------------------------------- metrics


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": sorted(values)[n - 11]}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Aggregate spans into calls, inclusive and self seconds, and counts."""
    dur = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            covered[span[3]] += dur[i]
    agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (label, _, _, parent, counts) in enumerate(spans):
        a = agg[label]
        a["calls"] += 1
        a["self_s"] += dur[i] - covered[i]
        while parent >= 0 and spans[parent][0] != label:
            parent = spans[parent][3]
        if parent < 0:  # outermost span of its label
            a["s"] += dur[i]
        for key, value in (counts or {}).items():
            if key == "marginal_err":
                a["marginal_err_max"] = max(a["marginal_err_max"], value)
            elif key == "converged":
                a["unconverged"] += not value
            elif key == "cells":
                matvecs = 3 if label == "transport.jko_step" else 2
                a["kernel_bytes"] += 8.0 * value**2 * matvecs * counts["iters"]
            else:
                a[key] += value

    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name.startswith(("trace.", "check.")):
            continue
        if name == "transport.kernel_bytes_computed":
            out[name] = sum(
                agg[k]["kernel_bytes"] for k in ("transport.jko_step", "transport.sinkhorn_w2")
            )
        elif name == "jko.steps":
            out[name] = agg["jko.run"]["steps"]
        else:
            label, key = name.rsplit(".", 1)
            out[name] = float(agg[label][key]) if label in agg else 0.0
    return out


# ---------------------------------------------------------------- benchmark


class Bench:
    def __init__(self, work: wl.Workload, run_dir: Path, env: dict, deadline: float):
        self.work, self.run_dir, self.env, self.deadline = work, run_dir, env, deadline
        self.attempted = 0
        self.failed = 0
        self.runs = 0  # workload commands, the traced run included; no set-up
        self.runs_failed = 0
        self.problems: list[str] = []
        self.first_digests: dict[str, str] | None = None
        self.quality: dict[str, float] | None = None  # None: no run passed the content checks
        self._count = 0

    def argv(self, args: list[str]) -> list[str]:
        return [a.replace("{dir}", str(self.run_dir)) for a in args]

    def run(self, prefix: list[str], args: list[str]) -> Sample:
        self._count += 1
        cwd = self.run_dir / f"c{self._count}"
        return run_child(prefix + self.argv(args), cwd, self.env, self.deadline)

    def setup(self) -> Sample:
        sample = self.run([sys.executable, "-m", "torusflow.cli"], self.work.setup)
        self.expect(sample, self.work.setup_status, "set-up")
        shutil.rmtree(sample.cwd)
        return sample

    def expect(self, sample: Sample, status: int, what: str) -> bool:
        self.attempted += 1
        if sample.status == status:
            return True
        err = (sample.cwd / "stderr.txt").read_text(errors="replace").strip()[-500:]
        self.problems.append(f"{what}: exit status {sample.status}, expected {status}: {err}")
        self.failed += 1
        return False

    def command(self, prefix: list[str], what: str) -> Sample:
        """Run the workload command once and check its outputs."""
        sample = self.run(prefix, self.work.command)
        self.runs += 1
        failed_before = self.failed
        if self.expect(sample, 0, what):
            names = self.work.outputs or ["stdout.txt"]
            got = wl.digests(sample.cwd, names)
            if self.first_digests is None:
                try:
                    problems = wl.check_outputs(
                        self.work, sample.cwd, (sample.cwd / "stdout.txt").read_text()
                    )
                    if not problems:
                        self.quality = wl.quality(self.work, sample.cwd)
                    problems += self.reference_mismatch(got)
                except (ValueError, KeyError) as exc:  # malformed program output
                    problems = [f"unreadable output: {exc!r}"]
                self.first_digests = got
            else:
                problems = [
                    f"{n} differs from the first run"
                    for n in names
                    if got[n] != self.first_digests[n]
                ]
            if problems:
                self.problems += [f"{what}: {p}" for p in problems]
                self.failed += 1
        self.runs_failed += self.failed > failed_before
        shutil.rmtree(sample.cwd)
        return sample

    def reference_mismatch(self, got: dict[str, str]) -> list[str]:
        """At seed 0 the outputs equal the tracked out/ artifacts byte for byte."""
        if self.work.reference is None:
            return []
        want = wl.digests(ROOT, self.work.outputs)
        return [f"{n} differs from the tracked artifact" for n in got if got[n] != want[n]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "torusflow" / "cli.py").is_file():
        raise BenchError(f"no torusflow sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = wl.self_check(args.workload, args.seed, ROOT)
    if problems:
        raise BenchError("; ".join(problems))
    work = wl.generate(args.workload, args.seed, ROOT)
    if work.reference is not None and not (ROOT / "out" / work.reference).is_dir():
        raise BenchError(f"no tracked reference outputs under out/{work.reference}")
    env, threads = child_env()

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR))
    try:
        for name, content in work.files.items():
            (run_dir / name).write_bytes(content)
        bench = Bench(work, run_dir, env, started + DEADLINE_S)

        bench.setup()  # warm-up, discarded
        # Set-up samples are taken between the workload runs, so that they see
        # the same machine load as the runs do.
        setup: list[float] = []
        plain = [sys.executable, "-m", "torusflow.cli"]
        samples: list[Sample] = []
        while True:
            if len(setup) < SETUP_REPEATS:
                setup.append(bench.setup().wall)
            samples.append(bench.command(plain, f"run {len(samples) + 1}"))
            measured = sum(s.wall for s in samples)
            typical = statistics.median(s.wall for s in samples)
            if measured + typical > args.seconds or time.monotonic() + typical > bench.deadline:
                break
        while len(setup) < SETUP_REPEATS:
            setup.append(bench.setup().wall)

        walls = [s.wall for s in samples]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        }
        if args.trace:
            spans_path = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
            spans_path.parent.mkdir(exist_ok=True)
            spans_path.unlink(missing_ok=True)
            tracer = [sys.executable, str(Path(__file__).parent / "tracer.py"), str(spans_path)]
            traced = bench.command(tracer, "traced run")
            spans = json.loads(spans_path.read_text())["spans"] if spans_path.is_file() else []
            layers = layer_metrics(spans)  # a failed traced run counts in failed
            layers["trace.overhead_s"] = traced.wall - metrics["wall_s"]
            layers["check.failed_frac"] = bench.runs_failed / bench.runs
            if bench.quality is None:  # a 0 would read as perfect accuracy
                raise BenchError("no run passed the output checks: " + "; ".join(bench.problems))
            for key in ("oracle_err_jko", "oracle_err_fv", "cross_l1_final",
                        "ledger_flagged_steps", "stability_flagged_times"):
                layers[f"check.{key}"] = bench.quality.get(key, 0.0)
            metrics, units = layers, PER_LAYER
        else:
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if wanted != units or set(metrics) != set(units):
        raise BenchError("printed metrics do not match BENCHMARK.json")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {"wall_s": len(walls), "setup_s": len(setup)},
        "tail": {"wall_s": tail(walls), "setup_s": tail(setup)},
        "walls": walls,
        "setup_walls": setup,
        "failed_frac": bench.runs_failed / bench.runs,
        "quality": bench.quality,
        "problems": bench.problems,
        "environment": environment(threads),
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
