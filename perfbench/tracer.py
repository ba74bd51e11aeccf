"""Run one torusflow CLI command with spans around each layer's public calls.

    python3 perfbench/tracer.py SPANS.json <torusflow CLI arguments...>

Every public function (listed in ``__all__``) of the wrapped modules is
replaced, wherever a module binds it, by a wrapper that records a span:
label, start, end, parent span and a few counts taken from the arguments or
the result.  ``grid`` is left unwrapped: its helpers are per-step
micro-calls, and a wrapper would cost more than their work.  Spans stay in
memory and are written to SPANS.json when the command returns; the exit
status is the command's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("config", "interaction", "transport", "energy", "jko", "parabolic", "diagnostics", "cli")


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _transport_counts(res, cells):
    return {
        "iters": res.iterations,
        "marginal_err": res.plan_marginal_err,
        "converged": bool(res.converged),
        "cells": cells,
    }


def _jko_step(args, kwargs, result):
    rho, res = result
    return "", _transport_counts(res, rho.grid.cells)


def _sinkhorn_w2(args, kwargs, result):
    return "", _transport_counts(result, _first(args, kwargs, "mu").grid.cells)


def _kl_prox(args, kwargs, result):
    return "." + _first(args, kwargs, "energy").kind, None


def _emit_outputs(args, kwargs, result):
    return "", {"bytes": sum(Path(p).stat().st_size for p in result)}


def _read_states_csv(args, kwargs, result):
    return "", {"bytes": Path(_first(args, kwargs, "path")).stat().st_size}


def _jko_run(args, kwargs, result):
    return "", {"steps": len(result.times) - 1}


# label -> function(args, kwargs, result) giving (label suffix, counts)
DETAILS = {
    "transport.jko_step": _jko_step,
    "transport.sinkhorn_w2": _sinkhorn_w2,
    "energy.kl_prox": _kl_prox,
    "cli.emit_outputs": _emit_outputs,
    "cli.read_states_csv": _read_states_csv,
    "jko.run_jko": _jko_run,
    "jko.run_jko_system": _jko_run,
}
# Both JKO entry points report as one layer span.
RENAME = {"jko.run_jko": "jko.run", "jko.run_jko_system": "jko.run"}


class Tracer:
    """Collects spans as [label, start, end, parent index, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, label: str, fn):
        detail = DETAILS.get(label)
        name = RENAME.get(label, label)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if detail is not None:
                suffix, span[4] = detail(args, kwargs, result)
                span[0] = name + suffix
            return result

        return wrapper

    def install(self) -> None:
        """Wrap each layer's public functions in every module that binds them."""
        modules = [importlib.import_module(f"torusflow.{m}") for m in LAYERS]
        loaded = [m for k, m in sys.modules.items() if k.split(".")[0] == "torusflow"]
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for other in loaded:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)


def main(argv: list[str]) -> int:
    out_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    from torusflow import cli

    try:
        status = cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        status = exc.code if isinstance(exc.code, int) else 2
    out_path.write_text(json.dumps({"spans": tracer.spans}))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
