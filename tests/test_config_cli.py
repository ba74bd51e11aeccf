import csv
import functools
import json
import operator
import re
import shutil
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusflow as tf
from torusflow import config as cfg_mod
from torusflow.cli import (
    _fmt,
    _ledger_rows,
    _line,
    _state_blocks,
    _write_csv,
    main,
    read_states_csv,
)
from torusflow.config import ConfigError, parse_config, parse_config_dict
from torusflow.interaction import as_velocity_model
from torusflow.transport import TransportResult

from conftest import lp_w2_sq

REPO = Path(__file__).resolve().parents[1]


def minimal_config(directory=None, **overrides):
    cfg = {
        "grid": {"dim": 1, "n": 16},
        "species": [
            {"energy": {"kind": "entropy"}, "initial": {"profile": "cosine", "amplitude": 0.5}}
        ],
        "solver": "jko",
        "horizon": 2e-3,
        "jko": {"h": 1e-3, "eps": 2e-3},
        "output": {"cadence": 1, "directory": directory},
    }
    cfg.update(overrides)
    return cfg


def stability_config(directory):
    """Two-species velocity-drift run with a stability comparison."""
    return {
        "grid": {"dim": 1, "n": 16},
        "species": [
            {
                "energy": {"kind": "power", "m": 2.0},
                "initial": {"profile": "cosine", "amplitude": 0.4},
            },
            {
                "energy": {"kind": "power", "m": 2.0},
                "initial": {"profile": "bump", "center": 0.3, "width": 0.1},
            },
        ],
        "drift": {
            "mode": "velocity",
            "kernels": [
                [{"kind": "zero"}, {"kind": "cosine", "amplitude": 0.2}],
                [{"kind": "cosine", "amplitude": -0.1, "frequency": 2}, {"kind": "zero"}],
            ],
        },
        "solver": "parabolic",
        "horizon": 4e-3,
        "jko": {"h": 2e-3},
        "stability": {
            "initial": [
                {"profile": "cosine", "amplitude": 0.35},
                {"profile": "bump", "center": 0.35, "width": 0.1},
            ],
        },
        "output": {"cadence": 1, "directory": directory},
    }


# Arbitrary JSON values; integers stay small so that no generated grid can
# exhaust memory.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def field_paths(node, prefix=()):
    """Key/index paths of every value in a JSON tree, the root's () first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from field_paths(child, prefix + (key,))


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestParseConfig:
    def test_minimal_heat_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, minimal_config()))
        assert cfg.problem.species_count == 1
        assert cfg.problem.grid.n == 16

    def test_power_exponent_must_exceed_one(self, tmp_path):
        bad = minimal_config()
        bad["species"][0]["energy"] = {"kind": "power", "m": 0.5}
        with pytest.raises(ConfigError, match=r"species\[0\].energy.m: must exceed 1"):
            parse_config(write_config(tmp_path, bad))

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": {"dim": 1,, }')
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda path: path.mkdir(), id="directory"),
            pytest.param(lambda path: path.write_bytes(b'{"grid": "\xff"}'), id="not-utf8"),
            pytest.param(lambda path: path.write_text("[" * 100000), id="nested-too-deep"),
        ],
    )
    def test_unreadable_file_is_config_error(self, tmp_path, capsys, make):
        path = tmp_path / "cfg.json"
        make(path)
        with pytest.raises(ConfigError, match=re.escape(f"cannot read config file {path}")):
            parse_config(path)
        for command in ("check", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: cannot read config file {path}: ")
            assert "Traceback" not in err

    def test_missing_field_named(self, tmp_path):
        bad = minimal_config()
        del bad["horizon"]
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(write_config(tmp_path, bad))

    def test_velocity_drift_excludes_jko(self, tmp_path):
        bad = minimal_config()
        bad["drift"] = {
            "mode": "velocity",
            "kernels": [[{"kind": "cosine"}]],
        }
        with pytest.raises(ConfigError, match="potential-mode"):
            parse_config(write_config(tmp_path, bad))

    def test_zero_energy_excludes_parabolic(self, tmp_path, capsys):
        # A stability section runs the finite-volume route whatever the solver.
        stability = {"initial": [{"profile": "cosine", "amplitude": 0.4}]}
        for overrides in ({"solver": "parabolic"}, {"stability": stability}):
            bad = minimal_config(**overrides)
            bad["species"][0]["energy"] = {"kind": "zero"}
            path = write_config(tmp_path, bad)
            with pytest.raises(
                ConfigError, match=r"species\[0\]\.energy\.kind: cannot regularize"
            ):
                parse_config(path)
            for command in ("check", "run"):
                assert main([command, "--config", str(path)]) == 2
                assert "species[0].energy.kind" in capsys.readouterr().err

    def test_exponent_near_one_on_parabolic_route(self, tmp_path, capsys):
        # m = 1.0001 and 1.0008 have no truncation at eps_reg 1e-3 that
        # resolves unit densities; just above 1 the upper junction is beyond
        # the float range, so there is none.
        for m in (1.0001, 1.0008):
            cfg = minimal_config(solver="parabolic")
            cfg["species"][0]["energy"] = {"kind": "power", "m": m}
            path = write_config(tmp_path, cfg)
            for command in ("check", "run"):
                assert main([command, "--config", str(path)]) == 2
                assert "species[0].energy.m" in capsys.readouterr().err
        for m in (1.002, 1.01):
            cfg = minimal_config(solver="parabolic", directory=str(tmp_path / f"out{m}"))
            cfg["species"][0]["energy"] = {"kind": "power", "m": m}
            path = write_config(tmp_path, cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["run", "--config", str(path)]) == 0

    def test_inline_kernel_shape_checked(self, tmp_path):
        bad = minimal_config()
        bad["drift"] = {
            "mode": "potential",
            "kernels": [[{"kind": "inline", "values": [1.0, 2.0]}]],
        }
        with pytest.raises(ConfigError, match=r"drift.kernels\[0\]\[0\].values"):
            parse_config(write_config(tmp_path, bad))

    def test_kernel_matrix_shape_checked(self, tmp_path):
        bad = minimal_config()
        bad["drift"] = {"mode": "potential", "kernels": [[{"kind": "zero"}], []]}
        with pytest.raises(ConfigError, match="matrix"):
            parse_config(write_config(tmp_path, bad))

    def test_profiles_normalized(self):
        grid = tf.make_grid(1, 32)
        for spec in (
            {"profile": "uniform"},
            {"profile": "cosine", "amplitude": 0.7, "frequency": 2},
            {"profile": "bump", "center": 0.3, "width": 0.05},
            {
                "profile": "two_bumps",
                "center_a": 0.2,
                "center_b": 0.7,
                "width_a": 0.05,
                "width_b": 0.08,
                "weight": 0.4,
            },
        ):
            rho = cfg_mod.build_profile(grid, spec)
            assert abs(rho.mass() - 1.0) <= 1e-12
            assert np.min(rho.values) >= 0.0

    def test_unknown_profile_rejected(self):
        grid = tf.make_grid(1, 8)
        with pytest.raises(ConfigError, match="unknown profile"):
            cfg_mod.build_profile(grid, {"profile": "sawtooth"})

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("output", "cadence", 1.5),
            ("output", "cadence", "x"),
            ("output", "cadence", False),
            pytest.param("", "drift", [1], id="drift-list"),
            pytest.param("", "jko", [1], id="jko-list"),
            ("species.0.initial", "amplitude", "x"),
            ("species.0.initial", "frequency", "x"),
            pytest.param(
                "species.0",
                "initial",
                {"profile": "inline", "values": [-1.0] + [1.0] * 15},
                id="species-0-initial-negative-inline",
            ),
            ("grid", "n", 64.7),
            pytest.param(
                "species.0",
                "initial",
                {"profile": "bump", "width": 1e308},
                id="species-0-initial-bump-width-overflow",
            ),
            pytest.param(
                "",
                "drift",
                {"kernels": [[{"kind": "cosine", "amplitude": 1e308}]]},
                id="drift-nonfinite-bounds",
            ),
            pytest.param("jko", "h", 1e-320, id="jko-h-nonfinite-step-count"),
            pytest.param("jko", "h", 1e-300, id="jko-h-step-count-beyond-arange"),
            # Unknown fields, among them the removed ones.
            ("jko", "debias", "false"),
            ("jko", "debias", 0),
            ("jko", "max_iter", 2.7),
            ("jko", "max_iter", True),
            ("stability", "w2_eps", 1e-4),
            ("", "diagnostics", {"ledger_slack": 0.1}),
            ("parabolic", "cfl_saftey", 0.9),
            pytest.param("", "parabolic", {"eps_reg": 1e-3, "cfl_safety": 0.9}, id="parabolic"),
            ("jko", "tol", 1e-9),
            ("stability", "margin", 0.2),
            # A constant added to the potential moves no unit-mass step.
            ("drift", "nonneg_shift", 0.5),
            # A misspelt key inside a species entry, its energy or its profile
            # used to be ignored: the run took the default amplitude 0.5.
            ("species.0.initial", "amplitud", 0.9),
            ("species.0.energy", "Cc", 10.0),
            # The growth constant C is no field: no solver reads it.
            ("species.0.energy", "C", 10.0),
            ("species.0", "colour", "red"),
        ],
    )
    def test_mistyped_field_rejected(self, tmp_path, capsys, section, key, value):
        # section is a dotted path into the config ("" for the root), created
        # when absent; list indices appear as numbers and are reported as [i].
        cfg = minimal_config()
        target = cfg
        for part in filter(None, section.split(".")):
            target = target[int(part)] if part.isdigit() else target.setdefault(part, {})
        target[key] = value
        field = re.sub(r"\.(\d+)", r"[\1]", f"{section}.{key}".lstrip("."))
        if field.split(".")[0] not in cfg_mod._ROOT_FIELDS:
            field = field.split(".")[0]  # an unknown section is named alone
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match=re.escape(field)):
            parse_config(path)
        assert main(["check", "--config", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, key, value, field",
        [
            (("drift", "kernels", 0, 1), "phase", 0.1, "drift.kernels[0][1].phase"),
            (("drift", "kernels", 0, 0), "amplitude", 1.0, "drift.kernels[0][0].amplitude"),
            (("species", 1, "initial"), "width_a", 0.1, "species[1].initial.width_a"),
            (("stability", "initial", 0), "amplitud", 0.3, "stability.initial[0].amplitud"),
            (("stability", "initial", 1), "weight", 0.5, "stability.initial[1].weight"),
        ],
    )
    def test_field_of_another_kind_rejected(self, tmp_path, capsys, path, key, value, field):
        # Each profile and kernel kind has its own field list: a zero kernel
        # has no amplitude and a single bump no width_a.
        cfg = stability_config(None)
        functools.reduce(operator.getitem, path, cfg)[key] = value
        config_path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match=re.escape(field + ": unknown field")):
            parse_config(config_path)
        assert main(["check", "--config", str(config_path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, key, value, field",
        [
            ((), "horizon", 10**400, "horizon"),
            (("jko",), "h", 10**400, "jko.h"),
            (("species", 0), "energy", {"kind": "power", "m": 10**400}, "species[0].energy.m"),
            (
                ("species", 0),
                "initial",
                {"profile": "bump", "center": [10**400]},
                "species[0].initial.center",
            ),
            (
                ("species", 0),
                "initial",
                {"profile": "inline", "values": [10**400] + [1] * 15},
                "species[0].initial.values",
            ),
        ],
        ids=["horizon", "jko.h", "energy.m", "bump.center", "inline.values"],
    )
    def test_integer_beyond_float_range_rejected(self, tmp_path, capsys, path, key, value, field):
        # json reads 1 followed by 400 zeros as a Python int that no float holds.
        cfg = minimal_config()
        functools.reduce(operator.getitem, path, cfg)[key] = value
        config_path = write_config(tmp_path, cfg)
        assert main(["check", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"config error: {field}: must be finite\n"

    def test_entropy_exponent_is_fixed(self, tmp_path):
        cfg = minimal_config()
        cfg["species"][0]["energy"]["m"] = 1.0
        parse_config(write_config(tmp_path, cfg))
        cfg["species"][0]["energy"]["m"] = 2.0
        with pytest.raises(ConfigError, match=r"species\[0\]\.energy\.m: the entropy energy"):
            parse_config(write_config(tmp_path, cfg))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_only_config_errors_escape(self, data):
        cfg = data.draw(st.sampled_from([minimal_config, stability_config]))(None)
        path = data.draw(st.sampled_from(list(field_paths(cfg))))
        value = data.draw(JSON_VALUES)
        if path:
            functools.reduce(operator.getitem, path[:-1], cfg)[path[-1]] = value
        else:
            cfg = value
        try:
            parse_config_dict(cfg)
        except ConfigError:
            pass

    def test_resolved_round_trips(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, minimal_config()))
        again = parse_config_dict(json.loads(json.dumps(cfg.resolved)))
        assert again.resolved == cfg.resolved


class TestRunCli:
    def test_check_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        assert main(["check", "--config", str(path)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_run_writes_expected_row_counts(self, tmp_path):
        # 3-step run on a 4-cell grid: states.csv holds 4 times x 4 cells.
        out_dir = tmp_path / "out"
        cfg = minimal_config(directory=str(out_dir))
        cfg["grid"] = {"dim": 1, "n": 4}
        cfg["horizon"] = 2.5e-3
        cfg["jko"] = {"h": 1e-3, "eps": 5e-2}
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path)]) == 0
        states = (out_dir / "states.csv").read_text().strip().splitlines()
        assert len(states) == 1 + 4 * 4
        ledger = (out_dir / "ledger.csv").read_text().strip().splitlines()
        assert len(ledger) == 1 + 3
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["package"] == "torusflow"

    def test_cadence_thins_output(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = minimal_config(directory=str(out_dir))
        cfg["grid"] = {"dim": 1, "n": 4}
        cfg["horizon"] = 4.5e-3
        cfg["jko"] = {"h": 1e-3, "eps": 5e-2}
        cfg["output"] = {"cadence": 2, "directory": str(out_dir)}
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path)]) == 0
        states = (out_dir / "states.csv").read_text().strip().splitlines()
        # 6 recorded times thinned to 0, 2, 4, 5
        assert len(states) == 1 + 4 * 4

    def test_meta_round_trips(self, tmp_path):
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(directory=str(out_dir)))
        assert main(["run", "--config", str(path)]) == 0
        meta = json.loads((out_dir / "meta.json").read_text())
        again = parse_config_dict(meta["config"])
        assert again.resolved == meta["config"]

    def test_outputs_deterministic(self, tmp_path):
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(directory=str(out_dir)))
        assert main(["run", "--config", str(path)]) == 0
        first = {
            name: (out_dir / name).read_bytes()
            for name in ("states.csv", "ledger.csv", "meta.json")
        }
        assert main(["run", "--config", str(path)]) == 0
        for name, payload in first.items():
            assert (out_dir / name).read_bytes() == payload

    def test_corrupt_config_no_partial_outputs(self, tmp_path):
        out_dir = tmp_path / "never"
        bad = minimal_config(directory=str(out_dir))
        bad["species"][0]["energy"] = {"kind": "power", "m": 0.5}
        path = write_config(tmp_path, bad)
        assert main(["run", "--config", str(path)]) == 2
        assert not out_dir.exists()

    def test_strict_flags_exit_nonzero(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tf.diagnostics, "default_ledger_slack", lambda *args: -1.0)
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(directory=str(out_dir)))
        assert main(["run", "--config", str(path), "--strict"]) == 1
        assert main(["run", "--config", str(path)]) == 0

    def test_both_solvers_emit_series(self, tmp_path):
        # Both horizons pair the records at 0, h and 2h.  At 2.5h the last
        # JKO record (3h) and the last finite-volume one (2.5h) go unpaired.
        for horizon in (2e-3, 2.5e-3):
            out_dir = tmp_path / f"out{horizon:g}"
            cfg = minimal_config(directory=str(out_dir), solver="both", horizon=horizon)
            path = write_config(tmp_path, cfg)
            assert main(["run", "--config", str(path)]) == 0
            assert (out_dir / "states_parabolic.csv").exists()
            rows = (out_dir / "series.csv").read_text().splitlines()[1:]
            cross = [float(row.split(",")[1]) for row in rows if row.startswith("cross_l1")]
            assert cross == pytest.approx([0.0, 1e-3, 2e-3])

    def test_stability_run_emits_series(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = stability_config(str(out_dir))
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path)]) == 0
        series = (out_dir / "series.csv").read_text().strip().splitlines()
        assert any(row.startswith("stability_w2_sum") for row in series[1:])
        meta = json.loads((out_dir / "meta.json").read_text())
        assert "c_hat" in meta["constants"]

    def test_stability_run_samples_constants_once(self, tmp_path, monkeypatch):
        original = tf.transport.species_w2_sq
        calls = []

        def counted(rho_a, rho_b):
            calls.append(len(rho_a))
            return original(rho_a, rho_b)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "torusflow":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        path = write_config(tmp_path, stability_config(str(tmp_path / "out")))
        assert main(["run", "--config", str(path)]) == 0
        # One call compares the 3 recorded times; the drift constants solve no
        # transport.
        assert calls == [3]

    @pytest.mark.parametrize("solver", ["jko", "parabolic"])
    def test_power_run_on_half_empty_state(self, tmp_path, solver):
        # Power m = 2 from a state that is zero on half the cells.
        out_dir = tmp_path / "out"
        cfg = minimal_config(directory=str(out_dir), solver=solver, horizon=8e-3)
        cfg["grid"] = {"dim": 1, "n": 128}
        cfg["species"] = [
            {
                "energy": {"kind": "power", "m": 2.0},
                "initial": {"profile": "inline", "values": [2.0] * 64 + [0.0] * 64},
            }
        ]
        cfg["jko"] = {"h": 1e-3, "eps": 5e-4}
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(path)]) == 0
        states = read_states_csv(out_dir / "states.csv")
        assert len(states) == 9

    def test_2d_drift_run_needs_no_transport_solve(self, tmp_path):
        # Without a stability section a 2-d drift run makes no Sinkhorn
        # solve: a sampled drift constant hit the iteration cap here (exit 3).
        out_dir = tmp_path / "out"
        cfg = minimal_config(str(out_dir), grid={"dim": 2, "n": 16}, solver="parabolic")
        cfg["drift"] = {"kernels": [[{"kind": "gaussian_bump", "sigma": 0.1}]]}
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path)]) == 0
        meta = json.loads((out_dir / "meta.json").read_text())
        drift = parse_config(path).problem.drift
        want = tf.estimate_constants(as_velocity_model(drift)).lip_w2
        assert meta["constants"]["lip_w2"] == want > 0

    def test_stability_run_unconverged_solve_is_solver_failure(
        self, tmp_path, capsys, unconverged_transport
    ):
        # 2-d distances are Sinkhorn solves; 1-d ones are exact.
        out_dir = tmp_path / "out"
        cfg = stability_config(str(out_dir))
        cfg["grid"] = {"dim": 2, "n": 4}
        cfg["species"][1]["initial"]["center"] = [0.3, 0.3]
        cfg["stability"]["initial"][1]["center"] = [0.35, 0.3]
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path)]) == 3
        assert "solver failure: species 0 transport did not converge" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_failed_stability_trajectory_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        # The two stability runs march in one call; only the second one's
        # drift is poisoned.
        kernel_sums = tf.parabolic._kernel_sums

        def poisoned(model, values):
            out = kernel_sums(model, values)
            if len(values) == 2:
                out[1] = np.nan
            return out

        monkeypatch.setattr("torusflow.parabolic._kernel_sums", poisoned)
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, stability_config(str(out_dir)))
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "solver failure: stability run: problem 1: drift velocities are not finite" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "config, reference",
        [("heat.json", "heat"), ("two_species_stability.json", "stability")],
    )
    def test_shipped_config_reproduces_tracked_outputs(
        self, tmp_path, monkeypatch, config, reference
    ):
        # The configs name a relative output directory, and meta.json records it.
        shutil.copytree(REPO / "configs", tmp_path / "configs")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", f"configs/{config}"]) == 0
        tracked = REPO / "out" / reference
        written = tmp_path / "out" / reference
        names = sorted(p.name for p in tracked.iterdir())
        assert sorted(p.name for p in written.iterdir()) == names
        for name in names:
            assert (written / name).read_bytes() == (tracked / name).read_bytes(), name

    def test_horizon_below_loop_tolerance_writes_readable_states(self, tmp_path, capsys):
        # A horizon of 1e-14 once recorded t = 0 twice, which w2 rejects.
        out_dir = tmp_path / "out"
        cfg = json.loads((REPO / "configs" / "heat.json").read_text())
        cfg["horizon"] = 1e-14
        cfg["output"]["directory"] = str(out_dir)
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
        states = out_dir / "states_parabolic.csv"
        assert sorted(read_states_csv(states)) == [0.0, 1e-14]
        assert main(["w2", "--a", str(states), "--b", str(states), "--time", "0"]) == 0
        assert "total w2_sq" in capsys.readouterr().out

    def test_records_closer_than_1e12_pair_one_to_one(self, tmp_path):
        # At horizon 1e-14 the finite-volume run records t = 0 and t = 1e-14,
        # and the minimizing-movement run only t = 0: the two t = 0 states match.
        out_dir = tmp_path / "out"
        cfg = json.loads((REPO / "configs" / "heat.json").read_text())
        cfg["horizon"] = 1e-14
        cfg["output"]["directory"] = str(out_dir)
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
        rows = (out_dir / "series.csv").read_text().splitlines()[1:]
        cross = [row.split(",") for row in rows if row.startswith("cross_l1")]
        zero = "0.0000000000000000e+00"
        assert [(t, v) for _, t, _, v, _ in cross] == [(zero, zero)]

    def test_2d_run_end_to_end(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = {
            "grid": {"dim": 2, "n": 8},
            "species": [
                {"energy": {"kind": "entropy"}, "initial": {"profile": "cosine", "amplitude": 0.4}}
            ],
            "solver": "both",
            "horizon": 2e-3,
            "jko": {"h": 1e-3, "eps": 8e-3},
            "output": {"cadence": 1, "directory": str(out_dir)},
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path)]) == 0
        states = read_states_csv(out_dir / "states.csv")
        for arrays in states.values():
            assert arrays[0].size == 64

    def test_w2_subcommand(self, tmp_path, capsys):
        grid = tf.make_grid(1, 16)

        def write_states(path, shift):
            rows = ["time,species,cell_index,value"]
            vals = 1 + 0.5 * np.cos(2 * np.pi * (grid.axis_centers - shift))
            vals = vals / (np.sum(vals) * grid.dx)
            for i, v in enumerate(vals):
                rows.append(f"0.0,0,{i},{float(v)!r}")
            Path(path).write_text("\n".join(rows))

        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        write_states(a_path, 0.0)
        write_states(b_path, 0.25)
        code = main(["w2", "--a", str(a_path), "--b", str(b_path), "--time", "0.0"])
        assert code == 0
        out = capsys.readouterr().out
        total = float(out.strip().splitlines()[-1].split()[-1])
        rho_a = tf.normalize(tf.Density(grid, 1 + 0.5 * np.cos(2 * np.pi * grid.axis_centers)))
        rho_b = tf.normalize(
            tf.Density(grid, 1 + 0.5 * np.cos(2 * np.pi * (grid.axis_centers - 0.25)))
        )
        assert total == pytest.approx(lp_w2_sq(rho_a, rho_b), rel=1e-10)

    @pytest.mark.parametrize("flag", ["--eps", "--tol"])
    def test_w2_has_no_solver_flags(self, tmp_path, capsys, flag):
        path = tmp_path / "s.csv"
        path.write_text("time,species,cell_index,value\n0.0,0,0,1.0\n0.0,0,1,1.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["w2", "--a", str(path), "--b", str(path), "--time", "0.0", flag, "1e-3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_w2_cell_counts_differ_between_files(self, tmp_path, capsys):
        header = "time,species,cell_index,value\n"
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        a_path.write_text(header + "".join(f"0.0,0,{c},1.0\n" for c in range(4)))
        b_path.write_text(header + "".join(f"0.0,0,{c},1.0\n" for c in range(2)))
        code = main(["w2", "--a", str(a_path), "--b", str(b_path), "--time", "0.0"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"cell counts differ at time 0: {a_path} has 4, {b_path} has 2" in captured.err
        assert "w2_sq" not in captured.out

    def test_w2_overflowing_mass_is_input_error(self, tmp_path, capsys):
        header = "time,species,cell_index,value\n"
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        a_path.write_text(header + "0.0,0,0,1e308\n0.0,0,1,1e308\n0.0,0,2,1\n0.0,0,3,1\n")
        b_path.write_text(header + "".join(f"0.0,0,{c},1.0\n" for c in range(4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["w2", "--a", str(a_path), "--b", str(b_path), "--time", "0.0"])
        assert code == 2
        captured = capsys.readouterr()
        assert "input error: degenerate density: total mass is not finite" in captured.err
        assert "w2_sq" not in captured.out

    def test_w2_species_counts_differ_between_files(self, tmp_path, capsys):
        header = "time,species,cell_index,value\n"
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        a_path.write_text(header + "".join(f"0.0,0,{c},1.0\n" for c in range(4)))
        b_path.write_text(
            header + "".join(f"0.0,{s},{c},1.0\n" for s in (0, 1) for c in range(4))
        )
        code = main(["w2", "--a", str(a_path), "--b", str(b_path), "--time", "0.0"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"species counts differ at time 0: {a_path} has 1, {b_path} has 2" in captured.err
        assert "w2_sq" not in captured.out

    def test_w2_kernel_underflow_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        # Disjoint supports on one eps level: every kernel row underflows.
        monkeypatch.setattr("torusflow.transport._eps_schedule", lambda eps, c_max: [eps])
        header = "time,species,cell_index,value\n"
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, cell in ((a_path, 0), (b_path, 10)):
            path.write_text(
                header + "".join(f"0.0,0,{c},{float(c == cell)}\n" for c in range(16))
            )
        code = main(
            ["w2", "--a", str(a_path), "--b", str(b_path), "--time", "0.0", "--dim", "2"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "solver failure: sinkhorn kernel row of cell 0" in captured.err
        assert "total w2_sq" not in captured.out

    def test_w2_missing_time(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("time,species,cell_index,value\n0.0,0,0,1.0\n0.0,0,1,1.0\n")
        code = main(["w2", "--a", str(path), "--b", str(path), "--time", "0.5"])
        assert code == 2
        assert "not recorded" in capsys.readouterr().err

    def test_w2_unconverged_solve_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        # 2-d distances are Sinkhorn solves; 1-d ones are exact.
        path = tmp_path / "s.csv"
        rows = ["time,species,cell_index,value"]
        rows += [f"0.0,{s},{c},1.0" for s in (0, 1) for c in range(4)]
        path.write_text("\n".join(rows) + "\n")
        results = iter([True, False])

        def fake(mu, nu, eps, tol):
            return TransportResult(
                w2_sq=0.0, plan_marginal_err=1.0, iterations=5, converged=next(results),
            )

        monkeypatch.setattr("torusflow.transport.sinkhorn_w2", fake)
        code = main(["w2", "--a", str(path), "--b", str(path), "--time", "0.0", "--dim", "2"])
        assert code == 3
        captured = capsys.readouterr()
        assert "solver failure: species 1" in captured.err
        assert "total w2_sq" not in captured.out

    def test_w2_failed_optimality_check_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s.csv"
        rows = ["time,species,cell_index,value"]
        rows += [f"0.0,0,{c},{1.0 + c}" for c in range(8)]
        path.write_text("\n".join(rows) + "\n")
        monkeypatch.setattr("torusflow.transport._shift_cost", lambda theta, *rest: (0.0, -1.0))
        code = main(["w2", "--a", str(path), "--b", str(path), "--time", "0.0"])
        assert code == 3
        captured = capsys.readouterr()
        assert "solver failure: species 0 transport failed its optimality check" in captured.err
        assert "total w2_sq" not in captured.out

    def test_w2_grid_beyond_dense_cost_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        rows = ["time,species,cell_index,value"]
        rows += [f"0.0,0,{c},1.0" for c in range(65 * 65)]
        path.write_text("\n".join(rows) + "\n")
        code = main(["w2", "--a", str(path), "--b", str(path), "--time", "0.0", "--dim", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert "4225 cells" in captured.err
        assert "total w2_sq" not in captured.out

    def test_check_drift_on_grid_beyond_dense_cost(self, tmp_path, capsys):
        # The drift constants are closed-form kernel bounds: no W2 solve.
        drift = {"kernels": [[{"kind": "cosine", "amplitude": 0.2}]]}
        cfg = minimal_config(grid={"dim": 2, "n": 65}, drift=drift)
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_check_stability_on_2d_grid_beyond_dense_cost_is_config_error(
        self, tmp_path, capsys
    ):
        # The stability series' 2-d distances need the dense Sinkhorn cost,
        # which fits in memory up to 64 x 64 cells.
        cfg = stability_config(None)
        cfg["grid"] = {"dim": 2, "n": 64}
        cfg["species"][1]["initial"]["center"] = [0.3, 0.3]
        cfg["stability"]["initial"][1]["center"] = [0.35, 0.3]
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 0
        capsys.readouterr()
        cfg["grid"]["n"] = 65
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        assert "config error: grid.n: 4225 cells" in err and "stability section" in err

    def test_check_stability_on_1d_grid_beyond_dense_cost(self, tmp_path, capsys):
        # 1-d distances are exact and build no dense cost, so no cap applies.
        cfg = json.loads((REPO / "configs" / "two_species_stability.json").read_text())
        cfg["grid"]["n"] = 4100
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_unconverged_jko_step_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(tf.transport, "_JKO_MAX_ITER", 1)
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(directory=str(out_dir)))
        assert main(["run", "--config", str(path)]) == 3
        assert "jko_step did not converge within 1 iterations" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("amplitude, status", [(-20.0, 0), (20.0, 3)])
    def test_stalled_jko_step_is_solver_failure(self, tmp_path, capsys, amplitude, status):
        # At +20 the first step's density change stalls while its plan misses
        # its marginals by 4.7e-2; the attractive -20 run converges.
        out_dir = tmp_path / "out"
        cfg = minimal_config(
            directory=str(out_dir),
            grid={"dim": 1, "n": 32},
            species=[
                {"energy": {"kind": "power", "m": 2.0}, "initial": {"profile": "cosine"}}
            ],
            drift={"kernels": [[{"kind": "gaussian_bump", "sigma": 0.1, "amplitude": amplitude}]]},
            solver="both",
            horizon=0.1,
            jko={"h": 0.05, "eps": 5e-3},
        )
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--strict"]) == status
        if status:
            err = capsys.readouterr().err
            assert "step 0 (species 0) failed: jko_step stopped with plan marginal error" in err
            assert not out_dir.exists()

    @pytest.mark.parametrize("kind, amplitude", [("zero", -20.0), ("entropy", -1e5)])
    def test_overflowing_closed_form_prox_is_solver_failure(
        self, tmp_path, capsys, kind, amplitude
    ):
        # A strong attraction overflows the closed-form kl_prox to inf; the
        # scaling guard reports it, and no RuntimeWarning escapes before.
        out_dir = tmp_path / "out"
        cfg = minimal_config(
            directory=str(out_dir),
            grid={"dim": 1, "n": 32},
            species=[
                {"energy": {"kind": kind}, "initial": {"profile": "cosine", "amplitude": 0.5}}
            ],
            drift={"kernels": [[{"kind": "gaussian_bump", "sigma": 0.1, "amplitude": amplitude}]]},
            horizon=1.0,
            jko={"h": 0.5, "eps": 5e-3},
        )
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "step 0 (species 0) failed: jko_step scalings left the stable range" in err
        assert not out_dir.exists()

    def test_check_drift_free_on_grid_beyond_dense_cost(self, tmp_path, capsys):
        cfg = minimal_config(grid={"dim": 2, "n": 65})
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 0
        assert "config OK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            pytest.param(
                {"grid": {"dim": 2, "n": 80}, "jko": {"h": 1e-3, "eps": 5 / 80**2}},
                "too small for the Gibbs kernel",
                id="eps-5dx2-on-2d-grid",
            ),
            pytest.param(
                {"jko": {"h": 1.0, "eps": 1e-3}}, "h/eps is too large", id="h-over-eps"
            ),
            pytest.param(
                # 2h overflows to inf.
                {"horizon": 1.7e308, "jko": {"h": 8.98846567431158e307}},
                "h/eps is too large",
                id="h-near-float-max",
            ),
        ],
    )
    def test_check_rejects_jko_eps_that_jko_step_rejects(
        self, tmp_path, capsys, overrides, reason
    ):
        cfg = minimal_config(**overrides)
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        # A refused default eps is h's fault: the message names jko.h.
        field = "jko.eps" if "eps" in cfg["jko"] else "jko.h"
        assert f"config error: {field}:" in err and reason in err
        # The smallest admissible eps the message names is accepted.
        cfg["jko"]["eps"] = float(re.search(r"at least (\S+)", err).group(1))
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 0

    def test_h_too_large_for_default_eps_names_jko_h(self, tmp_path, capsys):
        # The default eps 5 / 64^2 fits the grid's kernel but not h = 0.5:
        # the refusal names jko.h and the default, not the unset jko.eps.
        cfg = minimal_config(grid={"dim": 1, "n": 64}, horizon=1.0, jko={"h": 0.5})
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: jko.h: h 0.5 is too large for the default eps")
        assert "jko.eps is not set" in err and "eps 0.0012207 is too small for h" in err
        # The eps the message names is accepted once set.
        cfg["jko"]["eps"] = float(re.search(r"at least (\S+)", err).group(1))
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 0

    @pytest.mark.parametrize(
        "dim, n, eps",
        [(1, 64, 5 / 64**2), (1, 128, 4.17e-4), (2, 77, 5 / 77**2), (2, 80, 8.34e-4)],
    )
    def test_default_jko_eps_fits_the_grid(self, tmp_path, capsys, dim, n, eps):
        # 5 dx^2, or on finer grids the least eps the Gibbs kernel admits,
        # the value a refusal of a smaller eps would name.
        cfg = minimal_config(grid={"dim": dim, "n": n}, jko={"h": 1e-3})
        path = write_config(tmp_path, cfg)
        assert main(["check", "--config", str(path)]) == 0
        assert "config OK" in capsys.readouterr().out
        assert parse_config(path).jko_eps == pytest.approx(eps, rel=1e-12)

    def test_default_jko_eps_runs_on_fine_1d_grid(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = minimal_config(str(out_dir), grid={"dim": 1, "n": 128}, jko={"h": 1e-3})
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--strict"]) == 0
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["config"]["jko"]["eps"] == 4.17e-4

    def test_check_rejects_nonfinite_initial_energy(self, tmp_path, capsys):
        cfg = minimal_config()
        cfg["species"][0]["energy"] = {"kind": "power", "m": 2000}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # t^2000 overflows without a warning
            assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert "config error: species: initial energy is not finite" in capsys.readouterr().err

    def test_overflowing_drift_is_config_error(self, tmp_path, capsys):
        # A constant kernel has no gradient, so lip_x and lip_w2 are 0; at
        # 1e308 its transform would overflow, which the load-time bound on
        # the convolution path rejects before any run.
        out_dir = tmp_path / "out"
        cfg = stability_config(str(out_dir))
        del cfg["stability"]
        cfg["drift"]["kernels"][0][0] = {"kind": "cosine", "amplitude": 1e308, "frequency": 0}
        path = write_config(tmp_path, cfg)
        for command in ("check", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "config error: drift.kernels: drift bounds are not finite" in err
        assert not out_dir.exists()

    def test_meta_records_slack_only_with_a_ledger(self, tmp_path):
        out_dir = tmp_path / "par"
        path = write_config(tmp_path, minimal_config(str(out_dir), solver="parabolic"))
        assert main(["run", "--config", str(path)]) == 0
        assert "slack" not in json.loads((out_dir / "meta.json").read_text())

        out_dir = tmp_path / "jko"
        path = write_config(tmp_path, minimal_config(str(out_dir)))
        assert main(["run", "--config", str(path)]) == 0
        meta = json.loads((out_dir / "meta.json").read_text())
        cfg = parse_config(path)
        ledger = tf.energy_ledger(tf.run_jko(cfg.problem, eps=cfg.jko_eps), cfg.problem)
        assert meta["slack"] == {"ledger": ledger.slack}

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_w2_dim_must_be_1_or_2(self, tmp_path, capsys, dim):
        path = tmp_path / "s.csv"
        path.write_text("time,species,cell_index,value\n0.0,0,0,1.0\n0.0,0,1,1.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["w2", "--a", str(path), "--b", str(path), "--time", "0.0", "--dim", dim])
        assert exc.value.code == 2
        assert "--dim: invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "indices, problem",
        [
            ((0, 1, 3), "cell indices are not 0..2"),
            ((0, 1, -1), "cell indices are not 0..2"),
            ((0, 1, 1), "cell 1 repeated"),
        ],
        ids=["out-of-range", "negative", "duplicate"],
    )
    def test_w2_malformed_cell_indices_are_input_errors(
        self, tmp_path, capsys, indices, problem
    ):
        header = "time,species,cell_index,value\n"
        good = tmp_path / "good.csv"
        good.write_text(header + "".join(f"0.5,0,{c},1.0\n" for c in range(3)))
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "".join(f"0.5,0,{c},{1.0 + c}\n" for c in indices))
        code = main(["w2", "--a", str(good), "--b", str(bad), "--time", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"failed to read states: {bad}: time 0.5, species 0: {problem}" in captured.err
        assert "total w2_sq" not in captured.out

    @pytest.mark.parametrize(
        "row", ["0.5,0,2", "0.5,0,2,1.0,7"], ids=["short-row", "long-row"]
    )
    def test_w2_rows_with_wrong_field_count_are_input_errors(self, tmp_path, capsys, row):
        header = "time,species,cell_index,value\n"
        good = tmp_path / "good.csv"
        good.write_text(header + "".join(f"0.5,0,{c},1.0\n" for c in range(3)))
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "0.5,0,0,1.0\n0.5,0,1,1.0\n" + row + "\n")
        code = main(["w2", "--a", str(good), "--b", str(bad), "--time", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"failed to read states: {bad}: line 4: expected 4 fields" in captured.err
        assert "Traceback" not in captured.err
        assert "total w2_sq" not in captured.out

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("time,species,cell,value\n0.5,0,0,1.0\n", "line 1: no column 'cell_index'"),
            (
                "time,species,cell_index,value\n0.5,0,0,1.0\n0.5,0,1,1.O\n",
                "line 3: column 'value': could not convert string to float: '1.O'",
            ),
            (
                "time,species,cell_index,value\n0.5,0,0,1.0\n0.5,0,1.0,1.0\n",
                "line 3: column 'cell_index': invalid literal for int() with base 10: '1.0'",
            ),
            # NaN != NaN would make each row its own time; an infinite time
            # could never be selected by --time.
            (
                "time,species,cell_index,value\nnan,0,0,1.0\nnan,0,1,1.0\n",
                "line 2: column 'time': time 'nan' is not finite",
            ),
            (
                "time,species,cell_index,value\n0.5,0,0,1.0\n-inf,0,0,1.0\n",
                "line 3: column 'time': time '-inf' is not finite",
            ),
        ],
        ids=["missing-column", "non-numeric-value", "non-integer-index", "nan-time", "inf-time"],
    )
    def test_w2_unreadable_fields_are_input_errors(self, tmp_path, capsys, text, problem):
        good = tmp_path / "good.csv"
        good.write_text("time,species,cell_index,value\n0.5,0,0,1.0\n0.5,0,1,1.0\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = main(["w2", "--a", str(good), "--b", str(bad), "--time", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"failed to read states: {bad}: {problem}\n" == captured.err
        assert "w2_sq" not in captured.out
        with pytest.raises(ValueError, match=re.escape(f"{bad}: {problem}")):
            read_states_csv(bad)

    @pytest.mark.parametrize(
        "rows, problem",
        [
            ([(0, 0), (0, 1), (2, 0), (2, 1)], "species 2: species ids are not 0..1"),
            ([(-1, 0), (-1, 1), (0, 0), (0, 1)], "species -1: species ids are not 0..1"),
            (
                [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3)],
                "species 1: 4 cells, but species 0 has 2",
            ),
        ],
        ids=["gap", "negative", "cell-counts-differ"],
    )
    def test_w2_malformed_species_are_input_errors(self, tmp_path, capsys, rows, problem):
        # Species were relabelled by rank, or failed in a reshape.
        header = "time,species,cell_index,value\n"
        good = tmp_path / "good.csv"
        good.write_text(header + "".join(f"0.5,{s},{c},1.0\n" for s in (0, 1) for c in (0, 1)))
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "".join(f"0.5,{s},{c},{1.0 + c}\n" for s, c in rows))
        code = main(["w2", "--a", str(good), "--b", str(bad), "--time", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"failed to read states: {bad}: time 0.5, {problem}" in captured.err
        assert "w2_sq" not in captured.out

    @pytest.mark.parametrize("directory", ["blocker", "blocker/out"], ids=["file", "under-file"])
    def test_unusable_output_directory_is_output_error(
        self, tmp_path, capsys, monkeypatch, directory
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocker").write_text("not a directory\n")
        path = write_config(tmp_path, minimal_config(directory=directory))

        def no_solve(*args, **kwargs):
            raise AssertionError("the run solved before checking output.directory")

        # cli imports run_jko from torusflow.jko when a run solves.
        monkeypatch.setattr("torusflow.jko.run_jko", no_solve)
        for command in ("check", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"output error: output.directory '{directory}': " in err
        assert (tmp_path / "blocker").read_text() == "not a directory\n"

    @pytest.mark.parametrize("directory", ["", "out\0x"], ids=["empty", "nul-byte"])
    def test_unnameable_output_directory_is_config_error(
        self, tmp_path, capsys, monkeypatch, directory
    ):
        # "" would write the files into the working directory; a NUL byte
        # failed in os.mkdir only after the whole run.
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, minimal_config(directory=directory))

        def no_solve(*args, **kwargs):
            raise AssertionError("the run solved before checking output.directory")

        monkeypatch.setattr("torusflow.jko.run_jko", no_solve)
        for command in ("check", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: output.directory: expected a nonempty")
        assert list(tmp_path.iterdir()) == [path]

    def test_read_states_csv_round_trip(self, tmp_path):
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(directory=str(out_dir)))
        assert main(["run", "--config", str(path)]) == 0
        states = read_states_csv(out_dir / "states.csv")
        assert 0.0 in states
        first = states[0.0][0]
        assert first.size == 16
        assert abs(np.sum(first) * (1 / 16) - 1.0) <= 1e-9

    def test_state_blocks_match_csv_writer(self, tmp_path):
        # One %-format per (time, species) block must print what csv.writer
        # printed row by row, for 0, -0, the smallest subnormal, other
        # subnormals, normal values and large ones, on 1-d and 2-d grids;
        # ledger and series rows, joined by commas, must print what
        # csv.writer printed too, empty fields included.
        edge = np.array([0.0, -0.0, 5e-324, 2.5e-310, 1e-300, 0.1, 1e5, 7.0])
        grid = tf.make_grid(1, 8)
        line = tf.Trajectory(
            grid=grid,
            h=0.1,
            times=np.array([0.0, 0.1]),
            states=[
                (tf.Density(grid, edge), tf.Density(grid, edge[::-1].copy())),
                (tf.Density(grid, np.full(8, 1.0)), tf.Density(grid, np.linspace(0.0, 3.0, 8))),
            ],
        )
        grid = tf.make_grid(2, 3)
        square = np.append(edge, 3.5).reshape(3, 3)
        plane = tf.Trajectory(
            grid=grid,
            h=0.05,
            times=np.array([0.0, 0.05, 0.1]),
            states=[
                (tf.Density(grid, square), tf.Density(grid, square.T.copy())),
                (tf.Density(grid, np.full((3, 3), 1.0)), tf.Density(grid, square[::-1].copy())),
                (tf.Density(grid, square[:, ::-1].copy()), tf.Density(grid, np.eye(3))),
            ],
        )
        header = ["time", "species", "cell_index", "value"]
        for k, traj in enumerate((line, plane)):
            got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
            _write_csv(got, header, _state_blocks(traj, 1))
            with want.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for t, state in zip(traj.times, traj.states):
                    for i, rho in enumerate(state):
                        for cell, value in enumerate(rho.values.ravel()):
                            writer.writerow((_fmt(t), i, cell, _fmt(value)))
            assert got.read_bytes() == want.read_bytes()
            assert b"-0.0000000000000000e+00" in got.read_bytes()
            assert b"4.9406564584124654e-324" in got.read_bytes()

        ledger = types.SimpleNamespace(
            times=np.array([0.0, 0.1, 0.2]),
            w2_sq=np.array([2.5e-310, 0.1]),
            energy=np.array([-0.0, 1e5]),
            drift_term=np.array([0.0, -7.0]),
            entropy=np.array([5e-324, 1e-300]),
            sobolev=np.array([3.0, 0.5]),
            flags=np.array([False, True]),
        )
        series = [
            ("cross_l1", _fmt(0.1), 0, _fmt(5e-324), ""),
            ("stability_w2_sum", _fmt(0.1), "", _fmt(-0.0), _fmt(1e5)),
            ("stability_w2_sum", _fmt(0.2), "", _fmt(0.5), ""),
        ]
        for name, rows in (("ledger", list(_ledger_rows(ledger))), ("series", series)):
            got, want = tmp_path / f"{name}_got.csv", tmp_path / f"{name}_want.csv"
            _write_csv(got, ["a", "b", "c"], map(_line, rows))
            with want.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["a", "b", "c"])
                writer.writerows(rows)
            assert got.read_bytes() == want.read_bytes()
        assert b",,5.0000000000000000e-01,\r\n" in got.read_bytes()
