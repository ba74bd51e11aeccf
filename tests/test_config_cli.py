import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import torusflow as tf
from torusflow import config as cfg_mod
from torusflow.cli import main, read_states_csv
from torusflow.config import ConfigError, parse_config, parse_config_dict
from torusflow.transport import TransportResult

REPO = Path(__file__).resolve().parents[1]


def minimal_config(directory=None, **overrides):
    cfg = {
        "grid": {"dim": 1, "n": 16},
        "species": [
            {"energy": {"kind": "entropy"}, "initial": {"profile": "cosine", "amplitude": 0.5}}
        ],
        "solver": "jko",
        "horizon": 2e-3,
        "jko": {"h": 1e-3, "eps": 2e-3, "tol": 1e-8},
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
            "w2_eps": 1e-3,
        },
        "output": {"cadence": 1, "directory": directory},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestParseConfig:
    def test_minimal_heat_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, minimal_config()))
        assert cfg.species_count == 1
        assert cfg.problem.grid.n == 16
        assert cfg.warnings == []

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

    def test_zero_energy_excludes_parabolic(self, tmp_path):
        bad = minimal_config(solver="parabolic")
        bad["species"][0]["energy"] = {"kind": "zero"}
        with pytest.raises(ConfigError, match="regularized"):
            parse_config(write_config(tmp_path, bad))

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

    def test_stability_with_non_mccann_energy_rejected(self, tmp_path, monkeypatch):
        # Every built-in kind satisfies the condition, so force a failure to
        # exercise the guard.
        monkeypatch.setattr(cfg_mod, "mccann_check", lambda *a, **k: False)
        cfg = minimal_config(
            stability={"initial": [{"profile": "cosine", "amplitude": 0.4}]}
        )
        with pytest.raises(ConfigError, match="McCann"):
            parse_config(write_config(tmp_path, cfg))

    def test_non_mccann_energy_warns_without_stability(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cfg_mod, "mccann_check", lambda *a, **k: False)
        cfg = parse_config(write_config(tmp_path, minimal_config()))
        assert any("McCann" in w for w in cfg.warnings)

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
            ("jko", "debias", "false"),
            ("jko", "debias", 0),
            ("jko", "max_iter", 2.7),
            ("jko", "max_iter", True),
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
        ],
    )
    def test_mistyped_field_rejected(self, tmp_path, capsys, section, key, value):
        # section is a dotted path into the config ("" for the root); list
        # indices appear as numbers and are reported as [i].
        cfg = minimal_config()
        target = cfg
        for part in filter(None, section.split(".")):
            target = target[int(part)] if part.isdigit() else target[part]
        target[key] = value
        field = re.sub(r"\.(\d+)", r"[\1]", f"{section}.{key}".lstrip("."))
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match=re.escape(field)):
            parse_config(path)
        assert main(["check", "--config", str(path)]) == 2
        assert field in capsys.readouterr().err

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
        cfg["jko"] = {"h": 1e-3, "eps": 5e-2, "tol": 1e-8}
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
        cfg["jko"] = {"h": 1e-3, "eps": 5e-2, "tol": 1e-8}
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

    def test_strict_flags_exit_nonzero(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = minimal_config(directory=str(out_dir))
        cfg["diagnostics"] = {"ledger_slack": -1.0}
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--strict"]) == 1
        assert main(["run", "--config", str(path)]) == 0

    def test_both_solvers_emit_series(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = minimal_config(directory=str(out_dir), solver="both")
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path)]) == 0
        assert (out_dir / "states_parabolic.csv").exists()
        series = (out_dir / "series.csv").read_text().strip().splitlines()
        assert any(row.startswith("cross_l1") for row in series[1:])

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
        original = tf.transport.sinkhorn_w2
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "torusflow":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        path = write_config(tmp_path, stability_config(str(tmp_path / "out")))
        assert main(["run", "--config", str(path)]) == 0
        # 3 recorded times x 2 species compared, 8 sampled pairs x 2 species.
        assert len(calls) == 3 * 2 + 8 * 2

    def test_stability_run_unconverged_solve_is_solver_failure(
        self, tmp_path, capsys, unconverged_transport
    ):
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, stability_config(str(out_dir)))
        assert main(["run", "--config", str(path)]) == 3
        assert "solver failure: species 0 transport did not converge" in capsys.readouterr().err
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

    def test_2d_run_end_to_end(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = {
            "grid": {"dim": 2, "n": 8},
            "species": [
                {"energy": {"kind": "entropy"}, "initial": {"profile": "cosine", "amplitude": 0.4}}
            ],
            "solver": "both",
            "horizon": 2e-3,
            "jko": {"h": 1e-3, "eps": 8e-3, "tol": 1e-8},
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
        code = main(
            ["w2", "--a", str(a_path), "--b", str(b_path), "--time", "0.0", "--eps", "1e-3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        total = float(out.strip().splitlines()[-1].split()[-1])
        rho_a = tf.normalize(tf.Density(grid, 1 + 0.5 * np.cos(2 * np.pi * grid.axis_centers)))
        rho_b = tf.normalize(
            tf.Density(grid, 1 + 0.5 * np.cos(2 * np.pi * (grid.axis_centers - 0.25)))
        )
        direct = tf.sinkhorn_w2(rho_a, rho_b, eps=1e-3, tol=1e-9).w2_sq
        assert total == pytest.approx(direct, rel=1e-6)

    def test_w2_missing_time(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("time,species,cell_index,value\n0.0,0,0,1.0\n0.0,0,1,1.0\n")
        code = main(["w2", "--a", str(path), "--b", str(path), "--time", "0.5"])
        assert code == 2
        assert "not recorded" in capsys.readouterr().err

    def test_w2_unconverged_solve_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s.csv"
        rows = ["time,species,cell_index,value"]
        rows += [f"0.0,{s},{c},1.0" for s in (0, 1) for c in (0, 1)]
        path.write_text("\n".join(rows) + "\n")
        results = iter([True, False])

        def fake(mu, nu, eps, tol):
            return TransportResult(
                w2_sq=0.0, plan_marginal_err=1.0, iterations=5, eps=eps,
                converged=next(results),
            )

        monkeypatch.setattr("torusflow.transport.sinkhorn_w2", fake)
        code = main(["w2", "--a", str(path), "--b", str(path), "--time", "0.0"])
        assert code == 3
        captured = capsys.readouterr()
        assert "solver failure: species 1" in captured.err
        assert "total w2_sq" not in captured.out

    def test_w2_grid_beyond_dense_cost_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        rows = ["time,species,cell_index,value"]
        rows += [f"0.0,0,{c},1.0" for c in range(129 * 129)]
        path.write_text("\n".join(rows) + "\n")
        code = main(["w2", "--a", str(path), "--b", str(path), "--time", "0.0", "--dim", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert "16641 cells" in captured.err
        assert "total w2_sq" not in captured.out

    def test_check_drift_on_grid_beyond_dense_cost_is_config_error(self, tmp_path, capsys):
        drift = {"kernels": [[{"kind": "cosine", "amplitude": 0.2}]]}
        cfg = minimal_config(grid={"dim": 2, "n": 130}, drift=drift)
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert "grid.n" in capsys.readouterr().err

    def test_check_drift_free_on_grid_beyond_dense_cost(self, tmp_path, capsys):
        cfg = minimal_config(grid={"dim": 2, "n": 130})
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 0
        assert "config OK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            pytest.param(
                {"grid": {"dim": 2, "n": 80}, "jko": {"h": 1e-3}},
                "too small for the Gibbs kernel",
                id="default-eps-on-2d-n80",
            ),
            pytest.param(
                {"jko": {"h": 1.0, "eps": 1e-3}}, "h/eps is too large", id="h-over-eps"
            ),
        ],
    )
    def test_check_rejects_jko_eps_that_jko_step_rejects(
        self, tmp_path, capsys, overrides, reason
    ):
        cfg = minimal_config(**overrides)
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        assert "config error: jko.eps:" in err and reason in err
        # The smallest admissible eps the message names is accepted.
        cfg["jko"]["eps"] = float(re.search(r"at least (\S+)", err).group(1))
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 0

    # The load-time growth check overflows on t^2000 before the energy does.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_check_rejects_nonfinite_initial_energy(self, tmp_path, capsys):
        cfg = minimal_config()
        cfg["species"][0]["energy"] = {"kind": "power", "m": 2000}
        assert main(["check", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert "config error: species: initial energy is not finite" in capsys.readouterr().err

    def test_read_states_csv_round_trip(self, tmp_path):
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(directory=str(out_dir)))
        assert main(["run", "--config", str(path)]) == 0
        states = read_states_csv(out_dir / "states.csv")
        assert 0.0 in states
        first = states[0.0][0]
        assert first.size == 16
        assert abs(np.sum(first) * (1 / 16) - 1.0) <= 1e-9
