"""The lazy package: each command imports only the modules it runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torusflow as tf

REPO = Path(__file__).resolve().parents[1]
SRC = Path(tf.__file__).resolve().parents[1]


def loaded_after(code: str, cwd: Path) -> set[str]:
    """The torusflow submodules, and json if loaded, after code runs in a
    fresh interpreter."""
    script = (
        f"{code}\nimport sys\n"
        "print(' '.join(m for m in sys.modules if m.startswith('torusflow.') or m == 'json'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return {name.removeprefix("torusflow.") for name in done.stdout.splitlines()[-1].split()}


def cli_code(argv: list[str], status: int) -> str:
    return f"from torusflow.cli import main\nassert main({argv!r}) == {status}"


@pytest.fixture
def states_files(tmp_path):
    header = "time,species,cell_index,value\n"
    for label, bump in (("a", 0), ("b", 2)):
        rows = "".join(f"0.5,0,{c},{1.0 + (c == bump)}\n" for c in range(4))
        (tmp_path / f"{label}.csv").write_text(header + rows)
    return ["--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv")]


class TestCommandImports:
    def test_import_loads_no_submodule(self, tmp_path):
        assert loaded_after("import torusflow", tmp_path) == set()

    def test_check_loads_no_solver_route_it_does_not_run(self, tmp_path):
        argv = ["check", "--config", str(REPO / "configs" / "heat.json")]
        loaded = loaded_after(cli_code(argv, 0), tmp_path)
        assert "config" in loaded
        assert not {"parabolic", "diagnostics"} & loaded

    def test_w2_early_exit_loads_only_grid(self, tmp_path, states_files):
        # A time absent from both files exits before any transport.
        argv = ["w2", *states_files, "--time", "1.0"]
        assert loaded_after(cli_code(argv, 2), tmp_path) == {"cli", "grid"}

    def test_w2_loads_no_config_or_solver(self, tmp_path, states_files):
        argv = ["w2", *states_files, "--time", "0.5"]
        loaded = loaded_after(cli_code(argv, 0), tmp_path)
        assert "transport" in loaded
        assert not {"config", "interaction", "jko", "parabolic", "diagnostics", "json"} & loaded


class TestLazyPackage:
    SUBMODULES = (
        "cli",
        "config",
        "diagnostics",
        "energy",
        "grid",
        "interaction",
        "jko",
        "parabolic",
        "transport",
    )

    def test_names_are_the_defining_modules_objects(self):
        modules = [importlib.import_module(f"torusflow.{m}") for m in self.SUBMODULES]
        for name in tf.__all__:
            if name == "__version__":
                continue
            defining = [m for m in modules if name in m.__all__]
            assert len(defining) == 1, name
            assert getattr(tf, name) is getattr(defining[0], name), name

    def test_submodules_are_attributes(self):
        for name in self.SUBMODULES:
            assert getattr(tf, name) is importlib.import_module(f"torusflow.{name}")

    def test_star_import_and_dir_cover_all(self):
        namespace: dict = {}
        exec("from torusflow import *", namespace)
        assert set(tf.__all__) <= set(namespace)
        assert set(tf.__all__) <= set(dir(tf))

    def test_unknown_attribute_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            tf.no_such_name
