"""Smoke test: the narrative demos run to completion."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# 04_fleet_simulation.py is left out: it spends several seconds on simulator
# sweeps that the sweep_fleet_size tests already cover.
@pytest.mark.parametrize("demo", [
    "01_phase_mask_objective.py",
    "02_single_machine_climb.py",
    "03_shared_directory_protocol.py",
    "05_worker_daemon_trace.py",
])
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    result = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
                                        if f.endswith(".py")))
def test_every_name_a_demo_imports_from_the_package_exists(demo):
    # Covers the demos the test above does not run, so that a rename in
    # the package cannot break one unseen.
    with open(os.path.join(ROOT, "demos", demo), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "idleclimb"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{demo}: {node.module} has no {missing}"
