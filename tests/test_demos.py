"""Smoke test: the narrative demos run to completion."""

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
