"""Smoke tests: the experiment scripts under scripts/ and the benchmark
self-test run to completion, and every module's public names resolve."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize(
    "script, args",
    [
        ("print_parameter_table.py", []),
        ("trace_block_schedule.py", []),
        ("sweep_energy_latency.py", ["--scale", "16", "--out", "{tmp}/dse.csv"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_selftest_passes():
    # The benchmark drives the package through names no command uses
    # (TransformedBatch.at, matmul_trace, simulate_transform, ...).
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


@pytest.mark.parametrize("module", ["plans", "layout", "bcoo", "engine", "sim", "model"])
def test_public_names_resolve(module):
    mod = importlib.import_module(f"winosim.{module}")
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
