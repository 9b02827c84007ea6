"""Smoke tests: the experiment scripts under scripts/ and the benchmark
self-test run to completion, every module's public names resolve, the
package holds no `assert` statement, a dense pass loads no
`numpy.random`, and a failing Hypothesis test fails only itself."""

import ast
import importlib
import json
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


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so an input check written as one vanishes.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "winosim").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


_RANDOM_PROBE = """
import json, sys
from winosim import cli
from winosim.plans import make_plan

out = sys.argv[1]
loaded = {}
cli.main(["simulate", "--spec", "vgg16", "--scale", "16", "--out", out + "/dense.csv"])
loaded["dense simulate"] = "numpy.random" in sys.modules
for m in (2, 3, 4, 6):
    make_plan(m, 3)
loaded["make_plan"] = "numpy.random" in sys.modules
cli.main(["simulate", "--spec", "vgg16", "--scale", "16", "--sparsity", "0.9",
          "--out", out + "/sparse.csv"])
print(json.dumps(loaded))
"""


def test_dense_simulate_and_plans_do_not_import_numpy_random(tmp_path):
    # A fresh interpreter, so no earlier test has loaded numpy.random.  The
    # sparse pass after the checks still draws its survivors from it.
    proc = subprocess.run(
        [sys.executable, "-c", _RANDOM_PROBE, str(tmp_path)],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"dense simulate": False, "make_plan": False}
    dense = (tmp_path / "dense.csv").read_text().splitlines()
    sparse = (tmp_path / "sparse.csv").read_text().splitlines()
    assert len(sparse) == len(dense) > 1
    assert sparse != dense


_FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 5


def test_after():
    pass
"""


def test_failing_hypothesis_test_fails_only_itself(tmp_path):
    # Under this repo's warning filters, Hypothesis's failure report must not
    # turn into an INTERNALERROR (exit 3) that leaves every later test unrun.
    (tmp_path / "test_probe.py").write_text(_FAILING_GIVEN)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
