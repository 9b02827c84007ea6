"""Self-test of the benchmark on a tiny network; it has no timing gate.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to the benchmark contract and agrees
with spec.py, that every workload prints a well-formed result line in
both modes, that the checker's negative control fails the run, that the
sparse reference decoder agrees with the package's, and that the
benchmark refuses to run without the winosim sources.  Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from spec import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--seconds", "1", "--scale", "16"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures: list = []


def check(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def check_benchmark_json() -> None:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    check(len(raw) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")
    b = json.loads(raw)
    check(set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")
    cmd = b["command"]
    check(isinstance(cmd, list) and 1 <= len(cmd) <= 32 and all(
        isinstance(a, str) and len(a) <= 200 and not a.startswith("/") and ".." not in a for a in cmd),
        "command is a list of at most 32 relative strings")
    paths = b["paths"]
    check(1 <= len(paths) <= 16 and all(PATH.match(p) and ".." not in p for p in paths),
          "paths are 1 to 16 relative directories")
    check(isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60, "run_seconds in 1..60")

    wl = b["workloads"]
    check(2 <= len(wl) <= 8, "2 to 8 workloads")
    check(all(set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
              for w in wl), "each workload has exactly a one-line name and why")
    check([w["name"] for w in wl] == list(WORKLOADS), "workload names match spec.WORKLOADS")

    e2e = b["end_to_end"]
    check(1 <= len(e2e) <= 16 and all(set(m) == {"name", "unit", "better", "bound"} for m in e2e),
          "end_to_end metrics have exactly name, unit, better, bound")
    check({m["name"]: m["unit"] for m in e2e} == END_TO_END_UNITS,
          "end_to_end names and units match spec.END_TO_END_UNITS")
    check(all(m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25 for m in e2e),
          "each bound lies in (0, 0.25] and better is lower or higher")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in e2e),
          "setup_s is present, in s, lower is better, with the largest bound")

    pl = b["per_layer"]
    check(1 <= len(pl) <= 128 and all(set(m) == {"name", "unit", "better"} for m in pl),
          "per_layer metrics have exactly name, unit, better")
    check({m["name"]: m["unit"] for m in pl} == PER_LAYER_UNITS,
          "per_layer names and units match spec.PER_LAYER_UNITS")

    names = [w["name"] for w in wl] + [m["name"] for m in e2e] + [m["name"] for m in pl]
    check(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
          "every name uses the allowed characters and appears once")
    check(all(UNIT.match(m["unit"]) for m in e2e + pl), "every unit uses the allowed characters")


def run(args: list, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def check_result(res: dict | None, units: dict, what: str) -> None:
    ok = (res is not None and set(res) == {"correct", "attempted", "failed", "metrics"}
          and isinstance(res["attempted"], int) and res["attempted"] >= 1
          and isinstance(res["failed"], int)
          and {k: v["unit"] for k, v in res["metrics"].items()} == units
          and all(set(v) == {"value", "unit"} and isinstance(v["value"], (int, float))
                  for v in res["metrics"].values()))
    check(ok, f"{what}: result line has the contract's shape and every metric")


def check_workloads() -> None:
    for w in WORKLOADS:
        for trace, units in (("0", END_TO_END_UNITS), ("1", PER_LAYER_UNITS)):
            rc, res = run(["--workload", w, "--seed", "3", "--trace", trace] + TINY)
            check_result(res, units, f"{w} trace {trace}")
            check(rc == 0 and res is not None and res["correct"] and res["failed"] == 0,
                  f"{w} trace {trace}: every output check passes")
        rc, res = run(["--workload", w, "--seed", "3", "--trace", "0", "--perturb"] + TINY)
        check(rc == 1 and res is not None and not res["correct"] and res["failed"] > 0,
              f"{w}: perturbing one output value fails the run (negative control)")


def check_decoder() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from winosim import bcoo, engine
    from winosim.layout import from_zmorton
    from winosim.plans import make_plan

    from workloads import bcoo_to_dense

    rng = np.random.default_rng(0)
    plan = make_plan(2, 3)
    _, enc, _ = engine.compress_filters(rng.uniform(-1, 1, (37, 21, 3, 3)), plan, 0.8)
    same = all(np.array_equal(bcoo_to_dense(u), from_zmorton(bcoo.bcoo_decode(u))) for u in enc)
    check(same, "the reference BCOO decoder agrees with bcoo_decode")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        rc, res = run(["--workload", WORKLOADS[0], "--seed", "1", "--trace", "0"] + TINY, cwd=bare)
        check(rc != 0 and res is None, "without src/ the run exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_benchmark_json()
    check_decoder()
    check_refuses_without_sources()
    check_workloads()
    print("selftest:", "all checks passed" if not failures else f"{len(failures)} FAILED")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
