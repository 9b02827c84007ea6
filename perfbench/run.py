"""winosim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop: one client, one pass at a time, each pass in a
fresh process started by this script (child.py), so memo caches start
cold as they do for a command-line user.  Passes repeat until the next
one would end past S seconds; at least three run.

--trace 0  times passes with tracing off and reports the end-to-end
           metrics: medians over the passes.
--trace 1  alternates untraced and traced passes and reports the
           per-layer metrics from the traced ones.

The report names every metric with its unit, lists output digests and
failures, and writes full results under perfbench/out/.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status: 0 when every output check passed, 1
when one failed, 2 when the benchmark could not run (no result printed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import DEFAULT_SCALE, END_TO_END_UNITS, PER_LAYER_UNITS, RUN_LEVEL, TIME_UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_PASSES = 3
PASS_TIMEOUT_S = 170.0
# Stop starting passes past this point so a run always ends within 180 s.
HARD_LIMIT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    """The benchmark itself could not run."""


def child_env() -> dict:
    """This environment with one BLAS/OpenMP thread.

    A pass is one client's single-threaded loop.  On a 2-core host a second
    BLAS thread only competes with it: net-vgg16-dense measured 0.59 s per
    pass with one thread and 0.78 s with two.
    """
    return dict(os.environ, **{var: "1" for var in THREAD_VARS})


def spawn(args, mode: str, env: dict) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--scale", str(args.scale),
        "--mode", mode, "--out-dir", str(OUT_DIR),
    ]
    if args.perturb:
        cmd.append("--perturb")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} pass exceeded {PASS_TIMEOUT_S:g} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RunError(f"{mode} pass exited with status {proc.returncode}:\n{tail}")
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RunError(f"{mode} pass printed no result") from exc
    res["mode"] = mode
    res["setup_s"] = res["ready"] - t0
    return res


def pass_modes(trace: bool):
    """Untraced passes only, or untraced, traced, traced, then alternating."""
    n = 0
    while True:
        if not trace:
            yield "timed"
        else:
            yield "timed" if n == 0 or (n >= 3 and n % 2 == 1) else "traced"
        n += 1


def run_passes(args, env: dict) -> tuple[list, float]:
    passes = []
    start = time.monotonic()
    for mode in pass_modes(bool(args.trace)):
        try:
            passes.append(spawn(args, mode, env))
        except RunError as exc:
            if not passes:
                raise
            # The program ran before, so this is a failure of the program.
            passes.append({"mode": mode, "error": str(exc), "ops": []})
        elapsed = time.monotonic() - start
        projected = elapsed * (len(passes) + 1) / len(passes)
        if projected > HARD_LIMIT_S or (len(passes) >= MIN_PASSES and projected > args.seconds):
            break
    return passes, time.monotonic() - start


def stats(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def account(passes: list) -> tuple[int, int, list]:
    """Attempted and failed operations, and why each failure happened.

    An operation also fails when its output digest differs from the same
    operation's digest in an earlier pass: one commit must be deterministic.
    """
    attempted = failed = 0
    failures = []
    first_digest: dict = {}
    for k, p in enumerate(passes):
        if "error" in p:
            attempted += 1
            failed += 1
            failures.append((k, "pass", p["error"]))
            continue
        for name, ok, detail, digest in p["ops"]:
            attempted += 1
            if ok and digest:
                ref = first_digest.setdefault(name, (k, digest))
                if ref[1] != digest:
                    ok, detail = False, f"output digest differs from pass {ref[0]}"
            if not ok:
                failed += 1
                failures.append((k, name, detail))
    return attempted, failed, failures


def end_to_end(timed: list) -> tuple[dict, dict]:
    samples = {
        "setup_s": [p["setup_s"] for p in timed],
        "wall_s": [p["wall_s"] for p in timed],
        "gmac_per_s": [p["macs"] / 1e9 / p["wall_s"] for p in timed],
        "peak_rss_mb": [p["rss_kb"] / 1024.0 for p in timed],
    }
    return samples, {name: stats(v) for name, v in samples.items()}


def per_layer(timed: list, traced: list) -> tuple[dict, list, list]:
    """Medians of traced host times; counts, which must repeat exactly."""
    values: dict = {}
    repeated, differing = [], []
    for name, unit in PER_LAYER_UNITS.items():
        if name in RUN_LEVEL:
            continue
        seen = [p["metrics"][name] for p in traced]
        if unit in TIME_UNITS:
            values[name] = statistics.median(seen)
        else:
            values[name] = seen[0]
            (repeated if all(v == seen[0] for v in seen) else differing).append(name)
    digests = {p["sim_digest"] for p in traced}
    if len(digests) > 1:
        differing.append("sim_digest")
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in timed))
    values["trace.repeated_counts"] = len(repeated)
    return values, repeated, differing


def write_spans(path: Path, passes: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k, p in enumerate(passes):
            for name, start, end, parent, op in p.get("spans", []):
                fh.write(json.dumps({"pass": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one winosim benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="generates the inputs only")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, default=DEFAULT_SCALE,
                    help="VGG16 divisor (the self-test uses a tiny network)")
    ap.add_argument("--perturb", action="store_true",
                    help="negative control: corrupt one output value before the checks")
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "winosim" / "__init__.py").is_file():
            raise RunError(f"no winosim sources under {ROOT / 'src'}")
        OUT_DIR.mkdir(exist_ok=True)
        passes, elapsed = run_passes(args, child_env())
    except RunError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    good = [p for p in passes if "error" not in p]
    timed = [p for p in good if p["mode"] == "timed"]
    traced = [p for p in good if p["mode"] == "traced"]
    attempted, failed, failures = account(passes)
    facts = good[0]["facts"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
              "seconds": args.seconds, "elapsed_s": elapsed, "facts": facts,
              "passes": [{k: v for k, v in p.items() if k not in ("spans", "facts")} for p in passes]}

    print(f"winosim benchmark  workload={args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}")
    print(f"closed loop, one client, fresh process per pass: {len(passes)} passes "
          f"({len(timed)} untraced, {len(traced)} traced) in {elapsed:.1f} s")
    print(f"machine: nproc={facts['nproc']} python={facts['python']} numpy={facts['numpy']} "
          f"blas={facts['blas']} threads={facts['threads_env']}")

    if args.trace:
        if len(traced) < 2 or not timed:
            print("fewer than two traced passes completed", file=sys.stderr)
            failed += 1
            attempted += 1
            values, repeated, differing = {}, [], []
        else:
            values, repeated, differing = per_layer(timed, traced)
        if differing:
            print(f"counts that differ between traced passes: {', '.join(differing)}")
            attempted += 1
            failed += 1
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        print(f"{'per-layer metric':34s} {'value':>16s}  unit")
        for name, m in metrics.items():
            print(f"{name:34s} {m['value']:16.6g}  {m['unit']}")
        self_s: dict = {}
        for p in traced:
            merged: dict = {}
            for name, t in p["self_s"].items():
                # One entry for the benchmark's own glue inside operations.
                key = "op.*" if name.startswith("op.") else name
                merged[key] = merged.get(key, 0.0) + t
            for name, t in merged.items():
                self_s.setdefault(name, []).append(t)
        print("span self time, median over traced passes (s):")
        for name, ts in sorted(self_s.items(), key=lambda kv: -statistics.median(kv[1])):
            print(f"  {name:32s} {statistics.median(ts):12.6f}")
        print(f"tracing overhead: traced pass {values.get('trace.overhead_s', 0):+.4f} s "
              "against the untraced median")
        print(f"counts repeated exactly across {len(traced)} traced passes: {', '.join(repeated)}")
        if traced and traced[0]["sim_digest"]:
            print(f"simulated-count digest (sha256): {traced[0]['sim_digest']}")
        record.update(per_layer=metrics, repeated=repeated, differing=differing,
                      self_s={k: statistics.median(v) for k, v in self_s.items()})
        write_spans(OUT_DIR / f"{tag}.spans.jsonl", good)
    else:
        samples, table = end_to_end(timed)
        metrics = {name: {"value": table[name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        print(f"{'metric':14s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}  unit")
        for name, unit in END_TO_END_UNITS.items():
            t = table[name]
            print(f"{name:14s} {t['median']:14.6f} {t['q1']:14.6f} {t['q3']:14.6f} {t['n']:3d}  {unit}")
        record.update(samples=samples, stats=table)
        digests = timed[0]["digests"] if timed else {}
        print("output digests (sha256), identical in every pass unless listed as failures:")
        for name, digest in digests.items():
            print(f"  {name:12s} {digest}")
    error_rate = failed / attempted if attempted else 1.0
    print(f"error_rate     {error_rate:14.6f} ratio ({failed} of {attempted} operations failed)")
    for k, name, detail in failures[:10]:
        print(f"  FAIL pass {k} {name}: {detail}")
    record.update(attempted=attempted, failed=failed, error_rate=error_rate, failures=failures)
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"results: {(OUT_DIR / (tag + '.json')).relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
