"""The cellspec benchmark.  See perfbench/README.md for the workloads, the
metrics and what each layer metric should move.

    python3 perfbench/run.py --workload under4 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --steadiness [--workload NAME ...]
    python3 perfbench/run.py --self-check

A run spawns fresh interpreters, one per pass (onepass.py), for --seconds
seconds and reports medians over the passes.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics.  The last line of standard output is the
result as one JSON object; the lines before it are for people.

--steadiness runs the benchmark itself in two sets of ten runs per workload,
each run with another seed, and judges the spread of each end-to-end metric
within a set and the change of its median between the sets against the
metric's bound.  --self-check shows that a falsified expectation
is reported as a failed task.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s: no pass starts after RUN_BUDGET_S, and a pass
# that takes longer than PASS_TIMEOUT_S (five times the slowest seen) is killed.
PASS_TIMEOUT_S = 50
MIN_PASSES = 3  # per kind of pass, so that every median has several samples
SETUPS_PER_PASS = 4  # set-up-only spawns after each untraced pass; set-up is the noisiest metric
RUN_BUDGET_S = 120
STEADY_SETS = 2
STEADY_RUNS = 10  # per set and workload

# One process with no extra threads: numpy's BLAS would otherwise start a
# thread per core.  A fixed hash seed keeps set and dict order identical
# between passes.  Bytecode is written once, by a run's warm-up spawn, as
# it is for an installed package.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} is missing")
    if not (ROOT / "src" / "cellspec" / "__init__.py").is_file():
        raise BenchmarkError(f"no cellspec sources under {ROOT / 'src'}")
    return json.loads(path.read_text())


def environment() -> dict:
    """What a number depends on besides the code, so that numbers from
    different commits can be compared."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    try:
        # the ceiling keeps git from reporting an enclosing repository
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
    }


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one pass in a fresh interpreter and return its record, with
    setup_s measured from just before the spawn."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "onepass.py"), workload, str(seed), *flags],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"pass exited with code {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = record["setup"]
    record["setup_wall_s"] = record["ready"] - started
    record["setup_s"] = (record["setup_wall_s"] - setup["probe_s"]) * setup["factor"]
    for error in record.get("errors", ()):
        print(f"failed task: {error}", file=sys.stderr)
    return record


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Spawn passes for the given seconds and return the samples."""
    spawn(workload, seed, "--setup-only")  # writes bytecode and warms the file cache
    kinds = [()] if not trace else [(), ("--trace",)]
    samples: dict[tuple, list] = {kind: [] for kind in kinds}
    setups: list[float] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        enough = all(len(v) >= MIN_PASSES for v in samples.values())
        if (enough and elapsed >= seconds) or elapsed >= RUN_BUDGET_S:
            break
        for kind in kinds:
            record = spawn(workload, seed, *kind)
            samples[kind].append(record)
            setups.append(record["setup_s"])
        if not trace:
            for _ in range(SETUPS_PER_PASS):
                setups.append(spawn(workload, seed, "--setup-only")["setup_s"])
    return {"passes": samples, "setups": setups}


def run_once(args, spec: dict) -> int:
    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    data = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    plain = data["passes"][()]
    records = [r for passes in data["passes"].values() for r in passes]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    job = [r["job_s"] for r in plain]
    if args.trace == 0:
        values = {
            "job_s": statistics.median(job),
            "setup_s": statistics.median(data["setups"]),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        wanted = spec["end_to_end"]
    else:
        traced = data["passes"][("--trace",)]
        names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_ratio"}
        missing = names - set(traced[0]["trace"])
        if missing:
            print(f"no span produced {sorted(missing)}; reported as 0", file=sys.stderr)
        values = {name: statistics.median(r["trace"].get(name, 0) for r in traced) for name in names}
        traced_job = statistics.median(r["job_s"] for r in traced)
        values["trace.overhead_ratio"] = traced_job / statistics.median(job)
        wanted = spec["per_layer"]
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{len(records)} passes, {len(data['setups'])} set-ups"
    )
    for m in wanted:
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    q1, q2, q3 = quartiles(job)
    print(f"  job_s quartiles over untraced passes: {q1:.4f} {q2:.4f} {q3:.4f} s")
    raw = {
        "job_wall_s": statistics.median(r["job_wall_s"] for r in plain),
        "job_factor": statistics.median(r["job_factor"] for r in plain),
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in records),
    }
    print("  unscaled: " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} ratio ({failed} of {attempted} tasks)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def steadiness(args, spec: dict) -> int:
    """Run the benchmark in two sets of ten runs per workload and judge each
    end-to-end metric's spread, (q3 - q1) / median over a set, and the
    change of its median between the sets, either way, against the
    metric's bound."""
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    ok = True
    for workload in names:
        sets = []
        for s in range(STEADY_SETS):
            results = []
            for i in range(STEADY_RUNS):
                seed = 1 + s * STEADY_RUNS + i
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                if proc.returncode != 0:
                    raise BenchmarkError(f"{' '.join(cmd)} failed:\n{proc.stderr[-3000:]}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                ok &= result["correct"]
                results.append({k: v["value"] for k, v in result["metrics"].items()})
                print(f"{workload} set {s + 1} seed {seed}: "
                      + " ".join(f"{k}={v:.4f}" for k, v in results[-1].items()), flush=True)
            sets.append(results)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            line = f"{workload:<9} {name:<12} bound {bound:.2f}"
            medians = []
            for s, results in enumerate(sets):
                q1, q2, q3 = quartiles([r[name] for r in results])
                spread = (q3 - q1) / q2
                medians.append(q2)
                fits = spread <= bound
                ok &= fits
                line += f" | set {s + 1}: median {q2:.4f} spread {spread:.3f}"
                line += "" if fits else " OVER"
            change = (medians[1] - medians[0]) / medians[0]
            fits = abs(change) <= bound
            ok &= fits
            line += f" | change {change:+.3f}" + ("" if fits else " OVER")
            print(line, flush=True)
    print("steady: every spread and change within its bound" if ok else "NOT steady")
    return 0 if ok else 1


def self_check(spec: dict) -> int:
    """One clean and one corrupted pass per workload: the clean one must
    fail no task, the corrupted one at least one."""
    ok = True
    for w in spec["workloads"]:
        clean = spawn(w["name"], 1)
        corrupt = spawn(w["name"], 1, "--corrupt")
        ratios = [r["failed"] / r["attempted"] for r in (clean, corrupt)]
        good = ratios[0] == 0 and ratios[1] > 0
        ok &= good
        print(f"{w['name']:<9} fail_ratio clean {ratios[0]:.4f}, with one corrupted "
              f"expectation {ratios[1]:.4f}: {'ok' if good else 'NOT DETECTED'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    try:
        spec = load_spec()
        known = [w["name"] for w in spec["workloads"]]
        for name in args.workload or []:
            if name not in known:
                parser.error(f"unknown workload {name!r}; choose from {known}")
        if args.steadiness:
            return steadiness(args, spec)
        if args.self_check:
            return self_check(spec)
        if not args.workload or len(args.workload) != 1:
            parser.error("give exactly one --workload")
        args.workload = args.workload[0]
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return run_once(args, spec)
    except (BenchmarkError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
