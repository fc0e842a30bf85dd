"""One pass of a workload in this fresh interpreter, as a CLI user pays for
a job: import cellspec, build the inputs, run and check every task.

    python3 perfbench/onepass.py <workload> <seed> [--trace] [--setup-only] [--corrupt]

Prints one JSON line.  ``ready`` is a reading of the system-wide monotonic
clock, so that the parent can take set-up time from the moment it spawned
this process; ``setup`` holds the speed probes taken before it.  run.py
spawns this script; it is not meant to be run alone.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import cellspec

    source = Path(cellspec.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"cellspec was imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracer as tracing

        # before workloads is imported, so that its imported names are wrapped
        tracer = tracing.Tracer()
        tracer.install()
    import expected
    import workloads

    if args.corrupt:
        expected.corrupt(args.workload)
    build, run = workloads.WORKLOADS[args.workload]
    plan = build(args.seed)
    probe.sample()  # so that every interval holds at least one probe
    ready = time.monotonic()
    record = {"ready": ready, "setup": probe.between(0.0, ready)}
    if not args.setup_only:
        tally = workloads.Tally()
        probe.sample()
        run(plan, tally)
        done = time.monotonic()
        probe.stop()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        # worker processes the pass started and waited for count too
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        job = probe.between(ready, done)
        whole = probe.between(0.0, done)
        cpu = usage.ru_utime + usage.ru_stime - whole["probe_s"]
        cpu += children.ru_utime + children.ru_stime
        job_wall = done - ready
        record.update(
            attempted=tally.attempted,
            failed=tally.failed,
            errors=tally.errors[:5],
            job_wall_s=job_wall,
            job_factor=job["factor"],
            job_s=(job_wall - job["probe_s"]) * job["factor"],
            cpu_s=cpu * whole["factor"],
            # ru_maxrss is in KiB on Linux; for children it is the largest child's
            peak_rss_mb=max(usage.ru_maxrss, children.ru_maxrss) / 1024.0,
        )
        if tracer is not None:
            record["trace"] = tracer.metrics(job_wall, job["factor"])
    probe.stop()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
