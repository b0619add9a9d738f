"""mrscene benchmark: one workload per process.

Run from the root of a checkout:

    python3 bench/run.py --workload train-tiny-b32 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, samples/s, peak
RSS, loss); ``--trace 1`` prints the per-layer metrics of a separate
traced run. Progress goes to stderr; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the working directory; without
it the benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

END_TO_END_UNITS = {"setup_s": "s", "samples_per_s": "samples/s", "peak_rss_mb": "MB", "loss": "nats"}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 600:
        parser.error(f"--seconds must lie in (0, 600], got {args.seconds}")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "mrscene" / "__init__.py").is_file():
        print(f"bench: no mrscene sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    # One process of BLAS threads, no more than the CPUs this process may
    # use; fixed before numpy is first imported.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(src))

    import workloads  # imports numpy and mrscene

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally()
    work = Path.cwd() / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            import layer_trace

            measured = layer_trace.run_trace(wl, args.seed, args.seconds, work, tally)
        else:
            setup_times, samples, model = workloads.timed_set_up(wl, args.seed, work)
            print(f"bench: {wl.name} seed {args.seed}: {len(samples)} {wl.split} samples, "
                  f"{threads} BLAS threads", file=sys.stderr)
            run = workloads.run_train if wl.kind == "train" else workloads.run_eval
            values = run(wl, args.seed, args.seconds, work, samples, model, tally)
            setup_times += workloads.timed_set_up(wl, args.seed, work)[0]
            values["setup_s"] = statistics.median(setup_times)
            measured = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"bench: done in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
