"""Run the benchmark over several seeds and report each metric's spread.

From the root of a checkout:

    python3 bench/spread.py --workload train-tiny-b32 --seeds 1-10

Runs ``bench/run.py`` once per seed, one process at a time, for the
``run_seconds`` of ``BENCHMARK.json``, and prints the median, the quartiles
and the quartile spread (Q3 - Q1) / median of every metric as JSON; with
``--out`` the rows of every run are written there too.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(rows):
    out = {}
    for name in rows[0]["metrics"]:
        values = [row["metrics"][name]["value"] for row in rows]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan"),
                     "unit": rows[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--out", type=Path, help="file for the per-run rows")
    args = parser.parse_args(argv)
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    rows = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        row["seed"] = seed
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text("".join(json.dumps(row) + "\n" for row in rows))
    failed = {(row["failed"], row["attempted"]) for row in rows}
    print(json.dumps({"workload": args.workload, "runs": len(rows), "all_correct": all(r["correct"] for r in rows),
                      "failed_of_attempted": sorted(failed), "metrics": summarise(rows)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
