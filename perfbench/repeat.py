"""Run the benchmark once per seed and summarize the spread of each metric.

    python3 perfbench/repeat.py --workloads mc-invariant,mc-data,tables \
        --seeds 1-10 --seconds 30 [--trace 1] [--out perfbench/out/repeat.json]

Runs are sequential, one process at a time.  For each workload and metric
the summary gives the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarize(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="mc-invariant,mc-data,tables")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "summary": proc.stdout.splitlines()[0], **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} failed={result['failed']}/{result['attempted']} {values}", flush=True)
        names = runs[0]["metrics"].keys()
        stats = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names}
        for name, s in stats.items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s.get('spread')}", flush=True)
        report["workloads"][workload] = {"runs": runs, "metrics": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
