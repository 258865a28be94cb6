"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --runs 10 [--workloads fig2-csv,...] [--trace 0] [--out FILE]

For every workload and metric it prints the median, the quartiles and the
spread (Q3 - Q1) / median over the runs, with seeds 1..runs, and the
bound BENCHMARK.json allows.  ``--out`` writes the runs, their metadata and
the summary as JSON: a record of the baseline at one commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    record = {"runs": {}, "summary": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
            meta = json.loads(lines[0].removeprefix("meta "))
            result = json.loads(lines[-1])
            runs.append({"meta": meta, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        record["runs"][workload] = runs
        summary = record["summary"][workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + ("  OVER" if spread > bound else "")
            print(f"  {name:42s} median {med:12.6g}  spread {spread:7.4f}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
