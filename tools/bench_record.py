"""Run the benchmark on given commits and record the results in BENCH_<pr>.json.

    python3 tools/bench_record.py --pr 6 --commits PARENT CHANGE \
        --workloads dense-grid fig2-csv --seeds 1 2 3 [--trace 1]

Run it from a sqznet git checkout.  Each commit's files are extracted with
``git archive`` into ``.perfbench/checkouts/<sha>`` and measured there with
its own ``perfbench/run.py``, for the run length BENCHMARK.json sets.  For
each workload and seed the commits run back to back, and the order is
reversed on every other seed, so that a drift of the machine's speed falls
on both sides.  Each run's final JSON line is appended to ``BENCH_<pr>.json``
at the root (created if missing) with the commit, the hash of its ``src``
tree (which outlives a rewritten commit), the workload, seed, trace flag,
the number of its pair, so that parent and change runs can be matched, and
the machine's 1-minute load average when the run started and ended.

With two commits, the first is the parent and the second the change.  After
its runs the tool prints, per workload, a summary of every pair in the file
that compares those two commits: each end-to-end metric's median per
commit, the change/parent ratio of the medians, the number of pairs the
change won, and the range of the 1-minute load average over those runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def checkout(sha: str) -> Path:
    """The commit's files, extracted once under .perfbench/checkouts."""
    dest = ROOT / ".perfbench" / "checkouts" / sha
    if not dest.is_dir():
        archive = subprocess.run(
            ["git", "archive", sha], cwd=ROOT, capture_output=True, check=True
        ).stdout
        dest.mkdir(parents=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    seconds = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(lines[-1])


def summary(record: dict, parent: str, change: str, end_to_end: list[dict]) -> list[str]:
    """Per workload, the end-to-end medians of ``parent`` and ``change`` over
    every pair of the two in ``record``, their ratio, the change's wins and
    the load range."""
    pairs: dict = defaultdict(dict)
    for run in record["runs"]:
        pairs[run["pair"]][run["commit"]] = run
    by_workload: dict = defaultdict(list)
    for runs in pairs.values():
        if runs.keys() == {parent, change}:
            a, b = runs[parent], runs[change]
            by_workload[(a["workload"], a["trace"])].append((a, b))
    lines = []
    for (workload, trace), matched in by_workload.items():
        loads = [x for pair in matched for run in pair for x in run["load_average"]]
        lines.append(
            f"{workload} trace {trace}: {len(matched)} pairs, load {min(loads):.2f}-{max(loads):.2f}"
        )
        for metric in end_to_end:
            name = metric["name"]
            a, b = ([run["result"]["metrics"][name]["value"] for run in side] for side in zip(*matched))
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
            ma, mb = statistics.median(a), statistics.median(b)
            lines.append(
                f"  {name:<16} {ma:10.4g} -> {mb:10.4g} {metric['unit']:<3}"
                f"  ratio {mb / ma:.3f}  change better in {wins}/{len(matched)}"
            )
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--commits", nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = ROOT / f"BENCH_{args.pr}.json"
    record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"pr": args.pr, "runs": []}
    shas = {c: git("rev-parse", "--verify", f"{c}^{{commit}}") for c in args.commits}
    trees = {c: checkout(sha) for c, sha in shas.items()}
    pair = max((r["pair"] for r in record["runs"]), default=-1)
    for workload in args.workloads:
        for seed in args.seeds:
            pair += 1
            order = args.commits if pair % 2 == 0 else args.commits[::-1]
            for commit in order:
                load_start = os.getloadavg()[0]
                result = run_once(trees[commit], workload, seed, args.trace)
                record["runs"].append({
                    "commit": shas[commit],
                    "src_tree": git("rev-parse", f"{shas[commit]}:src"),
                    "workload": workload,
                    "seed": seed,
                    "trace": args.trace,
                    "pair": pair,
                    "load_average": [load_start, os.getloadavg()[0]],
                    "result": result,
                })
                value = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"{shas[commit][:12]} {workload} seed {seed}: correct={result['correct']} {value}")
                out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if len(shas) == 2:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        print("\n".join(summary(record, *shas.values(), benchmark["end_to_end"])))


if __name__ == "__main__":
    main()
