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
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
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


if __name__ == "__main__":
    main()
