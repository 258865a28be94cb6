"""Self-test of the benchmark: perturbed outputs fail, and counts repeat.

    python3 perfbench/selftest.py

Run from the root of a sqznet checkout.  For every workload it checks one
real request's output, then feeds perturbed copies of that output through
the benchmark's closed loop and requires each one to be counted as failed.
It then runs the traced benchmark twice at one seed and requires every
exact count (calls per request, evaluations per solve, useful-build ratio,
CSV bytes) to repeat exactly.  Exits 1 on any failure.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

from run import ROOT, WORK, Loop, Tally
from workloads import WORKLOADS, load_sqznet

COUNT_METRICS = ("calls_per_request", "evals_per_solve", "useful_ratio", "csv_bytes")


def _edit_field(text: str, row: int, col: int, edit) -> str:
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[col] = f"{edit(float(fields[col])):.11e}"
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _edit_scan(output, field: int, edit):
    """Cancel-scan output with one value of its last scan point edited."""
    k, scan = output
    last = list(scan[-1])
    last[field] = edit(last[field])
    return k, [*scan[:-1], tuple(last)]


PERTURBATIONS = {
    # v_bare_opa is in no closure, so only the stored reference catches this.
    "fig2-csv": [("bare column vs reference", lambda out: _edit_field(out, 500, 4, lambda v: v * (1 + 1e-9)))],
    "dense-grid": [
        ("budget closure", lambda out: _edit_field(out, 700, 4, lambda v: v * 1.001)),
        ("v_total_db", lambda out: _edit_field(out, 9000, 2, lambda v: v + 1e-6)),
        ("row count", lambda out: "\n".join(out.splitlines()[:-1]) + "\n"),
    ],
    "verify-default": [
        ("suite verdict", lambda out: [dataclasses.replace(out[0], passed=False), *out[1:]]),
    ],
    "cancel-scan": [
        ("eps1", lambda out: _edit_scan(out, 0, lambda v: v * (1 + 1e-9))),
        ("phi", lambda out: _edit_scan(out, 1, lambda v: v + 1e-9)),
        ("suppression", lambda out: _edit_scan(out, 2, lambda v: v + 1e-3)),
    ],
}


def check_perturbations(sqz) -> list[str]:
    problems = []
    work = WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    for name, cls in WORKLOADS.items():
        wl = cls()
        wl.prepare(sqz, 0, work)
        real = wl.request(sqz, 0)
        if wl.check(real):
            problems.append(f"{name}: real output failed its check: {wl.check(real)}")
        for what, perturb in PERTURBATIONS[name]:
            tally = Tally()
            Loop(sqz, wl, tally, lambda sqz, i: perturb(real)).run(0.0, min_requests=2)
            ok = tally.attempted == 2 and tally.failed == 2
            print(f"{name}: perturbed {what}: {tally.failed}/{tally.attempted} failed", flush=True)
            if not ok:
                problems.append(f"{name}: perturbed {what} counted {tally.failed}/{tally.attempted}")
    return problems


def check_counts(seed: int = 3) -> list[str]:
    problems = []
    for name in WORKLOADS:
        counts = []
        for _ in range(2):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", "1", "--trace", "1"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            metrics = json.loads(out.splitlines()[-1])["metrics"]
            counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_METRICS)})
        print(f"{name}: counts {'repeat' if counts[0] == counts[1] else 'DIFFER'}: {counts[0]}", flush=True)
        if counts[0] != counts[1]:
            problems.append(f"{name}: counts differ between runs: {counts}")
    return problems


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    problems = check_perturbations(load_sqznet()) + check_counts()
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
