"""sqznet benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload fig2-csv --seed 1 --seconds 8 --trace 0

Run it from the root of a sqznet checkout: the program is imported from
``src`` (nothing to build) and scratch files go to ``.perfbench/``.  One
client sends requests in a closed loop, the next as soon as the previous
one returns, from this single process and thread.  Every output is checked
(see workloads.py); a request that raises or fails its check counts in
``failed``, and so does a cold command.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json.
``--trace 1`` measures its per-layer metrics: an untraced loop, the same
requests again with a span around every call into sqznet (tracer.py), and
one probe request that reaches every layer, for the per-call times of
layers the workload does not reach.  A report goes to stdout, and its last
line is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from ready import load_input
from workloads import SUITES, WORKLOADS, load_sqznet

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
# numpy's BLAS would otherwise start a thread pool.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 8  # fresh set-ups per end-to-end run, at least
IMPORT_RUNS = 3
PARSE_RUNS = 20
IMPORT_PACKAGES = {"scipy": ("scipy",), "numpy": ("numpy",), "yaml": ("yaml", "_yaml"), "sqznet_self": ("sqznet",)}


class Tally:
    """Requests attempted and failed; the first few failures are printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, fn, *args) -> bool:
        """Count one attempt; ``fn(*args)`` returns None or the problem found."""
        self.attempted += 1
        try:
            problem = fn(*args)
        except Exception as exc:  # a broken output is a failed request, not a crash
            problem = f"check raised {exc!r}"
        if problem:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: {problem}", file=sys.stderr)
        return not problem


class Loop:
    """One client sending requests back to back, in one or more timed slices;
    every output is checked."""

    def __init__(self, sqz, wl, tally: Tally, request=None) -> None:
        self.sqz, self.wl, self.tally = sqz, wl, tally
        self.request = request or wl.request
        self.slices: list[list[float]] = []
        self.sent = 0
        self.failed = 0
        self.first = None

    def run(self, seconds: float, min_requests: int = 1) -> None:
        latencies: list[float] = []
        deadline = time.perf_counter() + seconds
        while len(latencies) < min_requests or time.perf_counter() < deadline:
            i = self.sent
            t0 = time.perf_counter()
            try:
                out = self.request(self.sqz, i)
            except Exception as exc:  # a request that raises is a failed request
                latencies.append(time.perf_counter() - t0)
                ok = self.tally.check(f"request {i}", lambda: f"raised {exc!r}")
            else:
                latencies.append(time.perf_counter() - t0)
                ok = self.tally.check(f"request {i}", self.wl.check, out)
                if self.first is None:
                    self.first = out
            self.failed += not ok
            self.sent += 1
        self.slices.append(latencies)

    @property
    def latencies(self) -> list[float]:
        return [x for s in self.slices for x in s]

    @property
    def requests_per_s(self) -> float:
        """Good requests per second: the median over slices, so that a slow
        stretch of the machine moves one slice, not the result."""
        ok_share = 1.0 - self.failed / self.sent
        return ok_share * statistics.median(len(s) / sum(s) for s in self.slices)


def child_env() -> dict[str, str]:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples above it,
    or the maximum when there are fewer than eleven samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


def time_cold(wl, tally: Tally) -> float:
    """Wall time of the workload's real CLI command in a fresh process; its
    output is checked like a request's."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *wl.cold_command(WORK)], cwd=ROOT, env=child_env(), capture_output=True, text=True
    )
    elapsed = time.perf_counter() - t0
    tally.check(
        "cold command",
        lambda: f"exit {proc.returncode}: {proc.stderr[-400:]}" if proc.returncode else wl.check_cold(proc.stdout, WORK),
    )
    return elapsed


def time_ready(cmd: list[str]) -> float:
    """Seconds from spawning a fresh interpreter to its ``ready`` line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode:
        sys.exit(f"error: set-up probe {cmd} failed with exit code {proc.returncode}")
    return elapsed


def end_to_end(sqz, wl, args, tally: Tally) -> tuple[dict, list[str]]:
    """``wl.rounds`` rounds, each one or more fresh set-ups (SETUP_SAMPLES in
    all, at least), a cold command and an equal slice of the loop.  The
    machine's speed drifts over seconds, so interleaving lets every metric
    sample the whole run, not one stretch."""
    ready = [sys.executable, str(BENCH / "ready.py"), wl.config_input()]
    setups_per_round = math.ceil(SETUP_SAMPLES / wl.rounds)
    setup, cold = [], []
    tally.check("warm-up request", wl.check, wl.request(sqz, 0))
    loop = Loop(sqz, wl, tally)
    for _ in range(wl.rounds):
        setup += [time_ready(ready) for _ in range(setups_per_round)]
        cold.append(time_cold(wl, tally))
        loop.run(args.seconds / wl.rounds)
    setup_s = statistics.median(setup)
    tail, pct = tail_latency(loop.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cli_cold_s": (statistics.median(cold), "s"),
        "requests_per_s": (loop.requests_per_s, "1/s"),
        "request_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "request_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters; cli_cold_s: median of {len(cold)}",
        f"request_tail_ms: p{pct:.1f} of {len(loop.latencies)} requests",
        f"error_rate: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4g}",
    ]
    return metrics, notes


def import_breakdown() -> dict[str, tuple[float, str]]:
    """``import.*`` metrics: medians over fresh ``python -X importtime`` runs
    of ``import sqznet.cli`` (what every CLI command loads), self time summed
    by top-level package."""
    runs = defaultdict(list)
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sqznet.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
        )
        self_us = defaultdict(int)
        total_us = 0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            package = name.split(".")[0]
            self_us[package] += int(fields[0])
            if package == "sqznet" and fields[2].startswith(" " + name):  # depth 0
                total_us += int(fields[1])
        runs["total"].append(total_us / 1e6)
        for metric, packages in IMPORT_PACKAGES.items():
            runs[metric].append(sum(self_us[p] for p in packages) / 1e6)
    return {f"import.{k}_s": (statistics.median(v), "s") for k, v in runs.items()}


def probe(sqz, seed: int):
    """One small request into every layer: a 64-point fig2 CSV with the
    bare-OPA column, a cancellation solve with suppression, and verify at
    100 draws.  Returns the verify results."""
    cfg = sqz.config.load_preset("paper-fig2")
    small = dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, points=64))
    sqz.cli.write_csv(small, str(WORK / "probe.csv"))
    sqz.analysis.suppression_db(cfg.mach_zehnder, 2.0 * math.pi * 1e6, 0.01)
    return sqz.verify.run_all(seed=seed, draws=100)


def traced(sqz, wl, args, tally: Tally) -> tuple[dict, list[str]]:
    from tracer import PROBE, Tracer, sqznet_targets

    metrics = import_breakdown()
    parse = []
    for _ in range(PARSE_RUNS):
        t0 = time.perf_counter()
        load_input(sqz.config, wl.config_input())
        parse.append(time.perf_counter() - t0)
    metrics["config.parse_ms"] = (statistics.median(parse) * 1e3, "ms")

    tally.check("warm-up request", wl.check, wl.request(sqz, 0))
    plain = Loop(sqz, wl, tally)
    plain.run(args.seconds / 2)
    tr = Tracer()
    tr.install(sqznet_targets(sqz))
    request = tr.wrap(wl.request, "request")

    def traced_request(sqz, i):
        tr.request = i
        return request(sqz, i)

    try:
        loop = Loop(sqz, wl, tally, traced_request)
        loop.run(args.seconds / 2, wl.count_requests)
        tr.request = PROBE
        probe_results = probe(sqz, args.seed)
    finally:
        tr.uninstall()
    tr.save(WORK / f"spans-{wl.name}.npz")
    metrics.update(layer_metrics(tr, wl, plain, loop, probe_results))
    notes = [
        f"untraced {len(plain.latencies)} requests at {plain.requests_per_s:.4g}/s; "
        f"traced {len(loop.latencies)} at {loop.requests_per_s:.4g}/s",
        f"counts over the first {wl.count_requests} traced request(s); "
        f"per-call times of layers the workload does not reach come from the probe",
        f"{len(tr.start)} spans written to {WORK / f'spans-{wl.name}.npz'}",
        f"error_rate: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4g}",
    ]
    return metrics, notes


def layer_metrics(tr, wl, plain: Loop, loop: Loop, probe_results) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced loop and the probe."""
    import numpy as np

    from tracer import PROBE

    metrics = {}
    s = tr.spans()
    ids = {n: i for i, n in enumerate(tr.names)}
    in_loop = s["req"] >= 0
    counted = in_loop & (s["req"] < wl.count_requests)
    probed = s["req"] == PROBE

    def named(name):
        return s["name"] == ids[name]

    def loop_or_probe(name):
        m = named(name) & in_loop
        return m if m.any() else named(name) & probed

    def calls(name):
        return np.count_nonzero(named(name) & counted) / wl.count_requests

    def per_call(name, col="dur"):
        return float(s[col][loop_or_probe(name)].mean())

    for layer in (
        "network.build", "network.evaluate", "elements.opa_transfer", "elements.homodyne_readout",
        "core.combine", "core.variance", "core.noise_model",
    ):
        metrics[f"{layer}.calls_per_request"] = (calls(layer), "count")
    for layer in ("network.build", "network.evaluate", "elements.homodyne_readout", "core.combine", "core.variance"):
        metrics[f"{layer}.us_per_call"] = (per_call(layer) * 1e6, "us")
    builds = np.flatnonzero(named("network.build") & counted)
    distinct = {(s["req"][i], tr.notes[i]) for i in builds}
    metrics["network.build.useful_ratio"] = (len(distinct) / len(builds), "ratio")
    sweeps = np.flatnonzero(loop_or_probe("network.sweep"))
    points = sum(tr.notes[i] for i in sweeps)
    metrics["network.sweep.us_per_point"] = (s["dur"][sweeps].sum() / points * 1e6, "us")

    bare = s["dur"][named("analysis.bare_source_variance") & in_loop].sum()
    metrics["analysis.bare_source_variance.share"] = (bare / s["dur"][named("request")].sum(), "ratio")
    metrics["analysis.solve.us_per_call"] = (per_call("analysis.solve") * 1e6, "us")
    solves = named("analysis.solve") & counted
    if not solves.any():
        solves = named("analysis.solve") & probed
    under_solve = (s["parent"] >= 0) & solves[s["parent"]]
    evals = np.count_nonzero(named("network.evaluate") & under_solve)
    metrics["analysis.solve.evals_per_solve"] = (evals / np.count_nonzero(solves), "count")
    metrics["analysis.suppression_db.us_per_call"] = (per_call("analysis.suppression_db") * 1e6, "us")
    metrics["cli.write_csv.self_ms"] = (per_call("cli.write_csv", "self") * 1e3, "ms")
    csv_bytes = len(plain.first.encode()) if isinstance(plain.first, str) else 0
    metrics["cli.csv_bytes"] = (csv_bytes, "bytes")

    results = plain.first if wl.name == "verify-default" else probe_results
    for suite, result in zip(SUITES, results):
        metrics[f"verify.{suite}.s"] = (per_call(f"verify.{suite}"), "s")
        metrics[f"verify.{suite}.margin"] = (result.max_error / result.tolerance, "ratio")
    metrics["trace.overhead_frac"] = (1.0 - loop.requests_per_s / plain.requests_per_s, "ratio")
    return metrics


def version(distribution: str) -> str:
    """Installed version, read without importing the package, so that this
    process holds only what sqznet itself imports."""
    try:
        return importlib.metadata.version(distribution)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def metadata(args, wl) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pyyaml": version("PyYAML"),
        "nproc": os.cpu_count(),
        "workload": wl.name,
        "input_size": wl.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "sqznet" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'sqznet'} not found; run from the root of a sqznet checkout")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(src))
    sqz = load_sqznet()
    if Path(sys.modules["sqznet"].__file__).resolve().parent != (src / "sqznet").resolve():
        sys.exit(f"error: imported sqznet from {sys.modules['sqznet'].__file__}, not {src}")
    WORK.mkdir(exist_ok=True)

    wl = WORKLOADS[args.workload]()
    wl.prepare(sqz, args.seed, WORK)
    print("meta " + json.dumps(metadata(args, wl)), flush=True)
    tally = Tally()
    metrics, notes = (traced if args.trace else end_to_end)(sqz, wl, args, tally)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(expected) != sorted(metrics):
        sys.exit(f"error: measured {sorted(metrics)}, BENCHMARK.json lists {sorted(expected)}")
    for name in expected:
        value, unit = metrics[name]
        print(f"{name:42s} {value:14.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in expected},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
