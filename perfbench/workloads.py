"""The benchmark's workloads: seeded inputs, one request, and output checks.

Every request's output is checked by code in this file that does not call
sqznet: sweep CSVs against closed-form budgets and stored references,
verify verdicts against their tolerances, and cancellation solutions
against the closed form T(Omega) = sqrt(4 k_ic k_oc) / (i Omega + kappa - g).

sqznet is reached through its modules at call time (``sqz.cli.write_csv``),
never through names bound here, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import cmath
import gzip
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DENSE_POINTS = 20_000
DENSE_REFERENCE_SEED = 0
DENSE_REFERENCE_STRIDE = 50
ORACLE_ROWS = 64
VERIFY_DRAWS = 10_000
CANCEL_POOL = 256
SCAN_POINTS = 4
SUITES = ("consistency", "passive_unitarity", "uncertainty_product", "budget_closure", "residual_scaling")
BUDGET_COLUMNS = ["vac", "src", "oc", "loss", "prop-vac", "detection", "dark"]


def load_sqznet():
    """Import sqznet's modules once the checkout's ``src`` is on ``sys.path``."""
    import sqznet.analysis
    import sqznet.cli
    import sqznet.config
    import sqznet.verify

    return SimpleNamespace(
        analysis=sqznet.analysis, cli=sqznet.cli, config=sqznet.config, verify=sqznet.verify
    )


def random_scenario(rng: random.Random, points: int) -> dict:
    """A valid interferometer scenario mapping with seeded parameters.

    The topology is fixed (propagation loss and modulator always present,
    budget on, bare-OPA off), so the cost per grid point does not depend on
    the seed; only the physics does.
    """
    return {
        "mach_zehnder": {
            "epsilon1": "auto",
            "epsilon1_mismatch": rng.uniform(0.0, 0.02),
            "epsilon2": rng.uniform(0.5, 0.995),
            "phi": rng.uniform(-0.05, 0.05),
            "carrier_power_w": rng.uniform(0.01, 0.1),
            "propagation_eta": rng.uniform(0.8, 0.99),
            "opa": {
                "linewidth_hz": rng.uniform(5e6, 5e7),
                "linewidth_convention": "fwhm",
                "t_ic": rng.uniform(1e-4, 1e-3),
                "t_oc": rng.uniform(0.01, 0.1),
                "t_loss": rng.uniform(1e-3, 1e-2),
                "g_over_kappa": rng.uniform(-0.6, -0.05),
            },
            "detection": {
                "pd_efficiency": rng.uniform(0.85, 0.99),
                "visibility": rng.uniform(0.95, 1.0),
                "dark_rel": rng.uniform(0.0, 0.05),
            },
            "modulation": {"frequency_hz": rng.uniform(1e7, 3e7), "depth": rng.uniform(0.01, 0.1)},
        },
        "source_noise": {
            "base": 1.0,
            "peaks": [
                {
                    "center_hz": rng.uniform(5e5, 5e6),
                    "half_width_hz": rng.uniform(2e4, 3e5),
                    "excess": rng.uniform(1e3, 1e5),
                }
            ],
            "low_freq_excess": {"amplitude": 10.0 ** rng.uniform(13.0, 16.0), "exponent": 2.0},
        },
        "grid": {
            "min_hz": rng.uniform(5e4, 1e5),
            "max_hz": rng.uniform(2e7, 3e7),
            "points": points,
            "spacing": "linear",
        },
        "outputs": {"budget": True, "bare_opa": False},
    }


# --- closed forms, independent of sqznet -------------------------------------


def _opa_rates(opa: dict) -> tuple[float, float, float, float, float]:
    """(k_ic, k_oc, k_loss, kappa, g) from mirror transmissions and an FWHM linewidth."""
    kappa = math.pi * opa["linewidth_hz"]
    total = opa["t_ic"] + opa["t_oc"] + opa["t_loss"]
    k_ic, k_oc, k_loss = (kappa * opa[k] / total for k in ("t_ic", "t_oc", "t_loss"))
    return k_ic, k_oc, k_loss, kappa, opa["g_over_kappa"] * kappa


def seed_transfer(opa: dict, omega: float) -> complex:
    """T(Omega): amplitude-quadrature transfer of the seed through the OPA."""
    k_ic, k_oc, _, kappa, g = _opa_rates(opa)
    return math.sqrt(4.0 * k_ic * k_oc) / (1j * omega + kappa - g)


def cancelling_split(epsilon2: float, t: complex) -> tuple[float, float]:
    """(eps1, phi) that null the source coefficient: ROADMAP item 2's closed form."""
    return 1.0 - 1.0 / (1.0 + epsilon2 / (1.0 - epsilon2) * abs(t) ** 2), -cmath.phase(t)


def source_noise(model: dict, f_hz: float) -> float:
    v = model.get("base", 1.0)
    for peak in model.get("peaks") or []:
        hw = peak["half_width_hz"]
        v += peak["excess"] * hw**2 / ((f_hz - peak["center_hz"]) ** 2 + hw**2)
    low = model.get("low_freq_excess")
    if low:
        v += low["amplitude"] / f_hz ** low["exponent"]
    return v


def budget_oracle(scenario: dict, f_hz: float) -> dict[str, float]:
    """Detected amplitude-quadrature budget of ``scenario`` at ``f_hz``, term by term."""
    mz = scenario["mach_zehnder"]
    k_ic, k_oc, k_loss, kappa, g = _opa_rates(mz["opa"])
    e2 = mz["epsilon2"]
    e1 = cancelling_split(e2, seed_transfer(mz["opa"], 0.0))[0] * (1.0 + mz["epsilon1_mismatch"])
    omega = 2.0 * math.pi * f_hz
    den = 1j * omega + kappa - g
    t_seed = math.sqrt(4.0 * k_ic * k_oc) / den
    ref = cmath.exp(-1j * mz["phi"]) * math.sqrt(1.0 - e2)
    a = math.sqrt(mz["propagation_eta"])
    coeffs = {
        "vac": a * (math.sqrt(e2 * e1) * t_seed + ref * math.sqrt(1.0 - e1)),
        "src": a * (math.sqrt(e2 * (1.0 - e1)) * t_seed - ref * math.sqrt(e1)),
        "oc": a * math.sqrt(e2) * (2.0 * k_oc - 1j * omega - kappa + g) / den,
        "loss": a * math.sqrt(e2) * math.sqrt(4.0 * k_loss * k_oc) / den,
        "prop-vac": math.sqrt(1.0 - mz["propagation_eta"]),
    }
    det = mz["detection"]
    eta = det["pd_efficiency"] * det["visibility"] ** 2
    v_src = source_noise(scenario["source_noise"], f_hz)
    budget = {k: eta * abs(c) ** 2 * (v_src if k == "src" else 1.0) for k, c in coeffs.items()}
    budget["detection"] = 1.0 - eta
    budget["dark"] = det["dark_rel"]
    return budget


# --- sweep CSV checks ---------------------------------------------------------


def _quantum(x: float) -> float:
    """One unit in the last of the 12 significant digits the CSV prints."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 11) if x else 0.0


def compare_rows(rows: list[str], reference: list[str]) -> str | None:
    """Values agree to 1e-12 relative, or differ by one rounding step of the
    last printed digit (a flip ROADMAP item 3 allows and asks to be reported)."""
    if rows == reference:
        return None
    if len(rows) != len(reference):
        return f"{len(rows)} rows, reference has {len(reference)}"
    for i, (row, ref) in enumerate(zip(rows, reference)):
        if row == ref:
            continue
        got, want = row.split(","), ref.split(",")
        if len(got) != len(want):
            return f"row {i}: {len(got)} fields, reference has {len(want)}"
        try:
            pairs = [(float(a), float(b)) for a, b in zip(got, want)]
        except ValueError:
            return f"row {i}: {row!r} differs from reference {ref!r}"
        for a, b in pairs:
            if abs(a - b) > max(1e-12 * abs(b), _quantum(b) * 1.000001):
                return f"row {i}: {a!r} differs from reference {b!r}"
    return None


def check_sweep_csv(
    text: str,
    points: int,
    bare: bool,
    scenario: dict | None = None,
    reference: list[str] | None = None,
    stride: int = 1,
) -> str | None:
    """None if the CSV is right, else the first problem found.

    Every row: finite values, increasing frequency, shot_ref = 1,
    v_total_db = 10 log10 v_total, and budget columns summing to v_total
    (the 1e-9 closure the CLI's 12-digit format guarantees).  With a
    ``scenario``, ORACLE_ROWS evenly spaced rows also match the closed-form
    budget; with a ``reference``, the rows ``reference_rows(text, stride)``
    picks must match it.
    """
    lines = text.splitlines()
    header = ["frequency_hz", "v_total", "v_total_db", "shot_ref"]
    header += ["v_bare_opa"] if bare else []
    if lines[0].split(",") != header + BUDGET_COLUMNS:
        return f"unexpected header {lines[0]!r}"
    body = lines[1:]
    if len(body) != points:
        return f"{len(body)} rows, expected {points}"
    first_budget = len(header)
    prev_f = 0.0
    for i, line in enumerate(body):
        vals = [float(x) for x in line.split(",")]
        if len(vals) != len(header) + len(BUDGET_COLUMNS) or not all(map(math.isfinite, vals)):
            return f"row {i}: malformed {line!r}"
        f_hz, v, v_db, shot = vals[:4]
        if not f_hz > prev_f or v <= 0.0 or shot != 1.0:
            return f"row {i}: bad frequency, total or shot_ref in {line!r}"
        prev_f = f_hz
        if abs(v_db - 10.0 * math.log10(v)) > 1e-9 * max(1.0, abs(v_db)):
            return f"row {i}: v_total_db {v_db!r} != 10 log10 {v!r}"
        if abs(sum(vals[first_budget:]) - v) > 1e-9 * v:
            return f"row {i}: budget sums to {sum(vals[first_budget:])!r}, v_total {v!r}"
    if scenario is not None:
        for i in range(0, points, max(1, points // ORACLE_ROWS)):
            vals = [float(x) for x in body[i].split(",")]
            want = budget_oracle(scenario, vals[0])
            total = sum(want.values())
            got = dict(zip(BUDGET_COLUMNS, vals[first_budget:]))
            got["v_total"], want["v_total"] = vals[1], total
            for key, w in want.items():
                if abs(got[key] - w) > 1e-9 * abs(w) + 1e-12 * total:
                    return f"row {i}: {key} = {got[key]!r}, closed form gives {w!r}"
    if reference is not None:
        return compare_rows(reference_rows(text, stride), reference)
    return None


def read_reference(name: str) -> list[str]:
    with gzip.open(REFERENCE_DIR / name, "rt", encoding="utf-8") as fh:
        return fh.read().splitlines()


def reference_rows(text: str, stride: int) -> list[str]:
    """Header, every ``stride``-th data row, and the last row."""
    lines = text.splitlines()
    body = lines[1:]
    picked = [lines[0]] + body[::stride]
    if (len(body) - 1) % stride:
        picked.append(body[-1])
    return picked


# --- workloads ------------------------------------------------------------------


class Workload:
    """One kind of request.  ``prepare`` makes the seeded inputs in ``work``."""

    name = ""
    count_requests = 1  # requests whose calls are counted in the traced run
    rounds = 8  # interleaved rounds of an end-to-end run (run.py)
    size = ""

    def prepare(self, sqz, seed: int, work: Path) -> None:
        raise NotImplementedError

    def request(self, sqz, i: int):
        raise NotImplementedError

    def check(self, output) -> str | None:
        raise NotImplementedError

    def cold_command(self, work: Path) -> list[str]:
        """Arguments after ``python3`` for the workload's real CLI command."""
        raise NotImplementedError

    def check_cold(self, stdout: str, work: Path) -> str | None:
        raise NotImplementedError

    def config_input(self) -> str:
        """Argument of ``ready.py`` naming the workload's configuration."""
        raise NotImplementedError


class _SweepCsv(Workload):
    """Requests are ``write_csv`` of one scenario; the output is the CSV text."""

    bare = False

    def request(self, sqz, i: int) -> str:
        sqz.cli.write_csv(self.cfg, str(self.out))
        return self.out.read_text(encoding="utf-8")

    def check(self, output: str) -> str | None:
        return check_sweep_csv(
            output, self.cfg.grid.points, self.bare, self.scenario, self.reference, self.stride
        )

    def check_cold(self, stdout: str, work: Path) -> str | None:
        return self.check((work / "cold.csv").read_text(encoding="utf-8"))


class Fig2Csv(_SweepCsv):
    name = "fig2-csv"
    bare = True
    size = "preset paper-fig2: 1000 log points, budget and bare-OPA columns"

    def prepare(self, sqz, seed: int, work: Path) -> None:
        self.cfg = sqz.config.load_preset("paper-fig2")
        self.scenario = None
        self.reference = read_reference("fig2.csv.gz")
        self.stride = 1
        self.out = work / "request.csv"

    def cold_command(self, work: Path) -> list[str]:
        return ["-m", "sqznet", "sweep", "--preset", "paper-fig2", "--out", str(work / "cold.csv")]

    def config_input(self) -> str:
        return "preset:paper-fig2"


class DenseGrid(_SweepCsv):
    name = "dense-grid"
    rounds = 4  # a request takes about 2 s
    size = f"seeded scenario YAML: {DENSE_POINTS} linear points, budget on, bare-OPA off"

    def prepare(self, sqz, seed: int, work: Path) -> None:
        import yaml

        self.scenario = random_scenario(random.Random(seed), DENSE_POINTS)
        self.yaml_path = work / "dense.yaml"
        self.yaml_path.write_text(yaml.safe_dump(self.scenario), encoding="utf-8")
        self.cfg = sqz.config.load_config(str(self.yaml_path))
        self.reference = (
            read_reference(f"dense-grid-seed{seed}.rows.csv.gz")
            if seed == DENSE_REFERENCE_SEED
            else None
        )
        self.stride = DENSE_REFERENCE_STRIDE
        self.out = work / "request.csv"

    def cold_command(self, work: Path) -> list[str]:
        return ["-m", "sqznet", "sweep", "--config", str(self.yaml_path), "--out", str(work / "cold.csv")]

    def config_input(self) -> str:
        return f"yaml:{self.yaml_path}"


class VerifyDefault(Workload):
    name = "verify-default"
    rounds = 4  # a request takes about 2 s
    size = f"verify.run_all at {VERIFY_DRAWS} consistency draws"

    def prepare(self, sqz, seed: int, work: Path) -> None:
        self.seed = seed

    def request(self, sqz, i: int):
        return sqz.verify.run_all(seed=self.seed, draws=VERIFY_DRAWS)

    def check(self, output) -> str | None:
        if len(output) != len(SUITES):
            return f"{len(output)} suite results, expected {len(SUITES)}"
        for r in output:
            if not (r.passed and math.isfinite(r.max_error) and r.max_error <= r.tolerance):
                return f"suite '{r.name}' did not pass: {r.line()}"
        return None

    def cold_command(self, work: Path) -> list[str]:
        return ["-m", "sqznet", "verify", "--seed", str(self.seed)]

    def check_cold(self, stdout: str, work: Path) -> str | None:
        lines = stdout.splitlines()
        if len(lines) != len(SUITES) or not all(line.startswith("PASS ") for line in lines):
            return f"verify CLI printed {stdout!r}"
        return None

    def config_input(self) -> str:
        return "preset:paper-fig2"


class CancelScan(Workload):
    """A request scans one design at SCAN_POINTS frequencies: a cancellation
    solve plus ``suppression_db`` at each.  The j-th frequency is drawn
    log-uniformly from the j-th of SCAN_POINTS equal log-width bands of
    10 kHz-30 MHz, so every request holds the same mix of cheap (low Omega)
    and expensive (near-linewidth) solves.  Requests cycle through a seeded
    pool of designs."""

    name = "cancel-scan"
    count_requests = 16
    size = (
        f"pool of {CANCEL_POOL} seeded designs, each scanned at {SCAN_POINTS} "
        "frequencies stratified log-uniform over 10 kHz-30 MHz"
    )

    def prepare(self, sqz, seed: int, work: Path) -> None:
        rng = random.Random(seed)
        lo, hi = 4.0, math.log10(3e7)
        bands = [lo + (hi - lo) * j / SCAN_POINTS for j in range(SCAN_POINTS + 1)]
        self.designs = []
        for _ in range(CANCEL_POOL):
            scenario = random_scenario(rng, 2)
            omegas = [2.0 * math.pi * 10.0 ** rng.uniform(a, b) for a, b in zip(bands, bands[1:])]
            self.designs.append((scenario, omegas, rng.uniform(1e-3, 2e-2)))
        self.params = [sqz.config.parse_config(s).mach_zehnder for s, _, _ in self.designs]
        self.design_path = work / "design.json"
        self.design_path.write_text(json.dumps(self.designs[0]), encoding="utf-8")

    def request(self, sqz, i: int):
        k = i % CANCEL_POOL
        p, (_, omegas, mismatch) = self.params[k], self.designs[k]
        scan = []
        for omega in omegas:
            sol = sqz.analysis.solve_cancellation_numeric(p, omega)
            scan.append((sol.epsilon1, sol.phi, sqz.analysis.suppression_db(p, omega, mismatch)))
        return k, scan

    def check(self, output) -> str | None:
        k, scan = output
        return check_scan(self.designs[k], scan)

    def cold_command(self, work: Path) -> list[str]:
        ready = Path(__file__).resolve().parent / "ready.py"
        return [str(ready), f"design:{self.design_path}", "--request"]

    def check_cold(self, stdout: str, work: Path) -> str | None:
        return check_scan(self.designs[0], json.loads(stdout.splitlines()[-1]))

    def config_input(self) -> str:
        return f"design:{self.design_path}"


def check_scan(design: tuple, scan: list) -> str | None:
    scenario, omegas, mismatch = design
    if len(scan) != len(omegas):
        return f"{len(scan)} scan results for {len(omegas)} frequencies"
    for omega, (eps1, phi, supp) in zip(omegas, scan):
        problem = check_cancellation(scenario, omega, mismatch, eps1, phi, supp)
        if problem:
            return f"Omega = {omega:.6g} rad/s: {problem}"
    return None


def check_cancellation(
    scenario: dict, omega: float, mismatch: float, eps1: float, phi: float, supp: float
) -> str | None:
    """Solved (eps1, phi) and the suppression at ``mismatch`` against the closed form."""
    e2 = scenario["mach_zehnder"]["epsilon2"]
    t = seed_transfer(scenario["mach_zehnder"]["opa"], omega)
    eps1_ref, phi_ref = cancelling_split(e2, t)
    if abs(eps1 - eps1_ref) > 1e-12 or abs(phi - phi_ref) > 1e-12:
        return f"solved eps1={eps1!r}, phi={phi!r}; closed form {eps1_ref!r}, {phi_ref!r}"
    e1 = min(eps1_ref * (1.0 + mismatch), 1.0)
    blocked = math.sqrt(e2 * (1.0 - e1)) * t
    cancelled = blocked - math.sqrt((1.0 - e2) * e1) * cmath.exp(-1j * phi_ref)
    supp_ref = 10.0 * math.log10(abs(blocked) ** 2 / abs(cancelled) ** 2)
    if abs(supp - supp_ref) > 1e-9 * max(1.0, abs(supp_ref)):
        return f"suppression {supp!r} dB, closed form {supp_ref!r} dB"
    return None


WORKLOADS = {w.name: w for w in (Fig2Csv, DenseGrid, VerifyDefault, CancelScan)}
