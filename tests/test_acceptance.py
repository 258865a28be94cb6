"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Criteria 1, 4, 5 and 6 run the ``sqznet verify`` suites at seeds
of their own, so each check is spelled once; criterion 8 keeps its own
sweep, whose row count and runtime it bounds.
"""

import math
import sys
import time

import numpy as np

from sqznet import (
    Quadrature,
    evaluate,
    homodyne_readout,
    loss_chain,
    opa_from_mirrors,
    squeezing_bands,
    suppression_db,
    sweep,
)
from sqznet.config import load_preset
from sqznet.network import build_mach_zehnder
from sqznet.verify import (
    check_consistency,
    check_passive_unitarity,
    check_residual_scaling,
    check_uncertainty_product,
)


def report(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def bisect_root(f, lo, hi, xtol=2e-12, rtol=4 * sys.float_info.epsilon):
    """Root of ``f`` in [lo, hi] by bisection, to brentq's default tolerances."""
    f_lo = f(lo)
    if (f_lo < 0.0) == (f(hi) < 0.0):
        raise ValueError("f(lo) and f(hi) must differ in sign")
    while hi - lo > xtol + rtol * abs(lo + hi) / 2:
        mid = (lo + hi) / 2
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_criterion_1_equation_triangle_consistency():
    """10^4 random draws: composed network nulls the source and matches the
    closed-form output variance at zero frequency, in under 5 seconds."""
    t0 = time.perf_counter()
    result = check_consistency(seed=20260826)
    elapsed = time.perf_counter() - t0
    # max_error is the worst of |c_src| / 1e-12 and the relative variance
    # error / 1e-10; both must stay strictly below their bounds.
    passed = result.passed and result.max_error < 1.0 and elapsed < 5.0
    report(
        "criterion 1: reflectivity-condition/variance consistency",
        passed,
        f"max of |c_src| / 1e-12 and rel var err / 1e-10 = {result.max_error:.2e} (< 1) "
        f"over 10^4 draws, runtime {elapsed:.2f} s (< 5 s)",
    )


def test_criterion_2_loss_budget():
    composite = loss_chain([0.92, 0.975**2, 0.95, 0.88])
    passed = abs(composite - 0.731) <= 0.002
    report(
        "criterion 2: detection loss budget",
        passed,
        f"chain efficiency {composite:.4f} = loss {100 * (1 - composite):.1f}% (0.731 +- 0.002)",
    )


def test_criterion_3_escape_efficiency():
    opa = opa_from_mirrors(29e6, t_ic=0.0003, t_oc=0.05, t_loss=0.0065, g_over_kappa=-0.3)
    passed = abs(opa.escape_efficiency - 0.880) <= 0.005
    report(
        "criterion 3: cavity escape efficiency",
        passed,
        f"kappa_oc/kappa = {opa.escape_efficiency:.4f} (0.880 +- 0.005)",
    )


def test_criterion_4_passive_unitarity():
    result = check_passive_unitarity(seed=4)
    report(
        "criterion 4: passive shot-noise preservation",
        result.passed,
        f"max of |V - 1|, |sum |c|^2 - 1| and the commutator error = {result.max_error:.2e} "
        f"over 100 chains x 20 designs x 10 frequencies (<= {result.tolerance:.0e})",
    )


def test_criterion_5_uncertainty_product():
    result = check_uncertainty_product(seed=5)
    report(
        "criterion 5: uncertainty product",
        result.passed,
        f"max of 1 - V+V- and the lossless closed-form errors = {result.max_error:.2e} "
        f"over 1000 cavities (<= {result.tolerance:.0e})",
    )


def test_criterion_6_residual_frequency_scaling():
    result = check_residual_scaling()
    report(
        "criterion 6: leaked source power ~ frequency^2",
        result.passed,
        f"|fitted exponent - 2| = {result.max_error:.2e} (<= {result.tolerance})",
    )


def test_criterion_7_25db_suppression_attainable():
    cfg = load_preset("paper-fig2")
    omega = 2 * math.pi * 1.5e6
    mismatches = np.logspace(-4, math.log10(6e-2), 12)
    values = [suppression_db(cfg.mach_zehnder, omega, float(m)) for m in mismatches]
    monotone = all(b < a for a, b in zip(values, values[1:]))
    brackets = values[0] > 25.0 > values[-1]
    m_star = bisect_root(lambda m: suppression_db(cfg.mach_zehnder, omega, m) - 25.0, 1e-4, 6e-2)
    passed = monotone and brackets and 1e-4 <= m_star <= 6e-2
    report(
        "criterion 7: 25 dB suppression at 1.5 MHz",
        passed,
        f"monotone={monotone}, suppression {values[0]:.1f}..{values[-1]:.1f} dB, "
        f"25 dB at mismatch {m_star:.3e} in [1e-4, 6e-2]",
    )


def test_criterion_8_budget_closure():
    cfg = load_preset("paper-fig2")
    net = build_mach_zehnder(cfg.mach_zehnder)
    t0 = time.perf_counter()
    spectrum = sweep(net, cfg.grid.frequencies())
    elapsed = time.perf_counter() - t0
    rows = zip(*spectrum.contributions.values())
    worst = max(abs(math.fsum(row) - v) for row, v in zip(rows, spectrum.v_plus, strict=True))
    points = len(spectrum.v_plus)
    passed = worst < 1e-12 and points == 1000 and elapsed < 1.0
    report(
        "criterion 8: per-source budget closure",
        passed,
        f"max |sum - total| = {worst:.2e} over {points} rows (< 1e-12), "
        f"runtime {elapsed:.3f} s (< 1 s)",
    )


def test_criterion_9_squeezing_band_edge_self_consistency():
    cfg = load_preset("paper-fig3")
    net = build_mach_zehnder(cfg.mach_zehnder)
    models = net.source_models
    grid = cfg.grid.frequencies()
    bands = squeezing_bands(sweep(net, grid))

    def total_minus_shot(f_hz):
        fld = evaluate(net, 2 * math.pi * f_hz)
        return homodyne_readout(fld, Quadrature.PLUS, net.detection, models) - 1.0

    f_cross = bisect_root(total_minus_shot, grid[0], grid[-1])
    grid_step = grid[1] - grid[0]
    passed = (
        len(bands) >= 1
        and abs(bands[0][0] - f_cross) <= grid_step
        and 5e4 <= f_cross <= 2e5
    )
    report(
        "criterion 9: squeezing-band lower edge",
        passed,
        f"band edge {bands[0][0]:.0f} Hz vs configured crossing {f_cross:.0f} Hz "
        f"(within one grid step of {grid_step:.0f} Hz)",
    )
