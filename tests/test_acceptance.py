"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np

from sqznet import (
    MachZehnderParams,
    Quadrature,
    epsilon1_plus,
    evaluate,
    homodyne_readout,
    loss_chain,
    opa_from_mirrors,
    squeezed_vacuum_variance,
    squeezing_bands,
    sum_coefficient_power,
    suppression_db,
    sweep,
    variance,
)
from sqznet.config import load_preset
from sqznet.network import SRC, build_mach_zehnder
from sqznet.verify import draw_opa, opa_output_variances, random_chain


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
    rng = np.random.default_rng(20260826)
    t0 = time.perf_counter()
    worst_coeff, worst_var = 0.0, 0.0
    for _ in range(10_000):
        opa = draw_opa(rng)
        eps2 = rng.uniform(0.01, 0.99)
        eps1 = epsilon1_plus(eps2, opa)
        p = MachZehnderParams(eps1, eps2, opa, phi=0.0)
        net = build_mach_zehnder(p)
        fld = evaluate(net, 0.0)
        worst_coeff = max(worst_coeff, abs(fld.coefficient(SRC, Quadrature.PLUS)))
        v = variance(fld, Quadrature.PLUS, net.source_models)
        v_ref = squeezed_vacuum_variance(eps2, opa)
        worst_var = max(worst_var, abs(v - v_ref) / abs(v_ref))
    elapsed = time.perf_counter() - t0
    passed = worst_coeff < 1e-12 and worst_var < 1e-10 and elapsed < 5.0
    report(
        "criterion 1: reflectivity-condition/variance consistency",
        passed,
        f"max |c_src| = {worst_coeff:.2e} (< 1e-12), max rel var err = "
        f"{worst_var:.2e} (< 1e-10), runtime {elapsed:.2f} s (< 5 s)",
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
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        net = random_chain(rng)
        models = net.source_models
        for _ in range(10):
            omega = 2 * math.pi * rng.uniform(1e3, 3e7)
            fld = evaluate(net, omega)
            for q in Quadrature:
                worst = max(worst, abs(variance(fld, q, models) - 1.0))
                worst = max(worst, abs(sum_coefficient_power(fld, q) - 1.0))
    passed = worst <= 1e-12
    report(
        "criterion 4: passive shot-noise preservation",
        passed,
        f"max |V - 1| = {worst:.2e} over 1000 networks x 10 frequencies (<= 1e-12)",
    )


def test_criterion_5_uncertainty_product():
    rng = np.random.default_rng(5)
    worst_floor, worst_closed = 0.0, 0.0
    for _ in range(1000):
        opa = draw_opa(rng)
        omega = 2 * math.pi * rng.uniform(1e3, 5e7)
        vp, vm = opa_output_variances(opa, omega)
        worst_floor = max(worst_floor, 1.0 - vp * vm)
        kappa = rng.uniform(1e6, 3e8)
        g = rng.uniform(-0.95 * kappa, -1e-3 * kappa)
        lossless = replace(opa, kappa_ic=0.0, kappa_oc=kappa, kappa_loss=0.0, g=g)
        vp, vm = opa_output_variances(lossless, omega)
        ref_p = (omega**2 + (kappa + g) ** 2) / (omega**2 + (kappa - g) ** 2)
        ref_m = (omega**2 + (kappa - g) ** 2) / (omega**2 + (kappa + g) ** 2)
        worst_closed = max(
            worst_closed, abs(vp - ref_p), abs(vm - ref_m), abs(vp * vm - 1.0)
        )
    passed = worst_floor <= 1e-12 and worst_closed <= 1e-12
    report(
        "criterion 5: uncertainty product",
        passed,
        f"max (1 - V+V-) = {worst_floor:.2e}, max closed-form err = {worst_closed:.2e} (<= 1e-12)",
    )


def test_criterion_6_residual_frequency_scaling():
    cfg = load_preset("paper-fig2")
    p = cfg.mach_zehnder
    eps1 = epsilon1_plus(p.epsilon2, p.opa)
    net = build_mach_zehnder(
        replace(p, epsilon1=eps1, phi=0.0, propagation_eta=1.0)
    )
    omegas = np.logspace(math.log10(1e-4 * p.opa.kappa), math.log10(1e-2 * p.opa.kappa), 30)
    powers = [abs(evaluate(net, float(w)).coefficient(SRC, Quadrature.PLUS)) ** 2 for w in omegas]
    slope = float(np.polyfit(np.log(omegas), np.log(powers), 1)[0])
    passed = abs(slope - 2.0) <= 0.01
    report(
        "criterion 6: leaked source power ~ frequency^2",
        passed,
        f"fitted exponent {slope:.4f} (2.00 +- 0.01)",
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
