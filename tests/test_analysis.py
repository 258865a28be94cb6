import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqznet import (
    MachZehnderParams,
    NoiseVarianceModel,
    OpaParams,
    Quadrature,
    Spectrum,
    epsilon1_plus,
    evaluate,
    loss_chain,
    solve_cancellation_numeric,
    squeezed_vacuum_variance,
    squeezing_bands,
    suppression_db,
    variance,
)
from sqznet.config import load_preset
from sqznet.network import SRC, build_mach_zehnder
from sqznet.verify import draw_opa

from oracles import mz_output_coefficients, suppression_db_closed_form


def mz_params(eps1, eps2, phi, opa, **kw):
    return MachZehnderParams(eps1, eps2, opa, phi, **kw)


class TestEpsilon1Plus:
    def test_symmetric_case(self):
        opa = OpaParams(0.5, 0.5, 0.0, 0.0)
        assert epsilon1_plus(0.5, opa) == pytest.approx(0.5, abs=1e-15)

    def test_direct_arithmetic(self):
        opa = OpaParams(0.5, 0.5, 0.0, -0.5)
        assert epsilon1_plus(0.99, opa) == pytest.approx(1.0 - 1.0 / 45.0, rel=1e-12)

    @pytest.mark.parametrize("eps2", [0.0, 1.0])
    def test_singular_endpoints_rejected(self, eps2):
        with pytest.raises(ValueError):
            epsilon1_plus(eps2, OpaParams(0.5, 0.5, 0.0, 0.0))

    def test_monotone_increasing_to_one(self, rng):
        opa = draw_opa(rng)
        values = [epsilon1_plus(e, opa) for e in np.linspace(0.01, 0.999, 200)]
        assert all(0.0 < v < 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.9 * epsilon1_plus(0.99999, opa)

    @given(
        eps2=st.floats(min_value=0.01, max_value=0.99),
        g_frac=st.floats(min_value=-0.95, max_value=0.0),
    )
    def test_in_open_unit_interval(self, eps2, g_frac):
        opa = OpaParams(0.3, 0.5, 0.2, g_frac)
        assert 0.0 < epsilon1_plus(eps2, opa) < 1.0


class TestSqueezedVacuumVariance:
    def test_passive_is_shot_noise(self):
        assert squeezed_vacuum_variance(0.5, OpaParams(0.5, 0.5, 0.0, 0.0)) == 1.0

    def test_direct_arithmetic(self):
        # 1 + 0.99 * 4*0.88*(-0.5) / 1.5**2
        opa = OpaParams(0.06, 0.88, 0.06, -0.5)
        assert squeezed_vacuum_variance(0.99, opa) == pytest.approx(0.2256, rel=1e-10)

    def test_matches_network_evaluation(self, rng):
        for _ in range(200):
            opa = draw_opa(rng)
            eps2 = rng.uniform(0.01, 0.99)
            eps1 = epsilon1_plus(eps2, opa)
            net = build_mach_zehnder(mz_params(eps1, eps2, 0.0, opa))
            v = variance(evaluate(net, 0.0), Quadrature.PLUS, net.source_models)
            assert v == pytest.approx(squeezed_vacuum_variance(eps2, opa), rel=1e-10)

    def test_sub_shot_iff_gain_negative(self, rng):
        opa_sqz = draw_opa(rng)
        assert squeezed_vacuum_variance(0.5, opa_sqz) < 1.0
        assert squeezed_vacuum_variance(0.0, opa_sqz) == 1.0
        assert squeezed_vacuum_variance(0.5, draw_opa(rng, passive=True)) == 1.0

    def test_monotone_in_epsilon2_losses(self, rng):
        opa = draw_opa(rng)
        values = [squeezed_vacuum_variance(e, opa) for e in np.linspace(0.0, 1.0, 50)]
        assert all(b < a for a, b in zip(values, values[1:]))  # more eps2, more squeezing


class TestSolveCancellation:
    def test_matches_closed_form_at_dc(self, rng):
        for _ in range(20):
            opa = draw_opa(rng)
            eps2 = rng.uniform(0.05, 0.95)
            p = mz_params(0.5, eps2, 0.0, opa)
            sol = solve_cancellation_numeric(p, 0.0)
            assert sol.epsilon1 == pytest.approx(epsilon1_plus(eps2, opa), abs=1e-12)
            assert abs(sol.phi) < 1e-6
            assert sol.residual < 1e-12

    def test_symmetric_trivial_case(self):
        p = mz_params(0.1, 0.5, 0.0, OpaParams(0.5, 0.5, 0.0, 0.0))
        sol = solve_cancellation_numeric(p, 0.0)
        assert sol.epsilon1 == pytest.approx(0.5, abs=1e-10)
        assert abs(sol.phi) < 1e-8

    def test_finite_frequency_solution_exists(self, rng):
        cfg = load_preset("paper-fig2")
        sol = solve_cancellation_numeric(cfg.mach_zehnder, 2 * math.pi * 1.5e6)
        assert sol.residual < 1e-12
        # The phase tracks the cavity rotation of the squeezed arm.
        opa = cfg.mach_zehnder.opa
        expected_phi = math.atan2(2 * math.pi * 1.5e6, opa.kappa - opa.g)
        assert sol.phi == pytest.approx(expected_phi, abs=1e-6)

    def test_closed_form_nulls_network_at_any_frequency(self, rng):
        for _ in range(200):
            opa = draw_opa(rng)
            eps2 = rng.uniform(0.05, 0.95)
            omega = 2 * math.pi * 10 ** rng.uniform(3.0, math.log10(3e7))
            sol = solve_cancellation_numeric(mz_params(0.5, eps2, 0.0, opa), omega)
            assert sol.residual <= 1e-12
            assert sol.phi == pytest.approx(math.atan2(omega, opa.kappa - opa.g), abs=1e-12)
            src = mz_output_coefficients(sol.epsilon1, eps2, sol.phi, opa, omega)["src"]
            assert abs(src) <= 1e-12

    def test_no_input_coupling_gives_trivial_null(self):
        # With k_ic = 0 the source never reaches the squeezed arm, so blocking
        # the reference arm (eps1 = 0) cancels it exactly at every frequency.
        p = mz_params(0.5, 0.9, 0.0, OpaParams(0.0, 0.8, 0.2, -0.3))
        for omega in (0.0, 0.5, 3.0):
            sol = solve_cancellation_numeric(p, omega)
            assert sol.epsilon1 == 0.0
            assert sol.residual == 0.0

    @pytest.mark.parametrize("eps2", [0.0, 1.0])
    def test_singular_epsilon2_rejected(self, eps2):
        p = mz_params(0.5, eps2, 0.0, OpaParams(0.5, 0.5, 0.0, 0.0))
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            solve_cancellation_numeric(p, 0.0)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, 1e200])
    def test_frequency_without_a_finite_square_rejected(self, omega):
        # Each once failed on epsilon1, on the residual or in an OverflowError.
        p = load_preset("paper-fig2").mach_zehnder
        message = f"omega must be finite, with a finite (omega / kappa)**2, got {omega}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_cancellation_numeric(p, omega)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            suppression_db(p, omega, 1e-3)

    def test_far_above_the_linewidth_still_solves(self):
        sol = solve_cancellation_numeric(load_preset("paper-fig2").mach_zehnder, 1e155)
        assert (sol.epsilon1, sol.phi) == (0.0, math.pi / 2)

    def test_residual_above_tolerance_raises(self):
        p = load_preset("paper-fig2").mach_zehnder
        with pytest.raises(ArithmeticError, match="residual"):
            solve_cancellation_numeric(p, 2 * math.pi * 1e6, tol=0.0)

    def test_residual_grows_quadratically_with_frequency(self):
        cfg = load_preset("paper-fig2")
        p = cfg.mach_zehnder
        eps1 = epsilon1_plus(p.epsilon2, p.opa)
        net = build_mach_zehnder(replace(p, epsilon1=eps1, phi=0.0, propagation_eta=1.0))
        omegas = np.logspace(
            math.log10(1e-4 * p.opa.kappa), math.log10(1e-2 * p.opa.kappa), 20
        )
        powers = [
            abs(evaluate(net, float(w)).coefficient(SRC, Quadrature.PLUS)) ** 2 for w in omegas
        ]
        slope = np.polyfit(np.log(omegas), np.log(powers), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.01)


class TestSuppression:
    def test_exact_cancellation_is_unbounded(self, rng):
        p = mz_params(0.5, 0.9, 0.0, draw_opa(rng))
        assert suppression_db(p, 0.0, 0.0) == math.inf

    def test_monotone_decreasing_in_mismatch(self):
        cfg = load_preset("paper-fig2")
        omega = 2 * math.pi * 1.5e6
        values = [suppression_db(cfg.mach_zehnder, omega, m) for m in (1e-4, 1e-3, 1e-2, 5e-2)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_25_db_reached_within_mismatch_window(self):
        cfg = load_preset("paper-fig2")
        omega = 2 * math.pi * 1.5e6
        assert suppression_db(cfg.mach_zehnder, omega, 1e-4) > 25.0
        assert suppression_db(cfg.mach_zehnder, omega, 6e-2) < 25.0

    def test_independent_of_source_excess_scale(self):
        cfg = load_preset("paper-fig2")
        omega = 2 * math.pi * 1.5e6
        noisy = replace(
            cfg.mach_zehnder,
            src_model=NoiseVarianceModel(base=1.0, peaks=((1.5e6, 1e5, 1e8),)),
        )
        a = suppression_db(cfg.mach_zehnder, omega, 1e-3)
        b = suppression_db(noisy, omega, 1e-3)
        assert a == pytest.approx(b, rel=1e-12)

    def test_no_input_coupling_leaves_nothing_to_suppress(self):
        # eps1 solves to 0, so any mismatch keeps it there and no source is left.
        p = mz_params(0.5, 0.9, 0.0, OpaParams(0.0, 0.8, 0.2, -0.3))
        assert suppression_db(p, 1.0, 1e-3) == math.inf

    def test_negative_mismatch_rejected(self, rng):
        p = mz_params(0.5, 0.9, 0.0, draw_opa(rng))
        with pytest.raises(ValueError):
            suppression_db(p, 0.0, -0.1)

    def test_matches_closed_form_over_random_designs(self, rng):
        # Bound fixed before any draw, as in the benchmark's cancellation check.
        rel = 1e-9
        for _ in range(200):
            opa, eps2 = draw_opa(rng), rng.uniform(0.1, 0.9)
            omega = 2 * math.pi * 10 ** rng.uniform(3.0, math.log10(3e7))
            mismatch = rng.uniform(1e-3, 2e-2)
            got = suppression_db(mz_params(0.5, eps2, 0.0, opa), omega, mismatch)
            expected = suppression_db_closed_form(eps2, opa, omega, mismatch)
            assert abs(got - expected) <= rel * max(1.0, abs(expected))

    def test_mismatch_taking_eps1_to_one_rejected(self):
        # paper-fig2 solves eps1 = 0.520 at 1.5 MHz; (1 + 0.95) takes it past 1.
        p = load_preset("paper-fig2").mach_zehnder
        with pytest.raises(ValueError, match=r"mismatch 0\.95 takes eps1 from 0\.5\d* to 1\.01"):
            suppression_db(p, 2 * math.pi * 1.5e6, 0.95)


class TestLossChain:
    def test_identity(self):
        assert loss_chain([1.0, 1.0, 1.0]) == 1.0

    def test_paper_budget(self):
        assert loss_chain([0.92, 0.975**2, 0.95, 0.88]) == pytest.approx(0.731, abs=2e-3)

    def test_floor_on_perfect_squeezing(self):
        # eta*V + (1 - eta) at V = 0.
        eta = 0.73
        floor = eta * 0.0 + (1.0 - eta)
        assert floor == pytest.approx(0.27, abs=1e-12)
        assert 10 * math.log10(floor) == pytest.approx(-5.7, abs=0.02)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            loss_chain([0.9, 1.2])
        with pytest.raises(ValueError):
            loss_chain([0.0])


def _spectrum(freqs, values):
    return Spectrum(frequency_hz=list(freqs), v_plus=list(values), contributions={})


class TestSqueezingBands:
    def test_all_sub_shot_single_band(self):
        spectrum = _spectrum([1e5, 2e5, 3e5], [0.5, 0.5, 0.5])
        assert squeezing_bands(spectrum) == [(1e5, 3e5)]

    def test_excess_peak_splits_band(self):
        freqs = [1e5, 2e5, 3e5, 4e5, 5e5]
        values = [0.5, 0.5, 1.5, 0.5, 0.5]
        bands = squeezing_bands(_spectrum(freqs, values))
        assert len(bands) == 2
        assert bands[0][0] == 1e5 and bands[1][1] == 5e5

    def test_linear_interpolation_at_crossing(self):
        [(lo, hi)] = squeezing_bands(_spectrum([1e5, 2e5], [2.0, 0.5]))
        # Crossing of the line from 2.0 to 0.5 through 1.0.
        assert lo == pytest.approx(1e5 + 1e5 * (1.0 - 2.0) / (0.5 - 2.0))
        assert hi == 2e5

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            squeezing_bands(_spectrum([2e5, 1e5], [0.5, 0.5]))
