import math

import numpy as np
import pytest

from oracles import mz_output_coefficients
from sqznet import (
    VACUUM,
    HomodyneParams,
    MachZehnderParams,
    NetworkDescription,
    NetworkError,
    NoiseVarianceModel,
    OpaParams,
    Quadrature,
    epsilon1_plus,
    evaluate,
    homodyne_readout,
    sum_coefficient_power,
    sweep,
    variance,
)
from sqznet.config import load_preset
from sqznet.network import (
    DARK,
    DETECTION,
    LOSS,
    OC,
    SRC,
    VAC,
    Beamsplitter,
    LossElement,
    PhaseShifter,
    build_mach_zehnder,
)
from sqznet.verify import draw_opa, random_passive_network


def mz_params(eps1, eps2, phi, opa, **kw):
    return MachZehnderParams(
        epsilon1=Beamsplitter(eps1),
        epsilon2=Beamsplitter(eps2),
        opa=opa,
        phi=phi,
        **kw,
    )


class TestEvaluate:
    def test_single_source_passthrough(self):
        net = NetworkDescription(
            elements={"id": PhaseShifter(0.0)},
            edges=(),
            inputs={("id", 0): "src"},
            detector=("id", 0),
        )
        fld = evaluate(net, 0.0)
        assert fld.coeffs == {"src": (1 + 0j, 1 + 0j)}

    def test_matches_closed_form_random_draws(self, rng):
        worst = 0.0
        for _ in range(2000):
            opa = draw_opa(rng)
            eps1, eps2 = rng.uniform(0, 1), rng.uniform(0, 1)
            phi = rng.uniform(-math.pi, math.pi)
            omega = rng.uniform(0, 3e8)
            net = build_mach_zehnder(mz_params(eps1, eps2, phi, opa))
            fld = evaluate(net, omega)
            for g_sign, q in ((1.0, Quadrature.PLUS), (-1.0, Quadrature.MINUS)):
                ref = mz_output_coefficients(eps1, eps2, phi, opa, omega, g_sign)
                for sid, expected in ref.items():
                    got = fld.coefficient(sid, q)
                    scale = max(abs(expected), 1.0)
                    worst = max(worst, abs(got - expected) / scale)
        assert worst < 1e-10

    def test_source_coefficient_closed_form_at_dc(self, rng):
        opa = draw_opa(rng)
        eps1, eps2 = 0.4, 0.9
        net = build_mach_zehnder(mz_params(eps1, eps2, 0.0, opa))
        c_src = evaluate(net, 0.0).coefficient(SRC, Quadrature.PLUS)
        k, g = opa.kappa, opa.g
        expected = (
            math.sqrt((1 - eps1) * eps2) * math.sqrt(4 * opa.kappa_ic * opa.kappa_oc)
            - math.sqrt(eps1 * (1 - eps2)) * (k - g)
        ) / (k - g)
        assert c_src == pytest.approx(expected, abs=1e-12)

    def test_cancellation_condition_nulls_source(self, rng):
        for _ in range(50):
            opa = draw_opa(rng)
            eps2 = rng.uniform(0.01, 0.99)
            eps1 = epsilon1_plus(eps2, opa)
            net = build_mach_zehnder(mz_params(eps1, eps2, 0.0, opa))
            assert abs(evaluate(net, 0.0).coefficient(SRC, Quadrature.PLUS)) < 1e-12


class TestStackedDesigns:
    def test_stack_matches_each_design(self, rng):
        # One phase, propagation loss and detection serve every design.
        self.check_stack(rng, stack_all=False)

    def test_stacked_phase_loss_detection_match_each_design(self, rng):
        self.check_stack(rng, stack_all=True)

    @staticmethod
    def check_stack(rng, stack_all):
        # One network over 200 stacked designs against 200 scalar networks.
        # With stack_all the phase, propagation loss and detection are arrays
        # over the designs too.
        # Each coefficient is compared relative to the largest coefficient of
        # its design and quadrature: a single coefficient can be small by
        # cancellation, and numpy's complex arithmetic is an ulp off CPython's.
        for _ in range(3):
            n = 200
            opas = [draw_opa(rng) for _ in range(n)]
            eps1, eps2 = rng.uniform(0.01, 0.99, n), rng.uniform(0.01, 0.99, n)
            if stack_all:
                phi, eta = rng.uniform(-math.pi, math.pi, n), rng.uniform(0.5, 0.99, n)
                det = HomodyneParams(*rng.uniform((0.5, 0.5, 0.0), (1.0, 1.0, 0.1), (n, 3)).T)
            else:
                phi, eta, det = float(rng.uniform(-math.pi, math.pi)), 0.9, HomodyneParams()
            omega = float(2 * math.pi * 10 ** rng.uniform(3, 7))
            rates = np.array([(o.kappa_ic, o.kappa_oc, o.kappa_loss, o.g) for o in opas]).T
            stacked = build_mach_zehnder(
                mz_params(eps1, eps2, phi, OpaParams(*rates), propagation_eta=eta, detection=det)
            )
            fld = evaluate(stacked, omega)
            v = variance(fld, Quadrature.PLUS, stacked.source_models())
            readout = homodyne_readout(fld, Quadrature.PLUS, det, stacked.source_models())
            for i in range(n):

                def at(x):
                    return float(np.broadcast_to(x, (n,))[i])

                det_i = HomodyneParams(at(det.pd_efficiency), at(det.visibility), at(det.dark_rel))
                net = build_mach_zehnder(
                    mz_params(
                        float(eps1[i]),
                        float(eps2[i]),
                        at(phi),
                        opas[i],
                        propagation_eta=at(eta),
                        detection=det_i,
                    )
                )
                ref = evaluate(net, omega)
                assert set(fld.coeffs) == set(ref.coeffs)
                for q in Quadrature:
                    scale = max(abs(pair[q.index]) for pair in ref.coeffs.values())
                    for sid, pair in ref.coeffs.items():
                        got = np.broadcast_to(fld.coefficient(sid, q), (n,))[i]
                        assert abs(got - pair[q.index]) <= 1e-15 * scale
                v_ref = variance(ref, Quadrature.PLUS, net.source_models())
                assert abs(v[i] - v_ref) <= 1e-15 * v_ref
                readout_ref = homodyne_readout(ref, Quadrature.PLUS, det_i, net.source_models())
                assert abs(readout[i] - readout_ref) <= 1e-15 * readout_ref


class TestValidation:
    @pytest.mark.parametrize("field", ["epsilon1", "epsilon2"])
    def test_mach_zehnder_splitters_must_be_beamsplitters(self, field):
        # A bare reflectivity used to build, then fail later on attribute access.
        kw = {"epsilon1": Beamsplitter(0.5), "epsilon2": Beamsplitter(0.99), field: 0.5}
        with pytest.raises(TypeError, match=f"{field} must be a Beamsplitter, got float"):
            MachZehnderParams(opa=OpaParams(1.0, 1.0, 0.0, 0.0), phi=0.0, **kw)

    def test_cycle_detected(self):
        with pytest.raises(NetworkError, match="cycle"):
            NetworkDescription(
                elements={
                    "bs1": Beamsplitter(0.5),
                    "bs2": Beamsplitter(0.5),
                },
                edges=((("bs1", 0), ("bs2", 0)), (("bs2", 0), ("bs1", 0))),
                inputs={("bs1", 1): "a", ("bs2", 1): "b"},
                detector=("bs1", 1),
            )

    def test_dangling_input(self):
        with pytest.raises(NetworkError, match="dangling"):
            NetworkDescription(
                elements={"bs": Beamsplitter(0.5)},
                edges=(),
                inputs={("bs", 0): "a"},
                detector=("bs", 0),
            )

    def test_duplicate_source_id(self):
        with pytest.raises(NetworkError, match="more than once"):
            NetworkDescription(
                elements={"bs": Beamsplitter(0.5)},
                edges=(),
                inputs={("bs", 0): "a", ("bs", 1): "a"},
                detector=("bs", 0),
            )

    def test_duplicate_source_id_with_loss_ancilla(self):
        with pytest.raises(NetworkError, match="more than once"):
            NetworkDescription(
                elements={"l": LossElement(0.5, "a")},
                edges=(),
                inputs={("l", 0): "a"},
                detector=("l", 0),
            )

    def test_detector_port_must_be_free(self):
        with pytest.raises(NetworkError, match="consumed"):
            NetworkDescription(
                elements={"a": PhaseShifter(0.0), "b": PhaseShifter(0.0)},
                edges=((("a", 0), ("b", 0)),),
                inputs={("a", 0): "s"},
                detector=("a", 0),
            )


class TestBuildMachZehnder:
    def test_paper_preset_evaluates_at_80khz(self):
        cfg = load_preset("paper-fig2")
        net = build_mach_zehnder(cfg.mach_zehnder)
        fld = evaluate(net, 2 * math.pi * 80e3)
        assert set(fld.coeffs) == {SRC, VAC, OC, LOSS, "prop-vac"}

    def test_bare_opa_degeneracy(self, rng):
        opa = draw_opa(rng)
        detection = HomodyneParams(pd_efficiency=0.92, visibility=0.975)
        net = build_mach_zehnder(mz_params(0.0, 1.0, 0.0, opa, detection=detection))
        omega = 2 * math.pi * 1e6
        v = homodyne_readout(evaluate(net, omega), Quadrature.PLUS, detection, net.source_models())
        # Reference: the OPA output observed directly.
        from sqznet import opa_transfer, source

        out = opa_transfer(source("s", omega), opa, "oc2", "cav")
        models = {"s": VACUUM, "oc2": VACUUM, "cav": VACUUM}
        v_ref = homodyne_readout(out, Quadrature.PLUS, detection, models)
        assert v == pytest.approx(v_ref, rel=1e-12)

    def test_reference_only_degeneracy(self, rng):
        # eps2 = 0 with a fully reflective first splitter returns the bare source.
        opa = draw_opa(rng)
        src_model = NoiseVarianceModel(base=1.0, peaks=((1e6, 1e5, 50.0),))
        net = build_mach_zehnder(mz_params(1.0, 0.0, 0.0, opa, src_model=src_model))
        omega = 2 * math.pi * 1e6
        models = net.source_models({SRC: src_model})
        v = variance(evaluate(net, omega), Quadrature.PLUS, models)
        assert v == pytest.approx(src_model.evaluate(omega), rel=1e-12)


class TestSweep:
    def test_single_point_matches_evaluate(self, rng):
        opa = draw_opa(rng)
        p = mz_params(0.3, 0.9, 0.1, opa, detection=HomodyneParams(0.9, 0.95, 0.02))
        net = build_mach_zehnder(p)
        models = net.source_models()
        [pt] = sweep(net, [1e5], models)
        fld = evaluate(net, 2 * math.pi * pt.frequency_hz)
        assert pt.v_plus == pytest.approx(
            homodyne_readout(fld, Quadrature.PLUS, p.detection, models), rel=1e-15
        )
        eta = p.detection.eta_eff
        assert homodyne_readout(fld, Quadrature.MINUS, p.detection, models) == pytest.approx(
            eta * variance(fld, Quadrature.MINUS, models) + (1.0 - eta) + p.detection.dark_rel,
            rel=1e-15,
        )

    def test_grid_matches_points_with_dark_noise(self, rng):
        # One walk over the grid against the scalar walk at each point, on
        # designs where every budget entry is nonzero, dark noise included.
        def u(lo, hi):
            return float(rng.uniform(lo, hi))

        for _ in range(50):
            o = draw_opa(rng)
            opa = OpaParams(float(o.kappa_ic), float(o.kappa_oc), float(o.kappa_loss), float(o.g))
            detection = HomodyneParams(u(0.8, 1.0), u(0.9, 1.0), 0.1 - u(0.0, 0.1))
            src_model = NoiseVarianceModel(
                base=1.0,
                peaks=((u(1e5, 5e6), u(1e4, 3e5), u(1e2, 1e5)),),
                low_freq_excess=(10.0 ** u(12.0, 16.0), 2.0),
            )
            p = mz_params(
                u(0.0, 1.0),
                u(0.01, 0.99),
                u(-math.pi, math.pi),
                opa,
                src_model=src_model,
                detection=detection,
                propagation_eta=u(0.7, 1.0),
            )
            net = build_mach_zehnder(p)
            models = net.source_models({SRC: src_model})
            grid = np.unique(10.0 ** rng.uniform(3.0, 7.5, rng.integers(1, 40)))
            points = sweep(net, grid.tolist(), models)
            assert [pt.frequency_hz for pt in points] == grid.tolist()
            eta = detection.eta_eff
            for pt in points:
                fld = evaluate(net, 2 * math.pi * pt.frequency_hz)
                v = homodyne_readout(fld, Quadrature.PLUS, detection, models)
                expected = {
                    sid: eta * abs(cp) ** 2 * models[sid].evaluate(fld.omega)
                    for sid, (cp, _) in fld.coeffs.items()
                }
                expected[DETECTION] = 1.0 - eta
                expected[DARK] = detection.dark_rel
                # Plain Python floats, as the per-point sweep returned.
                values = (pt.frequency_hz, pt.v_plus, pt.v_plus_db, *pt.contributions.values())
                assert {type(x) for x in values} == {float}
                assert abs(pt.v_plus - v) <= 1e-13 * v
                assert pt.v_plus_db == pytest.approx(10.0 * math.log10(v), rel=1e-13, abs=1e-13)
                assert pt.contributions.keys() == expected.keys()
                for sid, want in expected.items():
                    assert abs(pt.contributions[sid] - want) <= 1e-13 * v, sid
                assert abs(math.fsum(pt.contributions.values()) - pt.v_plus) <= 1e-12 * pt.v_plus

    def test_grid_validation(self, rng):
        net = build_mach_zehnder(mz_params(0.3, 0.9, 0.0, draw_opa(rng)))
        models = net.source_models()
        with pytest.raises(ValueError, match="empty"):
            sweep(net, [], models)
        with pytest.raises(ValueError, match="increasing"):
            sweep(net, [2e5, 1e5], models)
        with pytest.raises(ValueError, match="positive"):
            sweep(net, [0.0, 1e5], models)

    def test_budget_closure_and_monotone_frequencies(self, rng):
        cfg = load_preset("paper-fig2")
        net = build_mach_zehnder(cfg.mach_zehnder)
        models = net.source_models({SRC: cfg.mach_zehnder.src_model})
        grid = np.logspace(np.log10(5e4), np.log10(3e7), 200)
        points = sweep(net, list(grid), models)
        assert [pt.frequency_hz for pt in points] == sorted(pt.frequency_hz for pt in points)
        for pt in points:
            assert abs(sum(pt.contributions.values()) - pt.v_plus) < 1e-12

    def test_passive_network_sweep_is_shot_noise(self, rng):
        opa = draw_opa(rng, passive=True)
        p = mz_params(0.3, 0.9, 0.7, opa, propagation_eta=0.8)
        net = build_mach_zehnder(p)
        models = net.source_models()
        points = sweep(net, list(np.logspace(4, 7, 50)), models)
        for pt in points:
            assert pt.v_plus == pytest.approx(1.0, abs=1e-12)
            fld = evaluate(net, 2 * math.pi * pt.frequency_hz)
            v_minus = homodyne_readout(fld, Quadrature.MINUS, p.detection, models)
            assert v_minus == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self, rng):
        cfg = load_preset("paper-fig2")
        net = build_mach_zehnder(cfg.mach_zehnder)
        models = net.source_models({SRC: cfg.mach_zehnder.src_model})
        grid = list(np.logspace(5, 7, 20))
        a = sweep(net, grid, models)
        b = sweep(net, grid, models)
        assert [pt.v_plus for pt in a] == [pt.v_plus for pt in b]


class TestPassiveUnitarity:
    def test_random_passive_chains(self, rng):
        for _ in range(100):
            net = random_passive_network(rng)
            models = net.source_models()
            for _ in range(5):
                omega = 2 * math.pi * rng.uniform(1e3, 3e7)
                fld = evaluate(net, omega)
                for q in Quadrature:
                    assert variance(fld, q, models) == pytest.approx(1.0, abs=1e-12)
                    assert sum_coefficient_power(fld, q) == pytest.approx(1.0, abs=1e-12)
