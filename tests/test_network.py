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
from sqznet.network import _WIRING_CACHE_SIZE, _check_wiring
from sqznet.verify import check_passive_unitarity, draw_opa, random_chain


def mz_params(eps1, eps2, phi, opa, **kw):
    return MachZehnderParams(eps1, eps2, opa, phi, **kw)


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
            v = variance(fld, Quadrature.PLUS, stacked.source_models)
            readout = homodyne_readout(fld, Quadrature.PLUS, det, stacked.source_models)
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
                v_ref = variance(ref, Quadrature.PLUS, net.source_models)
                assert abs(v[i] - v_ref) <= 1e-15 * v_ref
                readout_ref = homodyne_readout(ref, Quadrature.PLUS, det_i, net.source_models)
                assert abs(readout[i] - readout_ref) <= 1e-15 * readout_ref


class TestValidation:
    @pytest.mark.parametrize("field", ["epsilon1", "epsilon2"])
    def test_mach_zehnder_reflectivities_must_be_in_range(self, field):
        opa = OpaParams(1.0, 1.0, 0.0, 0.0)
        for bad in (1.5, -0.1, math.nan):
            kw = {"epsilon1": 0.5, "epsilon2": 0.99, field: bad}
            with pytest.raises(ValueError, match=rf"^{field} .* \[0, 1\], got {bad}$"):
                MachZehnderParams(opa=opa, phi=0.0, **kw)
        for edge in (0.0, 1.0):
            p = MachZehnderParams(opa=opa, phi=0.0, **{**kw, field: edge})
            assert getattr(p, field) == edge

    def test_unknown_source_model_label_rejected(self):
        with pytest.raises(NetworkError, match=r"not in the network: \['lasr'\]"):
            NetworkDescription(
                elements={"bs": Beamsplitter(0.5)},
                edges=(),
                inputs={("bs", 0): "a", ("bs", 1): "b"},
                detector=("bs", 0),
                source_models={"b": VACUUM, "lasr": VACUUM},
            )

    def test_source_models_complete_in_injection_order(self):
        laser = NoiseVarianceModel(base=3.0)
        opa = OpaParams(1.0, 1.0, 0.5, 0.0)
        p = mz_params(0.5, 0.9, 0.0, opa, propagation_eta=0.9, src_model=laser)
        net = build_mach_zehnder(p)
        assert list(net.source_models) == [VAC, SRC, OC, LOSS, "prop-vac"]
        assert net.source_models[SRC] is laser
        assert all(net.source_models[s] is VACUUM for s in (VAC, OC, LOSS, "prop-vac"))

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


    @pytest.mark.parametrize(
        "wiring, match",
        [
            # Each once failed with a TypeError, in evaluate or at build.
            ({"edges": [[["a", 0], ["b", 0]]]}, r"^port \['a', 0\] is not a \(name, index\) pair$"),
            ({"edges": [(("a", 0), ["b", 0])]}, r"^port \['b', 0\] is not a \(name, index\) pair$"),
            ({"detector": ["b", 0]}, r"^port \['b', 0\] is not a \(name, index\) pair$"),
            ({"detector": ("b", [0])}, r"^port \('b', \[0\]\) is not a \(name, index\) pair$"),
            ({"inputs": {"a0": "x"}}, r"^port 'a0' is not a \(name, index\) pair$"),
            ({"inputs": {("a", 0, 1): "x"}}, r"^port \('a', 0, 1\) is not a \(name, index\) pair$"),
            (
                {"edges": [[("a", 0), ("b", 0)]]},
                r"^edge \[\('a', 0\), \('b', 0\)\] is not a \(source, destination\) pair",
            ),
        ],
    )
    def test_port_that_is_not_a_hashable_pair(self, wiring, match):
        def chain(**kw):
            return NetworkDescription(
                **{
                    "elements": {"a": PhaseShifter(0.0), "b": PhaseShifter(0.0)},
                    "edges": ((("a", 0), ("b", 0)),),
                    "inputs": {("a", 0): "x"},
                    "detector": ("b", 0),
                    **kw,
                }
            )

        evaluate(chain(), 1.0)
        with pytest.raises(NetworkError, match=match):
            chain(**wiring)


class TestWiringCache:
    @staticmethod
    def splitter(models=None, labels=("x", "y")):
        return NetworkDescription(
            elements={"bs": Beamsplitter(0.5)},
            edges=(),
            inputs={("bs", 0): labels[0], ("bs", 1): labels[1]},
            detector=("bs", 0),
            source_models=models or {},
        )

    def test_hit_still_checks_source_models(self):
        self.splitter()
        self.splitter()
        with pytest.raises(NetworkError, match=r"not in the network: \['z'\]$"):
            self.splitter(models={"z": VACUUM})

    def test_invalid_wiring_raises_on_every_build(self):
        def pair(cycle):
            # bs1 feeds bs2; with ``cycle`` bs2 feeds bs1 back in place of a source.
            back = ((("bs2", 0), ("bs1", 0)),) if cycle else ()
            return NetworkDescription(
                elements={"bs1": Beamsplitter(0.5), "bs2": Beamsplitter(0.5)},
                edges=((("bs1", 0), ("bs2", 0)), *back),
                inputs={("bs1", 1): "a", ("bs2", 1): "b", **({} if cycle else {("bs1", 0): "c"})},
                detector=("bs1", 1) if cycle else ("bs2", 1),
            )

        with pytest.raises(NetworkError, match=r"cycle through \['bs1', 'bs2'\]$"):
            pair(cycle=True)
        pair(cycle=False)  # its valid neighbour, now cached
        for _ in range(2):
            with pytest.raises(NetworkError, match=r"cycle through \['bs1', 'bs2'\]$"):
                pair(cycle=True)

    def test_bounded_after_many_topologies(self):
        check_passive_unitarity()  # 100 distinct chain topologies
        info = _check_wiring.cache_info()
        assert info.maxsize == _WIRING_CACHE_SIZE
        assert info.currsize <= _WIRING_CACHE_SIZE

    def test_designs_with_one_wiring_share_one_plan(self, rng):
        a = build_mach_zehnder(mz_params(0.3, 0.9, 0.1, draw_opa(rng), propagation_eta=0.8))
        b = build_mach_zehnder(mz_params(0.6, 0.2, -1.0, draw_opa(rng), propagation_eta=0.5))
        c = build_mach_zehnder(mz_params(0.6, 0.2, -1.0, draw_opa(rng)))
        assert a._plan is b._plan
        assert c._plan is not a._plan

    def test_index_equal_to_a_port_number(self):
        # An index that equals a port number names that port, on a miss as
        # on a hit: the plan holds the int.
        def chain(idx):
            return NetworkDescription(
                elements={"a": Beamsplitter(0.3), "b": PhaseShifter(0.5)},
                edges=((("a", idx), ("b", 0)),),
                inputs={("a", 0): "x", ("a", 1): "y"},
                detector=("b", idx - 1),
            )

        want = evaluate(chain(1), 1.0).coeffs
        _check_wiring.cache_clear()
        for _ in range(2):  # a miss, then a hit
            assert evaluate(chain(1.0), 1.0).coeffs == want

    def test_any_hashable_element_name(self):
        # A fresh source in the plan is marked by a private sentinel, so no
        # element name, None included, is mistaken for one.
        def chain(name):
            return NetworkDescription(
                elements={name: Beamsplitter(0.3), "b": PhaseShifter(0.5)},
                edges=(((name, 1), ("b", 0)),),
                inputs={(name, 0): "x", (name, 1): "y"},
                detector=("b", 0),
            )

        assert evaluate(chain(None), 1.0).coeffs == evaluate(chain("a"), 1.0).coeffs

    def test_hit_evaluates_like_a_miss(self, rng):
        cfg = load_preset("paper-fig2")
        p = cfg.mach_zehnder
        other = mz_params(0.3, 0.9, 0.1, draw_opa(rng), propagation_eta=0.8)
        _check_wiring.cache_clear()
        on_miss = build_mach_zehnder(p)
        _check_wiring.cache_clear()
        build_mach_zehnder(other)  # plans the wiring from another design
        on_hit = build_mach_zehnder(p)
        assert on_hit._plan is not on_miss._plan
        for omega in (0.0, 2 * math.pi * 8e4, 2 * math.pi * np.logspace(3, 8, 50)):
            hit, miss = evaluate(on_hit, omega), evaluate(on_miss, omega)
            assert list(hit.coeffs) == list(miss.coeffs)
            for sid, (cp, cm) in miss.coeffs.items():
                assert np.array_equal(hit.coeffs[sid][0], cp)
                assert np.array_equal(hit.coeffs[sid][1], cm)


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
        v = homodyne_readout(evaluate(net, omega), Quadrature.PLUS, detection, net.source_models)
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
        models = net.source_models
        v = variance(evaluate(net, omega), Quadrature.PLUS, models)
        assert v == pytest.approx(src_model.evaluate(omega), rel=1e-12)


class TestSweep:
    def test_single_point_matches_evaluate(self, rng):
        opa = draw_opa(rng)
        p = mz_params(0.3, 0.9, 0.1, opa, detection=HomodyneParams(0.9, 0.95, 0.02))
        net = build_mach_zehnder(p)
        models = net.source_models
        spectrum = sweep(net, [1e5])
        [f_hz], [v_plus] = spectrum.frequency_hz, spectrum.v_plus
        fld = evaluate(net, 2 * math.pi * f_hz)
        assert v_plus == pytest.approx(
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
            models = net.source_models
            grid = np.unique(10.0 ** rng.uniform(3.0, 7.5, rng.integers(1, 40)))
            spectrum = sweep(net, grid.tolist())
            assert spectrum.frequency_hz == grid.tolist()
            # Every column is a list of plain Python floats, one per grid point.
            columns = [spectrum.frequency_hz, spectrum.v_plus, *spectrum.contributions.values()]
            assert {len(col) for col in columns} == {len(grid)}
            assert {type(x) for col in columns for x in col} == {float}
            eta = detection.eta_eff
            for i, f_hz in enumerate(spectrum.frequency_hz):
                fld = evaluate(net, 2 * math.pi * f_hz)
                v = homodyne_readout(fld, Quadrature.PLUS, detection, models)
                expected = {
                    sid: eta * abs(cp) ** 2 * models[sid].evaluate(fld.omega)
                    for sid, (cp, _) in fld.coeffs.items()
                }
                expected[DETECTION] = 1.0 - eta
                expected[DARK] = detection.dark_rel
                v_plus = spectrum.v_plus[i]
                budget = {sid: col[i] for sid, col in spectrum.contributions.items()}
                assert abs(v_plus - v) <= 1e-13 * v
                assert budget.keys() == expected.keys()
                for sid, want in expected.items():
                    assert abs(budget[sid] - want) <= 1e-13 * v, sid
                assert abs(math.fsum(budget.values()) - v_plus) <= 1e-12 * v_plus

    def test_grid_validation(self, rng):
        net = build_mach_zehnder(mz_params(0.3, 0.9, 0.0, draw_opa(rng)))
        with pytest.raises(ValueError, match="empty"):
            sweep(net, [])
        with pytest.raises(ValueError, match="increasing"):
            sweep(net, [2e5, 1e5])
        with pytest.raises(ValueError, match="positive"):
            sweep(net, [0.0, 1e5])

    def test_budget_closure_and_monotone_frequencies(self, rng):
        cfg = load_preset("paper-fig2")
        net = build_mach_zehnder(cfg.mach_zehnder)
        grid = np.logspace(np.log10(5e4), np.log10(3e7), 200)
        spectrum = sweep(net, list(grid))
        assert spectrum.frequency_hz == sorted(spectrum.frequency_hz)
        rows = zip(*spectrum.contributions.values())
        for row, v_plus in zip(rows, spectrum.v_plus, strict=True):
            assert abs(sum(row) - v_plus) < 1e-12

    def test_passive_network_sweep_is_shot_noise(self, rng):
        opa = draw_opa(rng, passive=True)
        p = mz_params(0.3, 0.9, 0.7, opa, propagation_eta=0.8)
        net = build_mach_zehnder(p)
        models = net.source_models
        spectrum = sweep(net, list(np.logspace(4, 7, 50)))
        for f_hz, v_plus in zip(spectrum.frequency_hz, spectrum.v_plus, strict=True):
            assert v_plus == pytest.approx(1.0, abs=1e-12)
            fld = evaluate(net, 2 * math.pi * f_hz)
            v_minus = homodyne_readout(fld, Quadrature.MINUS, p.detection, models)
            assert v_minus == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self, rng):
        cfg = load_preset("paper-fig2")
        net = build_mach_zehnder(cfg.mach_zehnder)
        grid = list(np.logspace(5, 7, 20))
        assert sweep(net, grid) == sweep(net, grid)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_total_names_first_frequency(self, rng):
        # amplitude / f**-100: f**-100 underflows to 0 from 10 kHz up, so the
        # source variance is inf there, and the sweep raises instead of returning it.
        src_model = NoiseVarianceModel(low_freq_excess=(1.0, -100.0))
        net = build_mach_zehnder(mz_params(0.3, 0.9, 0.0, draw_opa(rng), src_model=src_model))
        with pytest.raises(ValueError, match=r"at 10000\.0 Hz$"):
            sweep(net, [1e2, 1e3, 1e4, 1e5])


class TestPassiveUnitarity:
    def test_random_passive_chains(self, rng):
        for _ in range(100):
            net = random_chain(rng)
            models = net.source_models
            for _ in range(5):
                omega = 2 * math.pi * rng.uniform(1e3, 3e7)
                fld = evaluate(net, omega)
                for q in Quadrature:
                    assert variance(fld, q, models) == pytest.approx(1.0, abs=1e-12)
                    assert sum_coefficient_power(fld, q) == pytest.approx(1.0, abs=1e-12)
