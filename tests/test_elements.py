import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sqznet import (
    VACUUM,
    Beamsplitter,
    HomodyneParams,
    LinearField,
    LossElement,
    NetworkDescription,
    Opa,
    OpaParams,
    PhaseShifter,
    Quadrature,
    epsilon1_plus,
    homodyne_readout,
    loss_chain,
    opa_from_mirrors,
    opa_transfer,
    source,
    squeezed_vacuum_variance,
    sum_coefficient_power,
    variance,
)


class TestParams:
    def test_opa_rejects_above_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            OpaParams(kappa_ic=1.0, kappa_oc=1.0, kappa_loss=0.0, g=-2.5)

    def test_opa_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            OpaParams(kappa_ic=-1.0, kappa_oc=1.0, kappa_loss=0.0, g=0.0)

    def test_opa_rejects_zero_total(self):
        with pytest.raises(ValueError):
            OpaParams(kappa_ic=0.0, kappa_oc=0.0, kappa_loss=0.0, g=0.0)

    @pytest.mark.parametrize("eps", [-0.1, 1.1])
    def test_beamsplitter_bounds(self, eps):
        with pytest.raises(ValueError):
            Beamsplitter(eps)

    @pytest.mark.parametrize("eta", [0.0, 1.2])
    def test_loss_bounds(self, eta):
        with pytest.raises(ValueError):
            LossElement(eta, "v")

    def test_homodyne_bounds(self):
        with pytest.raises(ValueError):
            HomodyneParams(pd_efficiency=0.0)
        with pytest.raises(ValueError):
            HomodyneParams(dark_rel=-0.1)

    def test_opa_from_mirrors_fwhm(self):
        # 29 MHz FWHM linewidth -> kappa = pi * 29e6 with this field decay.
        opa = opa_from_mirrors(29e6, 3e-4, 0.05, 6.5e-3, -0.3)
        assert opa.kappa == pytest.approx(math.pi * 29e6, rel=1e-12)
        assert opa.escape_efficiency == pytest.approx(0.880, abs=5e-3)

    def test_opa_from_mirrors_hwhm_doubles_kappa(self):
        a = opa_from_mirrors(29e6, 3e-4, 0.05, 6.5e-3, -0.3, "fwhm")
        b = opa_from_mirrors(29e6, 3e-4, 0.05, 6.5e-3, -0.3, "hwhm")
        assert b.kappa == pytest.approx(2 * a.kappa, rel=1e-12)


class TestSource:
    def test_unit_coefficients(self):
        f = source("src")
        assert f.coeffs == {"src": (1 + 0j, 1 + 0j)}

    def test_unit_variance(self):
        f = source("src")
        assert variance(f, Quadrature.PLUS, {"src": VACUUM}) == 1.0


class TestBeamsplitter:
    def test_mirror_case(self):
        a = source("a")
        b = source("b")
        out1, out2 = Beamsplitter(1.0).apply(a, b)
        assert out1.coeffs["a"] == (1 + 0j, 1 + 0j)
        assert abs(out1.coefficient("b", Quadrature.PLUS)) == 0.0
        assert out2.coefficient("b", Quadrature.PLUS) == -1.0

    def test_balanced_dark_port(self):
        a = source("a")
        b = LinearField(omega=0.0, coeffs={"a": (1 + 0j, 1 + 0j)})
        _, dark = Beamsplitter(0.5).apply(a, b)
        for cp, cm in dark.coeffs.values():
            assert abs(cp) < 1e-15 and abs(cm) < 1e-15

    def test_frequency_mismatch_rejected(self):
        with pytest.raises(ValueError, match="frequencies"):
            Beamsplitter(0.5).apply(source("a", omega=1.0), source("b", omega=2.0))

    @given(eps=st.floats(min_value=0.0, max_value=1.0))
    def test_involution_reconstructs_inputs(self, eps):
        # The 2x2 map is symmetric orthogonal, so applying it twice is identity.
        a, b = source("a"), source("b")
        p = Beamsplitter(eps)
        back_a, back_b = p.apply(*p.apply(a, b))
        assert back_a.coefficient("a", Quadrature.PLUS) == pytest.approx(1.0, abs=1e-12)
        assert abs(back_a.coefficient("b", Quadrature.PLUS)) < 1e-12
        assert back_b.coefficient("b", Quadrature.PLUS) == pytest.approx(1.0, abs=1e-12)
        assert abs(back_b.coefficient("a", Quadrature.PLUS)) < 1e-12

    @given(eps=st.floats(min_value=0.0, max_value=1.0))
    def test_coefficient_power_conserved(self, eps):
        a, b = source("a"), source("b")
        out1, out2 = Beamsplitter(eps).apply(a, b)
        for q in Quadrature:
            before = sum_coefficient_power(a, q) + sum_coefficient_power(b, q)
            after = sum_coefficient_power(out1, q) + sum_coefficient_power(out2, q)
            assert after == pytest.approx(before, abs=1e-12)


class TestPhaseShift:
    def test_zero_is_identity(self):
        f = source("a")
        assert PhaseShifter(0.0).apply(f)[0].coeffs == f.coeffs

    def test_pi_twice_is_identity(self):
        f = source("a")
        (g,) = PhaseShifter(math.pi).apply(*PhaseShifter(math.pi).apply(f))
        assert g.coefficient("a", Quadrature.PLUS) == pytest.approx(1.0, abs=1e-15)

    @given(phi=st.floats(min_value=-10.0, max_value=10.0))
    def test_variance_invariant(self, phi):
        f = source("a")
        models = {"a": VACUUM}
        (shifted,) = PhaseShifter(phi).apply(f)
        for q in Quadrature:
            assert variance(shifted, q, models) == pytest.approx(1.0, abs=1e-12)
            assert sum_coefficient_power(shifted, q) == pytest.approx(1.0, abs=1e-12)


class TestOpa:
    def test_impedance_matched_passive_cavity(self):
        opa = OpaParams(kappa_ic=0.5, kappa_oc=0.5, kappa_loss=0.0, g=0.0)
        out = opa_transfer(source("seed", 0.0), opa, "oc", "cav")
        assert out.coefficient("seed", Quadrature.PLUS) == pytest.approx(1.0, abs=1e-15)
        assert abs(out.coefficient("oc", Quadrature.PLUS)) < 1e-15

    def test_passive_coefficient_power_unit(self):
        opa = OpaParams(kappa_ic=2e6, kappa_oc=4e7, kappa_loss=5e6, g=0.0)
        for omega in (0.0, 1e6, 1e8):
            out = opa_transfer(source("seed", omega), opa, "oc", "cav")
            assert sum_coefficient_power(out, Quadrature.PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_duality_variances(self):
        opa = OpaParams(kappa_ic=0.0, kappa_oc=1.0, kappa_loss=0.0, g=-0.5)
        out = opa_transfer(source("seed", 0.0), opa, "oc", "cav")
        models = {"seed": VACUUM, "oc": VACUUM, "cav": VACUUM}
        vp = variance(out, Quadrature.PLUS, models)
        vm = variance(out, Quadrature.MINUS, models)
        assert vp == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert vm == pytest.approx(9.0, rel=1e-12)
        assert vp * vm == pytest.approx(1.0, abs=1e-12)

    def test_lossless_closed_form(self, rng):
        for _ in range(50):
            kappa = rng.uniform(1e6, 3e8)
            g = rng.uniform(-0.95 * kappa, -1e-3 * kappa)
            omega = rng.uniform(0.0, 5e8)
            opa = OpaParams(0.0, kappa, 0.0, g)
            out = opa_transfer(source("seed", omega), opa, "oc", "cav")
            models = {"seed": VACUUM, "oc": VACUUM, "cav": VACUUM}
            vp = variance(out, Quadrature.PLUS, models)
            vm = variance(out, Quadrature.MINUS, models)
            assert vp == pytest.approx(
                (omega**2 + (kappa + g) ** 2) / (omega**2 + (kappa - g) ** 2), rel=1e-12
            )
            assert vp * vm == pytest.approx(1.0, abs=1e-12)

    def test_uncertainty_product_with_losses(self, rng):
        from sqznet.verify import draw_opa

        for _ in range(200):
            opa = draw_opa(rng)
            omega = rng.uniform(0.0, 5e8)
            out = opa_transfer(source("seed", omega), opa, "oc", "cav")
            models = {"seed": VACUUM, "oc": VACUUM, "cav": VACUUM}
            product = variance(out, Quadrature.PLUS, models) * variance(
                out, Quadrature.MINUS, models
            )
            assert product >= 1.0 - 1e-12

    def test_duplicate_injection_rejected(self):
        opa = OpaParams(1.0, 1.0, 0.0, 0.0)
        seeded = source("oc", 0.0)
        with pytest.raises(ValueError, match="oc"):
            opa_transfer(seeded, opa, "oc", "cav")


class TestLoss:
    def test_unity_eta_is_identity(self):
        f = source("a")
        (out,) = LossElement(1.0, "v").apply(f)
        assert out.coeffs == f.coeffs
        assert "v" not in out.coeffs

    def test_shot_noise_invariant(self):
        f = source("a")
        (out,) = LossElement(0.3, "v").apply(f)
        assert variance(out, Quadrature.PLUS, {"a": VACUUM, "v": VACUUM}) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_squeezed_input_degraded(self):
        # V -> eta*V + (1 - eta): 0.5 at eta = 0.73 gives 0.635.
        opa = OpaParams(0.0, 1.0, 0.0, -(3.0 - 2.0 * math.sqrt(2.0)))
        out = opa_transfer(source("seed", 0.0), opa, "oc", "cav")
        models = {"seed": VACUUM, "oc": VACUUM, "cav": VACUUM, "v": VACUUM}
        assert variance(out, Quadrature.PLUS, models) == pytest.approx(0.5, rel=1e-9)
        (lossy,) = LossElement(0.73, "v").apply(out)
        assert variance(lossy, Quadrature.PLUS, models) == pytest.approx(0.635, rel=1e-9)

    def test_duplicate_vacuum_rejected(self):
        f = source("a")
        with pytest.raises(ValueError, match="'a'"):
            LossElement(0.5, "a").apply(f)

    @given(eta=st.floats(min_value=0.01, max_value=1.0), g=st.floats(min_value=-0.9, max_value=0.0))
    # Here (1 - eta)*|V - 1| is about 1e-16, below what the strict < can resolve.
    @example(eta=0.9999999999999999, g=-0.5)
    def test_contraction_toward_shot_noise(self, eta, g):
        opa = OpaParams(0.0, 1.0, 0.0, g)
        out = opa_transfer(source("seed", 0.0), opa, "oc", "cav")
        models = {"seed": VACUUM, "oc": VACUUM, "cav": VACUUM, "v": VACUUM}
        for q in Quadrature:
            v = variance(out, q, models)
            v_lossy = variance(LossElement(eta, "v").apply(out)[0], q, models)
            assert abs(v_lossy - 1.0) <= eta * abs(v - 1.0) + 1e-12
            if (1.0 - eta) * abs(v - 1.0) > 1e-12:
                assert abs(v_lossy - 1.0) < abs(v - 1.0)


class TestHomodyne:
    def test_perfect_detector(self):
        f = source("a")
        assert homodyne_readout(f, Quadrature.PLUS, HomodyneParams(), {"a": VACUUM}) == 1.0

    def test_shot_noise_invariant_under_inefficiency(self):
        f = source("a")
        p = HomodyneParams(pd_efficiency=0.92, visibility=0.975)
        assert homodyne_readout(f, Quadrature.PLUS, p, {"a": VACUUM}) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_dark_noise_adds(self):
        f = source("a")
        p = HomodyneParams(pd_efficiency=0.5, visibility=0.9, dark_rel=0.1)
        assert homodyne_readout(f, Quadrature.PLUS, p, {"a": VACUUM}) == pytest.approx(1.1)

    def test_overall_27_percent_loss_chain(self):
        # pd efficiency, visibility squared, propagation, escape efficiency.
        composite = loss_chain([0.92, 0.975**2, 0.95, 0.88])
        assert composite == pytest.approx(0.731, abs=2e-3)
        assert 1.0 - composite == pytest.approx(0.27, abs=5e-3)


OPA = OpaParams(1.0, 1.0, 0.0, 0.0)

# Each class and closed form that takes design arrays, called once with one
# bad entry among good ones; the message names the bad value.
BAD_ARRAYS = [
    (lambda: Beamsplitter(np.array([0.2, 1.2, 0.3])), "got 1.2"),
    (lambda: LossElement(np.array([0.5, 1.0, 0.0]), "v"), "got 0.0"),
    (lambda: OpaParams(np.array([1.0, -1.0]), 1.0, 0.0, 0.0), "kappa_ic must be >= 0, got -1.0"),
    (lambda: OpaParams(1.0, 1.0, np.array([0.0, -0.5, 0.1]), 0.0), "kappa_loss .* got -0.5"),
    (lambda: OpaParams(np.zeros(2), np.array([0.0, 1.0]), 0.0, 0.0), "kappa must be > 0"),
    (lambda: OpaParams(1.0, 1.0, 0.0, np.array([0.0, -2.5, 1.0])), r"\|g\| = 2.5 .* kappa = 2$"),
    (lambda: epsilon1_plus(np.array([0.5, 1.0]), OPA), "got 1.0"),
    (lambda: squeezed_vacuum_variance(np.array([0.5, -0.1]), OPA), "got -0.1"),
]

# The same checks on plain numbers keep their messages word for word.
BAD_SCALARS = [
    (lambda: Beamsplitter(1.2), "beamsplitter reflectivity must be in [0, 1], got 1.2"),
    (lambda: LossElement(0.0, "v"), "loss transmission must be in (0, 1], got 0.0"),
    (lambda: OpaParams(-1.0, 1.0, 0.0, 0.0), "kappa_ic must be >= 0, got -1.0"),
    (lambda: OpaParams(0.0, 0.0, 0.0, 0.0), "total decay rate kappa must be > 0"),
    (lambda: OpaParams(1.0, 1.0, 0.0, -2.5), "|g| = 2.5 must be below threshold kappa = 2"),
    (lambda: epsilon1_plus(1.0, OPA), "epsilon2 must lie strictly inside (0, 1), got 1.0"),
    (lambda: squeezed_vacuum_variance(-0.1, OPA), "epsilon2 must be in [0, 1], got -0.1"),
]


class TestArrayParams:
    @pytest.mark.parametrize(
        "make, match",
        BAD_ARRAYS,
        ids=["bs", "loss", "kappa_ic", "kappa_loss", "kappa", "threshold", "eps1_plus", "sq_vac"],
    )
    def test_one_bad_entry_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    @pytest.mark.parametrize(
        "make, message",
        BAD_SCALARS,
        ids=["bs", "loss", "kappa_ic", "kappa", "threshold", "eps1_plus", "sq_vac"],
    )
    def test_scalar_messages(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_good_arrays_accepted(self):
        eps = np.array([0.0, 0.3, 1.0])
        assert Beamsplitter(eps).epsilon is eps
        opa = OpaParams(np.array([1.0, 2.0]), 1.0, 0.0, np.array([-1.5, 2.9]))
        assert opa.kappa.tolist() == [2.0, 3.0]

    def test_loss_array_matches_scalars(self):
        # eta = 1 injects no vacuum on its own; in a stack its coefficient is 0.
        etas = np.array([0.3, 1.0, 0.81])
        (out,) = LossElement(etas, "v").apply(source("a", 0.0))
        for i, eta in enumerate(etas.tolist()):
            (ref,) = LossElement(eta, "v").apply(source("a", 0.0))
            for sid in ("a", "v"):
                for q in Quadrature:
                    assert out.coefficient(sid, q)[i] == ref.coefficient(sid, q)

    def test_equal_arrays_hash_and_compare_equal(self):
        def net(eps, eta, g):
            return NetworkDescription(
                elements={
                    "bs": Beamsplitter(eps),
                    "opa": Opa(OpaParams(1.0, 1.0, 0.5, g), "oc", "cav"),
                    "loss": LossElement(eta, "v"),
                },
                edges=((("bs", 0), ("opa", 0)), (("opa", 0), ("loss", 0))),
                inputs={("bs", 0): "a", ("bs", 1): "b"},
                detector=("loss", 0),
            )

        def identity(n):
            # The same key a tracer takes of a built network.
            return hash(
                (tuple(n.elements.items()), n.edges, tuple(n.inputs.items()), n.detector, n.detection)
            )

        a = net(np.array([0.2, 0.7]), np.array([0.5, 0.9]), np.array([-1.0, 0.5]))
        b = net(np.array([0.2, 0.7]), np.array([0.5, 0.9]), np.array([-1.0, 0.5]))
        c = net(np.array([0.2, 0.7]), np.array([0.5, 0.9]), np.array([-1.0, 0.6]))
        assert a.elements == b.elements
        assert identity(a) == identity(b)
        assert a.elements["opa"] != c.elements["opa"]
        assert a.elements["bs"] != Beamsplitter(np.array([0.2, 0.7, 0.1]))

    def test_scalar_hash_unchanged(self):
        # Plain fields keep the dataclass hash: the hash of the field tuple.
        assert hash(Beamsplitter(0.3)) == hash((0.3,))
        assert hash(OPA) == hash((1.0, 1.0, 0.0, 0.0))
        assert Beamsplitter(np.float64(0.3)) == Beamsplitter(0.3)
