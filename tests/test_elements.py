import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqznet import (
    VACUUM,
    Beamsplitter,
    HomodyneParams,
    LinearField,
    LossElement,
    MachZehnderParams,
    NetworkDescription,
    NoiseVarianceModel,
    Opa,
    OpaParams,
    PhaseShifter,
    Quadrature,
    build_mach_zehnder,
    epsilon1_plus,
    evaluate,
    homodyne_readout,
    opa_from_mirrors,
    opa_transfer,
    source,
    squeezed_vacuum_variance,
    suppression_db,
    variance,
)
from sqznet.config import load_preset
from sqznet.core import _require


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
        assert opa.kappa_oc / opa.kappa == pytest.approx(0.880, abs=5e-3)

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
        models = {"a": VACUUM, "b": VACUUM}
        for q in Quadrature:
            before = variance(a, q, models) + variance(b, q, models)
            after = variance(out1, q, models) + variance(out2, q, models)
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


class TestOpa:
    def test_impedance_matched_passive_cavity(self):
        opa = OpaParams(kappa_ic=0.5, kappa_oc=0.5, kappa_loss=0.0, g=0.0)
        out = opa_transfer(source("seed", 0.0), opa, "oc", "cav")
        assert out.coefficient("seed", Quadrature.PLUS) == pytest.approx(1.0, abs=1e-15)
        assert abs(out.coefficient("oc", Quadrature.PLUS)) < 1e-15

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

    def test_one_label_for_both_vacua_rejected(self):
        opa = OpaParams(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="^oc and loss vacuum ids must differ$"):
            opa_transfer(source("seed", 0.0), opa, "v", "v")


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


OPA = OpaParams(1.0, 1.0, 0.0, 0.0)


def mz(phi=0.0, epsilon1=0.5, epsilon2=0.9, **kw):
    return MachZehnderParams(epsilon1, epsilon2, OPA, phi, **kw)


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
    (lambda: HomodyneParams(pd_efficiency=np.array([0.9, 1.5])), "pd_efficiency .* got 1.5"),
    (lambda: HomodyneParams(dark_rel=np.array([0.0, np.inf])), "dark_rel .* got inf"),
    (lambda: PhaseShifter(np.array([0.1, np.nan, 0.2])), "phi must be finite, got nan"),
    (lambda: mz(propagation_eta=np.array([0.9, 0.0])), "propagation_eta .* got 0.0"),
    (lambda: mz(epsilon2=np.array([0.9, 1.5])), r"epsilon2 .* \[0, 1\], got 1.5"),
    (lambda: NoiseVarianceModel(base=np.array([1.0, -1.0])), "base .* got -1.0"),
    (lambda: NoiseVarianceModel(peaks=((np.array([1e6, np.inf]), 1e5, 1.0),)), "center .* inf"),
    (
        lambda: OpaParams(np.array([1e6, 1e200, 1e7]), 1e6, 0.0, 0.0),
        r"kappa = 1e\+200 is too large",
    ),
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
    # NaN and +-inf, which each of these calls once let through.
    (lambda: NoiseVarianceModel(base=math.nan), "variance base must be finite and >= 0, got nan"),
    (
        lambda: NoiseVarianceModel(peaks=((math.nan, 1e5, 1.0),)),
        "peak center must be finite, got nan",
    ),
    (
        lambda: NoiseVarianceModel(peaks=((1e6, math.nan, 1.0),)),
        "peak half-width must be finite and > 0, got nan",
    ),
    (
        lambda: NoiseVarianceModel(low_freq_excess=(math.nan, 2)),
        "low-frequency amplitude must be finite and >= 0, got nan",
    ),
    (lambda: HomodyneParams(dark_rel=math.nan), "dark_rel must be finite and >= 0, got nan"),
    (lambda: HomodyneParams(dark_rel=math.inf), "dark_rel must be finite and >= 0, got inf"),
    (lambda: PhaseShifter(math.nan), "phi must be finite, got nan"),
    (lambda: OpaParams(math.inf, 1, 1, 0), "kappa_ic must be finite, got inf"),
    # Finite rates whose products would overflow in the cavity transfer.
    (
        lambda: OpaParams(1e200, 1e200, 0.0, 0.0),
        "total decay rate kappa = 2e+200 is too large: its square overflows",
    ),
    (
        lambda: OpaParams(sys.float_info.max, sys.float_info.max, 0.0, 0.0),
        "total decay rate kappa = inf is too large: its square overflows",
    ),
]


class TestArrayParams:
    # Each bad array raises its ValueError and no numpy warning.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "make, match",
        BAD_ARRAYS,
        ids=["bs", "loss", "kappa_ic", "kappa_loss", "kappa", "threshold", "eps1_plus", "sq_vac"]
        + ["pd_eff", "dark", "phase", "prop_eta", "mz_eps2", "base", "center", "kappa_square"],
    )
    def test_one_bad_entry_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    @pytest.mark.parametrize(
        "make, message",
        BAD_SCALARS,
        ids=["bs", "loss", "kappa_ic", "kappa", "threshold", "eps1_plus", "sq_vac"]
        + ["base_nan", "center_nan", "width_nan", "amplitude_nan", "dark_nan", "dark_inf"]
        + ["phase_nan", "kappa_ic_inf", "kappa_square", "kappa_inf"],
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
                    "phase": PhaseShifter(eps - 0.1),
                },
                edges=(
                    (("bs", 0), ("opa", 0)),
                    (("opa", 0), ("loss", 0)),
                    (("loss", 0), ("phase", 0)),
                ),
                inputs={("bs", 0): "a", ("bs", 1): "b"},
                detector=("phase", 0),
                detection=HomodyneParams(eta, eta, g + 1.0),
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
        assert a.detection == b.detection
        assert identity(a) == identity(b)
        assert a.elements["opa"] != c.elements["opa"]
        assert a.detection != c.detection
        assert a.elements["bs"] != Beamsplitter(np.array([0.2, 0.7, 0.1]))

    def test_scalar_hash_unchanged(self):
        # Plain fields keep the dataclass hash: the hash of the field tuple.
        assert hash(Beamsplitter(0.3)) == hash((0.3,))
        assert hash(OPA) == hash((1.0, 1.0, 0.0, 0.0))
        assert Beamsplitter(np.float64(0.3)) == Beamsplitter(0.3)
        assert hash(PhaseShifter(0.3)) == hash((0.3,))
        assert hash(HomodyneParams()) == hash((1.0, 1.0, 0.0))

    def test_elements_of_two_kinds_differ(self):
        # Equal fields, other class: each side declines, so they differ.
        assert Beamsplitter(0.5).__eq__(PhaseShifter(0.5)) is NotImplemented
        assert (Beamsplitter(0.5) == PhaseShifter(0.5)) is False

    def test_passing_scalar_checks_make_no_call(self):
        # Every check guards its call with `ok is not True`, so plain numbers
        # that pass (here: each checked class, and a cancellation solve and
        # suppression on the paper design) never enter _require.
        entered = []

        def watch(frame, event, arg):
            if event == "call" and frame.f_code is _require.__code__:
                entered.append(frame.f_back.f_code.co_name)

        p = load_preset("paper-fig2").mach_zehnder
        omega = 2 * math.pi * 1e6
        sys.setprofile(watch)
        try:
            NoiseVarianceModel(2.0, ((1e6, 1e5, 3.0),), (1e12, 2.0))
            HomodyneParams(0.9, 0.95, 0.01)
            PhaseShifter(0.3)
            opa_from_mirrors(29e6, 3e-4, 0.05, 6.5e-3, -0.3)
            squeezed_vacuum_variance(0.5, OPA)
            suppression_db(p, omega, 0.01)
        finally:
            sys.setprofile(None)
        assert entered == []
        with pytest.raises(ValueError):
            PhaseShifter(math.nan)  # a failing check does enter it


# Property over every public constructor: floats of either sign up to 10 in
# magnitude (parameters in units of a linewidth), NaN, +-inf, and two-entry
# arrays of them.  Each field is varied alone, the others held at a good value.
# Far larger finite values are out of scope here: they can overflow inside
# the arithmetic itself (a 1/f**exponent term), which no parameter check
# bounds.  The OPA's rate products are bounded (see BAD_SCALARS).
NUMBERS = st.floats(-10.0, 10.0) | st.sampled_from([math.nan, math.inf, -math.inf])
VALUES = NUMBERS | st.tuples(NUMBERS, NUMBERS).map(np.array)
W = 1.0  # rad/s, on the scale of the drawn rates


def _coefficients(fld):
    return [c for pair in fld.coeffs.values() for c in pair]


def _opa_out(kappa_ic=1.0, kappa_oc=1.0, kappa_loss=0.5, g=-0.5):
    p = OpaParams(kappa_ic, kappa_oc, kappa_loss, g)
    return _coefficients(opa_transfer(source("s", W), p, "oc", "cav"))


def _mirrors_out(linewidth_hz=1.0, t_ic=3e-4, t_oc=0.05, t_loss=6.5e-3, g_over_kappa=-0.3):
    p = opa_from_mirrors(linewidth_hz, t_ic, t_oc, t_loss, g_over_kappa)
    return _coefficients(opa_transfer(source("s", W), p, "oc", "cav"))


def _model_out(base=1.0, center=1.0, half_width=1.0, excess=1.0, amplitude=1.0, exponent=2.0):
    model = NoiseVarianceModel(base, ((center, half_width, excess),), (amplitude, exponent))
    return [model.evaluate(W)]


def _readout(**kw):
    return [homodyne_readout(source("a", W), Quadrature.PLUS, HomodyneParams(**kw), {"a": VACUUM})]


def _mz_out(**kw):
    return _coefficients(evaluate(build_mach_zehnder(mz(**kw)), W))


def _element_out(element, *ins):
    return _coefficients(element.apply(*(source(sid, W) for sid in ins))[0])


def _varied(call, *fields, names=()):
    """One case per field: ``call`` with that field set to the drawn value."""
    return [(lambda v, f=f: call(**{f: v}), f, names or (f,)) for f in fields]


# (call with one field set to a drawn value, that field, words one of which
# its error message contains)
CONSTRUCTORS = [
    (lambda v: _element_out(Beamsplitter(v), "a", "b"), "epsilon", ("reflectivity",)),
    (lambda v: _element_out(PhaseShifter(v), "a"), "phi", ("phi",)),
    (lambda v: _element_out(LossElement(v, "v"), "a"), "eta", ("transmission",)),
    *_varied(_opa_out, "kappa_ic", "kappa_oc", "kappa_loss"),
    *_varied(_opa_out, "g", names=("|g|",)),
    # A linewidth so small that its rates underflow to 0 is reported as the
    # total decay rate kappa it sets.
    *_varied(_mirrors_out, "linewidth_hz", names=("linewidth", "total decay rate kappa")),
    *_varied(_mirrors_out, "t_ic", "t_oc", "t_loss", names=("transmissions",)),
    *_varied(_mirrors_out, "g_over_kappa", names=("|g|",)),
    *_varied(_model_out, "base", "center", "excess", "amplitude", "exponent"),
    *_varied(_model_out, "half_width", names=("half-width",)),
    *_varied(_readout, "pd_efficiency", "visibility", "dark_rel"),
    *_varied(_mz_out, "propagation_eta", "phi"),
    *_varied(_mz_out, "epsilon1", "epsilon2"),
]


# Ids are "<index>-<field>". The two MachZehnderParams reflectivity cases keep
# 26 and 27: ids 23-25 belonged to CancellationSolution cases whose checks are
# gone, and reusing them would report a different case under an old name.
CONSTRUCTOR_IDS = [f"{i + 3 * (i >= 23)}-{c[1]}" for i, c in enumerate(CONSTRUCTORS)]


@pytest.mark.parametrize("call, field, names", CONSTRUCTORS, ids=CONSTRUCTOR_IDS)
@settings(max_examples=25)  # plus the explicit examples, for each of the 25 fields
@given(value=VALUES)
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=np.array([0.5, math.nan]))
@example(value=5e-324)
def test_constructor_builds_finite_or_names_field(call, field, names, value):
    try:
        out = call(value)
    except (ValueError, TypeError) as exc:
        assert any(name in str(exc) for name in names), f"{field}: {exc}"
        return
    assert all(np.isfinite(x).all() for x in out), f"{field}={value!r} gave {out}"
