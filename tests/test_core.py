import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqznet import (
    VACUUM,
    LinearField,
    NoiseVarianceModel,
    OpaParams,
    Quadrature,
    db_rel_shot,
    opa_transfer,
    source,
    squeezed_vacuum_variance,
    sum_coefficient_power,
    variance,
)
from sqznet.core import combine

R = math.sqrt(0.5)


def test_variance_single_unit_source():
    f = LinearField(omega=0.0, coeffs={"a": (1 + 0j, 1 + 0j)})
    assert variance(f, Quadrature.PLUS, {"a": VACUUM}) == 1.0


def test_variance_balanced_split_is_unit():
    f = LinearField(omega=0.0, coeffs={"a": (R, R), "b": (R, R)})
    models = {"a": VACUUM, "b": VACUUM}
    assert variance(f, Quadrature.PLUS, models) == pytest.approx(1.0, abs=1e-15)


def test_variance_opa_output_matches_closed_form():
    # Single-port cavity driven at dc with g = -kappa/2: V+ = 1/9.
    opa = OpaParams(kappa_ic=0.0, kappa_oc=1.0, kappa_loss=0.0, g=-0.5)
    out = opa_transfer(source("seed", omega=0.0), opa, "oc", "cav")
    models = {"seed": VACUUM, "oc": VACUUM, "cav": VACUUM}
    v = variance(out, Quadrature.PLUS, models)
    assert v == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert v == pytest.approx(squeezed_vacuum_variance(1.0, opa), rel=1e-12)


def test_variance_missing_model_names_source():
    f = LinearField(omega=0.0, coeffs={"mystery": (1 + 0j, 1 + 0j)})
    with pytest.raises(KeyError, match="mystery"):
        variance(f, Quadrature.PLUS, {})


def test_sum_coefficient_power_empty():
    f = LinearField(omega=0.0, coeffs={})
    assert sum_coefficient_power(f, Quadrature.PLUS) == 0.0


def test_passive_cavity_coefficient_power_is_unit():
    # (2*k_oc - k)^2 + w^2 + 4*k_oc*(k_ic + k_loss) = k^2 + w^2
    opa = OpaParams(kappa_ic=3e6, kappa_oc=5e7, kappa_loss=2e6, g=0.0)
    for omega in (0.0, 1e5, 3e7, 2e8):
        out = opa_transfer(source("seed", omega=omega), opa, "oc", "cav")
        for q in Quadrature:
            assert sum_coefficient_power(out, q) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "v,expected",
    [(1.0, 0.0), (0.5, -3.0103), (1.0 / 9.0, -9.542)],
)
def test_db_rel_shot(v, expected):
    assert db_rel_shot(v) == pytest.approx(expected, abs=5e-4)


@pytest.mark.parametrize("v", [0.0, -1.0, math.nan, math.inf])
def test_db_rel_shot_domain_error(v):
    with pytest.raises(ValueError, match=rf"^variance must be > 0 and finite .*, got {v}$"):
        db_rel_shot(v)


coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@given(
    cs=st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), st.tuples(coeff, coeff), min_size=1),
    phase=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_variance_global_phase_invariance(cs, phase):
    f = LinearField(omega=0.0, coeffs=cs)
    models = {k: VACUUM for k in cs}
    rotated = f.scaled(cmath.exp(1j * phase))
    for q in Quadrature:
        assert variance(rotated, q, models) == pytest.approx(
            variance(f, q, models), rel=1e-12, abs=1e-12
        )


@given(cs=st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]), st.tuples(coeff, coeff), min_size=2))
def test_variance_additive_over_disjoint_source_sets(cs):
    keys = sorted(cs)
    left = {k: cs[k] for k in keys[: len(keys) // 2]}
    right = {k: cs[k] for k in keys[len(keys) // 2 :]}
    models = {k: VACUUM for k in cs}
    for q in Quadrature:
        total = variance(LinearField(0.0, cs), q, models)
        parts = variance(LinearField(0.0, left), q, models) + variance(
            LinearField(0.0, right), q, models
        )
        assert parts == pytest.approx(total, rel=1e-12, abs=1e-12)


@given(
    base=st.floats(min_value=0.0, max_value=10.0),
    center=st.floats(min_value=1e3, max_value=1e7),
    width=st.floats(min_value=1e2, max_value=1e6),
    excess=st.floats(min_value=0.0, max_value=1e5),
    f=st.floats(min_value=1.0, max_value=1e8),
)
def test_variance_model_never_below_base(base, center, width, excess, f):
    model = NoiseVarianceModel(base=base, peaks=((center, width, excess),))
    assert model.evaluate(2.0 * math.pi * f) >= base


def test_variance_model_rejects_negative_base():
    with pytest.raises(ValueError):
        NoiseVarianceModel(base=-0.1)


@pytest.mark.parametrize("omega", [0.0, np.array([0.0, 1e5]), np.array([1e5, 2e5, 0.0])])
def test_variance_model_low_frequency_term_rejects_zero(omega):
    # A float frequency and a grid holding zero anywhere fail alike.
    model = NoiseVarianceModel(low_freq_excess=(1e12, 2.0))
    with pytest.raises(ValueError, match="zero frequency"):
        model.evaluate(omega)


@pytest.mark.parametrize(
    "model, f_hz, match",
    [
        # 1e5**100 overflows; 1e5**-100 underflows to 0, so 1/0.
        (NoiseVarianceModel(low_freq_excess=(1.0, 100.0)), 1e5, "low-frequency excess"),
        (NoiseVarianceModel(low_freq_excess=(1.0, -100.0)), 1e5, "low-frequency excess"),
        # half_width**2 underflows to 0, so 0/0 at the centre.
        (NoiseVarianceModel(peaks=((1e6, 1e-200, 1.0),)), 1e6, "Lorentzian peak"),
    ],
)
def test_variance_model_out_of_float_range_names_term_and_frequency(model, f_hz, match):
    message = f"^source-model {match} cannot be evaluated at {f_hz} Hz: "
    with pytest.raises(ValueError, match=message):
        model.evaluate(2 * math.pi * f_hz)


def test_combine_grid_fields_on_equal_distinct_arrays():
    # Two evaluations over equal grids hold distinct but equal ω arrays.
    a = LinearField(omega=np.array([1.0, 2.0]), coeffs={"a": (1 + 0j, 1 + 0j)})
    b = LinearField(omega=np.array([1.0, 2.0]), coeffs={"b": (1 + 0j, 1 + 0j)})
    out = combine(R, a, R, b)
    assert out.omega is a.omega
    assert variance(out, Quadrature.PLUS, {"a": VACUUM, "b": VACUUM}) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "omega_a, omega_b",
    [
        (np.array([1.0, 2.0]), np.array([1.0, 3.0])),
        (np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])),
        (np.array([1.0]), np.array([1.0, 1.0])),
    ],
    ids=["grid-values", "grid-lengths", "grid-broadcastable"],
)
def test_combine_rejects_different_frequencies(omega_a, omega_b):
    a = LinearField(omega=omega_a, coeffs={"a": (1 + 0j, 1 + 0j)})
    b = LinearField(omega=omega_b, coeffs={"b": (1 + 0j, 1 + 0j)})
    with pytest.raises(ValueError, match="cannot combine fields at different frequencies"):
        combine(R, a, R, b)
