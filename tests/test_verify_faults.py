"""Planted faults: each one-line fault in the physics must fail a verify suite.

Hand-rolled mutation testing: every test monkeypatches one fault into the
element code and asserts that the suites `sqznet verify` runs report FAIL.
The consistency suite evaluates stacked designs through array-valued
parameters, so one fault is planted only in the array branch of the
square root the elements use.
"""

import math

import numpy as np

import sqznet.elements as elements
from sqznet import verify
from sqznet.core import LinearField, combine


def plus_rb(self, a, b):
    """Beamsplitter whose second output adds r*b where it should subtract it."""
    r = self.epsilon**0.5
    t = (1.0 - self.epsilon) ** 0.5
    return combine(r, a, t, b), combine(t, a, r, b)


def loss_coupling_scaled(original):
    """``opa_transfer`` with its loss coupling sqrt(4*k_loss*k_oc) scaled by 1.001."""

    def faulty(seed, p, oc_vacuum_id, loss_vacuum_id):
        out = original(seed, p, oc_vacuum_id, loss_vacuum_id)
        cp, cm = out.coeffs[loss_vacuum_id]
        return LinearField(out.omega, {**out.coeffs, loss_vacuum_id: (1.001 * cp, 1.001 * cm)})

    return faulty


def array_sqrt_off(x):
    """The square root, 1e-9 relative off for arrays only."""
    if isinstance(x, (float, int)):
        return math.sqrt(x)
    return np.sqrt(x) * (1.0 + 1e-9)


def test_suites_pass_without_a_fault():
    assert verify.check_consistency(draws=2000).passed
    assert verify.check_passive_unitarity().passed


def test_beamsplitter_sign_fault(monkeypatch):
    monkeypatch.setattr(elements.Beamsplitter, "apply", plus_rb)
    assert not verify.check_consistency().passed


def test_opa_loss_coupling_fault(monkeypatch):
    monkeypatch.setattr(elements, "opa_transfer", loss_coupling_scaled(elements.opa_transfer))
    assert not verify.check_consistency().passed
    assert not verify.check_passive_unitarity().passed


def test_array_branch_fault(monkeypatch):
    monkeypatch.setattr(elements, "_sqrt", array_sqrt_off)
    assert not verify.check_consistency().passed
    # The unitarity chains hold plain numbers, so they never reach the fault.
    assert verify.check_passive_unitarity().passed


def array_sqrt_nan(x):
    """The square root, NaN at every tenth entry of an array."""
    if isinstance(x, (float, int)):
        return math.sqrt(x)
    out = np.sqrt(x)
    out[..., ::10] = math.nan
    return out


def test_nan_in_array_branch_fails(monkeypatch):
    monkeypatch.setattr(elements, "_sqrt", array_sqrt_nan)
    result = verify.check_consistency(draws=2000)
    assert not result.passed
    assert math.isnan(result.max_error)


def test_nan_frequency_fails_unitarity(monkeypatch):
    original = verify.sum_coefficient_power

    def nan_at_one_frequency(fld, q):
        # A chain without a cavity gives one number for all 10 frequencies.
        return np.where(np.arange(10) == 3, math.nan, original(fld, q))

    monkeypatch.setattr(verify, "sum_coefficient_power", nan_at_one_frequency)
    assert not verify.check_passive_unitarity().passed


def test_nan_variances_fail_uncertainty_product(monkeypatch):
    monkeypatch.setattr(verify, "opa_output_variances", lambda opa, omega: (math.nan, math.nan))
    assert not verify.check_uncertainty_product().passed
