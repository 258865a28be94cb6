"""Planted faults: each one-line fault in the physics must fail a verify suite.

Hand-rolled mutation testing: every test monkeypatches one fault into the
element code and asserts that the suites `sqznet verify` runs report FAIL.
The consistency and unitarity suites evaluate stacked designs through
array-valued parameters, so one fault is planted only in the array branch
of the square root the elements use.  Three faults change the phase of a
coefficient and no magnitude: only the unitarity suite's commutator
check sees them.
"""

import math

import numpy as np
import pytest

import sqznet.core as core
import sqznet.elements as elements
from sqznet import verify
from sqznet.cli import main
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
    # The unitarity chains hold arrays over designs, so they reach it too.
    assert not verify.check_passive_unitarity().passed


def combine_phase_difference(ca, a, cb, b):
    """``combine`` subtracting ``cb*b`` in the phase quadrature, where it should add it."""
    coeffs = {k: (ca * cp, ca * cm) for k, (cp, cm) in a.coeffs.items()}
    for k, (cp, cm) in b.coeffs.items():
        prev = coeffs.get(k, (0j, 0j))
        coeffs[k] = (prev[0] + cb * cp, prev[1] - cb * cm)
    return LinearField(a.omega, coeffs)


def oc_omega_sign_flipped(original):
    """``opa_transfer`` with +i*Omega for -i*Omega in the amplitude quadrature's oc numerator."""

    def faulty(seed, p, oc_vacuum_id, loss_vacuum_id):
        out = original(seed, p, oc_vacuum_id, loss_vacuum_id)
        omega = seed.omega
        cp = (2.0 * p.kappa_oc + 1j * omega - p.kappa + p.g) / (1j * omega + p.kappa - p.g)
        cm = out.coeffs[oc_vacuum_id][1]
        return LinearField(out.omega, {**out.coeffs, oc_vacuum_id: (cp, cm)})

    return faulty


def scaled_conjugating_phase(self, factor):
    """``LinearField.scaled`` multiplying the phase quadrature by conj(factor)."""
    coeffs = {k: (factor * cp, factor.conjugate() * cm) for k, (cp, cm) in self.coeffs.items()}
    return LinearField(self.omega, coeffs)


PHASE_FAULTS = {
    "combine-phase-sum": (elements, "combine", combine_phase_difference),
    "oc-omega-sign": (elements, "opa_transfer", oc_omega_sign_flipped(elements.opa_transfer)),
    "scaled-conjugate": (core.LinearField, "scaled", scaled_conjugating_phase),
}


@pytest.mark.parametrize("target, name, fault", PHASE_FAULTS.values(), ids=PHASE_FAULTS.keys())
def test_phase_fault_fails_the_commutator(monkeypatch, capsys, target, name, fault):
    monkeypatch.setattr(target, name, fault)
    assert not verify.check_passive_unitarity().passed
    assert main(["verify"]) == 2
    captured = capsys.readouterr()
    assert "FAIL  passive unitarity: max error" in captured.out
    assert captured.err == ""


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
        # A chain without a cavity gives one number per design for all 10
        # frequencies; the mask broadcasts over the designs.
        return np.where(np.arange(10) == 3, math.nan, original(fld, q))

    monkeypatch.setattr(verify, "sum_coefficient_power", nan_at_one_frequency)
    assert not verify.check_passive_unitarity().passed


def test_nan_variances_fail_uncertainty_product(monkeypatch):
    monkeypatch.setattr(verify, "opa_output_variances", lambda opa, omega: (math.nan, math.nan))
    assert not verify.check_uncertainty_product().passed
