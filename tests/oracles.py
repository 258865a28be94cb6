"""Independent closed-form oracles used to check the composed network."""

import cmath
import math

from sqznet import OpaParams


def mz_output_coefficients(
    eps1: float,
    eps2: float,
    phi: float,
    opa: OpaParams,
    omega: float,
    g_sign: float = 1.0,
) -> dict[str, complex]:
    """Direct expansion of the interferometer output, term by term.

    ``g_sign=-1`` gives the phase-quadrature coefficients.
    """
    g = g_sign * opa.g
    kappa = opa.kappa
    den = 1j * omega + kappa - g
    s_ic = math.sqrt(4.0 * opa.kappa_ic * opa.kappa_oc)
    s_loss = math.sqrt(4.0 * opa.kappa_loss * opa.kappa_oc)
    e_phi = cmath.exp(-1j * phi)
    return {
        "src": (
            math.sqrt((1.0 - eps1) * eps2) * s_ic
            - math.sqrt(eps1 * (1.0 - eps2)) * den * e_phi
        )
        / den,
        "vac": (
            math.sqrt(eps1 * eps2) * s_ic
            + math.sqrt((1.0 - eps1) * (1.0 - eps2)) * den * e_phi
        )
        / den,
        "oc": math.sqrt(eps2) * (2.0 * opa.kappa_oc - 1j * omega - kappa + g) / den,
        "loss": math.sqrt(eps2) * s_loss / den,
    }


def suppression_db_closed_form(
    eps2: float, opa: OpaParams, omega: float, mismatch: float
) -> float:
    """Suppression in dB from the cavity input-output relation alone.

    With the squeezed arm's seed transfer
    T = sqrt(4*k_ic*k_oc) / (i*omega + kappa - g), the null sits at
    eps1 = 1 - [1 + eps2/(1-eps2) * |T|^2]^-1 and phi = -arg T; the mismatch
    moves eps1 to eps1' = eps1 * (1 + m).  Blocking the reference arm leaves
    sqrt(eps2) * sqrt(1-eps1') * T at the detector.
    """
    t = math.sqrt(4.0 * opa.kappa_ic * opa.kappa_oc) / (1j * omega + opa.kappa - opa.g)
    eps1 = 1.0 - 1.0 / (1.0 + eps2 / (1.0 - eps2) * abs(t) ** 2)
    phi = -cmath.phase(t)
    e1 = eps1 * (1.0 + mismatch)
    blocked = math.sqrt(eps2) * math.sqrt(1.0 - e1) * t
    cancelled = blocked - math.sqrt(1.0 - eps2) * math.sqrt(e1) * cmath.exp(-1j * phi)
    return 10.0 * math.log10(abs(blocked) ** 2 / abs(cancelled) ** 2)
