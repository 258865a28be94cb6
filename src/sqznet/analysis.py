"""Closed-form results and derived diagnostics for the cancellation scheme.

The reflectivity condition that removes the bright source from the chosen
output port, the squeezed-vacuum output variance it produces, its
closed-form extension to any sideband frequency (checked against the
composed network), suppression, the squeezing bands read from a
:class:`~sqznet.network.Spectrum`'s columns, the bare-OPA comparison
spectrum (a sweep of the bare network).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .core import _SQUARE_MAX, Quadrature, _require
from .elements import OpaParams
from .network import (
    SRC,
    MachZehnderParams,
    Spectrum,
    build_mach_zehnder,
    evaluate,
    sweep,
)


@dataclass(frozen=True)
class CancellationSolution:
    """Reflectivity and phase that null the source coefficient, and the |c_src| left."""

    epsilon1: float
    phi: float
    residual: float


def _cancelling_eps1(epsilon2: float, opa: OpaParams, omega: float) -> float:
    """eps1 = 1 - [1 + eps2/(1-eps2) * |T|^2]^-1 that nulls the source at ``omega``.

    T = sqrt(4*k_ic*k_oc) / (i*omega + kappa - g) is the squeezed arm's seed
    transfer; |T|^2 is written in units of kappa, so that omega = 0 gives the
    bits :func:`epsilon1_plus` always gave.  ``omega / kappa`` must have a
    finite square.  Every argument may be an array.
    """
    if (ok := (0.0 < epsilon2) & (epsilon2 < 1.0)) is not True:
        _require(ok, "epsilon2 must lie strictly inside (0, 1), got {}", epsilon2)
    kappa = opa.kappa
    if (ok := abs(omega) / kappa <= _SQUARE_MAX) is not True:
        _require(ok, "omega must be finite, with a finite (omega / kappa)**2, got {}", omega)
    bracket = 1.0 + (epsilon2 / (1.0 - epsilon2)) * (
        4.0 * opa.kappa_ic * opa.kappa_oc / kappa**2
    ) / ((1.0 - opa.g / kappa) ** 2 + (omega / kappa) ** 2)
    return 1.0 - 1.0 / bracket


def epsilon1_plus(epsilon2: float, opa: OpaParams) -> float:
    """First-splitter reflectivity cancelling the source at zero frequency.

    eps1 = 1 - [1 + eps2/(1-eps2) * (4*k_ic*k_oc/kappa^2) / (1-g/kappa)^2]^-1

    ``epsilon2`` and the fields of ``opa`` may be arrays over designs.
    """
    return _cancelling_eps1(epsilon2, opa, 0.0)


def squeezed_vacuum_variance(epsilon2: float, opa: OpaParams) -> float:
    """Output variance under exact cancellation: 1 + eps2*4*k_oc*g/(kappa-g)^2.

    ``epsilon2`` and the fields of ``opa`` may be arrays over designs.
    """
    if (ok := (0.0 <= epsilon2) & (epsilon2 <= 1.0)) is not True:
        _require(ok, "epsilon2 must be in [0, 1], got {}", epsilon2)
    return 1.0 + epsilon2 * 4.0 * opa.kappa_oc * opa.g / (opa.kappa - opa.g) ** 2


def _src_coefficient(p: MachZehnderParams, omega: float, **design) -> complex:
    """Source coefficient of ``p`` with the fields ``design`` replaced and no propagation loss."""
    fld = evaluate(build_mach_zehnder(replace(p, propagation_eta=1.0, **design)), omega)
    return fld.coefficient(SRC, Quadrature.PLUS)


def solve_cancellation_numeric(
    p: MachZehnderParams, omega: float, tol: float = 1e-12
) -> CancellationSolution:
    """Null the source coefficient at frequency ``omega`` over (eps1, phi).

    Closed form from the cavity input-output relation: with the squeezed
    arm's seed transfer T = sqrt(4*k_ic*k_oc) / (i*omega + kappa - g),
    eps1 = 1 - [1 + eps2/(1-eps2) * |T|^2]^-1 and phi = -arg T, which is
    atan2(omega, kappa - g) and stays defined when k_ic = 0.  The source
    coefficient of the network built at that point is the residual; raises
    unless it is within ``tol``, so a NaN residual raises too.
    """
    eps1 = _cancelling_eps1(p.epsilon2, p.opa, omega)
    phi = math.atan2(omega, p.opa.kappa - p.opa.g)
    residual = abs(_src_coefficient(p, omega, epsilon1=eps1, phi=phi))
    if not residual <= tol:
        raise ArithmeticError(
            f"cancellation solve left residual {residual:.3e} above {tol:.1e} "
            f"at eps1={eps1:.12g}, phi={phi:.12g}"
        )
    return CancellationSolution(epsilon1=eps1, phi=phi, residual=residual)


def suppression_db(p: MachZehnderParams, omega: float, mismatch: float) -> float:
    """Source-noise suppression of the cancellation scheme, in dB.

    Ratio of source-coefficient power with the reference arm blocked to the
    power with cancellation operated at eps1 = eps1_solved * (1 + mismatch),
    where (eps1_solved, phi_solved) null the source coefficient at
    ``omega``.  The blocked-arm coefficient is sqrt(eps2) times the source
    coefficient of the same design at eps2 = 1.  Exact cancellation
    (mismatch = 0) returns math.inf.  A mismatch that is negative or not
    finite, or that puts eps1 at or above 1, is rejected.
    """
    if (ok := (0.0 <= mismatch) & (mismatch < math.inf)) is not True:
        _require(ok, "mismatch must be finite and >= 0, got {}", mismatch)
    sol = solve_cancellation_numeric(p, omega)
    if mismatch == 0.0:
        return math.inf
    eps1 = sol.epsilon1 * (1.0 + mismatch)
    if (ok := eps1 < 1.0) is not True:
        _require(
            ok, "mismatch {} takes eps1 from {} to {}, not below 1", mismatch, sol.epsilon1, eps1
        )
    c_cancel = _src_coefficient(p, omega, epsilon1=eps1, phi=sol.phi)
    # Blocking the reference leaves the squeezed arm alone at the detector,
    # scaled by sqrt(eps2), the real second splitter's amplitude for that arm.
    c_blocked = math.sqrt(p.epsilon2) * _src_coefficient(
        p, omega, epsilon1=eps1, phi=sol.phi, epsilon2=1.0
    )
    p_cancel = abs(c_cancel) ** 2
    p_blocked = abs(c_blocked) ** 2
    if p_cancel == 0.0:
        return math.inf
    return 10.0 * math.log10(p_blocked / p_cancel)


def squeezing_bands(spectrum: Spectrum) -> list[tuple[float, float]]:
    """Maximal frequency intervals where the total variance is sub-shot (< 1).

    Band edges interior to the grid are linearly interpolated at the
    shot-noise crossing; edges at the grid boundary are clamped to it.
    """
    f, v = spectrum.frequency_hz, spectrum.v_plus
    if any(b <= a for a, b in zip(f, f[1:])):
        raise ValueError("spectrum must be sorted by increasing frequency")
    bands: list[tuple[float, float]] = []
    start: float | None = None

    def crossing(i: int) -> float:  # between grid points i - 1 and i
        return f[i - 1] + (1.0 - v[i - 1]) * (f[i] - f[i - 1]) / (v[i] - v[i - 1])

    for i, v_i in enumerate(v):
        below = v_i < 1.0
        if below and start is None:
            start = f[i] if i == 0 else crossing(i)
        elif not below and start is not None:
            bands.append((start, crossing(i)))
            start = None
    if start is not None:
        bands.append((start, f[-1]))
    return bands


def bare_source_variance(p: MachZehnderParams, grid_hz: Sequence[float]) -> list[float]:
    """Detected variance over ``grid_hz`` with both splitters bypassed.

    The bare-OPA network is built from ``p`` like the interferometer, with
    the same noise sources and ``p.src_model`` on the laser, and is swept
    like any network: one walk covers the whole grid.
    """
    bare = replace(p, epsilon1=0.0, epsilon2=1.0, phi=0.0)
    return sweep(build_mach_zehnder(bare), grid_hz).v_plus
