"""Sideband-space linear noise algebra.

An optical field at one point of a network is represented as a linear
combination of independent noise inputs: for every noise source the field
stores one complex transfer coefficient per quadrature, evaluated at a
sideband angular frequency.  Because the inputs are mutually uncorrelated,
the homodyne variance is the incoherent sum of |coefficient|^2 times the
input variance of each source.

The frequency may be a float or a numpy array over a whole grid: every
operation here uses only arithmetic that works on both, so a coefficient
is then an array over that grid.  This module imports numpy only to name
the bad entry of an array; a float keeps the whole computation in plain
Python.

Only fluctuations are modelled.  The classical mean field (the carrier and
any bright modulation sidebands) sets no noise spectrum, so it is not
carried.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

#: The largest float whose square is finite (the square root of the largest
#: float rounds down).  A check against it squares nothing, so an array
#: entry past it raises no overflow warning.
_SQUARE_MAX = math.sqrt(sys.float_info.max)


def _any(cond) -> bool:
    """Whether ``cond`` holds anywhere: a bool, or an array of them."""
    return cond.any() if hasattr(cond, "any") else cond


def _require(ok, message: str, *values) -> None:
    """Raise ``ValueError(message.format(*values))`` unless ``ok`` holds everywhere.

    The package's one parameter check.  ``ok`` is a positive predicate, so
    NaN fails it; it is a bool, or an array of them over designs, and then
    the message shows each value at the first failing design.  Callers test
    ``ok is not True`` first, so a passing float check makes no call.
    """
    if getattr(ok, "ndim", 0):
        if ok.all():
            return
        import numpy as np

        i = int(ok.argmin())
        values = tuple(np.broadcast_to(v, ok.shape).flat[i].item() for v in values)
    elif ok:
        return
    raise ValueError(message.format(*values))


class Quadrature(enum.Enum):
    """Amplitude (PLUS) or phase (MINUS) quadrature."""

    PLUS = "+"
    MINUS = "-"

    @property
    def index(self) -> int:
        return 0 if self is Quadrature.PLUS else 1


@dataclass(frozen=True)
class NoiseVarianceModel:
    """Variance spectrum of one noise input, normalized to shot noise = 1.

    ``base`` is the white floor (1.0 for vacuum or a coherent state).
    ``peaks`` are Lorentzian excess-noise features given as
    (center_hz, half_width_hz, peak_excess); ``low_freq_excess`` adds an
    ``amplitude / f**exponent`` rise (f in Hz).  Every number must be finite,
    and may be an array over designs; a half-width must also have a finite
    square.
    """

    base: float = 1.0
    peaks: tuple[tuple[float, float, float], ...] = ()
    low_freq_excess: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if (ok := (0.0 <= self.base) & (self.base < math.inf)) is not True:
            _require(ok, "variance base must be finite and >= 0, got {}", self.base)
        object.__setattr__(self, "peaks", tuple(tuple(p) for p in self.peaks))
        for center, half_width, excess in self.peaks:
            if (ok := abs(center) < math.inf) is not True:
                _require(ok, "peak center must be finite, got {}", center)
            if (ok := (0.0 < half_width) & (half_width < math.inf)) is not True:
                _require(ok, "peak half-width must be finite and > 0, got {}", half_width)
            if (ok := half_width <= _SQUARE_MAX) is not True:
                _require(
                    ok, "peak half-width = {:.4g} is too large: its square overflows", half_width
                )
            if (ok := (0.0 <= excess) & (excess < math.inf)) is not True:
                _require(ok, "peak excess must be finite and >= 0, got {}", excess)
        if self.low_freq_excess is not None:
            amplitude, exponent = self.low_freq_excess
            if (ok := (0.0 <= amplitude) & (amplitude < math.inf)) is not True:
                _require(ok, "low-frequency amplitude must be finite and >= 0, got {}", amplitude)
            if (ok := abs(exponent) < math.inf) is not True:
                _require(ok, "low-frequency exponent must be finite, got {}", exponent)
            object.__setattr__(self, "low_freq_excess", (amplitude, exponent))

    def evaluate(self, omega):
        """Variance at sideband angular frequency ``omega`` (rad/s).

        ``omega`` may be a float or an array; the result has its shape.  On a
        float, a term that leaves the float range raises a ``ValueError``
        naming it and the frequency; on an array it is inf or NaN.
        """
        f = abs(omega) / TWO_PI
        v = self.base
        term = "Lorentzian peak"
        try:
            for center, half_width, excess in self.peaks:
                v += excess * half_width**2 / ((f - center) ** 2 + half_width**2)
            if self.low_freq_excess is not None:
                amplitude, exponent = self.low_freq_excess
                if _any(amplitude > 0.0):
                    if _any(f == 0.0):
                        raise ValueError("low-frequency excess is undefined at zero frequency")
                    term = "low-frequency excess"
                    v += amplitude / f**exponent
        except ArithmeticError as exc:
            raise ValueError(f"source-model {term} cannot be evaluated at {f} Hz: {exc}") from exc
        return v


#: Shot-noise-limited input: V = 1 at every frequency.
VACUUM = NoiseVarianceModel()


@dataclass(frozen=True)
class LinearField:
    """Fluctuation field as a keyed linear combination of noise inputs.

    ``coeffs`` maps a noise-source label to a pair of complex transfer
    coefficients ``(c_plus, c_minus)`` at sideband angular frequency
    ``omega``.  With an array ``omega`` a coefficient is an array over it,
    or a scalar where it does not depend on frequency.

    Instances are treated as immutable; element operations always return
    new fields.
    """

    omega: float
    coeffs: Mapping[str, tuple[complex, complex]]

    def coefficient(self, source_id: str, q: Quadrature) -> complex:
        pair = self.coeffs.get(source_id)
        return pair[q.index] if pair is not None else 0j

    def scaled(self, factor: complex) -> "LinearField":
        """Multiply every coefficient by ``factor``."""
        return LinearField(
            omega=self.omega,
            coeffs={k: (factor * cp, factor * cm) for k, (cp, cm) in self.coeffs.items()},
        )


def combine(ca: complex, a: LinearField, cb: complex, b: LinearField) -> LinearField:
    """Linear combination ``ca*a + cb*b`` of two fields at the same frequency."""
    # Identity first: fields of one evaluation share one frequency object.
    # Otherwise the shapes must match (arrays of other shapes would
    # broadcast) and so must every value.
    if a.omega is not b.omega and (
        getattr(a.omega, "shape", ()) != getattr(b.omega, "shape", ()) or _any(a.omega != b.omega)
    ):
        raise ValueError(f"cannot combine fields at different frequencies ({a.omega} vs {b.omega})")
    coeffs: dict[str, tuple[complex, complex]] = {}
    for k, (cp, cm) in a.coeffs.items():
        coeffs[k] = (ca * cp, ca * cm)
    for k, (cp, cm) in b.coeffs.items():
        prev = coeffs.get(k, (0j, 0j))
        coeffs[k] = (prev[0] + cb * cp, prev[1] + cb * cm)
    return LinearField(omega=a.omega, coeffs=coeffs)


def variance(
    field: LinearField,
    q: Quadrature,
    sources: Mapping[str, NoiseVarianceModel],
) -> float:
    """Homodyne variance ``sum_j |c_j|^2 V_j(omega)`` in quadrature ``q``.

    Strictly the incoherent sum: all noise inputs are uncorrelated.  Over a
    frequency array the result is an array, or a scalar if no term varies.
    """
    i = q.index
    total = 0.0
    for source_id, pair in field.coeffs.items():
        model = sources.get(source_id)
        if model is None:
            raise KeyError(f"no variance model for noise source '{source_id}'")
        total += abs(pair[i]) ** 2 * model.evaluate(field.omega)
    return total


def sum_coefficient_power(field: LinearField, q: Quadrature) -> float:
    """Unitarity diagnostic: ``sum_j |c_j|^2`` in quadrature ``q``."""
    i = q.index
    return sum(abs(pair[i]) ** 2 for pair in field.coeffs.values())


def db_rel_shot(v: float) -> float:
    """Variance in dB relative to shot noise (v = 1 maps to 0 dB)."""
    if not 0.0 < v < math.inf:
        raise ValueError(f"variance must be > 0 and finite to express in dB, got {v}")
    return 10.0 * math.log10(v)
