"""Optical elements as linear maps on sideband fields.

Each optic is one frozen dataclass: it holds its parameters, checks them
on construction and maps input fields to output fields in ``apply``.  The
optics are :class:`Beamsplitter`, :class:`PhaseShifter`, :class:`Opa` and
:class:`LossElement`; :func:`source` makes a fresh input field and
:func:`homodyne_readout` turns the detected field into a variance.
Sign conventions for the beamsplitter and the phase shifter follow the
interferometer combination

    out = sqrt(eps) * a + exp(-i*phi) * sqrt(1 - eps) * b

with the reflected port picking up the minus sign on the second input.
The OPA below threshold acts on the amplitude quadrature with gain g and
on the phase quadrature with gain -g.

The design parameters of :class:`Beamsplitter`, :class:`PhaseShifter`,
:class:`LossElement`, :class:`OpaParams` and :class:`HomodyneParams` may be
numpy arrays over designs, just as a field's frequency may be an array over
a grid: the same code then builds and evaluates a stack of designs at once,
and every coefficient becomes an array over them.  Every check goes through
:func:`sqznet.core._require`: it holds element-wise, rejects NaN and +-inf
and names the first bad entry; a float keeps the plain-Python path and
never loads numpy.  These classes compare and hash by value, an array keyed
by its bytes.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass

from .core import (
    _SQUARE_MAX,
    LinearField,
    NoiseVarianceModel,
    Quadrature,
    _any,
    _require,
    combine,
    variance,
)


def _sqrt(x):
    """math.sqrt for a number; numpy's element-wise sqrt for an array over designs."""
    if isinstance(x, (float, int)):
        return math.sqrt(x)
    import numpy as np

    return np.sqrt(x)


def _key(value):
    """Hashable stand-in for a field: itself, or an array's (dtype, shape, bytes)."""
    if value.__hash__ is None:
        return value.dtype.str, value.shape, value.tobytes()
    return value


class _ByValue:
    """``__eq__``/``__hash__`` over the dataclass fields, arrays by value.

    For hashable fields this is the dataclass's own comparison and hash.
    """

    def _fields(self) -> tuple:
        return tuple(_key(getattr(self, f)) for f in self.__dataclass_fields__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


@dataclass(frozen=True, eq=False)
class OpaParams(_ByValue):
    """Cavity coupling rates (s^-1) and nonlinear gain of the OPA.

    g is real; negative g deamplifies the amplitude quadrature.  The cavity
    must be below threshold: |g| < kappa_ic + kappa_oc + kappa_loss.
    Each field may be an array over designs.
    """

    kappa_ic: float
    kappa_oc: float
    kappa_loss: float
    g: float

    def __post_init__(self) -> None:
        for name in ("kappa_ic", "kappa_oc", "kappa_loss"):
            rate = getattr(self, name)
            if (ok := rate >= 0.0) is not True:
                _require(ok, name + " must be >= 0, got {}", rate)
            if (ok := rate < math.inf) is not True:
                _require(ok, name + " must be finite, got {}", rate)
        kappa = self.kappa
        if (ok := kappa > 0.0) is not True:
            _require(ok, "total decay rate kappa must be > 0")
        # Bounds every rate product the transfer forms: 4*k_ic*k_oc <= kappa**2.
        if (ok := kappa <= _SQUARE_MAX) is not True:
            _require(ok, "total decay rate kappa = {:.4g} is too large: its square overflows", kappa)
        if (ok := abs(self.g) < kappa) is not True:
            _require(ok, "|g| = {:.4g} must be below threshold kappa = {:.4g}", abs(self.g), kappa)

    @property
    def kappa(self) -> float:
        return self.kappa_ic + self.kappa_oc + self.kappa_loss

    @property
    def escape_efficiency(self) -> float:
        return self.kappa_oc / self.kappa


def opa_from_mirrors(
    linewidth_hz: float,
    t_ic: float,
    t_oc: float,
    t_loss: float,
    g_over_kappa: float,
    linewidth_convention: str = "fwhm",
) -> OpaParams:
    """Coupling rates from mirror power transmissions and a cavity linewidth.

    Each rate is proportional to its transmission, with the common scale set
    so the total decay rate matches the linewidth.  With the field decay
    convention used here the half width at half maximum in angular frequency
    equals kappa, so an FWHM linewidth in Hz gives kappa = pi * linewidth.
    """
    if (ok := (0.0 < linewidth_hz) & (linewidth_hz < math.inf)) is not True:
        _require(ok, "linewidth must be finite and > 0, got {}", linewidth_hz)
    t_total = t_ic + t_oc + t_loss
    ok = (0.0 <= t_ic) & (0.0 <= t_oc) & (0.0 <= t_loss)
    if (ok := ok & (0.0 < t_total) & (t_total < math.inf)) is not True:
        _require(ok, "mirror transmissions must be finite and >= 0 with a positive sum")
    if linewidth_convention == "fwhm":
        kappa = math.pi * linewidth_hz
    elif linewidth_convention == "hwhm":
        kappa = 2.0 * math.pi * linewidth_hz
    else:
        raise ValueError(f"unknown linewidth convention '{linewidth_convention}'")
    return OpaParams(
        kappa_ic=kappa * t_ic / t_total,
        kappa_oc=kappa * t_oc / t_total,
        kappa_loss=kappa * t_loss / t_total,
        g=g_over_kappa * kappa,
    )


@dataclass(frozen=True, eq=False)
class HomodyneParams(_ByValue):
    """Detection chain: photodiode efficiency, fringe visibility, dark noise.

    ``dark_rel`` is the electronic dark noise as a linear variance relative
    to shot noise.  Each field may be an array over designs.
    """

    pd_efficiency: float = 1.0
    visibility: float = 1.0
    dark_rel: float = 0.0

    def __post_init__(self) -> None:
        for name in ("pd_efficiency", "visibility"):
            value = getattr(self, name)
            if (ok := (0.0 < value) & (value <= 1.0)) is not True:
                _require(ok, name + " must be in (0, 1], got {}", value)
        if (ok := (0.0 <= self.dark_rel) & (self.dark_rel < math.inf)) is not True:
            _require(ok, "dark_rel must be finite and >= 0, got {}", self.dark_rel)

    @property
    def eta_eff(self) -> float:
        """Effective detection efficiency: pd efficiency times visibility squared."""
        return self.pd_efficiency * self.visibility**2


def source(source_id: str, omega: float = 0.0) -> LinearField:
    """Fresh input field: unit transfer coefficient in both quadratures.

    Its noise spectrum (vacuum or a noisy laser) is the variance model the
    readout assigns to ``source_id``.
    """
    return LinearField(omega=omega, coeffs={source_id: (1 + 0j, 1 + 0j)})


class Element:
    """Network node with ``ports`` inputs and as many outputs.

    ``apply(*ins)`` maps the input fields to the tuple of output fields;
    ``injected_ids()`` names the fresh noise sources the element adds.
    """

    ports = 1

    def injected_ids(self) -> tuple[str, ...]:
        return ()


@dataclass(frozen=True, eq=False)
class Beamsplitter(_ByValue, Element):
    """Beamsplitter of power reflectivity ``epsilon`` in [0, 1] (may be an array)."""

    epsilon: float
    ports = 2

    def __post_init__(self) -> None:
        if (ok := (0.0 <= self.epsilon) & (self.epsilon <= 1.0)) is not True:
            _require(ok, "beamsplitter reflectivity must be in [0, 1], got {}", self.epsilon)

    def apply(self, a: LinearField, b: LinearField) -> tuple[LinearField, ...]:
        """out1 = sqrt(eps)*a + sqrt(1-eps)*b and out2 = sqrt(1-eps)*a - sqrt(eps)*b.

        With ``a`` the vacuum-side input and ``b`` the source-side input this
        reproduces the ic/ref pair of the interferometer's first splitter.
        """
        r = _sqrt(self.epsilon)
        t = _sqrt(1.0 - self.epsilon)
        out1 = combine(r, a, t, b)
        out2 = combine(t, a, -r, b)
        return out1, out2


@dataclass(frozen=True, eq=False)
class PhaseShifter(_ByValue, Element):
    """Multiplies every coefficient by exp(-i*phi); ``phi`` may be an array."""

    phi: float

    def __post_init__(self) -> None:
        if (ok := abs(self.phi) < math.inf) is not True:
            _require(ok, "phi must be finite, got {}", self.phi)

    def apply(self, f: LinearField) -> tuple[LinearField, ...]:
        if isinstance(self.phi, (float, int)):
            return (f.scaled(cmath.exp(-1j * self.phi)),)
        import numpy as np

        return (f.scaled(np.exp(-1j * self.phi)),)


def opa_transfer(
    seed: LinearField,
    p: OpaParams,
    oc_vacuum_id: str,
    loss_vacuum_id: str,
) -> LinearField:
    """Below-threshold OPA cavity transfer at the seed's sideband frequency.

    Per quadrature (amplitude with +g, phase with -g) the denominator is
    D = i*Omega + kappa - g; the seed passes with sqrt(4*k_ic*k_oc)/D while
    fresh vacuum enters through the intracavity loss with
    sqrt(4*k_loss*k_oc)/D and through the output coupler with
    (2*k_oc - i*Omega - kappa + g)/D.
    """
    if oc_vacuum_id == loss_vacuum_id:
        raise ValueError("oc and loss vacuum ids must differ")
    for fresh in (oc_vacuum_id, loss_vacuum_id):
        if fresh in seed.coeffs:
            raise ValueError(f"noise source '{fresh}' is already present in the seed field")
    kappa = p.kappa
    omega = seed.omega
    s_seed = _sqrt(4.0 * p.kappa_ic * p.kappa_oc)
    s_loss = _sqrt(4.0 * p.kappa_loss * p.kappa_oc)
    den = [1j * omega + kappa - p.g, 1j * omega + kappa + p.g]  # X+, X- (g -> -g)
    t_seed = [s_seed / d for d in den]
    coeffs: dict[str, tuple[complex, complex]] = {
        k: (t_seed[0] * cp, t_seed[1] * cm) for k, (cp, cm) in seed.coeffs.items()
    }
    coeffs[loss_vacuum_id] = (s_loss / den[0], s_loss / den[1])
    coeffs[oc_vacuum_id] = (
        (2.0 * p.kappa_oc - 1j * omega - kappa + p.g) / den[0],
        (2.0 * p.kappa_oc - 1j * omega - kappa - p.g) / den[1],
    )
    return LinearField(omega=omega, coeffs=coeffs)


@dataclass(frozen=True)
class Opa(Element):
    """Below-threshold OPA cavity; see :func:`opa_transfer`."""

    params: OpaParams
    oc_vacuum_id: str
    loss_vacuum_id: str

    def injected_ids(self) -> tuple[str, ...]:
        return (self.oc_vacuum_id, self.loss_vacuum_id)

    def apply(self, f: LinearField) -> tuple[LinearField, ...]:
        return (opa_transfer(f, self.params, self.oc_vacuum_id, self.loss_vacuum_id),)


@dataclass(frozen=True, eq=False)
class LossElement(_ByValue, Element):
    """Passive power loss: transmit sqrt(eta), admix sqrt(1-eta) fresh vacuum.

    ``eta`` is the power transmission in (0, 1] (may be an array);
    ``fresh_vacuum_id`` labels the admixed vacuum, injected when any design
    loses power.
    """

    eta: float
    fresh_vacuum_id: str

    def __post_init__(self) -> None:
        if (ok := (0.0 < self.eta) & (self.eta <= 1.0)) is not True:
            _require(ok, "loss transmission must be in (0, 1], got {}", self.eta)

    def injected_ids(self) -> tuple[str, ...]:
        return (self.fresh_vacuum_id,) if _any(self.eta < 1.0) else ()

    def apply(self, f: LinearField) -> tuple[LinearField, ...]:
        if self.fresh_vacuum_id in f.coeffs:
            raise ValueError(
                f"noise source '{self.fresh_vacuum_id}' is already present in the field"
            )
        t = _sqrt(self.eta)
        r = _sqrt(1.0 - self.eta)
        coeffs = {k: (t * cp, t * cm) for k, (cp, cm) in f.coeffs.items()}
        if _any(r > 0.0):
            coeffs[self.fresh_vacuum_id] = (r + 0j, r + 0j)
        return (LinearField(omega=f.omega, coeffs=coeffs),)


def homodyne_readout(
    f: LinearField,
    q: Quadrature,
    p: HomodyneParams,
    sources: Mapping[str, NoiseVarianceModel],
) -> float:
    """Detected variance: eta_eff*V + (1 - eta_eff) + dark noise.

    eta_eff = pd_efficiency * visibility**2; imperfect detection mixes in
    shot noise and the dark noise adds on top.
    """
    eta = p.eta_eff
    return eta * variance(f, q, sources) + (1.0 - eta) + p.dark_rel
