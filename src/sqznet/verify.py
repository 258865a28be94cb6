"""Self-verification suites: consistency draws, unitarity, uncertainty product.

Each suite returns its maximum observed error against a pinned tolerance.
The CLI `verify` command runs all of them, and the test suite reuses them,
but they check less than the tests do: no suite runs the finite-frequency
cancellation solve, an interferometer phase, dark noise or a source model
other than ``paper-fig2``'s, so a fault confined to those (or one that
leaves every suite's invariant intact) passes `verify` and fails the tests.
A suite's verdict is derived from its error and tolerance: one that raises
is reported as a failure naming the exception, and a NaN error fails.

The consistency suite draws each block of ``_BLOCK`` designs as arrays,
with :func:`draw_opa` like every random cavity here, and builds and
evaluates each block as one network.  The unitarity suite draws each random
chain topology once and its parameters as arrays over ``_DESIGNS`` designs,
so one build and one walk cover every design and frequency of a topology.
Every other topology has gain.  On every design it checks the output
commutator ``sum_j c_j+ * conj(c_j-) = 1``, which holds with gain and sees
the phase of each coefficient; on the passive ones also V = 1 and
``sum_j |c_j|^2 = 1``.  The seeds of these two suites name their blocks,
not the designs of a one-design loop.  The uncertainty suite draws each
column of its cavities with one generator call and evaluates its lossy
cavities as one array.  Its lossless closed form comes within a few ulp of
the tolerance, where the array branch of :func:`opa_transfer` is less
accurate than the float branch, so that half runs one cavity at a time on
floats.  The residual-scaling suite evaluates one network over an array of
frequencies.  All run the same ``evaluate`` as a single design at a single
frequency.  Budget closure sums the columns of one ``Spectrum``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .analysis import epsilon1_plus, squeezed_vacuum_variance
from .config import load_preset
from .core import VACUUM, LinearField, Quadrature, sum_coefficient_power, variance
from .elements import (
    Beamsplitter,
    LossElement,
    Opa,
    OpaParams,
    PhaseShifter,
    opa_transfer,
    source,
)
from .network import SRC, MachZehnderParams, NetworkDescription, build_mach_zehnder, evaluate, sweep


#: Consistency draws per stacked network: one wide batch would cost more
#: memory than it saves time.
_BLOCK = 1000

#: The unitarity suite's random chain topologies, the designs drawn for
#: each, and the frequencies each design is evaluated at.
_TOPOLOGIES, _DESIGNS, _FREQUENCIES = 100, 20, 10

#: Most consistency draws one run may ask for: 100 times the default.
MAX_DRAWS = 1_000_000

CONSISTENCY = "eq-consistency (2)<->(3)<->(4)"
PASSIVE_UNITARITY = "passive unitarity"
UNCERTAINTY_PRODUCT = "uncertainty product"
BUDGET_CLOSURE = "budget closure"
RESIDUAL_SCALING = "finite-frequency residual ~ Omega^2"


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_error: float
    tolerance: float
    error: str | None = None

    @property
    def passed(self) -> bool:
        """No error, and ``max_error`` within ``tolerance``: a NaN fails."""
        return self.error is None and self.max_error <= self.tolerance

    def line(self) -> str:
        if self.error is not None:
            return f"FAIL  {self.name}: {self.error}"
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: max error {self.max_error:.3e} (tolerance {self.tolerance:.1e})"


def _fold(worst: float, *errors) -> float:
    """The largest of ``worst`` and every entry of ``errors`` (numbers or arrays).

    A NaN anywhere is kept, where Python's ``max`` would drop it, so a NaN
    fails its suite.
    """
    for err in errors:
        if hasattr(err, "max"):
            err = float(err.max())  # NaN if any entry is
        if err > worst or math.isnan(err):
            worst = err
    return worst


def draw_opa(rng: np.random.Generator, passive: bool = False, shape: tuple = ()) -> OpaParams:
    """Random below-threshold cavity, |g| < 0.95 kappa; all three ports strictly open.

    With a ``shape`` every field is an array of it, one cavity per entry.
    The three rates come from one ``uniform`` call, then the gain from one
    more unless the cavity is ``passive``.
    """
    rates = rng.uniform(1e5, 1e8, (3, *shape))
    g = 0.0 if passive else rng.uniform(-0.95 * rates.sum(axis=0), 0.0)
    return OpaParams(kappa_ic=rates[0], kappa_oc=rates[1], kappa_loss=rates[2], g=g)


def check_consistency(draws: int = 10_000, seed: int = 0) -> SuiteResult:
    """Zero-frequency triangle: composed network nulls the source coefficient
    at the closed-form reflectivity and lands on the closed-form variance.

    Each block of ``_BLOCK`` designs is drawn as arrays, its cavities by
    :func:`draw_opa` and then its epsilon2 values, and evaluated as one
    network.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    rng = np.random.default_rng(seed)
    tol_coeff, tol_var = 1e-12, 1e-10
    worst = 0.0
    for start in range(0, draws, _BLOCK):
        m = min(_BLOCK, draws - start)
        opa, eps2 = draw_opa(rng, shape=(m,)), rng.uniform(0.01, 0.99, m)
        params = MachZehnderParams(epsilon1_plus(eps2, opa), eps2, opa, phi=0.0)
        net = build_mach_zehnder(params)
        fld = evaluate(net, 0.0)
        c_src = abs(fld.coefficient(SRC, Quadrature.PLUS))
        v = variance(fld, Quadrature.PLUS, net.source_models)
        v_ref = squeezed_vacuum_variance(eps2, opa)
        err = np.maximum(c_src / tol_coeff, abs(v - v_ref) / abs(v_ref) / tol_var)
        worst = _fold(worst, err)
    # worst is normalized to its own tolerance; report against 1.
    return SuiteResult(CONSISTENCY, worst, 1.0)


def random_chain(
    rng: np.random.Generator, designs: int, passive: bool = True
) -> NetworkDescription:
    """Random chain of 1 to 8 elements with every loss port tracked.

    The topology (the length, each element's kind and each beamsplitter's
    output port) is drawn once, then each parameter as an array of shape
    ``(designs, 1)``: that many designs of the topology, to be evaluated at
    frequencies of shape ``(designs, K)``.  A passive chain's cavities have
    g = 0; otherwise each has |g| < 0.95 kappa.
    """
    size = (designs, 1)
    elements: dict = {}
    edges: list = []
    inputs: dict = {("e0", 0): "in-0"}
    n = int(rng.integers(1, 9))
    current: tuple[str, int] | None = None
    for i in range(n):
        name = f"e{i}"
        kind = rng.integers(0, 4)
        if kind == 0:
            elem = Beamsplitter(rng.uniform(0.0, 1.0, size))
        elif kind == 1:
            elem = PhaseShifter(rng.uniform(-math.pi, math.pi, size))
        elif kind == 2:
            elem = LossElement(rng.uniform(0.1, 1.0, size), f"loss-{i}")
        else:
            elem = Opa(draw_opa(rng, passive, size), f"oc-{i}", f"intracav-{i}")
        elements[name] = elem
        if current is not None:
            edges.append((current, (name, 0)))
        if isinstance(elem, Beamsplitter):
            inputs[(name, 1)] = f"bs-vac-{i}"
            current = (name, int(rng.integers(0, 2)))
        else:
            current = (name, 0)
    assert current is not None
    return NetworkDescription(
        elements=elements, edges=tuple(edges), inputs=inputs, detector=current
    )


def commutator(fld: LinearField):
    """``sum_j c_j+ * conj(c_j-)``: 1 at every frequency when every input is tracked.

    The preserved commutator of the output mode's two quadratures; it holds
    with gain, and it sees the phase of each coefficient.
    """
    return sum(cp * cm.conjugate() for cp, cm in fld.coeffs.values())


def check_passive_unitarity(seed: int = 1) -> SuiteResult:
    """Shot-noise preservation and the commutator over random chains.

    ``_TOPOLOGIES`` chain topologies, passive and active in turn, each
    with ``_DESIGNS`` designs drawn as arrays and evaluated at
    ``_FREQUENCIES`` random frequencies per design in one walk.  Every
    design keeps the commutator at 1; the passive ones also return V = 1
    and ``sum_j |c_j|^2 = 1`` in both quadratures.
    """
    rng = np.random.default_rng(seed)
    tol = 1e-12
    worst = 0.0
    for t in range(_TOPOLOGIES):
        passive = t % 2 == 0
        net = random_chain(rng, _DESIGNS, passive)
        fld = evaluate(net, 2.0 * math.pi * rng.uniform(1e3, 3e7, size=(_DESIGNS, _FREQUENCIES)))
        worst = _fold(worst, abs(commutator(fld) - 1.0))
        if passive:
            for q in Quadrature:
                worst = _fold(
                    worst,
                    abs(variance(fld, q, net.source_models) - 1.0),
                    abs(sum_coefficient_power(fld, q) - 1.0),
                )
    return SuiteResult(PASSIVE_UNITARITY, worst, tol)


def opa_output_variances(opa: OpaParams, omega: float) -> tuple[float, float]:
    """(V+, V-) of the vacuum-seeded cavity output; arrays over stacked cavities."""
    seed_field = source("seed", omega)
    out = opa_transfer(seed_field, opa, "oc", "intracav")
    models = {k: VACUUM for k in ("seed", "oc", "intracav")}
    return (
        variance(out, Quadrature.PLUS, models),
        variance(out, Quadrature.MINUS, models),
    )


def check_uncertainty_product(seed: int = 2) -> SuiteResult:
    """V+ * V- >= 1 always; equality and the closed form for a lossless cavity.

    1000 lossy cavities from :func:`draw_opa`, then 1000 frequencies, then
    1000 lossless single-port cavities, each column from one generator
    call.  The lossy cavities are evaluated as one array, where
    ``1 - V+ V-`` stays far inside the tolerance.  The tolerance is about
    4 ulp of the lossless closed form's V-, so that half runs on plain
    floats, one cavity at a time: the array branch of :func:`opa_transfer`
    is a few ulp less accurate.
    """
    rng = np.random.default_rng(seed)
    tol = 1e-12
    opa = draw_opa(rng, shape=(1000,))
    omega = 2.0 * math.pi * rng.uniform(1e3, 5e7, 1000)
    vp, vm = opa_output_variances(opa, omega)
    worst = _fold(0.0, 1.0 - vp * vm)
    # Lossless single-port cavity: closed form and exact minimum uncertainty.
    kappa = rng.uniform(1e6, 3e8, 1000)
    g = rng.uniform(-0.95 * kappa, -1e-3 * kappa)
    for omega, kappa, g in zip(omega.tolist(), kappa.tolist(), g.tolist()):
        lossless = OpaParams(kappa_ic=0.0, kappa_oc=kappa, kappa_loss=0.0, g=g)
        vp, vm = opa_output_variances(lossless, omega)
        ref_p = (omega**2 + (kappa + g) ** 2) / (omega**2 + (kappa - g) ** 2)
        ref_m = (omega**2 + (kappa - g) ** 2) / (omega**2 + (kappa + g) ** 2)
        worst = _fold(worst, abs(vp - ref_p), abs(vm - ref_m), abs(vp * vm - 1.0))
    return SuiteResult(UNCERTAINTY_PRODUCT, worst, tol)


def check_budget_closure() -> SuiteResult:
    """Per-source budget columns sum to the total at every ``paper-fig2`` frequency."""
    cfg = load_preset("paper-fig2")
    spectrum = sweep(build_mach_zehnder(cfg.mach_zehnder), cfg.grid.frequencies())
    totals = map(sum, zip(*spectrum.contributions.values()))
    tol = 1e-12
    worst = _fold(0.0, *(abs(s - v) for s, v in zip(totals, spectrum.v_plus)))
    return SuiteResult(BUDGET_CLOSURE, worst, tol)


def check_residual_scaling() -> SuiteResult:
    """Holding the zero-frequency null, the leaked source power grows as
    Omega^2 well inside the cavity linewidth."""
    cfg = load_preset("paper-fig2")
    p = cfg.mach_zehnder
    opa = p.opa
    eps1 = epsilon1_plus(p.epsilon2, opa)
    held = replace(p, epsilon1=eps1, phi=0.0, propagation_eta=1.0)
    net = build_mach_zehnder(held)
    omegas = np.logspace(math.log10(1e-4 * opa.kappa), math.log10(1e-2 * opa.kappa), 25)
    powers = abs(evaluate(net, omegas).coefficient(SRC, Quadrature.PLUS)) ** 2
    slope = np.polyfit(np.log(omegas), np.log(powers), 1)[0]
    tol = 0.01
    err = float(abs(slope - 2.0))
    return SuiteResult(RESIDUAL_SCALING, err, tol)


def _run(name: str, suite: Callable[[], SuiteResult]) -> SuiteResult:
    try:
        return suite()
    except Exception as exc:  # noqa: BLE001 - any error fails the suite by name
        return SuiteResult(name, math.nan, math.nan, f"{type(exc).__name__}: {exc}")


def run_all(seed: int = 0, draws: int = 10_000) -> list[SuiteResult]:
    """Every suite, in order; one that raises gives a FAIL result naming the error.

    ``seed`` and ``draws`` are checked first, so a bad one raises before any
    suite runs.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    if draws > MAX_DRAWS:
        raise ValueError(f"draws must be <= {MAX_DRAWS}, got {draws}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return [
        _run(CONSISTENCY, lambda: check_consistency(draws=draws, seed=seed)),
        _run(PASSIVE_UNITARITY, lambda: check_passive_unitarity(seed=seed + 1)),
        _run(UNCERTAINTY_PRODUCT, lambda: check_uncertainty_product(seed=seed + 2)),
        _run(BUDGET_CLOSURE, check_budget_closure),
        _run(RESIDUAL_SCALING, check_residual_scaling),
    ]
