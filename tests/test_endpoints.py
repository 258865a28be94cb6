"""Every parameter check at its exact endpoint.

Each bound is given as two adjacent floats: the last one the check accepts
and the first one it rejects.  A check that moves its endpoint by a single
float (``<`` for ``<=``, a bound of 1.001 for 1.0, ``abs(g) <= kappa``)
accepts the one or rejects the other.  A network's port checks are given
the same way as an element's last port and the one past it, and its
source checks as the smallest network each one rejects.
"""

import cmath
import math
import sys

import pytest

from sqznet import (
    Beamsplitter,
    CancellationSolution,
    HomodyneParams,
    LossElement,
    VACUUM,
    MachZehnderParams,
    NetworkDescription,
    NetworkError,
    NoiseVarianceModel,
    OpaParams,
    PhaseShifter,
    db_rel_shot,
    epsilon1_plus,
    loss_chain,
    opa_from_mirrors,
    opa_transfer,
    solve_cancellation_numeric,
    squeezed_vacuum_variance,
    source,
    suppression_db,
    sweep,
)

TINY = math.nextafter(0.0, 1.0)  # the smallest positive float
BELOW_ONE = math.nextafter(1.0, 0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)

OPA = OpaParams(1.0, 1.0, 0.0, 0.0)  # kappa = 2
HALF_MAX = sys.float_info.max / 2  # two of these sum to the largest float

VACUUM_ONLY = NetworkDescription(
    elements={"ps": PhaseShifter(0.0)}, edges=(), inputs={("ps", 0): "v"}, detector=("ps", 0)
)


def opa_with(**fields):
    return OpaParams(**{"kappa_ic": 1.0, "kappa_oc": 1.0, "kappa_loss": 1.0, "g": 0.0, **fields})


def mirrors_with(**fields):
    args = {"linewidth_hz": 1e6, "t_ic": 0.1, "t_oc": 0.5, "t_loss": 0.1, "g_over_kappa": 0.0}
    return opa_from_mirrors(**{**args, **fields})


def mz_with(**fields):
    return MachZehnderParams(**{"epsilon1": 0.5, "epsilon2": 0.5, "opa": OPA, "phi": 0.0, **fields})


def lower(call, match, closed=True):
    """A lower bound at 0: ``>= 0`` when ``closed``, else ``> 0``."""
    return (call, 0.0, -TINY, match) if closed else (call, TINY, 0.0, match)


def upper(call, match, closed=True):
    """An upper bound at 1: ``<= 1`` when ``closed``, else ``< 1``."""
    return (call, 1.0, ABOVE_ONE, match) if closed else (call, BELOW_ONE, 1.0, match)


def largest_finite_square():
    """The largest float whose square is finite."""
    x = math.sqrt(sys.float_info.max)  # rounded, so step to the exact edge
    while x * x == math.inf:
        x = math.nextafter(x, 0.0)
    while (up := math.nextafter(x, math.inf)) * up < math.inf:
        x = up
    return x


def last_mismatch_below_one(p, omega):
    """The largest mismatch that keeps ``suppression_db``'s eps1 * (1 + mismatch) below 1."""
    eps1 = solve_cancellation_numeric(p, omega).epsilon1
    m = 1.0 / eps1 - 1.0
    while eps1 * (1.0 + m) >= 1.0:
        m = math.nextafter(m, 0.0)
    while eps1 * (1.0 + (up := math.nextafter(m, math.inf))) < 1.0:
        m = up
    # The next mismatch lands on 1 exactly, so ``<=`` for ``<`` accepts it.
    assert eps1 * (1.0 + up) == 1.0
    return m


THRESHOLD = math.nextafter(2.0, 0.0)  # the largest |g| below OPA's kappa
SQUARE_MAX = largest_finite_square()
MZ_EPS1 = mz_with(epsilon2=0.7)
MISMATCH_MAX = last_mismatch_below_one(MZ_EPS1, 1e-3)

# id -> (call with the checked value, last accepted float, first rejected
# float, a phrase of the check's message)
BOUNDS = {
    "opa-g-above": (lambda g: OpaParams(1.0, 1.0, 0.0, g), THRESHOLD, 2.0, "threshold"),
    "opa-g-below": (lambda g: OpaParams(1.0, 1.0, 0.0, g), -THRESHOLD, -2.0, "threshold"),
    **{
        f"opa-{name}": lower(lambda v, name=name: opa_with(**{name: v}), f"{name} must be >= 0")
        for name in ("kappa_ic", "kappa_oc", "kappa_loss")
    },
    "opa-kappa": lower(lambda v: OpaParams(v, 0.0, 0.0, 0.0), "kappa must be > 0", closed=False),
    "opa-kappa-square": (
        lambda v: OpaParams(0.0, v, 0.0, 0.0),
        SQUARE_MAX,
        math.nextafter(SQUARE_MAX, math.inf),
        "square overflows",
    ),
    **{
        f"mirrors-{name}": lower(lambda v, name=name: mirrors_with(**{name: v}), "transmissions")
        for name in ("t_ic", "t_oc", "t_loss")
    },
    # A linewidth of 0.5 Hz keeps every rate, kappa * t / t_total, finite.
    "mirrors-t_total": (
        lambda v: mirrors_with(linewidth_hz=0.5, t_ic=HALF_MAX, t_oc=v, t_loss=0.0),
        HALF_MAX,
        math.nextafter(HALF_MAX, math.inf),
        "transmissions must be finite",
    ),
    "mirrors-linewidth": lower(
        lambda v: mirrors_with(linewidth_hz=v, t_ic=0.0, t_loss=0.0), "linewidth", closed=False
    ),
    "bs-lower": lower(Beamsplitter, "reflectivity"),
    "bs-upper": upper(Beamsplitter, "reflectivity"),
    "loss-lower": lower(lambda v: LossElement(v, "v"), "loss transmission", closed=False),
    "loss-upper": upper(lambda v: LossElement(v, "v"), "loss transmission"),
    **{
        f"homodyne-{name}-{side}": bound(lambda v, name=name: HomodyneParams(**{name: v}), name, closed)
        for name in ("pd_efficiency", "visibility")
        for side, bound, closed in (("lower", lower, False), ("upper", upper, True))
    },
    "homodyne-dark_rel": lower(lambda v: HomodyneParams(dark_rel=v), "dark_rel"),
    **{
        f"mz-{name}-{side}": bound(lambda v, name=name: mz_with(**{name: v}), name)
        for name in ("epsilon1", "epsilon2")
        for side, bound in (("lower", lower), ("upper", upper))
    },
    "mz-propagation_eta-lower": lower(
        lambda v: mz_with(propagation_eta=v), "propagation_eta", closed=False
    ),
    "mz-propagation_eta-upper": upper(lambda v: mz_with(propagation_eta=v), "propagation_eta"),
    "loss_chain-lower": lower(lambda v: loss_chain([0.5, v]), "efficiency", closed=False),
    "loss_chain-upper": upper(lambda v: loss_chain([0.5, v]), "efficiency"),
    "solution-epsilon1-lower": lower(lambda v: CancellationSolution(v, 0.0, 0.0), "epsilon1"),
    "solution-epsilon1-upper": upper(lambda v: CancellationSolution(v, 0.0, 0.0), "epsilon1"),
    "solution-residual": lower(lambda v: CancellationSolution(0.5, 0.0, v), "residual"),
    "cancelling-epsilon2-lower": lower(
        lambda v: epsilon1_plus(v, OPA), "strictly inside", closed=False
    ),
    "cancelling-epsilon2-upper": upper(
        lambda v: epsilon1_plus(v, OPA), "strictly inside", closed=False
    ),
    "cancelling-omega": (
        lambda w: solve_cancellation_numeric(mz_with(), w),
        2.0 * SQUARE_MAX,  # omega / kappa at the largest finite square
        math.nextafter(2.0 * SQUARE_MAX, math.inf),
        "omega must be finite",
    ),
    "squeezed-epsilon2-lower": lower(lambda v: squeezed_vacuum_variance(v, OPA), "epsilon2"),
    "squeezed-epsilon2-upper": upper(lambda v: squeezed_vacuum_variance(v, OPA), "epsilon2"),
    "suppression-mismatch": lower(lambda v: suppression_db(mz_with(), 1e-3, v), "mismatch"),
    "suppression-eps1": (
        lambda v: suppression_db(MZ_EPS1, 1e-3, v),
        MISMATCH_MAX,
        math.nextafter(MISMATCH_MAX, math.inf),
        "not below 1",
    ),
    "sweep-grid-start": lower(
        lambda v: sweep(VACUUM_ONLY, [v, 1.0]), "increasing and positive", closed=False
    ),
    "db_rel_shot": lower(db_rel_shot, "variance must be > 0", closed=False),
    "model-base": lower(lambda v: NoiseVarianceModel(base=v), "base"),
    "model-half_width": lower(
        lambda v: NoiseVarianceModel(peaks=((1e6, v, 1.0),)), "half-width", closed=False
    ),
    "model-half_width-square": (
        lambda v: NoiseVarianceModel(peaks=((1e6, v, 1.0),)),
        SQUARE_MAX,
        math.nextafter(SQUARE_MAX, math.inf),
        "square overflows",
    ),
    "model-excess": lower(lambda v: NoiseVarianceModel(peaks=((1e6, 1e5, v),)), "excess"),
    "model-amplitude": lower(
        lambda v: NoiseVarianceModel(low_freq_excess=(v, 1.0)), "amplitude"
    ),
}


@pytest.mark.parametrize("call, accepted, rejected, match", BOUNDS.values(), ids=BOUNDS.keys())
def test_endpoint_and_its_neighbour(call, accepted, rejected, match):
    assert math.nextafter(accepted, rejected) == rejected
    call(accepted)
    with pytest.raises(ValueError, match=match):
        call(rejected)


def test_suppression_rejects_infinite_mismatch():
    with pytest.raises(ValueError, match="mismatch must be finite"):
        suppression_db(mz_with(), 1e-3, math.inf)


def test_low_frequency_term_at_zero_frequency():
    # Only a positive amplitude makes the 1/f term undefined at 0 Hz.
    assert NoiseVarianceModel(low_freq_excess=(0.0, 1.0)).evaluate(0.0) == 1.0
    with pytest.raises(ValueError, match="undefined at zero frequency"):
        NoiseVarianceModel(low_freq_excess=(TINY, 1.0)).evaluate(0.0)


def test_largest_allowed_kappa_gives_finite_transfer():
    # Every rate product the transfer forms is at most kappa**2.
    p = OpaParams(SQUARE_MAX / 2, SQUARE_MAX / 2, 0.0, -SQUARE_MAX / 2)
    assert p.kappa == SQUARE_MAX
    out = opa_transfer(source("s", 1.0), p, "oc", "cav")
    assert all(cmath.isfinite(c) for pair in out.coeffs.values() for c in pair)
    assert 0.0 < epsilon1_plus(0.5, p) < 1.0


def splitters(src=0, dst=0, det=0):
    """Beamsplitter ``a`` feeding ``b`` from output ``src`` into input ``dst``,
    detected at output ``det`` of ``b``; every other input is a fresh source."""
    return NetworkDescription(
        elements={"a": Beamsplitter(0.5), "b": Beamsplitter(0.5)},
        edges=((("a", src), ("b", dst)),),
        inputs={("a", 0): "a0", ("a", 1): "a1", **{("b", k): f"b{k}" for k in (0, 1) if k != dst}},
        detector=("b", det),
    )


def splitter(port=1, models=None, labels=("x", "y")):
    """One beamsplitter with sources ``labels`` on inputs 0 and ``port``."""
    return NetworkDescription(
        elements={"bs": Beamsplitter(0.5)},
        edges=(),
        inputs={("bs", 0): labels[0], ("bs", port): labels[1]},
        detector=("bs", 0),
        source_models=models or {},
    )


PORTS = Beamsplitter.ports

# id -> (call with a port index, a phrase of the check's message at index PORTS)
NETWORK_PORTS = {
    "edge-source": (lambda i: splitters(src=i), f"'a' has no output port {PORTS}"),
    "edge-destination": (lambda i: splitters(dst=i), f"'b' has no input port {PORTS}"),
    "input": (lambda i: splitter(port=i), f"'bs' has no input port {PORTS}"),
    "detector": (lambda i: splitters(det=i), f"'b' has no output port {PORTS}"),
}


@pytest.mark.parametrize("call, match", NETWORK_PORTS.values(), ids=NETWORK_PORTS.keys())
def test_last_port_and_the_one_past_it(call, match):
    call(PORTS - 1)
    with pytest.raises(NetworkError, match=match):
        call(PORTS)


def test_source_injected_twice():
    splitter(labels=("x", "y"))
    with pytest.raises(NetworkError, match=r"injected more than once: \['x'\]$"):
        splitter(labels=("x", "x"))


def test_source_model_for_a_source_not_injected():
    splitter(models={"x": VACUUM, "y": VACUUM})  # a model for every source
    with pytest.raises(NetworkError, match=r"not in the network: \['z'\]$"):
        splitter(models={"x": VACUUM, "y": VACUUM, "z": VACUUM})
