"""Composition of elements into a directed acyclic optical network.

A :class:`NetworkDescription` lists named elements (the optics of
:mod:`sqznet.elements`) with integer ports, edges from output ports to
input ports, the noise-source label of the fresh input on every open input
port, a designated detector port with homodyne parameters, and the variance
model of each noise source (vacuum unless given).

A network is a checked wiring plus parameters.  The wiring (names, port
counts, injected-source labels, edges, inputs and detector) is validated,
ordered and planned once per structure and cached; a build with a wiring
already seen checks only what depends on its parameters, its source models.
A bad wiring is never cached, so it raises on every build.
:func:`evaluate` follows the plan in topological order and returns the
sideband field at the detector; :func:`sweep` turns a frequency grid into a
:class:`Spectrum`: the detected noise and its per-source budget, as columns.

``evaluate`` takes one frequency as a float or a whole grid as a numpy
array, through the same code: with an array every coefficient becomes an
array over the grid.  ``sweep`` therefore walks the graph once per grid,
not once per point.  numpy is imported inside ``sweep`` only, so a float
frequency never loads it.

:func:`build_mach_zehnder` wires the canonical topology: a first
beamsplitter splitting the bright source, an OPA in one arm, a phase
shifter in the other, a recombining beamsplitter, and propagation loss in
front of the homodyne detector; it gives the bright source the laser-noise
model of its :class:`MachZehnderParams`.
"""

from __future__ import annotations

import functools
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .core import (
    TWO_PI,
    VACUUM,
    LinearField,
    NoiseVarianceModel,
    Quadrature,
    _any,
    _require,
)
from .elements import (
    Beamsplitter,
    Element,
    HomodyneParams,
    LossElement,
    Opa,
    OpaParams,
    PhaseShifter,
    homodyne_readout,
    source,
)

# Canonical noise-source labels used by build_mach_zehnder.
SRC = "src"
VAC = "vac"
OC = "oc"
LOSS = "loss"
PROP_VAC = "prop-vac"

# Pseudo-sources reported in detection budgets.
DETECTION = "detection"
DARK = "dark"


class NetworkError(ValueError):
    """Invalid network description (bad port, cycle, dangling port, duplicate or unknown source)."""


Port = tuple[str, int]

#: Stands for the upstream element of a feed that is a fresh source.
_FRESH = object()

#: How many checked wirings stay cached.  A Mach–Zehnder has two wirings;
#: verify's random chains and the property tests draw one-off wirings.
_WIRING_CACHE_SIZE = 16


@dataclass(frozen=True)
class NetworkDescription:
    """Validated element graph with a designated homodyne detector port.

    ``source_models`` gives the variance model of any injected noise source;
    every other one is vacuum.  Once built it maps every injected source, in
    injection order, to its model, and a label the network does not inject
    is a :class:`NetworkError`.

    The wiring (each element's name, ports and injected sources, the edges,
    the inputs and the detector) is checked and planned once per structure
    by :func:`_check_wiring`; each build adds only the checks that depend on
    parameters.
    """

    elements: Mapping[str, Element]
    edges: tuple[tuple[Port, Port], ...]
    inputs: Mapping[Port, str]
    detector: Port
    detection: HomodyneParams = field(default_factory=HomodyneParams)
    source_models: Mapping[str, NoiseVarianceModel] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", dict(self.elements))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "inputs", dict(self.inputs))
        key = (
            tuple((name, e.ports, e.injected_ids()) for name, e in self.elements.items()),
            self.edges,
            tuple(self.inputs.items()),
            self.detector,
        )
        try:
            plan, ids = _check_wiring(key)
        except TypeError:
            # An unhashable key: name the port at fault, if a port is.
            _check_ports(self.edges, self.inputs, self.detector)
            raise
        models = dict.fromkeys(ids, VACUUM)
        if not models.keys() >= self.source_models.keys():
            unknown = sorted(self.source_models.keys() - models.keys())
            raise NetworkError(f"source models for sources not in the network: {unknown}")
        models.update(self.source_models)
        object.__setattr__(self, "source_models", models)
        object.__setattr__(self, "_plan", plan)


def _check_port(port) -> None:
    """Raise a NetworkError unless ``port`` is a hashable pair."""
    if isinstance(port, tuple) and len(port) == 2:
        try:
            hash(port)
            return
        except TypeError:
            pass
    raise NetworkError(f"port {port!r} is not a (name, index) pair")


def _check_ports(edges, inputs, detector) -> None:
    """Raise a NetworkError naming the first port, then edge, that is not a hashable pair."""
    for edge in edges:
        pair = isinstance(edge, (tuple, list)) and len(edge) == 2
        for port in edge if pair else ():
            _check_port(port)
        if not (pair and isinstance(edge, tuple)):
            raise NetworkError(f"edge {edge!r} is not a (source, destination) pair of ports")
    for port in (*inputs, detector):
        _check_port(port)


@functools.lru_cache(maxsize=_WIRING_CACHE_SIZE)
def _check_wiring(key):
    """(walk plan, injected sources in order) of a wiring, or its NetworkError.

    ``key`` holds, per element, (name, ``ports``, ``injected_ids()``); then
    the edges, the inputs' items and the detector.  The walk plan is (steps,
    detector): each step is (element name, one feed per input port), a feed
    being (``_FRESH``, fresh-source label) or (upstream name, output index).  An
    index is any value equal to a port number; the plan holds the int.  A
    bad wiring raises, and so is never cached.
    """
    elements, edges, input_items, detector = key
    _check_ports(edges, dict(input_items), detector)
    ports = {name: range(n) for name, n, _ in elements}
    feeds: dict[Port, tuple] = {}  # input port -> its feed in the plan
    seen_out: set[Port] = set()
    for (src_name, src_port), (dst_name, dst_port) in edges:
        for name in (src_name, dst_name):
            if name not in ports:
                raise NetworkError(f"edge references unknown element '{name}'")
        if src_port not in ports[src_name]:
            raise NetworkError(f"element '{src_name}' has no output port {src_port}")
        if dst_port not in ports[dst_name]:
            raise NetworkError(f"element '{dst_name}' has no input port {dst_port}")
        if (src_name, src_port) in seen_out:
            raise NetworkError(f"output port {(src_name, src_port)} feeds more than one edge")
        if (dst_name, dst_port) in feeds:
            raise NetworkError(f"input port {(dst_name, dst_port)} has more than one feed")
        seen_out.add((src_name, src_port))
        feeds[(dst_name, dst_port)] = (src_name, ports[src_name].index(src_port))
    for port, label in input_items:
        name, idx = port
        if name not in ports:
            raise NetworkError(f"input assignment references unknown element '{name}'")
        if idx not in ports[name]:
            raise NetworkError(f"element '{name}' has no input port {idx}")
        if port in feeds:
            raise NetworkError(f"input port {port} is both wired and assigned a source")
        feeds[port] = (_FRESH, label)
    step_feeds = {}
    for name, n in ports.items():
        try:
            step_feeds[name] = tuple([feeds[(name, idx)] for idx in n])
        except KeyError as dangling:
            raise NetworkError(f"dangling input port {dangling.args[0]}") from None
    det_name, det_port = detector
    if det_name not in ports:
        raise NetworkError(f"detector references unknown element '{det_name}'")
    if det_port not in ports[det_name]:
        raise NetworkError(f"element '{det_name}' has no output port {det_port}")
    if detector in seen_out:
        raise NetworkError(f"detector port {detector} is consumed by an edge")

    ids = [label for _, label in input_items]
    for _, _, injected in elements:
        ids += injected
    if len(set(ids)) < len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise NetworkError(f"noise sources injected more than once: {dupes}")

    indeg = dict.fromkeys(ports, 0)
    downstream: dict[str, list[str]] = {name: [] for name in ports}
    for (src_name, _), (dst_name, _) in edges:
        indeg[dst_name] += 1
        downstream[src_name].append(dst_name)
    ready = deque(name for name, d in indeg.items() if d == 0)
    steps = []
    while ready:
        name = ready.popleft()
        steps.append((name, step_feeds[name]))
        for nxt in downstream[name]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    if len(steps) < len(ports):
        cyclic = sorted(set(ports) - {name for name, _ in steps})
        raise NetworkError(f"network contains a cycle through {cyclic}")
    plan = (tuple(steps), (det_name, ports[det_name].index(det_port)))
    return plan, tuple(ids)


def evaluate(net: NetworkDescription, omega: float) -> LinearField:
    """Field at the detector port at sideband angular frequency ``omega``.

    ``omega`` is a float, or a numpy array to evaluate a whole grid at once.
    """
    steps, (det_name, det_idx) = net._plan  # noqa: SLF001 - set by the description itself
    outs: dict[str, tuple[LinearField, ...]] = {}
    for name, feeds in steps:
        outs[name] = net.elements[name].apply(
            *[source(x, omega) if up is _FRESH else outs[up][x] for up, x in feeds]
        )
    return outs[det_name][det_idx]


@dataclass(frozen=True)
class MachZehnderParams:
    """Parameters of the canonical noise-cancellation interferometer.

    ``epsilon1`` and ``epsilon2`` are the power reflectivities of the two
    splitters.  Like ``phi`` and ``propagation_eta`` they may be arrays over
    designs.
    """

    epsilon1: float
    epsilon2: float
    opa: OpaParams
    phi: float
    src_model: NoiseVarianceModel = VACUUM
    detection: HomodyneParams = field(default_factory=HomodyneParams)
    propagation_eta: float = 1.0

    def __post_init__(self) -> None:
        if (ok := (0.0 <= self.epsilon1) & (self.epsilon1 <= 1.0)) is not True:
            _require(ok, "epsilon1 must be a reflectivity in [0, 1], got {}", self.epsilon1)
        if (ok := (0.0 <= self.epsilon2) & (self.epsilon2 <= 1.0)) is not True:
            _require(ok, "epsilon2 must be a reflectivity in [0, 1], got {}", self.epsilon2)
        if (ok := (0.0 < self.propagation_eta) & (self.propagation_eta <= 1.0)) is not True:
            _require(ok, "propagation_eta must be in (0, 1], got {}", self.propagation_eta)


def build_mach_zehnder(p: MachZehnderParams) -> NetworkDescription:
    """Wire the single-OPA noise-cancellation interferometer.

    Port 0 of ``bs1`` carries the squeezed-arm field (vacuum-side input on
    port 0, bright source on port 1); the reference arm passes a phase
    shifter before recombining on ``bs2``.  Propagation loss is wired in
    only where ``p.propagation_eta`` < 1.
    """
    elements: dict[str, Element] = {
        "bs1": Beamsplitter(p.epsilon1),
        "opa": Opa(p.opa, oc_vacuum_id=OC, loss_vacuum_id=LOSS),
        "phase": PhaseShifter(p.phi),
        "bs2": Beamsplitter(p.epsilon2),
    }
    edges: list[tuple[Port, Port]] = [
        (("bs1", 0), ("opa", 0)),
        (("opa", 0), ("bs2", 0)),
        (("bs1", 1), ("phase", 0)),
        (("phase", 0), ("bs2", 1)),
    ]
    inputs: dict[Port, str] = {("bs1", 0): VAC, ("bs1", 1): SRC}
    detector: Port = ("bs2", 0)
    if _any(p.propagation_eta < 1.0):
        elements["prop"] = LossElement(p.propagation_eta, PROP_VAC)
        edges.append((detector, ("prop", 0)))
        detector = ("prop", 0)
    return NetworkDescription(
        elements=elements,
        edges=tuple(edges),
        inputs=inputs,
        detector=detector,
        detection=p.detection,
        source_models={SRC: p.src_model},
    )


@dataclass(frozen=True)
class Spectrum:
    """Detected noise over a sideband-frequency grid, as columns.

    Every column is a list of Python floats, one per grid frequency.
    ``contributions`` maps each noise source, plus the ``detection``
    shot-noise admixture and ``dark`` electronic noise, to its column of the
    amplitude-quadrature total; at each frequency they sum to ``v_plus``.
    """

    frequency_hz: list[float]
    v_plus: list[float]
    contributions: Mapping[str, list[float]]


def sweep(net: NetworkDescription, grid_hz: Sequence[float]) -> Spectrum:
    """Noise spectrum over a frequency grid (Hz), with per-source budgets.

    One walk of the network over the whole grid, and one evaluation of each
    of the network's source models for the budget; the grid must be
    nonempty, strictly increasing and positive.  A total that is not finite
    raises a ``ValueError`` naming the first such frequency: numpy's
    overflow and division warnings are silenced, so that error is the one
    report.
    """
    import numpy as np

    grid = np.asarray(grid_hz, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("frequency grid is empty")
    if not (grid[0] > 0.0 and (np.diff(grid) > 0.0).all()):
        raise ValueError("frequency grid must be strictly increasing and positive")

    def column(values):
        return np.broadcast_to(values, grid.shape)

    models = net.source_models
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fld = evaluate(net, TWO_PI * grid)
        eta = net.detection.eta_eff
        contributions = {
            sid: eta * abs(cp) ** 2 * models[sid].evaluate(fld.omega)
            for sid, (cp, _) in fld.coeffs.items()
        }
        contributions[DETECTION] = 1.0 - eta
        contributions[DARK] = net.detection.dark_rel
        # The total is read out on its own path, never summed from the
        # budget, so that budget closure stays a check.
        v_plus = column(homodyne_readout(fld, Quadrature.PLUS, net.detection, models))
    if not (finite := np.isfinite(v_plus)).all():
        i = finite.argmin()
        raise ValueError(f"detected variance {v_plus[i]} is not finite at {grid[i].item()!r} Hz")
    return Spectrum(
        grid.tolist(), v_plus.tolist(), {s: column(v).tolist() for s, v in contributions.items()}
    )

