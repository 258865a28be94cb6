"""Composition of elements into a directed acyclic optical network.

A :class:`NetworkDescription` lists named elements (the optics of
:mod:`sqznet.elements`) with integer ports, edges from output ports to
input ports, the noise-source label of the fresh input on every open input
port, a designated detector port with homodyne parameters, and the variance
model of each noise source (vacuum unless given).
:func:`evaluate` walks the graph in topological order and returns the
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

from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

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
REF_BLOCK_VAC = "ref-block-vac"

# Pseudo-sources reported in detection budgets.
DETECTION = "detection"
DARK = "dark"


class NetworkError(ValueError):
    """Invalid network description (cycle, dangling port, duplicate or unknown source)."""


Port = tuple[str, int]


@dataclass(frozen=True)
class NetworkDescription:
    """Validated element graph with a designated homodyne detector port.

    ``source_models`` gives the variance model of any injected noise source;
    every other one is vacuum.  Once built it maps every injected source, in
    injection order, to its model, and a label the network does not inject
    is a :class:`NetworkError`.
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
        self._validate()
        ids = list(self.inputs.values())
        for elem in self.elements.values():
            ids += elem.injected_ids()
        models = dict.fromkeys(ids, VACUUM)
        if len(models) < len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise NetworkError(f"noise sources injected more than once: {dupes}")
        if not models.keys() >= self.source_models.keys():
            unknown = sorted(self.source_models.keys() - models.keys())
            raise NetworkError(f"source models for sources not in the network: {unknown}")
        models.update(self.source_models)
        object.__setattr__(self, "source_models", models)
        object.__setattr__(self, "_order", self._topological_order())

    def _validate(self) -> None:
        seen_in: set[Port] = set()
        seen_out: set[Port] = set()
        for (src_name, src_port), (dst_name, dst_port) in self.edges:
            for name in (src_name, dst_name):
                if name not in self.elements:
                    raise NetworkError(f"edge references unknown element '{name}'")
            if not 0 <= src_port < self.elements[src_name].ports:
                raise NetworkError(f"element '{src_name}' has no output port {src_port}")
            if not 0 <= dst_port < self.elements[dst_name].ports:
                raise NetworkError(f"element '{dst_name}' has no input port {dst_port}")
            if (src_name, src_port) in seen_out:
                raise NetworkError(f"output port {(src_name, src_port)} feeds more than one edge")
            if (dst_name, dst_port) in seen_in:
                raise NetworkError(f"input port {(dst_name, dst_port)} has more than one feed")
            seen_out.add((src_name, src_port))
            seen_in.add((dst_name, dst_port))
        for port in self.inputs:
            name, idx = port
            if name not in self.elements:
                raise NetworkError(f"input assignment references unknown element '{name}'")
            if not 0 <= idx < self.elements[name].ports:
                raise NetworkError(f"element '{name}' has no input port {idx}")
            if port in seen_in:
                raise NetworkError(f"input port {port} is both wired and assigned a source")
        for name, elem in self.elements.items():
            for idx in range(elem.ports):
                if (name, idx) not in seen_in and (name, idx) not in self.inputs:
                    raise NetworkError(f"dangling input port {(name, idx)}")
        det_name, det_port = self.detector
        if det_name not in self.elements:
            raise NetworkError(f"detector references unknown element '{det_name}'")
        if not 0 <= det_port < self.elements[det_name].ports:
            raise NetworkError(f"element '{det_name}' has no output port {det_port}")
        if self.detector in seen_out:
            raise NetworkError(f"detector port {self.detector} is consumed by an edge")

    def _topological_order(self) -> tuple[str, ...]:
        indeg = {name: 0 for name in self.elements}
        downstream: dict[str, list[str]] = {name: [] for name in self.elements}
        for (src_name, _), (dst_name, _) in self.edges:
            indeg[dst_name] += 1
            downstream[src_name].append(dst_name)
        ready = deque(name for name, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            for nxt in downstream[name]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) < len(self.elements):
            cyclic = sorted(set(self.elements) - set(order))
            raise NetworkError(f"network contains a cycle through {cyclic}")
        return tuple(order)


def evaluate(net: NetworkDescription, omega: float) -> LinearField:
    """Field at the detector port at sideband angular frequency ``omega``.

    ``omega`` is a float, or a numpy array to evaluate a whole grid at once.
    """
    feeds: dict[Port, Port] = {dst: src for src, dst in net.edges}
    fields: dict[Port, LinearField] = {}
    for name in net._order:  # noqa: SLF001 - cached on the description itself
        elem = net.elements[name]
        ins: list[LinearField] = []
        for idx in range(elem.ports):
            port = (name, idx)
            if port in net.inputs:
                ins.append(source(net.inputs[port], omega))
            else:
                ins.append(fields[feeds[port]])
        for out_idx, out_field in enumerate(elem.apply(*ins)):
            fields[(name, out_idx)] = out_field
    return fields[net.detector]


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


def build_mach_zehnder(
    p: MachZehnderParams, block_reference: bool = False
) -> NetworkDescription:
    """Wire the single-OPA noise-cancellation interferometer.

    Port 0 of ``bs1`` carries the squeezed-arm field (vacuum-side input on
    port 0, bright source on port 1); the reference arm passes a phase
    shifter before recombining on ``bs2``.  With ``block_reference`` the
    reference input of ``bs2`` is replaced by fresh vacuum, the analog of
    blocking that beam on the table.
    """
    elements: dict[str, Element] = {
        "bs1": Beamsplitter(p.epsilon1),
        "opa": Opa(p.opa, oc_vacuum_id=OC, loss_vacuum_id=LOSS),
        "phase": PhaseShifter(p.phi),
        "bs2": Beamsplitter(p.epsilon2),
    }
    edges: list[tuple[Port, Port]] = [(("bs1", 0), ("opa", 0)), (("opa", 0), ("bs2", 0))]
    inputs: dict[Port, str] = {("bs1", 0): VAC, ("bs1", 1): SRC}
    if block_reference:
        inputs[("phase", 0)] = REF_BLOCK_VAC
    else:
        edges.append((("bs1", 1), ("phase", 0)))
    edges.append((("phase", 0), ("bs2", 1)))
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


def bare_opa_params(p: MachZehnderParams) -> MachZehnderParams:
    """Degenerate topology measuring the OPA output directly (no reference arm)."""
    return replace(p, epsilon1=0.0, epsilon2=1.0, phi=0.0)
