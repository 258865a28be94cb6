"""Composition of elements into a directed acyclic optical network.

A :class:`NetworkDescription` lists named elements (the optics of
:mod:`sqznet.elements`) with integer ports, edges from output ports to
input ports, the noise-source label of the fresh input on every open input
port, and a designated detector port with homodyne parameters.
:func:`evaluate` walks the graph in topological order and returns the
sideband field at the detector; :func:`sweep` turns a frequency grid into
noise spectra with per-source budgets.

``evaluate`` takes one frequency as a float or a whole grid as a numpy
array, through the same code: with an array every coefficient becomes an
array over the grid.  ``sweep`` therefore walks the graph once per grid,
not once per point.  numpy is imported inside ``sweep`` only, so a float
frequency never loads it.

:func:`build_mach_zehnder` wires the canonical topology: a first
beamsplitter splitting the bright source, an OPA in one arm, a phase
shifter in the other, a recombining beamsplitter, and propagation loss in
front of the homodyne detector.
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
    db_rel_shot,
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
    """Invalid network description (cycle, dangling port, duplicate source)."""


Port = tuple[str, int]


@dataclass(frozen=True)
class NetworkDescription:
    """Validated element graph with a designated homodyne detector port."""

    elements: Mapping[str, Element]
    edges: tuple[tuple[Port, Port], ...]
    inputs: Mapping[Port, str]
    detector: Port
    detection: HomodyneParams = field(default_factory=HomodyneParams)

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", dict(self.elements))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "inputs", dict(self.inputs))
        self._validate()
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
        ids = self.source_ids()
        dupes = {i for i in ids if ids.count(i) > 1}
        if dupes:
            raise NetworkError(f"noise sources injected more than once: {sorted(dupes)}")

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

    def source_ids(self) -> tuple[str, ...]:
        """All noise-source labels injected anywhere in the network."""
        ids = list(self.inputs.values())
        for elem in self.elements.values():
            ids += elem.injected_ids()
        return tuple(ids)

    def source_models(
        self, overrides: Mapping[str, NoiseVarianceModel] | None = None
    ) -> dict[str, NoiseVarianceModel]:
        """Vacuum model for every injected source, with optional overrides."""
        models = {sid: VACUUM for sid in self.source_ids()}
        if overrides:
            unknown = set(overrides) - set(models)
            if unknown:
                raise KeyError(f"override for sources not in the network: {sorted(unknown)}")
            models.update(overrides)
        return models


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
    """Parameters of the canonical noise-cancellation interferometer."""

    epsilon1: Beamsplitter
    epsilon2: Beamsplitter
    opa: OpaParams
    phi: float
    src_model: NoiseVarianceModel = VACUUM
    detection: HomodyneParams = field(default_factory=HomodyneParams)
    propagation_eta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("epsilon1", "epsilon2"):
            if not isinstance(getattr(self, name), Beamsplitter):
                raise TypeError(
                    f"{name} must be a Beamsplitter, got {type(getattr(self, name)).__name__}"
                )
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
        "bs1": p.epsilon1,
        "opa": Opa(p.opa, oc_vacuum_id=OC, loss_vacuum_id=LOSS),
        "phase": PhaseShifter(p.phi),
        "bs2": p.epsilon2,
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
    )


@dataclass(frozen=True)
class SpectrumPoint:
    """Detected noise at one sideband frequency.

    ``contributions`` decomposes the amplitude-quadrature total into
    per-source parts, including the ``detection`` shot-noise admixture and
    ``dark`` electronic noise; they sum to ``v_plus``.
    """

    frequency_hz: float
    v_plus: float
    v_plus_db: float
    contributions: Mapping[str, float]


def sweep(
    net: NetworkDescription,
    grid_hz: Sequence[float],
    sources: Mapping[str, NoiseVarianceModel],
) -> list[SpectrumPoint]:
    """Noise spectra over a frequency grid (Hz), with per-source budgets.

    One walk of the network over the whole grid, and one evaluation of each
    source model for the budget; the grid must be nonempty, strictly
    increasing and positive.
    """
    import numpy as np

    grid = np.asarray(grid_hz, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("frequency grid is empty")
    if not (grid[0] > 0.0 and (np.diff(grid) > 0.0).all()):
        raise ValueError("frequency grid must be strictly increasing and positive")
    fld = evaluate(net, TWO_PI * grid)
    eta = net.detection.eta_eff
    columns = {
        sid: eta * abs(cp) ** 2 * sources[sid].evaluate(fld.omega)
        for sid, (cp, _) in fld.coeffs.items()
    }
    columns[DETECTION] = 1.0 - eta
    columns[DARK] = net.detection.dark_rel
    # The total is read out on its own path, never summed from the budget,
    # so that budget closure stays a check.
    v_plus = homodyne_readout(fld, Quadrature.PLUS, net.detection, sources)

    def per_point(values) -> list[float]:
        return np.broadcast_to(values, grid.shape).tolist()

    names = list(columns)
    rows = zip(*map(per_point, columns.values()))
    # Positional arguments: a keyword call costs half as much again per point.
    return [
        SpectrumPoint(f_hz, v, db_rel_shot(v), dict(zip(names, row)))
        for f_hz, v, row in zip(grid.tolist(), per_point(v_plus), rows)
    ]


def bare_opa_params(p: MachZehnderParams) -> MachZehnderParams:
    """Degenerate topology measuring the OPA output directly (no reference arm)."""
    return replace(
        p,
        epsilon1=Beamsplitter(0.0),
        epsilon2=Beamsplitter(1.0),
        phi=0.0,
    )
