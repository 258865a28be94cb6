"""Spans around calls into sqznet's public functions, recorded from outside.

``Tracer.install`` replaces a traced function at every module attribute that
holds it, because ``from .core import combine`` binds a second name in each
consuming module, and a traced method on its class.  A span is (name, start,
end, parent, request id); spans stay in flat arrays until ``save`` writes
them.  A span's self time is its duration minus its children's durations:
calls are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections.abc import Callable
from pathlib import Path

import numpy as np

from workloads import SUITES

#: Request id of the spans ``run.py`` records outside the workload's requests.
PROBE = -2


def sqznet_targets(sqz) -> list[tuple[str, object, str, Callable | None]]:
    """(span name, owner, attribute, note) for each traced sqznet call.

    A note maps the call's arguments to an integer kept with the span: the
    identity of each network built, and the grid length of each sweep.
    """
    network = sys.modules["sqznet.network"]
    core = sys.modules["sqznet.core"]
    elements = sys.modules["sqznet.elements"]
    return [
        ("network.build", network.NetworkDescription, "__init__", _network_identity),
        ("network.evaluate", network, "evaluate", None),
        ("network.sweep", network, "sweep", lambda args, kwargs: len(args[1])),
        ("elements.opa_transfer", elements, "opa_transfer", None),
        ("elements.homodyne_readout", elements, "homodyne_readout", None),
        ("core.combine", core, "combine", None),
        ("core.variance", core, "variance", None),
        ("core.noise_model", core.NoiseVarianceModel, "evaluate", None),
        ("analysis.bare_source_variance", sqz.analysis, "bare_source_variance", None),
        ("analysis.solve", sqz.analysis, "solve_cancellation_numeric", None),
        ("analysis.suppression_db", sqz.analysis, "suppression_db", None),
        ("cli.write_csv", sqz.cli, "write_csv", None),
    ] + [(f"verify.{suite}", sqz.verify, f"check_{suite}", None) for suite in SUITES]


def _network_identity(args, kwargs) -> int:
    net = args[0]
    return hash(
        (
            tuple(net.elements.items()),
            net.edges,
            tuple(net.inputs.items()),
            net.detector,
            net.detection,
        )
    )


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.notes: dict[int, int] = {}
        self.request = PROBE
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn: Callable, name: str, note: Callable | None = None) -> Callable:
        """``fn`` recording one span per call under ``name``."""
        nid = self.name_id(name)
        start, end, names, parents, reqs = self.start, self.end, self.name, self.parent, self.req
        stack, notes, clock, tracer = self._stack, self.notes, time.perf_counter, self

        def traced(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parents.append(stack[-1])
            reqs.append(tracer.request)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if note is not None:
                notes[i] = note(args, kwargs)
            return result

        return traced

    def install(self, targets) -> None:
        modules = [m for n, m in sys.modules.items() if n == "sqznet" or n.startswith("sqznet.")]
        for name, owner, attr, note in targets:
            fn = getattr(owner, attr)
            traced = self.wrap(fn, name, note)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, traced)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """Columns of every span, with duration and self time in seconds."""
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        children = np.zeros_like(dur)
        np.add.at(children, parent[nested], dur[nested])
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": parent,
            "req": np.array(self.req, dtype=np.int64),
            "start": np.array(self.start),
            "dur": dur,
            "self": dur - children,
        }

    def save(self, path: Path) -> None:
        cols = self.spans()
        note_idx = np.array(sorted(self.notes), dtype=np.int64)
        np.savez(
            path,
            names=np.array(self.names),
            note_index=note_idx,
            note_value=np.array([self.notes[i] for i in note_idx], dtype=np.int64),
            **cols,
        )
