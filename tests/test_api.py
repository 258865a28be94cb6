"""The public API carries no dead names, and ``src/sqznet`` no dead functions.

Every name in ``sqznet.__all__`` must be used somewhere that is not its own
definition or the package ``__init__``: in another line of ``src/sqznet``,
in the benchmark harness, or in the acceptance tests.  A use is a name read
or an attribute access; definitions, assignments and imports do not count.

Every function defined in ``src/sqznet`` must be entered when the shipped
paths run, apart from a named few, each with its reason: a helper that only
tests call belongs in the tests.
"""

import ast
import math
import sys
from pathlib import Path

import sqznet

ROOT = Path(__file__).resolve().parents[1]


def _used_names(path: Path) -> set[str]:
    used = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        here = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
        # A name read inside its own definition (recursion) is not a caller.
        here.discard(getattr(stmt, "name", None))
        used |= here
    return used


def test_every_public_name_has_a_caller():
    files = [p for p in (ROOT / "src" / "sqznet").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(_used_names, files))
    unused = sorted(set(sqznet.__all__) - used)
    assert not unused, f"public names with no caller: {unused}"


# Functions no shipped path calls yet -> why each stays.
NO_SHIPPED_CALLER = {
    "analysis.squeezing_bands": "README API; a planned `explain` command is to call it",
    "analysis.squeezing_bands.<locals>.crossing": "a part of squeezing_bands",
    "elements._key": "the benchmark tracer hashes stacked networks through it",
    "elements._ByValue._fields": "the benchmark tracer hashes stacked networks through it",
    "elements._ByValue.__eq__": "the benchmark tracer compares stacked networks through it",
    "elements._ByValue.__hash__": "the benchmark tracer hashes stacked networks through it",
}

SCENARIO_YAML = """\
mach_zehnder:
  epsilon1: auto
  epsilon1_mismatch: 0.01
  epsilon2: 0.9
  phi: 0.01
  carrier_power_w: 0.05
  propagation_eta: 0.9
  opa: {linewidth_hz: 2.0e+7, linewidth_convention: fwhm, t_ic: 5.0e-4, t_oc: 0.05,
        t_loss: 5.0e-3, g_over_kappa: -0.3}
  detection: {pd_efficiency: 0.9, visibility: 0.98, dark_rel: 0.01}
  modulation: {frequency_hz: 2.0e+7, depth: 0.05}
source_noise:
  base: 1.0
  peaks: [{center_hz: 1.0e+6, half_width_hz: 1.0e+5, excess: 1.0e+4}]
  low_freq_excess: {amplitude: 1.0e+14, exponent: 2.0}
grid: {min_hz: 5.0e+4, max_hz: 2.0e+7, points: 64, spacing: linear}
outputs: {budget: true, bare_opa: false}
"""


def _defs(path: Path) -> set[str]:
    """``<module>.<qualname>`` of every def in ``path``: methods, properties, nested ones."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return found


def test_every_function_has_a_shipped_caller(tmp_path):
    # Each shipped path: the two presets and a YAML scenario through the
    # CLI, `verify`, and the cancellation scan the benchmark requests (a
    # solve, then the suppression, at one frequency of a preset).
    from sqznet import network
    from sqznet.cli import main
    from sqznet.config import load_preset

    src = Path(sqznet.__file__).resolve().parent
    config = tmp_path / "scenario.yaml"
    config.write_text(SCENARIO_YAML, encoding="utf-8")
    out = str(tmp_path / "out.csv")
    p = load_preset("paper-fig2").mach_zehnder
    omega = 2 * math.pi * 1.5e6
    codes = set()

    def watch(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    network._check_wiring.cache_clear()  # a warm cache would skip the wiring checks
    sys.setprofile(watch)
    try:
        statuses = [
            main(["sweep", "--preset", "paper-fig2", "--points", "64", "--out", out]),
            main(["sweep", "--preset", "paper-fig3", "--out", out]),
            main(["sweep", "--config", str(config), "--out", out]),
            main(["verify", "--draws", "1000"]),
        ]
        sqznet.solve_cancellation_numeric(p, omega)
        sqznet.suppression_db(p, omega, 0.01)
    finally:
        sys.setprofile(None)
    assert statuses == [0, 0, 0, 0]
    entered = {
        f"{Path(c.co_filename).stem}.{c.co_qualname}"
        for c in codes
        if Path(c.co_filename).resolve().parent == src
    }
    defined = set().union(*map(_defs, src.glob("*.py")))
    assert NO_SHIPPED_CALLER.keys() <= defined, "an allowed name is no longer defined"
    missing = sorted(defined - entered - NO_SHIPPED_CALLER.keys())
    assert not missing, f"functions no shipped path calls: {missing}"
