"""The public API carries no dead names.

Every name in ``sqznet.__all__`` must be used somewhere that is not its own
definition or the package ``__init__``: in another line of ``src/sqznet``,
in the benchmark harness, or in the acceptance tests.  A use is a name read
or an attribute access; definitions, assignments and imports do not count.
"""

import ast
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
