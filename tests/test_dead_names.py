"""No helper is dead: every top-level function and class of the package, and
every method of its classes, is named somewhere beyond its own definition."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polaronlab"


def _definitions():
    """(module, name) of every non-dunder top-level function and class and
    of every method defined directly in a top-level class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            nodes = [node]
            if isinstance(node, ast.ClassDef):
                nodes += node.body
            out += [(path.name, n.name) for n in nodes
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                    and not (n.name.startswith("__")
                             and n.name.endswith("__"))]
    return out


def test_no_name_is_used_only_at_its_definition():
    words = Counter()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    defined = _definitions()
    n_defs = Counter(name for _, name in defined)
    dead = sorted(f"{module}:{name}" for module, name in defined
                  if words[name] <= n_defs[name])
    assert not dead, f"names used nowhere but at their definition: {dead}"
