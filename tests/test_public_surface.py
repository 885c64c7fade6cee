"""The public surface: hierlab exports only what the system runs.

Every name ``hierlab/__init__.py`` imports must be read by another hierlab
module or by the benchmark (perfbench/), or sit on KEEP with its reason: a
capability the paper names, a format the README documents, or an oracle.  A
name that only tests read belongs in tests/, next to the tests that use it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "hierlab"

KEEP = {
    "delta_surrogate": "oracle: the point potential whose finite-N operators "
                       "reproduce the contact ones",
    "energy_estimate_check": "paper capability: lower-bound checks for the "
                             "dressed energy",
    "energy_functional_direct": "paper capability: the higher-order energy "
                                "functionals in direct-trace form",
    "weakstar_metric": "paper capability: the weak-* test-operator metric",
    "read_mixture": "README format: mixture persistence",
    "write_mixture": "README format: mixture persistence",
}


def _exports() -> list[str]:
    """The original names of everything __init__.py imports."""
    tree = ast.parse((SOURCE / "__init__.py").read_text())
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _read_names() -> set[str]:
    """Every identifier the other hierlab modules and perfbench/ read, import
    or reach as an attribute."""
    paths = [p for p in SOURCE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_is_read_or_kept():
    read = _read_names()
    unused = sorted(name for name in _exports()
                    if name not in read and name not in KEEP)
    assert unused == [], f"exported but read by no module or perfbench: {unused}"


def test_keep_list_names_only_exports_nothing_else_reads():
    exports, read = set(_exports()), _read_names()
    stale = sorted(name for name in KEEP if name not in exports or name in read)
    assert stale == [], f"KEEP entries no longer needed: {stale}"
