"""Every public name of the package has a caller inside the package.

A public top-level function or class, or a public non-dunder method, must be
referenced, as a name or an attribute, somewhere in ``src/ftcost`` outside
its own definition.  An import or re-export is not a reference, and neither
is a mention in a docstring.  The few names that only tests read are listed
in ``ALLOWED`` with the reason each is kept.
"""

import ast
from collections import Counter
from pathlib import Path

import ftcost

PACKAGE = Path(ftcost.__file__).resolve().parent

#: Public names without a caller in the package, and why each is kept.
ALLOWED = {
    "crossover_L": "tests/test_acceptance.py imports it",
    "logical_cycle_time": "tests/test_acceptance.py imports it",
    "golden_diag_cubes": "tests/test_acceptance.py imports it",
    "mutated_map": "tests/test_acceptance.py imports it",
    "render_floorplan": "an independent drawing that tests compare floorplan's counts against",
    "max_t_injection_rate": "an independent bound that tests compare synthesis timesteps against",
}


def _definitions(tree: ast.Module):
    """(name, node) of every public top-level function or class and every
    public non-dunder method of a top-level class; a leading _ marks a
    private or dunder name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def _reads(node: ast.AST) -> Counter:
    """How often each name, or attribute name, is read in ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}
DEFINED = [(module, name, node) for module, tree in TREES.items()
           for name, node in _definitions(tree)]
READS = sum((_reads(tree) for tree in TREES.values()), Counter())


def _callers(name: str, node: ast.AST) -> int:
    """Reads of ``name`` in the package outside its definition ``node``."""
    return READS[name] - _reads(node)[name]


def test_every_public_name_has_a_caller():
    uncalled = [f"{module}:{node.lineno} {name}" for module, name, node in DEFINED
                if name not in ALLOWED and _callers(name, node) == 0]
    assert uncalled == []


def test_every_allowed_name_is_still_defined_and_uncalled():
    # an entry that gained a caller, or lost its definition, leaves the list
    defined = {name: node for _, name, node in DEFINED}
    for name in ALLOWED:
        assert name in defined, name
        assert _callers(name, defined[name]) == 0, name
