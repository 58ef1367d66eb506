"""Every public name of the package has a caller inside the package, and
every optional parameter has a caller that passes it.

A public top-level function or class, or a public non-dunder method, must be
referenced, as a name or an attribute, somewhere in ``src/ftcost`` outside
its own definition.  An import or re-export is not a reference, and neither
is a mention in a docstring.  The few names that only tests read are listed
in ``ALLOWED`` with the reason each is kept.

A parameter with a default, of a public function or method or a public
dataclass's field, must be passed by position or keyword in some call of its
function or class by name, in ``src/ftcost``, in ``bench/`` or in
``tests/test_acceptance.py``.  The few that only other tests pass are listed
in ``ALLOWED_OPTIONAL`` with the reason each is kept.
"""

import ast
from collections import Counter
from pathlib import Path

import ftcost

PACKAGE = Path(ftcost.__file__).resolve().parent
ROOT = PACKAGE.parent.parent

#: Public names without a caller in the package, and why each is kept.
ALLOWED = {
    "crossover_L": "tests/test_acceptance.py imports it",
    "logical_cycle_time": "tests/test_acceptance.py imports it",
    "golden_diag_cubes": "tests/test_acceptance.py imports it",
    "mutated_map": "tests/test_acceptance.py imports it",
    "render_floorplan": "an independent drawing that tests compare floorplan's counts against",
    "max_t_injection_rate": "an independent bound that tests compare synthesis timesteps against",
}
#: Optional parameters, as (function or class, parameter), that no caller
#: passes, and why each is kept.
ALLOWED_OPTIONAL = {
    ("SolveOptions", "max_width"): "ROADMAP item 4 gives it a config key",
    ("mc_rus_oracle", "streams"): "tests pin the stream-partition contract",
    ("main", "argv"): "tests drive the CLI through it",
    ("verify_plaquette_evolution", "circuit"): "the seam through which tests pass fake circuit halves",
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _optional(name: str, node: ast.FunctionDef):
    """(name, parameter, position or None) of each parameter of ``node`` with a
    default; a leading ``self`` or ``cls`` takes no position."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = bool(positional) and positional[0].arg in ("self", "cls")
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield name, arg.arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield name, arg.arg, None


def _optional_parameters(tree: ast.Module):
    """(function or class, parameter, position or None) of every optional
    parameter of a public function or method, and every field with a default
    of a public dataclass; a ``field(init=...)`` takes no position."""
    for name, node in _definitions(tree):
        if isinstance(node, ast.FunctionDef):
            yield from _optional(name, node)
        elif _is_dataclass(node):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                      and not (isinstance(item.value, ast.Call)
                               and any(k.arg == "init" for k in item.value.keywords))]
            for index, item in enumerate(fields):
                if item.value is not None:
                    yield name, item.target.id, index


CALLERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "bench").rglob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
CALLS = [node for path in CALLERS for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
         if isinstance(node, ast.Call)]
OPTIONAL = [(module, *parameter) for module, tree in TREES.items()
            for parameter in _optional_parameters(tree)]


def _passed(name: str, parameter: str, position) -> bool:
    """Whether some call of ``name`` passes ``parameter`` by keyword or position."""
    for call in CALLS:
        func = call.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != name:
            continue
        positional = [arg for arg in call.args if not isinstance(arg, ast.Starred)]
        if (any(k.arg == parameter for k in call.keywords)
                or position is not None and len(positional) > position):
            return True
    return False


def test_every_optional_parameter_is_passed():
    unpassed = [f"{module} {name}({parameter})" for module, name, parameter, position in OPTIONAL
                if (name, parameter) not in ALLOWED_OPTIONAL and not _passed(name, parameter, position)]
    assert unpassed == []


def test_every_allowed_parameter_is_still_optional_and_unpassed():
    # an entry that gained a caller, or lost its default, leaves the list
    optional = {(name, parameter): position for _, name, parameter, position in OPTIONAL}
    for key in ALLOWED_OPTIONAL:
        assert key in optional, key
        assert not _passed(*key, optional[key]), key
