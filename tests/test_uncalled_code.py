"""No function in the package that nothing calls.

A function or method whose name is referenced nowhere in ``src/``,
``tests/``, ``benchmarks/`` or ``examples/`` beyond its own ``def`` is
code nobody runs.  A reference is a name, an attribute, an import alias
or a string constant (the experiment registry names its runners as
``"module:function"`` strings).  Matching by name alone is generous: a
method shares its name with every other definition of that name.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
TREES = ("src", "tests", "benchmarks", "examples")


def _defined_functions():
    """``{name: [where, ...]}`` of every non-dunder function in the
    package."""
    defined = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            defined.setdefault(name, []).append(
                f"{path.relative_to(ROOT)}:{node.lineno}"
            )
    return defined


def _referenced_names():
    names = set()
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                    if node.asname:
                        names.add(node.asname)
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    names.update(node.value.split(":"))
    return names


def test_every_function_in_src_is_referenced():
    defined = _defined_functions()
    assert len(defined) > 500
    referenced = _referenced_names()
    uncalled = {
        name: where for name, where in sorted(defined.items())
        if name not in referenced
    }
    assert uncalled == {}
