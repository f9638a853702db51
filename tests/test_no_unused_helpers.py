"""Every definition in the package has a caller in the package.

Each top-level function and class of ``src/symplab`` (``__init__`` left
out: a re-export is not a use), and each non-dunder method of such a class,
must be named elsewhere in those modules, as an ``ast.Name`` or
``ast.Attribute``; or be pinned by perfbench's ``WRAPS``, which the tracer
patches by name; or be the ``main`` entry point.  A helper that only tests
call belongs in ``tests/``.  The check goes by name, not binding, so a use
of any homonym (a local, another class's method) counts as a use.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.name: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "symplab").glob("*.py"))
           if p.name != "__init__.py"}


def wrapped_names() -> set[str]:
    """The names perfbench/lab_trace.py pins in ``WRAPS`` ("Matrix.rref" pins
    both), read by loading the file."""
    spec = importlib.util.spec_from_file_location("lab_trace", ROOT / "perfbench" / "lab_trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {part for _, _, attr, _, _ in module.WRAPS for part in attr.split(".")}


def definitions(tree: ast.Module):
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, defs[:2])
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_scan_sees_the_package():
    defined = {q for tree in MODULES.values() for q, _ in definitions(tree)}
    assert {"Matrix", "Matrix.rref", "star_blocks", "build_torus_model"} <= defined
    assert {"rref", "Matrix", "star_blocks", "echelon_rows"} <= wrapped_names()


def test_every_package_definition_has_a_caller():
    named = {getattr(node, "id", None) or getattr(node, "attr", None)
             for tree in MODULES.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    allowed = named | wrapped_names() | {"main"}
    unused = [f"{module}::{q}" for module, tree in MODULES.items()
              for q, name in definitions(tree) if name not in allowed]
    assert unused == []
