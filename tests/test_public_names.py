"""Every public name, module-level definition and method of the package is
used by the package itself."""

import ast
import pathlib
import types

import mrw

# public names no module of the package references, each kept on purpose
ALLOWED_UNREFERENCED = {
    # benchmarks/tracing.py binds it as a traced numkit layer
    "cp_als",
    # an exact kernel the benchmark measures (exact-pipeline)
    "det_exact",
}


def referenced_names() -> set[str]:
    """Names loaded or attribute-accessed anywhere in the package outside
    `__init__`; definitions and imports do not count as references."""
    names = set()
    for path in pathlib.Path(mrw.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def definitions() -> set[str]:
    """The functions and classes defined at the top of each package module
    outside `__init__`, and the methods of those classes other than dunders."""
    names = set()
    for path in pathlib.Path(mrw.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(
                    sub.name
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")
                )
    return names


def test_every_definition_and_method_is_referenced_in_the_package():
    unreferenced = definitions() - referenced_names()
    dead = sorted(unreferenced - ALLOWED_UNREFERENCED)
    assert not dead, f"definitions nothing in src/mrw uses: {dead}"
    assert unreferenced == ALLOWED_UNREFERENCED


def test_every_public_name_is_referenced_in_the_package():
    public = {
        name for name in mrw.__all__ if not isinstance(getattr(mrw, name), types.ModuleType)
    }
    dead = sorted(public - referenced_names() - ALLOWED_UNREFERENCED)
    assert not dead, f"public names nothing in src/mrw uses: {dead}"
    assert ALLOWED_UNREFERENCED <= public
