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
    # exact kernels the benchmark measures (exact-pipeline)
    "det_exact",
    "char_poly_exact",
    # exact basis coordinates, checked against sympy's rref; nmf_search
    # reads their integer form, reduced_rows
    "column_basis",
}


def package_trees() -> list[ast.Module]:
    """The parsed modules of the package other than `__init__`."""
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in pathlib.Path(mrw.__file__).parent.glob("*.py")
        if path.name != "__init__.py"
    ]


def module_aliases(tree: ast.Module) -> set[str]:
    """The names `import` statements bind in a module (``np`` for
    ``import numpy as np``): an attribute read through one reaches another
    module, never a class of the package."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def referenced_names() -> set[str]:
    """Names loaded or attribute-accessed anywhere in the package outside
    `__init__`; definitions and imports do not count as references."""
    names = set()
    for tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def referenced_attributes() -> set[str]:
    """Attributes accessed on a base that is not an imported module: the
    only way to reach a method, so a local variable `zeros` or a call
    `np.zeros` does not count as a use of a method `zeros`."""
    names = set()
    for tree in package_trees():
        modules = module_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in modules):
                names.add(node.attr)
    return names


def definitions() -> tuple[set[str], set[str]]:
    """The functions and classes defined at the top of each package module
    outside `__init__`, and the methods of those classes other than dunders."""
    top, methods = set(), set()
    for tree in package_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods.update(
                    sub.name
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")
                )
    return top, methods


def test_every_definition_and_method_is_referenced_in_the_package():
    top, methods = definitions()
    unreferenced = (top - referenced_names()) | (methods - referenced_attributes())
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
