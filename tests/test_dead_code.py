"""Dead-code guards over the library source, read with ast: no linter is a
dependency of this project."""

import ast
import pathlib

import moekgc

SRC = pathlib.Path(moekgc.__file__).parent


def parsed_modules() -> dict:
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def test_no_library_module_has_an_unused_import():
    unused = []
    for module, tree in parsed_modules().items():
        bound = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", "") != "__future__"):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []


def test_every_private_module_level_function_is_referenced():
    trees = parsed_modules()
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and node.name not in referenced]
    assert unreferenced == []
