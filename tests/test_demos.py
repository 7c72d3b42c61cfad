"""No test runs the demos, so a removed or renamed oculogate name or
parameter would break one silently. This reads each demo's syntax tree,
without running it, and checks its imports and calls against the package."""

import ast
import importlib
import inspect
import os

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DEMOS)
                                        if f.endswith(".py")))
def test_demo_imports_and_calls_fit_the_package(name):
    with open(os.path.join(DEMOS, name), encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "oculogate":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{name}:{node.lineno}: {node.module} has no {alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    assert imported, f"{name} imports nothing from oculogate"
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and callable(imported.get(node.func.id))):
            continue
        signature = inspect.signature(imported[node.func.id])
        keywords = {k.arg: None for k in node.keywords if k.arg is not None}
        unpacked = len(keywords) < len(node.keywords) \
            or any(isinstance(a, ast.Starred) for a in node.args)
        try:
            if unpacked:   # argument counts are unknown; check the names only
                signature.bind_partial(**keywords)
            else:
                signature.bind(*[None] * len(node.args), **keywords)
        except TypeError as exc:
            pytest.fail(f"{name}:{node.lineno}: {node.func.id}{signature}: {exc}")
