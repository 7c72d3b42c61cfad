"""No test runs the demos or the benchmark workloads, so a removed or
renamed oculogate name or parameter would break one silently (the benchmark
only as a failed run). This reads each program's syntax tree, without
running it, and checks its imports and calls against the package."""

import ast
import importlib
import inspect
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")


def _imported_names(tree, name) -> dict:
    """Every name the program imports from oculogate: a function, class or
    constant, or a module (`from oculogate import gate`)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "oculogate":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    try:
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        pytest.fail(f"{name}:{node.lineno}: {node.module} "
                                    f"has no {alias.name}")
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    assert imported, f"{name} imports nothing from oculogate"
    return imported


def _callee(node, imported, name):
    """The oculogate object a call or attribute names: a bare imported name,
    or an attribute of an imported module (which must exist)."""
    if isinstance(node, ast.Name):
        return imported.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and inspect.ismodule(imported.get(node.value.id)):
        module = imported[node.value.id]
        assert hasattr(module, node.attr), \
            f"{name}:{node.lineno}: {module.__name__} has no {node.attr}"
        return getattr(module, node.attr)
    return None


def check_imports_and_calls(path):
    name = os.path.basename(path)
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=name)
    imported = _imported_names(tree, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            _callee(node, imported, name)
        if not isinstance(node, ast.Call):
            continue
        target = _callee(node.func, imported, name)
        if not callable(target) or inspect.ismodule(target):
            continue
        signature = inspect.signature(target)
        keywords = {k.arg: None for k in node.keywords if k.arg is not None}
        unpacked = len(keywords) < len(node.keywords) \
            or any(isinstance(a, ast.Starred) for a in node.args)
        try:
            if unpacked:   # argument counts are unknown; check the names only
                signature.bind_partial(**keywords)
            else:
                signature.bind(*[None] * len(node.args), **keywords)
        except TypeError as exc:
            pytest.fail(f"{name}:{node.lineno}: {ast.unparse(node.func)}"
                        f"{signature}: {exc}")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DEMOS)
                                        if f.endswith(".py")))
def test_demo_imports_and_calls_fit_the_package(name):
    check_imports_and_calls(os.path.join(DEMOS, name))


def test_perfbench_workload_imports_and_calls_fit_the_package():
    check_imports_and_calls(WORKLOADS)
