import ast
import inspect
import re
from pathlib import Path

import conegate

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(conegate.__file__).resolve().parent
PRODUCT_SUITES = ("tests/test_acceptance.py", "perfbench/workloads.py")


def test_package_exports_every_name_the_product_paths_use():
    # the acceptance suite and the benchmark workloads read the package as cg.<name>
    names = set()
    for rel in PRODUCT_SUITES:
        names |= set(re.findall(r"\bcg\.(\w+)", (ROOT / rel).read_text()))
    assert len(names) > 20
    assert sorted(n for n in names if not hasattr(conegate, n)) == []


def _uses(tree: ast.Module) -> dict:
    """{top-level def name, or None for the rest of the module: the names its
    code reads, as f or as x.f}. A read counts as a call: the CLI calls its
    gate builders through a table."""
    uses: dict = {}
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        names = uses.setdefault(owner, set())
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return uses


def test_every_exported_function_is_called_on_a_product_path():
    # the product paths: the package's modules (the CLI and the gate builders
    # among them) outside __init__, the acceptance suite and the benchmark
    # workloads; a function's own def does not count for it
    modules = {path.stem: _uses(ast.parse(path.read_text()))
               for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    suites = set()
    for rel in PRODUCT_SUITES:
        suites |= set().union(*_uses(ast.parse((ROOT / rel).read_text())).values())
    functions = {name: fn for name, fn in vars(conegate).items() if inspect.isfunction(fn)}
    assert len(functions) > 20
    unused = []
    for name, fn in sorted(functions.items()):
        own_def = (fn.__module__.rpartition(".")[2], name)
        if name not in suites and not any(name in names for stem, uses in modules.items()
                                          for owner, names in uses.items()
                                          if (stem, owner) != own_def):
            unused.append(name)
    assert unused == []
