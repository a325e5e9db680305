"""Module boundaries: no module of the package reaches into another's private names."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hinfuse"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def cross_module_private_uses(source, module):
    """``(line, text)`` of every private name that the code of ``module`` takes from another
    module of the package: ``from .other import _name`` or ``other._name``, ``other`` being
    bound by an import of the package's module."""
    found = []
    bound = {}  # local name -> the package module it refers to
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                other = node.module  # None in "from . import a, b"
            elif node.level == 0 and (node.module or "").split(".")[0] == "hinfuse":
                other = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if other is None and alias.name in MODULES:
                    bound[alias.asname or alias.name] = alias.name
                elif other is not None and other != module and _private(alias.name):
                    found.append((node.lineno, f"from {other} import {alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("hinfuse."):  # import hinfuse.other as o
                    bound[alias.asname] = alias.name.partition(".")[2]
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        value = node.value
        if isinstance(value, ast.Name) and bound.get(value.id, module) != module:
            found.append((node.lineno, f"{value.id}.{node.attr}"))
        elif (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)  # hinfuse.other._name
              and value.value.id == "hinfuse" and value.attr in MODULES and value.attr != module):
            found.append((node.lineno, f"hinfuse.{value.attr}.{node.attr}"))
    return found


def test_no_module_uses_another_modules_private_names():
    uses = {path.name: cross_module_private_uses(path.read_text(encoding="utf-8"), path.stem)
            for path in sorted(PACKAGE.glob("*.py"))}
    assert "fmg.py" in uses  # the glob found the package
    assert {name: found for name, found in uses.items() if found} == {}


def test_checker_finds_every_form():
    source = (
        "import hinfuse.factors as fac\n"
        "from . import pipeline, fmg as f\n"
        "from .factors import _csr_layout, ObservedMatrix\n"
        "from hinfuse.hin import _private\n"
        "import hinfuse\n"
        "pipeline._Stages(); f._forward; fac._dense_is_smaller; hinfuse.solvers._step\n"
        "pipeline.__name__; pipeline.Stages; self._cache; f.public\n"
    )
    assert sorted(text for _, text in cross_module_private_uses(source, "cli")) == [
        "f._forward", "fac._dense_is_smaller", "from factors import _csr_layout", "from hin import _private",
        "hinfuse.solvers._step", "pipeline._Stages",
    ]
    # a module's own private names are its own
    assert cross_module_private_uses("from . import fmg\nfmg._forward\n", "fmg") == []
