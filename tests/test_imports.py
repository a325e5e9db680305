"""Imports: no module of the package reaches into another's private names, importing the
package binds none of its modules' names, and it leaves ``numpy.f2py`` and ``numpy.testing``
unloaded until something reads them."""

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hinfuse"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
DEFERRED = ("numpy.f2py", "numpy.testing")  # the package init registers these as lazy modules


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


def _is_deferred(module):
    return any(module == name or module.startswith(name + ".") for name in DEFERRED)


def deferred_module_uses(source):
    """``(line, text)`` of every import of a deferred numpy module, or read of one as an attribute
    of a name bound to ``numpy`` (``np.testing``), in ``source``."""
    found = []
    numpy_names = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_deferred(alias.name):
                    found.append((node.lineno, f"import {alias.name}"))
                if alias.name == "numpy" or (alias.asname is None and alias.name.startswith("numpy.")):
                    numpy_names.add(alias.asname or "numpy")  # "import numpy.linalg" binds numpy
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if _is_deferred(node.module) or _is_deferred(f"{node.module}.{alias.name}"):
                    found.append((node.lineno, f"from {node.module} import {alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in numpy_names and _is_deferred(f"numpy.{node.attr}")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_uses_a_deferred_numpy_module():
    uses = {path.name: deferred_module_uses(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}
    assert "pipeline.py" in uses  # the glob found the package
    assert {name: found for name, found in uses.items() if found} == {}


def test_deferred_checker_finds_every_form():
    source = (
        "import numpy as np\n"
        "import numpy.linalg\n"
        "import numpy.testing\n"
        "import numpy.testing_other\n"
        "import numpy.f2py.crackfortran as cf\n"
        "from numpy.testing import assert_allclose\n"
        "from numpy import testing, f2py, linalg\n"
        "np.testing.assert_allclose; numpy.f2py; np.linalg; np.testing_other; other.testing\n"
    )
    assert sorted(text for _, text in deferred_module_uses(source)) == [
        "from numpy import f2py", "from numpy import testing", "from numpy.testing import assert_allclose",
        "import numpy.f2py.crackfortran", "import numpy.testing", "np.testing", "numpy.f2py",
    ]


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports the package from this checkout, with
    ``args`` as ``sys.argv[1:]``; return the last line it printed.  A fresh process is needed
    because pytest's own may already hold the deferred modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_pipeline_run_loads_no_deferred_module(tmp_path):
    code = """
        import json, os, sys
        from hinfuse import cli, synth

        root = sys.argv[1]
        synth.write_review_dataset(root, seed=0, n_users=60, n_items=40)
        config = os.path.join(root, "config.json")
        with open(config, "w") as fh:
            json.dump({"schema": "schema.json", "metagraphs": "metagraphs.txt", "log_scale_similarity": True,
                       "features": {"method": "mf", "rank": 3, "standardize": True},
                       "fm": {"K": 4, "mode": "convex", "lambda": [0.02, 0.1]},
                       "solver": {"algorithm": "nmapg", "step": 0.01, "max_iters": 20}}, fh)
        assert cli.main(["pipeline", "--config", config, "--out-dir", os.path.join(root, "out")]) == 0
        print(json.dumps(sorted(name for name in sys.modules
                                if name.startswith(("numpy.f2py.", "numpy.testing.", "charset_normalizer")))))
    """
    assert json.loads(run_fresh(code, tmp_path)) == []


def test_deferred_modules_load_on_first_use():
    code = """
        import multiprocessing, sys
        import hinfuse
        import numpy

        def use():
            numpy.testing.assert_allclose([1.0, 2.0], [1.0, 2.0])
            from numpy.testing import assert_array_equal
            assert_array_equal([1, 2], [1, 2])
            assert sys.modules["numpy.testing"] is numpy.testing
            assert "numpy.testing._private.utils" in sys.modules
            assert callable(numpy.f2py.run_main)

        child = multiprocessing.get_context("fork").Process(target=use)
        child.start()
        child.join(120)
        use()
        print(child.exitcode)
    """
    assert run_fresh(code) == "0"


def test_module_imported_first_stays_as_it_ran():
    code = """
        import json, sys, types
        import numpy.testing as before
        import hinfuse
        import numpy

        assert numpy.testing is before and sys.modules["numpy.testing"] is before
        assert type(before) is types.ModuleType and "numpy.testing._private.utils" in sys.modules
        print(json.dumps(sorted(name for name in sys.modules if name.startswith("numpy.f2py."))))
    """
    assert json.loads(run_fresh(code)) == []


def test_package_binds_no_names():
    # the API is the modules: the package loads none of them, and a module only what it imports
    code = """
        import json, sys
        import hinfuse

        public = sorted(name for name in vars(hinfuse) if not name.startswith("_"))
        loaded = sorted(name for name in sys.modules if name.startswith(("hinfuse.", "scipy")))
        import hinfuse.metagraph

        stages = sorted(name for name in ("hinfuse.pipeline", "hinfuse.solvers") if name in sys.modules)
        print(json.dumps([isinstance(hinfuse.__version__, str), public, loaded, stages]))
    """
    assert json.loads(run_fresh(code)) == [True, [], [], []]

