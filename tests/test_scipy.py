"""graf._scipy, the one module that reads scipy's compiled files, and the
import structure that keeps it the only one.

Every loader test runs in a fresh interpreter, so that no scipy package or
cached routine of this test process can hide a fallback."""

import ast
import sys
from pathlib import Path

import pytest

import graf

from conftest import run_fresh

#: Accessor of graf._scipy -> (compiled module under scipy, its package,
#: the package's name for the routine).
ROUTINES = {
    "linear_sum_assignment": (
        "optimize._lsap", "scipy.optimize", "scipy.optimize.linear_sum_assignment"
    ),
    "ndtri": ("special._ufuncs", "scipy.special", "scipy.special.ndtri"),
    "log_ndtr": ("special._special_ufuncs", "scipy.special", "scipy.special.log_ndtr"),
    "qagpe": ("integrate._quadpack", "scipy.integrate", "scipy.integrate._quadpack._qagpe"),
}

#: The scipy packages of the routines, and scipy.linalg, which
#: scipy.optimize and scipy.integrate import.
PACKAGES = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.special")


def _check(accessor: str, *lines: str) -> None:
    """Run ``lines`` in a fresh interpreter that has imported sys and
    graf._scipy and bound ``module``, ``package`` and ``public`` for
    ``accessor``; ``stand_in``, another routine's file, which loads alone,
    as a sibling for a file that needs none; and ``named()``, which looks
    ``public`` up by attribute from ``scipy``.  Fails with the
    interpreter's stderr unless it exits 0."""
    module, package, public = ROUTINES[accessor]
    stand_in = "integrate._quadpack" if module == "optimize._lsap" else "optimize._lsap"
    script = "\n".join([
        "import functools, sys",
        "from graf import _scipy",
        f"module, package, public = {module!r}, {package!r}, {public!r}",
        f"stand_in = {stand_in!r}",
        "def named():",
        "    return functools.reduce(getattr, public.split('.')[1:], sys.modules['scipy'])",
        *lines,
    ])
    result = run_fresh(script)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("accessor", ROUTINES)
class TestLoader:
    def test_loads_without_its_package(self, accessor):
        # A silent fallback would import the package, 0.05-0.35 s.  The
        # file's module, and each sibling's, is gone once it is read.
        _check(
            accessor,
            f"routine = _scipy.{accessor}()",
            "assert type(routine).__name__ in ('builtin_function_or_method', 'ufunc'), routine",
            f"left = [m for m in sys.modules if m.startswith({PACKAGES!r})]",
            "assert not left, left",
        )

    def test_package_imported_later_binds_the_module(self, accessor):
        # A module left in sys.modules without its package is reused by
        # a later import of the package but not bound as its attribute,
        # unless the package's own code imports it so: scipy.integrate
        # then had no _quadpack, and scipy.special no _special_ufuncs.
        _check(
            accessor,
            f"routine = _scipy.{accessor}()",
            "import importlib",
            "parent = importlib.import_module(package)",
            "leaf, attr = module.split('.')[1], public.rpartition('.')[2]",
            "assert getattr(parent, leaf) is sys.modules['scipy.' + module]",
            "assert getattr(getattr(parent, leaf), attr) is routine",
            "assert named() is routine",
        )

    def test_missing_file_falls_back(self, accessor, tmp_path):
        _check(
            accessor,
            f"_scipy._extension_path = lambda part: {str(tmp_path / 'missing.so')!r}",
            f"routine = _scipy.{accessor}()",
            "assert package in sys.modules",
            "assert named() is routine",
        )

    def test_takes_the_loaded_package(self, accessor):
        _check(
            accessor,
            "import importlib, importlib.util",
            "importlib.import_module(package)",
            "def not_called(*args):",
            "    raise AssertionError('read a file although the package was loaded')",
            "importlib.util.spec_from_file_location = not_called",
            f"assert _scipy.{accessor}() is named()",
        )

    def test_missing_sibling_falls_back(self, accessor, tmp_path):
        # Only ndtri's file has siblings; the others get a stand-in.
        _check(
            accessor,
            "siblings = _scipy._LOADED_FIRST.setdefault(module, (stand_in,))",
            "path = _scipy._extension_path",
            f"missing = {str(tmp_path / 'missing.so')!r}",
            "_scipy._extension_path = lambda part: (",
            "    missing if part == siblings[-1] else path(part))",
            f"routine = _scipy.{accessor}()",
            "assert package in sys.modules",
            "assert named() is routine",
        )

    def test_failed_load_leaves_sys_modules_as_it_was(self, accessor, tmp_path):
        # The routine's own file is missing after every sibling loaded:
        # the fallback must find sys.modules as it was.  What the files
        # import besides their package is imported first.
        _check(
            accessor,
            "import importlib, types",
            "import numpy, scipy._cyutility, scipy._lib._ccallback",
            "siblings = _scipy._LOADED_FIRST.setdefault(module, (stand_in,))",
            "path, read, at_fallback = _scipy._extension_path, [], []",
            f"missing = {str(tmp_path / 'missing.so')!r}",
            "_scipy._extension_path = lambda part: (",
            "    read.append(part) or (missing if part == module else path(part)))",
            "def import_module(name):",
            "    at_fallback.append(dict(sys.modules))",
            "    return importlib.import_module(name)",
            "_scipy.importlib = types.SimpleNamespace(",
            "    import_module=import_module, util=importlib.util, machinery=importlib.machinery)",
            "before = dict(sys.modules)",
            f"routine = _scipy.{accessor}()",
            "assert read == [*siblings, module], read",
            "assert at_fallback == [before], set(at_fallback[0]) ^ set(before)",
            "assert named() is routine",
        )


_SOURCES = sorted(Path(graf.__file__).parent.glob("*.py"))

#: Methods of sys.modules that change it.
_WRITES = {"pop", "popitem", "clear", "update", "setdefault", "__setitem__", "__delitem__"}


def _import_violations(path: Path) -> list[str]:
    """What the source at ``path`` breaks of graf's import structure, as
    ``"line: rule"`` texts."""
    tree = ast.parse(path.read_text(), filename=str(path))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [
                f"{inner.lineno}: from graf import inside {node.name}"
                for inner in ast.walk(node)
                if isinstance(inner, ast.ImportFrom)
                and (inner.level or (inner.module or "").split(".")[0] == "graf")
            ]
        if path.name == "_scipy.py":
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["." if node.level else node.module]
            else:
                names = []
            found += [
                f"{node.lineno}: _scipy imports {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}
            ]
            continue
        name = getattr(node, "attr", getattr(node, "id", None))
        if name == "spec_from_file_location":
            found.append(f"{node.lineno}: reads an extension file outside _scipy")
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.modules":
            user = parents[node]
            if (isinstance(user, ast.Subscript) and not isinstance(user.ctx, ast.Load)) or (
                isinstance(user, ast.Attribute) and user.attr in _WRITES
            ):
                found.append(f"{node.lineno}: writes sys.modules outside _scipy")
    return found


class TestImportStructure:
    @pytest.mark.parametrize("path", _SOURCES, ids=[path.name for path in _SOURCES])
    def test_module_keeps_the_import_structure(self, path):
        assert _import_violations(path) == []

    @pytest.mark.parametrize(
        "name, source, rule",
        [("cli.py", "def f():\n    from graf.solvers import x\n", "inside f"),
         ("cli.py", "def f():\n    from . import bounds\n", "inside f"),
         ("_scipy.py", "import scipy.special\n", "imports scipy.special"),
         ("_scipy.py", "from graf import field\n", "imports graf"),
         ("field.py", "import sys\nsys.modules['x'] = 1\n", "writes sys.modules"),
         ("field.py", "import sys\ndel sys.modules['x']\n", "writes sys.modules"),
         ("field.py", "import sys\nsys.modules.pop('x')\n", "writes sys.modules"),
         ("field.py", "import importlib.util\nimportlib.util.spec_from_file_location('x', 'y')\n",
          "reads an extension file")],
        ids=["graf-import-in-function", "relative-import-in-function", "scipy-package",
             "graf-in-_scipy", "sys.modules-store", "sys.modules-del", "sys.modules-pop",
             "spec_from_file_location"],
    )
    def test_flags_each_rule(self, tmp_path, name, source, rule):
        path = tmp_path / name
        path.write_text(source)
        found = _import_violations(path)
        assert len(found) == 1 and rule in found[0], found
