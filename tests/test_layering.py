"""The brute-force route imports nothing that knows the closed forms.

`states`, `oracle` and `weyl` must not import `closed_form`, nor `checks`,
`edges` or `cli`, which are built on it; otherwise the oracle could not serve
as an independent check of the closed forms.  Also: every function the
benchmark's traced run wraps (`perfbench/tracing.LAYERS`) still exists,
only `oracle` decides which eigenvalues are zero, and numpy comes only from
`vbsent._numpy`.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vbsent"
FORBIDDEN = {"closed_form", "checks", "edges", "cli"}


def package_imports(source):
    """Every vbsent module or name that `source` imports from the package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "vbsent":
                    found.update(parts[1:])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "vbsent":
                continue
            found.update(p for p in parts if p and p != "vbsent")
            found.update(alias.name for alias in node.names)  # `from . import x`
    return found


@pytest.mark.parametrize("module", ["states", "oracle", "weyl"])
def test_brute_force_modules_stay_independent(module):
    assert not package_imports((PACKAGE / f"{module}.py").read_text()) & FORBIDDEN


def test_import_scan_sees_every_form():
    source = ("import vbsent.cli\nfrom vbsent import checks\nfrom . import edges\n"
              "from .closed_form import open_spectrum\nimport numpy\nfrom math import log\n")
    assert package_imports(source) == FORBIDDEN | {"open_spectrum"}


def test_traced_layers_resolve(monkeypatch):
    # the traced benchmark run rebinds these names; a rename would break it
    path = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    for module, names in tracing.LAYERS.values():
        for name in names:
            assert callable(getattr(importlib.import_module(module), name)), (module, name)


def names_used(source):
    """Every identifier that `source` reads, binds, imports, defines or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            found.add(node.name)
    return found


def test_only_the_oracle_decides_which_eigenvalues_are_zero():
    # `oracle.spectrum_report` alone reads the rank cutoff, and both block
    # routes return the nonzero eigenvalues as they are, in no wrapper type
    for path in sorted(PACKAGE.glob("*.py")):
        names = names_used(path.read_text())
        assert "SpectrumReport" not in names, path.name
        assert ("RANK_CUTOFF" in names) == (path.stem == "oracle"), path.name


def test_numpy_comes_only_from_the_lazy_module():
    # an `import numpy` anywhere in the package would load numpy on `import vbsent`
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            assert all(module.split(".")[0] != "numpy" for module in modules), path.name
