"""The paper code names no ledger tier.

``repro.congest`` (the primitives and the ledger) and ``repro.core`` (the
solvers) reach every tier-specific kernel through the
:class:`~repro.congest.run.CongestRun` methods a tier overrides; only
``repro.perf`` knows that tiers exist. This test parses every module of
the two packages and fails on any identifier, import or docstring word
that names a tier's machinery, on any ``getattr(run, ...)`` probe, and on
any import from ``repro.perf``.
"""

import ast
import re
from pathlib import Path

import pytest

import repro

PACKAGES = ("congest", "core")

#: Names that belong to ``repro.perf``'s tiers.
FORBIDDEN = (
    "compiled",
    "npc",
    "npkernels",
    "fastpath",
    "FastCongestRun",
    "NumpyCongestRun",
    "np_scaled",
)
_WORD = re.compile(r"\b(" + "|".join(FORBIDDEN) + r")\b")

SRC = Path(repro.__file__).parent
MODULES = sorted(
    path for package in PACKAGES for path in (SRC / package).glob("*.py")
)


def _violations(tree):
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.arg):
            names.append(node.arg)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.append(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.alias):
            names.extend(node.name.split("."))
            if node.asname:
                names.append(node.asname)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.extend(node.module.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.extend(_WORD.findall(node.value))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "run"
        ):
            yield node.lineno, "getattr(run, ...)"
        for name in names:
            if name in FORBIDDEN:
                yield getattr(node, "lineno", 0), name


def _perf_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            if module == "repro.perf" or module.startswith("repro.perf."):
                yield node.lineno, module


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize(
    "path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES]
)
def test_paper_code_names_no_tier(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted(set(_violations(tree)))
    assert not found, f"{path.parent.name}/{path.name}: {found}"


@pytest.mark.parametrize(
    "path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES]
)
def test_paper_code_imports_nothing_from_perf(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted(set(_perf_imports(tree)))
    assert not found, f"{path.parent.name}/{path.name}: {found}"


CORE_MODULES = [path for path in MODULES if path.parent.name == "core"]


def _oracle_spd_calls(tree):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "shortest_path_diameter"
            and not (isinstance(node.value, ast.Name) and node.value.id == "run")
        ):
            yield node.lineno


@pytest.mark.parametrize(
    "path", CORE_MODULES, ids=[f"core/{p.name}" for p in CORE_MODULES]
)
def test_solvers_ask_the_ledger_for_s(path):
    """``s`` comes from ``run.shortest_path_diameter()``, the ledger
    kernel a tier may override, never straight from the graph: a solver
    that called the graph method would bypass the fast tiers unseen."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted(set(_oracle_spd_calls(tree)))
    assert not found, f"core/{path.name}: graph s query on lines {found}"
