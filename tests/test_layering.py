"""``cli.py`` stays thin: it parses flags, builds the config objects, calls
one suite from ``octomono.suites`` and prints the report.  The suites and
whatever they use live in the library, so the CLI imports nothing else
from the package."""

import ast
from pathlib import Path

import pytest

import octomono.cli

# module of the package -> the names the CLI may import from it (None: any)
ALLOWED = {
    "suites": None,
    "errors": None,
    "algebra": {"Octonion", "parse_octonion"},
    "quadrature": {"McConfig"},
    "regularity": {"FiniteDiffConfig"},
    "trig_series": {"TruncationPolicy"},
}


def _package_module(name: str, level: int):
    """The package module a relative or ``octomono.``-absolute name refers
    to ("" for the package itself), or None for a module outside it."""
    if level:
        return name or ""
    if name == "octomono" or name.startswith("octomono."):
        return name.partition(".")[2]
    return None


def disallowed_imports(source: str) -> list[str]:
    """Imports from the package that ``ALLOWED`` does not list, as text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module = _package_module(alias.name, 0)
                if module is not None and module not in ALLOWED:
                    found.append(f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            module = _package_module(node.module or "", node.level)
            if module is None:
                continue
            for alias in node.names:
                if module == "":  # from . import <module>: only a module allowed whole
                    ok = alias.name in ALLOWED and ALLOWED[alias.name] is None
                else:
                    allowed = ALLOWED.get(module, set())
                    ok = allowed is None or alias.name in allowed
                if not ok:
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
    return found


def test_cli_imports_only_suites_errors_parser_and_configs():
    source = Path(octomono.cli.__file__).read_text()
    assert disallowed_imports(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .kernels import szego_strip",
        "from .algebra import mul_many",
        "from . import quadrature",
        "from octomono.trig_series import cot",
        "import octomono.kernels",
        "def f():\n    from .functions import constant\n",
    ],
)
def test_guard_catches_a_package_import(source):
    assert disallowed_imports(source) != []


def test_guard_ignores_the_standard_library():
    assert disallowed_imports("import json\nfrom dataclasses import dataclass") == []
