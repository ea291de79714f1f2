"""``cli.py`` stays thin: it parses flags, builds the config objects, calls
one suite from ``octomono.suites`` and prints the report.  The suites and
whatever they use live in the library, so the CLI imports nothing else
from the package.

``trig_series.SumResult`` is the one record of a value with its tail
bound; besides it only the report row ``suites.Row`` has a ``tail_bound``.

The package has one squared norm, ``algebra.norm_sq_many``: no other
function calls ``einsum`` or ``linalg.norm`` or uses the ``@`` operator,
except ``suites.trig_points``, which normalises seeded row-major draws
in einsum's own order."""

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


# (module, function) that may use einsum, linalg.norm or @: the one squared
# norm, and the normalisation that is part of the trig suite's seeded points
NORM_SITES = {
    ("algebra", "norm_sq_many"),
    ("suites", "trig_points"),
}


def squared_norm_calls(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each einsum or linalg.norm call and
    each ``@`` or ``@=``, whose dot product adds in BLAS's order."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
                found.append((function, child.lineno))
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                owner = f.value if isinstance(f, ast.Attribute) else None
                owner_name = getattr(owner, "attr", getattr(owner, "id", None))
                if name == "einsum" or (name == "norm" and owner_name == "linalg"):
                    found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_norm_sq_many_is_the_one_squared_norm():
    stray = [
        f"{path.name}:{line} in {function}"
        for path in sorted(Path(octomono.cli.__file__).parent.glob("*.py"))
        for function, line in squared_norm_calls(path.read_text())
        if (path.stem, function) not in NORM_SITES
    ]
    assert stray == []


@pytest.mark.parametrize(
    "source",
    [
        "n = np.einsum('ij,ij->i', x, x)",
        "def f(x):\n    return numpy.linalg.norm(x, axis=1)\n",
        "class K:\n    def f(self, x):\n        return einsum('i,i', x, x)\n",
        "def f(x):\n    return linalg.norm(x)\n",
        "var = total - float(a @ a) / n",
        "def f(a, b):\n    a @= b\n    return a\n",
    ],
)
def test_norm_guard_catches_a_squared_norm(source):
    assert squared_norm_calls(source) != []


# (module, class) that may declare a tail_bound field: the one lattice-sum
# result and the report row
TAIL_BOUND_SITES = {("trig_series", "SumResult"), ("suites", "Row")}


def tail_bound_fields(source: str) -> list[str]:
    """The classes that declare a ``tail_bound`` field in their body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = [getattr(stmt, "target", None), *getattr(stmt, "targets", [])]
                if any(getattr(t, "id", None) == "tail_bound" for t in targets):
                    found.append(node.name)
    return found


def test_sum_result_is_the_one_record_with_a_tail_bound():
    found = {
        (path.stem, cls)
        for path in sorted(Path(octomono.cli.__file__).parent.glob("*.py"))
        for cls in tail_bound_fields(path.read_text())
    }
    assert found == TAIL_BOUND_SITES


@pytest.mark.parametrize(
    "source",
    [
        "@dataclass\nclass StripEval:\n    value: object\n    tail_bound: float\n",
        "class R(NamedTuple):\n    tail_bound: float = 0.0\n",
        "class R:\n    tail_bound = None\n",
    ],
)
def test_tail_bound_guard_catches_a_second_record(source):
    assert tail_bound_fields(source) != []
