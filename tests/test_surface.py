"""The package surface: exported names, value types, the names the benchmark tracer wraps, and imports."""

import ast
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ekr_matchings
from ekr_matchings.baranyai import Permutation, verify_goodness
from ekr_matchings.core import Matching, Parameters, first_matching
from ekr_matchings.ekr_search import SearchBudget, max_intersecting
from ekr_matchings.katona import q_bruteforce
from ekr_matchings.kneser import ham_power_certificate, verify_ham_power


def load_spans(monkeypatch):
    """bench/spans.py, the benchmark tracer, loaded as a module of its own."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look the module up
    spec.loader.exec_module(spans)
    return spans


def test_every_name_the_benchmark_tracer_wraps_resolves(monkeypatch):
    # the traced pass of bench/run.py looks each name up with getattr and
    # raises on a missing one; the bench suite itself is not part of these tests
    spans = load_spans(monkeypatch)
    missing = [
        (module, name)
        for module, name, _, _ in spans.ENTRY_POINTS
        if not callable(getattr(importlib.import_module(f"ekr_matchings.{module}"), name, None))
    ]
    assert missing == []


def test_every_tracer_info_hook_reads_a_real_result(monkeypatch):
    # each INFO hook reads fields of the wrapped call's arguments and result;
    # call it on what the CLI passes and gets back, so a renamed field fails here
    spans = load_spans(monkeypatch)
    params = Parameters(3, 2)
    budget = SearchBudget(enumerate_all_maximum=True)
    certificate = ham_power_certificate(4)
    calls = {
        "ekr_search.max_intersecting": ((params, budget), max_intersecting(params, budget)),
        "katona.q_bruteforce": ((first_matching(2), params), q_bruteforce(first_matching(2), params)),
        "baranyai.verify_goodness": ((3,), verify_goodness(3)),
        "kneser.verify_ham_power": ((8, certificate), verify_ham_power(8, certificate)),
        "cli.all_permutations": ((6,), None),
    }
    assert set(calls) == set(spans.INFO)
    info = {name: spans.INFO[name](*calls[name]) for name in calls}
    assert info == {
        "ekr_search.max_intersecting": {"nodes": 5, "maximum_families": 15},
        "katona.q_bruteforce": {"permutations": 720},
        "baranyai.verify_goodness": {"intervals": 15},
        "kneser.verify_ham_power": {"adjacency_checks": 28 * 2},
        "cli.all_permutations": {"two_n": 6},
    }


def test_every_exported_name_resolves():
    modules = [ekr_matchings] + [
        importlib.import_module(f"ekr_matchings.{info.name}")
        for info in pkgutil.iter_modules(ekr_matchings.__path__)
        if not info.name.startswith("_")
    ]
    for module in modules:
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
    namespace: dict = {}
    exec("from ekr_matchings import *", namespace)
    assert set(ekr_matchings.__all__) <= set(namespace)


def unread_imports(source: str) -> list[str]:
    """The names a module imports and never reads, with their line numbers.

    A name counts as read where the module loads it or lists it in
    __all__.  Imports from __future__, and imports on a line marked
    "# noqa: F401" (kept for the benchmark tracer to look up), are skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.setdefault(alias.asname or alias.name.partition(".")[0], alias.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    root = Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "ekr_matchings").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    unread = {
        str(path.relative_to(root)): names
        for path in modules
        if (names := unread_imports(path.read_text(encoding="utf-8")))
    }
    assert unread == {}


def test_unread_imports_sees_what_it_must():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os.path",
            "import sys",
            "from json import dumps, loads as parse",
            "from math import comb  # noqa: F401",
            "from re import sub",
            '__all__ = ["sub"]',
            "print(sys.argv)",
        ]
    )
    assert unread_imports(source) == ["dumps (line 4)", "os (line 2)", "parse (line 4)"]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays for its imports, and these two cost more than the
    # package itself; -I -S keeps the environment and site-packages out
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import ekr_matchings.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    child = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert child.stdout == "[]\n"


def test_the_package_root_loads_no_module_and_exports_only_its_version():
    # each name is imported from its module, so importing the package alone loads none of them
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import ekr_matchings; "
        "print(sorted(name for name in sys.modules if name.startswith('ekr_matchings.')), ekr_matchings.__all__)"
    )
    child = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert child.stdout == "[] ['__version__']\n"


# a value, its field names and values, another value of its class, and its repr
VALUE_TYPES = [
    (Parameters(3, 2), ("n", "r"), (3, 2), Parameters(3, 1), "Parameters(n=3, r=2)"),
    (
        Matching(((1, 2), (3, 4))),
        ("edges",),
        (((1, 2), (3, 4)),),
        Matching(((1, 2),)),
        "Matching(edges=((1, 2), (3, 4)))",
    ),
    (Permutation((2, 3, 1)), ("images",), ((2, 3, 1),), Permutation((1, 2, 3)), "Permutation(images=(2, 3, 1))"),
    (
        SearchBudget(),
        ("max_nodes", "max_seconds", "enumerate_all_maximum"),
        (50_000_000, 600.0, False),
        SearchBudget(enumerate_all_maximum=True),
        "SearchBudget(max_nodes=50000000, max_seconds=600.0, enumerate_all_maximum=False)",
    ),
]


@pytest.mark.parametrize("value, names, fields, other, text", VALUE_TYPES, ids=lambda x: type(x).__name__)
def test_value_types_compare_hash_and_print_by_their_fields(value, names, fields, other, text):
    cls = type(value)
    assert tuple(getattr(value, name) for name in names) == fields
    assert value == cls(*fields) and value != other
    assert value != fields  # equal fields in another class are not equal
    assert hash(value) == hash(cls(**dict(zip(names, fields)))) == hash(fields)
    assert repr(value) == text
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields

