"""Checks on the package source itself, made with the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

import cbflab

PACKAGE = Path(cbflab.__file__).parent
# __init__.py imports names to export them, not to use them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names that ``source`` imports at any level and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nimport numpy as np\nloads(np.pi)\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_names(sources):
    """Private module-level names and private methods that no source reads.

    ``sources`` maps a module name to its text.  A name counts as read where
    any of the sources loads it as a name or as an attribute.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                targets = []
            defined += [(module, name) for name in targets if _is_private(name)]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (module, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and _is_private(item.name)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted((m, n) for m, n in defined if n.rpartition(".")[2] not in read)


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": "_USED = 1\n_DEAD: int = 2\ndef _helper():\n    return _USED\n",
        "b": "from .a import _helper\nclass C:\n    def _live(self):\n        return _helper()\n"
        "    def _dead(self):\n        return self._live()\n    def __len__(self):\n"
        "        return 0\n",
    }
    assert unread_private_names(sources) == [("a", "_DEAD"), ("b", "C._dead")]


def test_package_reads_every_private_name_it_defines():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def assert_lines(source):
    """Line numbers of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_check_finds_an_assert():
    assert assert_lines("x = 1\nassert x\ndef f():\n    assert x, 'msg'\n") == [2, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_raises_instead_of_asserting(path):
    # ``python -O`` strips asserts: a failed check must raise an error instead.
    assert assert_lines(path.read_text()) == []


PERFBENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def harness_reads(source):
    """Names that ``source`` reads from its ``harness`` module.

    Those read as ``harness.<name>`` and those passed next to it as a string,
    as in ``captured(harness, "<name>")`` or ``getattr(harness, "<name>")``.
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "harness":
                names.add(node.attr)
        elif isinstance(node, ast.Call):
            for first, second in zip(node.args, node.args[1:]):
                if (
                    isinstance(first, ast.Name)
                    and first.id == "harness"
                    and isinstance(second, ast.Constant)
                    and isinstance(second.value, str)
                ):
                    names.add(second.value)
    return sorted(names)


def test_the_check_finds_the_harness_reads():
    source = (
        "from cbflab import harness\nharness.run_train(cfg)\nother.load_trace(p)\n"
        "with captured(harness, 'generate_trace'):\n    harness.MetricSink.read(p)\n"
    )
    assert harness_reads(source) == ["MetricSink", "generate_trace", "run_train"]


def test_perfbench_reads_only_names_the_harness_has():
    # The benchmark script drives the package through ``cbflab.harness``: a
    # refactor that renames one of the names it reads breaks the benchmark.
    from cbflab import harness

    names = harness_reads(PERFBENCH_RUN.read_text())
    assert {"generate_trace", "load_agents_from_checkpoint", "run_train"} <= set(names)
    assert [name for name in names if not hasattr(harness, name)] == []
