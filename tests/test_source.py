"""Checks on the package source itself, made with the standard library's ``ast``."""

import ast
import importlib
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


def np_load_uses(source):
    """(line, function) of each ``np.load`` (or ``numpy.load``) that ``source`` reads.

    ``function`` is the name of the innermost function around it, None at
    module level.
    """
    uses = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "load"
                and isinstance(child.value, ast.Name)
                and child.value.id in ("np", "numpy")
            ):
                uses.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(uses)


def test_the_check_finds_the_np_load_uses():
    source = (
        "import numpy as np\ndef a(p):\n    return np.load(p)\ndef b():\n"
        "    def c(q):\n        json.load(q)\n        return np.load(q)\n"
        "    return numpy.load\nnp.load('r')\n"
    )
    assert np_load_uses(source) == [(3, "a"), (7, "c"), (8, "b"), (9, None)]


def test_only_the_checkpoint_opener_calls_np_load():
    # Every stored array is read and checked by ``drl.read_entry`` inside the
    # one opener; a second opener or reader would bypass those checks.
    uses = [
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, function in np_load_uses(path.read_text())
    ]
    assert uses == [("harness.py", "_open_checkpoint")]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PERFBENCH_RUN = PERFBENCH / "run.py"
PERFBENCH_TRACER = PERFBENCH / "tracer.py"


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


def traced_names(source):
    """The (owner, attribute) pairs of the ``SPANS`` and ``COUNTS`` tables in ``source``."""
    pairs = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTS") for t in node.targets
        ):
            pairs += [(entry[0], entry[1]) for entry in ast.literal_eval(node.value)]
    return pairs


def owner_defines(owner, attribute):
    """Whether ``owner`` ("module" or "module:Class") defines ``attribute`` itself.

    The tracer patches a name only there, and skips it silently otherwise.
    """
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return attribute in vars(getattr(target, cls) if cls else target)


def test_the_check_finds_the_traced_names():
    source = (
        "SPANS = (\n    ('a.b', 'f', 'b.f', None),\n    ('a.b:C', 'g', 'b.g', '_obs'),\n)\n"
        "COUNTS = (('a.c', 'h', 'c.h'),)\nTIMINGS = (('x', 'y', 'ms', False),)\n"
    )
    assert traced_names(source) == [("a.b", "f"), ("a.b:C", "g"), ("a.c", "h")]
    assert owner_defines("cbflab.drl:DdpgAgent", "act")
    assert not owner_defines("cbflab.drl:DdpgAgent", "__repr__")  # inherited, not its own
    assert not owner_defines("cbflab.harness", "ura_steering")  # only in cbflab.channel


# Traced names the package no longer defines, so their metrics read ``.n == 0``.
# A change to the benchmark that traces their successors removes them here.
KNOWN_UNTRACED = [("cbflab.harness", "mslnr_beamformer"), ("cbflab.solvers", "bisect_mu")]


def test_perfbench_reads_only_names_the_harness_has():
    # The benchmark script drives the package through ``cbflab.harness``, and
    # its tracer wraps package functions by name: a refactor that renames one
    # of them breaks the benchmark, or silently empties a per-layer metric.
    from cbflab import harness

    names = harness_reads(PERFBENCH_RUN.read_text())
    assert {"generate_trace", "load_agents_from_checkpoint", "run_train"} <= set(names)
    assert [name for name in names if not hasattr(harness, name)] == []

    traced = traced_names(PERFBENCH_TRACER.read_text())
    assert ("cbflab.drl:DdpgAgent", "train_step") in traced
    assert ("cbflab.channel", "ura_steering") in traced
    assert [pair for pair in traced if not owner_defines(*pair)] == KNOWN_UNTRACED
