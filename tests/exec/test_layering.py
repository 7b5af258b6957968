"""Ownership follows layering: ``repro.exec`` sits below search/pipeline.

The shared pool, its supervision and the ordered fan-out primitive live
in ``repro.exec``; the search and pipeline layers are its clients.  An
import the other way (even a lazy one inside a function) would put the
pool back under a layer that merely uses it.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
EXEC = SRC / "exec"
FORBIDDEN = ("repro.search", "repro.pipeline")


def _imported_modules(source):
    """Every module an import statement anywhere in ``source`` names,
    relative imports resolved as if ``source`` were a module of
    ``repro.exec``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = (["repro", "exec"][:3 - node.level] if node.level
                    else [])
            if node.module:
                base.append(node.module)
            yield ".".join(base)
            for alias in node.names:
                yield ".".join(base + [alias.name])


def _forbidden(names):
    return [name for name in names
            if any(name == layer or name.startswith(layer + ".")
                   for layer in FORBIDDEN)]


def test_exec_imports_neither_search_nor_pipeline():
    modules = sorted(EXEC.glob("*.py"))
    assert modules
    offenders = {path.name: _forbidden(_imported_modules(path.read_text()))
                 for path in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_lazy_and_package_relative_imports_are_caught():
    source = ("def f():\n"
              "    from ..search.parallel import in_worker\n"
              "from .. import pipeline\n"
              "import repro.search\n"
              "from .pool import shared_pool\n")
    assert sorted(_forbidden(_imported_modules(source))) == [
        "repro.pipeline", "repro.search", "repro.search.parallel",
        "repro.search.parallel.in_worker"]


def test_process_pool_executor_lives_only_in_exec_pool():
    users = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "ProcessPoolExecutor" in path.read_text())
    assert users == ["exec/pool.py"]
