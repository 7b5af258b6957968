"""Ownership follows layering.

``repro.exec`` sits below search/pipeline: the shared pool, its
supervision and the ordered fan-out primitive live there, and the search
and pipeline layers are its clients.  An import the other way (even a
lazy one inside a function) would put the pool back under a layer that
merely uses it.

The interpreter owns the one scheduling loop, ``Execution.run``: no
other module picks threads, steps or chains an execution, or books
scheduler picks.
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


#: what only ``Execution.run`` may touch: the scheduler's pick and the
#: chain runner (by any reference, so an alias counts), the single step
#: (by call: ``step`` is also a plain field name) and the pick counter
LOOP_REFS = ("pick", "run_chain")
LOOP_CALLS = ("step",)
LOOP_COUNTER = "sched_picks"


def _loop_offences(source):
    """``(line, what)`` of every scheduling-loop reference or
    pick-counter write in ``source``, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in LOOP_REFS:
            found.append((node.lineno, node.attr))
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in LOOP_CALLS:
            found.append((node.lineno, node.func.attr))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target]
                   if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            if isinstance(target, ast.Attribute) \
                    and target.attr == LOOP_COUNTER:
                found.append((node.lineno, LOOP_COUNTER))
    return sorted(found)


def test_only_the_interpreter_runs_the_scheduling_loop():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if name != "runtime/interpreter.py":
            found = _loop_offences(path.read_text())
            if found:
                offenders[name] = found
    assert offenders == {}


def test_scheduling_loop_scan_catches_each_offence():
    source = ("name = scheduler.pick(execution, runnable)\n"
              "effects = execution.run_chain(name, runnable, limit=3)\n"
              "execution.step(name)\n"
              "execution.sched_picks += 1\n"
              "execution.sched_picks = 0\n"
              "choose = scheduler.pick\n"
              "execution.run(until=5)\n"
              "steps = entry.step + effects.step\n")
    assert _loop_offences(source) == [
        (1, "pick"), (2, "run_chain"), (3, "step"), (4, LOOP_COUNTER),
        (5, LOOP_COUNTER), (6, "pick")]
    interpreter = (SRC / "runtime" / "interpreter.py").read_text()
    assert {what for _line, what in _loop_offences(interpreter)} == {
        "pick", "run_chain", "step", LOOP_COUNTER}
