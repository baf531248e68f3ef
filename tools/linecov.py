"""A pytest plugin that lists the statements of ``src/qsmooth/*.py`` that no
in-process test runs.  Standard library only (``sys.settrace`` and
``threading.settrace``), and opt-in: run it from the repository root with

    PYTHONPATH=tools python -m pytest -p linecov

A statement counts as run when any of its lines runs: a multi-line ``if (``
reports its inner line, and a ``def`` its decorator's.  A compound statement
counts by its header alone (the lines before its body), so an ``if`` that
runs with a body that never does lists the body.  An unrun statement inside
an unrun one is not listed again.

Blind spot: code that a test runs in a fresh interpreter (``subprocess``,
``python -c``) is not traced, so a statement that only such a test reaches
is listed as unrun; the summary names the tests that started one.  Tracing
roughly doubles the suite's wall time.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import threading
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "qsmooth"

_hits: dict[str, set[int]] = {}  # watched file -> lines that ran
_tracers: dict[str, object] = {}  # co_filename -> its local tracer, or None
_current_test = None
_spawning_tests: list[str] = []


def _watched(filename: str):
    """The local tracer for a code object's file, or None to leave it be."""
    try:
        return _tracers[filename]
    except KeyError:
        pass
    path = os.path.realpath(filename)
    tracer = None
    if os.path.dirname(path) == str(SOURCE) and path.endswith(".py"):
        lines = _hits.setdefault(path, set())

        def tracer(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return tracer

    _tracers[filename] = tracer
    return tracer


def _trace(frame, event, arg):
    if event == "call":
        return _watched(frame.f_code.co_filename)
    return None


_popen_init = subprocess.Popen.__init__


def _recording_popen_init(self, *args, **kwargs):
    if _current_test is not None and _current_test not in _spawning_tests:
        _spawning_tests.append(_current_test)
    _popen_init(self, *args, **kwargs)


# started when pytest loads the plugin, before anything imports qsmooth, so
# that module-level statements count too
sys.settrace(_trace)
threading.settrace(_trace)
subprocess.Popen.__init__ = _recording_popen_init


def _code_lines(source: str, path: Path) -> set[int]:
    """The lines of every code object compiled from ``source``: the lines a
    trace can report at all (a docstring, say, has none)."""
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _header(node: ast.stmt) -> range:
    """The lines of a statement, or of a compound one's header."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def unrun_statements(path: Path, ran: set[int]) -> list[tuple[int, int, str]]:
    """(first line, last line, first line's text) of each outermost
    statement of ``path`` that can run and did not."""
    source = path.read_text(encoding="utf-8")
    runnable = _code_lines(source, path)
    text = source.splitlines()
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                header = set(_header(child))
                if header & runnable and not header & ran:
                    found.append((child.lineno, child.end_lineno, text[child.lineno - 1].strip()))
                    continue
            visit(child)

    visit(ast.parse(source, str(path)))
    return found


def pytest_runtest_protocol(item, nextitem):
    global _current_test
    _current_test = item.nodeid


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    subprocess.Popen.__init__ = _popen_init
    write = terminalreporter.write_line
    terminalreporter.section("statements no in-process test runs")
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        for first, last, line in unrun_statements(path, _hits.get(str(path), set())):
            span = f"{first}" if first == last else f"{first}-{last}"
            write(f"{path.relative_to(SOURCE.parent.parent)}:{span}: {line}")
            total += 1
    write(f"{total} unrun statements in {SOURCE.relative_to(SOURCE.parent.parent)}/*.py")
    if _spawning_tests:
        write(
            f"not traced: code run in a fresh interpreter, which these "
            f"{len(_spawning_tests)} tests start (a statement only they reach is listed above):"
        )
        for nodeid in _spawning_tests:
            write(f"  {nodeid}")
