"""One lock manager: deadlock detection exists once, for every level.

Multi-level transactions run the same strict 2PL at every level (§4.1);
only the conflict table differs.  So ``repro/localdb/locks.py`` is the
one lock manager -- page locks, the GTM's L1 table, every nested level
and the altruistic baseline all construct it or subclass it.  This test
walks the AST of every module under ``src/repro`` and fails on any
construction of a ``WaitsForGraph`` outside that file: a second one
would mean a second lock manager with its own queueing and detection.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
LOCKS = SRC / "localdb" / "locks.py"


def graph_constructions(source: str) -> list[int]:
    """Line numbers of ``WaitsForGraph(...)`` calls."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "WaitsForGraph":
            lines.append(node.lineno)
    return lines


def test_only_the_lock_manager_builds_a_waits_for_graph():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path != LOCKS
        for line in graph_constructions(path.read_text())
    ]
    assert offenders == []


def test_the_lock_manager_does_build_one():
    assert graph_constructions(LOCKS.read_text())


def test_detector_sees_aliased_and_qualified_calls():
    source = (
        "from repro.localdb import deadlock\n"
        "g = deadlock.WaitsForGraph()\n"
        "h = WaitsForGraph()\n"
    )
    assert graph_constructions(source) == [2, 3]
