"""One dispatch from an operation to the engine call that executes it.

:func:`repro.mlt.actions.apply` turns an operation into the engine's
read / write / increment / insert / delete call (and reads the
before-image the inverse action needs); :func:`~repro.mlt.actions.inverse_of`
maps each kind to its inverse.  Both live in ``repro/mlt/actions.py``.
Every executor -- the n-level manager, the flat baseline and the
communication manager -- goes through ``apply``.  This test walks the
AST of every module under ``src/repro`` outside ``localdb/`` and fails
on any comparison of a ``.kind`` with ``"increment"``, ``"insert"`` or
``"delete"`` outside that file: such a comparison would be a second
dispatch on the write kinds.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
ACTIONS = SRC / "mlt" / "actions.py"
WRITE_KINDS = {"increment", "insert", "delete"}


def _constants(node: ast.AST) -> set:
    if isinstance(node, ast.Constant):
        return {node.value}
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return set().union(*map(_constants, node.elts))
    return set()


def kind_dispatches(source: str) -> list[int]:
    """Line numbers comparing a ``.kind`` with a write kind."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if not any(isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides):
            continue
        if set().union(*map(_constants, sides)) & WRITE_KINDS:
            lines.append(node.lineno)
    return lines


def test_only_actions_dispatches_on_write_kinds():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path != ACTIONS and "localdb" not in path.relative_to(SRC).parts
        for line in kind_dispatches(path.read_text())
    ]
    assert offenders == []


def test_actions_does_dispatch():
    assert kind_dispatches(ACTIONS.read_text())


def test_detector_sees_equality_and_membership():
    source = (
        "if op.kind == 'increment':\n"
        "    pass\n"
        "ok = op.kind in ('read', 'delete')\n"
        "no = op.kind == 'read'\n"
        "also_no = kind == 'insert'\n"
    )
    assert kind_dispatches(source) == [1, 3]
