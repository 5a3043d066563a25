"""The unchangeable-TM premise is a boundary: nothing reaches past it.

The paper's local TMs expose only begin / operations / commit / abort
(§2).  ``localdb/interface.py`` is that boundary: the site agent and
everything above it drive a site through ``StandardTMInterface`` (or
the modified ``PreparableTMInterface``), never through the engine the
interface wraps.  Likewise the buffer pool's frames belong to the
storage layer and the engine built on it; an outside observer reads
pages through ``LocalDatabase.current_page``.  This test walks the AST
of every module under ``src/repro`` and fails on any attribute access
named ``_engine`` outside ``localdb/``, or ``_frames`` outside
``storage/`` and ``localdb/``.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
#: private attribute -> the packages that may touch it
OWNERS = {
    "_engine": (SRC / "localdb",),
    "_frames": (SRC / "storage", SRC / "localdb"),
}


def reach_ins(source: str) -> list[tuple[int, str]]:
    """(line, attribute) of every access to an owned private attribute."""
    return [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in OWNERS
    ]


def test_detector_sees_every_reach_in():
    assert reach_ins("txn = self.interface._engine.txn(txn_id)") == [(1, "_engine")]
    assert reach_ins("page = engine.buffer._frames[page_id]") == [(1, "_frames")]
    # Public names, locals and bare strings are fine.
    assert reach_ins("page = engine.current_page(page_id)") == []
    assert reach_ins("_engine = make_engine(kernel)") == []
    assert reach_ins('name = "_frames"') == []


def test_no_reach_in_outside_its_owners():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        offenders += [
            f"{path.relative_to(SRC)}:{line} .{attr}"
            for line, attr in reach_ins(path.read_text())
            if not any(owner in path.parents for owner in OWNERS[attr])
        ]
    assert not offenders, (
        "private engine / buffer state read outside its layer -- go through "
        f"the TM interface or LocalDatabase's public view instead: {offenders}"
    )
