"""Recovery has no phase loops: each commit phase exists once, in its protocol.

Recovery is the protocol, resumed.  The recovery manager finds in-doubt
locals and orphans and delivers durable decisions, but every redo,
inverse and consensus step it needs is the protocol's own (§3.2 redo
in ``CommitAfter``, §3.3 inverse transactions in ``CommitBefore``, the
higher-ballot takeover in ``PaxosCommit``).  This test walks the AST of
every module under ``src/repro`` outside ``core/protocols/`` and the
site-side handlers in ``integration/comm_local.py``, and fails on any
call that requests a ``redo_subtxn`` or ``undo_subtxn``, requests an
undo ``execute_l0`` (one with an ``undo`` keyword), or constructs a
``PaxosLeader``.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
EXEMPT_DIR = SRC / "core" / "protocols"
EXEMPT_FILE = SRC / "integration" / "comm_local.py"
PHASE_KINDS = frozenset({"redo_subtxn", "undo_subtxn"})


def phase_steps(source: str) -> list[int]:
    """Line numbers of calls that run a commit phase's step themselves."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        kinds = {
            arg.value
            for arg in node.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        }
        undo_action = "execute_l0" in kinds and any(
            keyword.arg == "undo" for keyword in node.keywords
        )
        if name == "PaxosLeader" or kinds & PHASE_KINDS or undo_action:
            lines.append(node.lineno)
    return lines


def test_detector_sees_every_phase_step():
    assert phase_steps('comm.request(site, "redo_subtxn", ops=ops)') == [1]
    assert phase_steps('ctx.request(site, "undo_subtxn", inverse_ops=ops)') == [1]
    assert phase_steps('comm.request(site, "execute_l0", op=op, undo=True)') == [1]
    assert phase_steps("leader = paxos.PaxosLeader(gtm, gtxn_id, rms)") == [1]
    # A forward action, a status query and a bare kind name are fine.
    assert phase_steps('ctx.request(site, "execute_l0", op=op)') == []
    assert phase_steps('comm.request(site, "status_query", marker_key=k)') == []
    assert phase_steps('KINDS = ("redo_subtxn", "undo_subtxn")') == []


def test_no_phase_step_outside_the_protocol_modules():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if EXEMPT_DIR in path.parents or path == EXEMPT_FILE:
            continue
        offenders += [
            f"{path.relative_to(SRC)}:{line}" for line in phase_steps(path.read_text())
        ]
    assert not offenders, (
        "redo / undo / takeover step(s) outside core/protocols/ -- resume the "
        f"protocol's own step instead: {offenders}"
    )
