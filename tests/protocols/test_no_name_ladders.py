"""No protocol-name ladders outside ``core/protocols/`` and ``baselines/``.

A protocol is one module plus one registry row.  Behaviour that depends
on the protocol is declared on the protocol class (recovery policy, L1
manager, replicated decisions) or carried by the message (the vote
request says what it asks for) -- never re-derived elsewhere by
comparing ``config.protocol`` against a name.  This test walks the AST
of every other module under ``src/repro`` and fails on any ``==`` /
``!=`` / ``in`` / ``not in`` whose operand is a string constant (or a
tuple / list / set of them) naming a registered protocol.
"""

import ast
import pathlib

import repro
from repro.core.protocols import protocol_names

SRC = pathlib.Path(repro.__file__).parent
EXEMPT = (SRC / "core" / "protocols", SRC / "baselines")
NAMES = frozenset(protocol_names())


def _names_a_protocol(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in NAMES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_protocol(element) for element in node.elts)
    return False


def name_comparisons(source: str) -> list[int]:
    """Line numbers of comparisons against a protocol-name literal."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops)
        and any(_names_a_protocol(operand) for operand in [node.left, *node.comparators])
    ]


def test_detector_sees_every_ladder_shape():
    assert name_comparisons('if config.protocol == "before": pass') == [1]
    assert name_comparisons('x = protocol in ("2pc", "paxos")') == [1]
    assert name_comparisons('x = "saga" != spec.protocol') == [1]
    assert name_comparisons('x = p not in {"after"}') == [1]
    # Registry-derived sets and non-protocol strings are fine.
    assert name_comparisons('x = protocol in preparable_protocols()') == []
    assert name_comparisons('x = policy == "adaptive"') == []


def test_no_protocol_name_comparison_outside_the_protocol_modules():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if any(root in path.parents for root in EXEMPT):
            continue
        offenders += [
            f"{path.relative_to(SRC)}:{line}"
            for line in name_comparisons(path.read_text())
        ]
    assert not offenders, (
        "protocol-name comparison(s) outside core/protocols/ and baselines/ "
        f"-- move the behaviour onto the protocol class: {offenders}"
    )
