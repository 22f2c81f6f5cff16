"""Guard: per-node state has one representation, and the fork cannot grow back.

``ColumnarStateStore`` (flat arrays) is the only container of node state;
``NodeState`` is the by-value view ``index.state(node)`` returns and the
working representation of the seed's scalar reference loop, which lives
under ``tests/``.  So under ``src/repro`` a ``NodeState`` is *constructed*
only where a flat row is turned into that view (``StateArrays.to_state``,
``NodeState.copy``) — and neither index class keeps a ``_states`` list of
them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: ``(file, enclosing function)`` pairs allowed to construct a ``NodeState``.
ALLOWED_CONSTRUCTORS = {
    ("core/index.py", "to_state"),
    ("core/index.py", "copy"),
}


def _node_state_constructions(tree):
    """``(function name, line)`` of every ``NodeState(...)`` call in ``tree``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name == "NodeState":
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_node_state_is_constructed_only_as_a_view_or_by_the_scalar_reference():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for function, line in _node_state_constructions(ast.parse(path.read_text())):
            if (relative, function) not in ALLOWED_CONSTRUCTORS:
                offenders.append(f"{relative}:{line} (in {function})")
    assert not offenders, (
        "NodeState is a by-value view, not storage — hand over StateArrays "
        f"(flat segments) instead of constructing one here: {offenders}"
    )


def test_index_classes_keep_no_state_list():
    for relative in ("core/index.py", "core/sharding.py"):
        tree = ast.parse((SRC / relative).read_text())
        attributes = [
            f"{relative}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_states"
        ]
        assert not attributes, (
            f"a `_states` object list grew back next to the store: {attributes}"
        )
