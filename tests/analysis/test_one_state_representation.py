"""Guard: per-node state has one representation, and the fork cannot grow back.

``ColumnarStateStore`` (flat arrays) is the only container of node state and
``StateArrays`` (flat segments) the only per-node value: what
``index.state_arrays(node)`` reads and ``index.set_state`` writes.  The
dict-backed state of the seed's scalar reference loop lives under
``tests/`` only.  So no ``NodeState`` name — class, import, annotation or
attribute — exists under ``src/repro``, and neither index class keeps a
``_states`` list.  The same check keeps the retired ``DynamicGraph``
overlay (a graph batch is one ``apply_batch`` edit) and its companions from
coming back.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The retired dict-backed per-node view.
RETIRED = "NodeState"

#: Retired with it: the edit overlay, its compaction option and the view's
#: materialisation counter.
ALSO_RETIRED = ("DynamicGraph", "compaction_threshold", "materialization_count")


def _retired_names(tree, retired=RETIRED):
    """Lines where ``retired`` appears as an identifier in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, ast.arg):
            names.append(node.arg)
        elif isinstance(node, ast.keyword):
            names.append(node.arg)
        elif isinstance(node, ast.alias):
            names.extend([node.name.rsplit(".", 1)[-1], node.asname])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations ("StateArrays | NodeState") hide a name too.
            try:
                names.extend(
                    inner.id
                    for inner in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(inner, ast.Name)
                )
            except SyntaxError:
                pass
        if retired in names:
            lines.append(getattr(node, "lineno", 0))
    return lines


def offenders(root: Path = SRC, retired: str = RETIRED):
    """``file:line`` of every use of ``retired`` under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for line in _retired_names(ast.parse(path.read_text()), retired):
            found.append(f"{relative}:{line}")
    return found


def test_no_node_state_under_src():
    found = offenders()
    assert not found, (
        "per-node state is StateArrays (flat segments) only — the dict-backed "
        f"NodeState view is gone from the library: {found}"
    )


@pytest.mark.parametrize("retired", ALSO_RETIRED)
def test_retired_dynamic_names_stay_gone(retired):
    found = offenders(retired=retired)
    assert not found, f"{retired} was retired with NodeState: {found}"


def test_guard_catches_a_planted_reintroduction(tmp_path):
    plants = {
        "defined.py": "class NodeState:\n    pass\n",
        "imported.py": "from repro.core.index import NodeState\n",
        "annotated.py": 'def f(state: "StateArrays | NodeState"):\n    pass\n',
        "attribute.py": "import repro.core.index as m\nm.NodeState()\n",
        "parameter.py": "def f(NodeState=None):\n    pass\n",
        "clean.py": "from repro.core.index import StateArrays\n",
    }
    for name, source in plants.items():
        (tmp_path / name).write_text(source)
    flagged = {entry.split(":")[0] for entry in offenders(tmp_path)}
    assert flagged == set(plants) - {"clean.py"}


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
