"""RL005 — classes holding unpicklable resources must drop them in
``__getstate__``.

Rollover pickles engines to clone them; archival pickles indexes.  A class
that stores a lock, a thread pool, ``threading.local`` state, or a
``KernelWorkspace`` pickles fine *until* one ends up in an object graph
handed to ``pickle.dumps`` — then it fails at the worst possible moment
(mid-rollover) with an opaque ``TypeError: cannot pickle '_thread.lock'``.

A class is flagged when it assigns any attribute from
``UNPICKLABLE_FACTORY_SYMBOLS`` / ``UNPICKLABLE_CLASS_NAMES`` and no
``__getstate__`` in its repo-internal MRO handles that attribute.

"Handles" is a deliberately simple syntactic check on the ``__getstate__``
body:

* an **explicit-dict** getstate — one that never touches ``self.__dict__``
  or ``vars(self)`` — handles everything (it rebuilds state from scratch,
  so the resource is dropped by construction);
* a dict-copying getstate handles attributes whose names appear in its
  body (as string constants or attribute references): ``state["_pool"]
  = None`` or ``del state["_lock"]``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional

from .. import rules_config as config
from ..callgraph import ClassInfo, FunctionInfo
from ..engine import AnalysisProject, register_checker
from ..findings import Finding


@register_checker("RL005")
def check_pickle_safety(project: AnalysisProject) -> Iterable[Finding]:
    findings: List[Finding] = []
    index = project.index
    for class_list in index.classes.values():
        for cls in class_list:
            if cls.name in config.PICKLE_EXEMPT_CLASSES:
                continue
            unpicklable = _unpicklable_attrs(cls)
            if not unpicklable:
                continue
            getstate = _find_getstate(project, cls)
            unhandled = {
                attr: factory
                for attr, factory in unpicklable.items()
                if getstate is None or not _handles(getstate, attr)
            }
            for attr in sorted(unhandled):
                factory = unhandled[attr]
                if getstate is None:
                    message = (
                        f"holds unpicklable {factory} in self.{attr} but "
                        "defines no __getstate__"
                    )
                else:
                    message = (
                        f"__getstate__ does not drop unpicklable {factory} "
                        f"held in self.{attr}"
                    )
                findings.append(
                    Finding(
                        rule_id="RL005",
                        path=cls.module.rel_path,
                        line=cls.node.lineno,
                        col=cls.node.col_offset,
                        symbol=cls.name,
                        message=message,
                        hint=(
                            "define __getstate__ returning a picklable dict "
                            "(either build it explicitly, or copy __dict__ "
                            f"and null/del '{attr}'); if instances are never "
                            "pickled by design, baseline the finding with a "
                            "written reason"
                        ),
                    )
                )
    return findings


def _unpicklable_attrs(cls: ClassInfo) -> Dict[str, str]:
    """attr name -> offending factory symbol."""
    offenders: Dict[str, str] = {}
    for attr, factory in cls.attr_factories.items():
        simple = factory.rsplit(".", 1)[-1]
        if (
            factory in config.UNPICKLABLE_FACTORY_SYMBOLS
            or simple in config.UNPICKLABLE_CLASS_NAMES
        ):
            offenders[attr] = factory
    return offenders


def _find_getstate(
    project: AnalysisProject, cls: ClassInfo
) -> Optional[FunctionInfo]:
    return project.index.lookup_method(cls, "__getstate__")


def _handles(getstate: FunctionInfo, attr: str) -> bool:
    """Does this ``__getstate__`` drop / rebuild ``attr``?"""
    touches_dict = False
    mentions_attr = False
    for node in ast.walk(getstate.node):
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            touches_dict = True
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "vars":
                touches_dict = True
        if isinstance(node, ast.Constant) and node.value == attr:
            mentions_attr = True
        elif isinstance(node, ast.Attribute) and node.attr == attr:
            mentions_attr = True
    if not touches_dict:
        # Explicit-dict getstate: state is rebuilt from scratch, so any
        # attribute not mentioned is dropped by construction.
        return True
    return mentions_attr
