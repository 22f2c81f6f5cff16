"""Class index, attribute-type inference, and the project call graph.

Types are inferred only where the code states them outright:

* ``self.X = SomeClass(...)`` in any method of ``C`` types attribute ``X``
  of ``C`` as ``SomeClass`` (when ``SomeClass`` resolves to a class defined
  in the analyzed tree);
* ``x = SomeClass(...)`` types local ``x`` the same way inside one function.

Call sites then resolve in four steps — ``self.m()`` through the class (and
its repo-internal base chain), ``self.X.m()`` / ``x.m()`` through the
inferred attribute/local types, and bare ``f()`` through the module's
imports — and anything else stays *unresolved* rather than guessed.  The
reverse index (who calls method ``m``, under which held locks) is what lets
RL001 accept a helper method whose every caller holds the right lock, and
what RL002 walks to find cross-method lock-order cycles.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .contexts import iter_nodes_with_contexts
from .loader import ModuleInfo
from .scopes import Scope, build_import_table, function_scope, render


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  # module.Class.method or module.func
    name: str
    module: ModuleInfo
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None  # simple class name when a method
    scope: Optional[Scope] = None

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)


@dataclass
class ClassInfo:
    """One class definition plus what the index inferred about it."""

    name: str
    qualname: str
    module: ModuleInfo
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> simple class name (from ``self.X = SomeClass(...)``)
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: attribute name -> factory symbol (from ``self.X = <factory>()``, also
    #: behind a conditional default: ``x if x is not None else <factory>()``
    #: or ``x or <factory>()``), e.g. ``_lock -> threading.Lock``.
    #: Factories recorded from any method.
    attr_factories: Dict[str, str] = field(default_factory=dict)


@dataclass
class CallSite:
    """One resolved call: ``caller`` invokes ``callee`` at ``node``."""

    caller: FunctionInfo
    callee: FunctionInfo
    node: ast.Call
    held: Tuple[str, ...]


class ProjectIndex:
    """Cross-module index: classes, functions, scopes, and the call graph."""

    def __init__(self, modules: List[ModuleInfo]) -> None:
        self.modules = modules
        self.imports: Dict[str, Dict[str, str]] = {}
        self.classes: Dict[str, List[ClassInfo]] = {}
        self.classes_by_qualname: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.module_functions: Dict[str, FunctionInfo] = {}
        for module in modules:
            self._index_module(module)
        for module in modules:
            self._infer_attr_types(module)
        self.calls: List[CallSite] = []
        self.callers_of: Dict[str, List[CallSite]] = {}
        for function in self.functions.values():
            self._index_calls(function)

    # ------------------------------------------------------------------ #
    # indexing
    # ------------------------------------------------------------------ #
    def _index_module(self, module: ModuleInfo) -> None:
        table = build_import_table(module.tree, module.name)
        self.imports[module.name] = table
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                self._index_class(module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{module.name}.{node.name}",
                    name=node.name,
                    module=module,
                    node=node,
                )
                self.functions[info.qualname] = info
                self.module_functions[info.qualname] = info

    def _index_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        table = self.imports[module.name]
        info = ClassInfo(
            name=node.name,
            qualname=f"{module.name}.{node.name}",
            module=module,
            node=node,
            bases=[
                rendered
                for base in node.bases
                if (rendered := render(base, Scope(imports=dict(table)))) is not None
            ],
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = FunctionInfo(
                    qualname=f"{info.qualname}.{item.name}",
                    name=item.name,
                    module=module,
                    node=item,
                    class_name=node.name,
                )
                info.methods[item.name] = method
                self.functions[method.qualname] = method
        self.classes.setdefault(node.name, []).append(info)
        self.classes_by_qualname[info.qualname] = info

    def _infer_attr_types(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = self.classes_by_qualname[f"{module.name}.{node.name}"]
            for method in cls.methods.values():
                scope = self.scope_for(method)
                for stmt in ast.walk(method.node):
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target = stmt.targets[0]
                    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        target = stmt.target
                    else:
                        continue
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    for call in _value_calls(stmt.value):
                        symbol = render(call.func, scope)
                        if symbol is None:
                            continue
                        cls.attr_factories.setdefault(target.attr, symbol)
                        simple = symbol.rsplit(".", 1)[-1]
                        if simple in self.classes:
                            cls.attr_types.setdefault(target.attr, simple)

    # ------------------------------------------------------------------ #
    # scopes
    # ------------------------------------------------------------------ #
    def scope_for(self, function: FunctionInfo) -> Scope:
        if function.scope is None:
            function.scope = function_scope(
                function.node, self.imports[function.module.name]
            )
        return function.scope

    def local_types(self, function: FunctionInfo) -> Dict[str, str]:
        """``x = SomeClass(...)`` locals, as name -> simple class name."""
        scope = self.scope_for(function)
        types: Dict[str, str] = {}
        for stmt in ast.walk(function.node):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name) or not isinstance(
                stmt.value, ast.Call
            ):
                continue
            symbol = render(stmt.value.func, scope)
            if symbol is None:
                continue
            simple = symbol.rsplit(".", 1)[-1]
            if simple in self.classes:
                types[target.id] = simple
        return types

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    def class_of(self, function: FunctionInfo) -> Optional[ClassInfo]:
        if function.class_name is None:
            return None
        qualname = function.qualname.rsplit(".", 1)[0]
        return self.classes_by_qualname.get(qualname)

    def lookup_method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Find ``name`` on ``cls`` or its repo-internal base chain."""
        seen = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            for base in current.bases:
                simple = base.rsplit(".", 1)[-1]
                for candidate in self.classes.get(simple, []):
                    stack.append(candidate)
        return None

    def resolve_call(
        self,
        call: ast.Call,
        function: FunctionInfo,
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[FunctionInfo]:
        """Resolve one call node to a repo function, or None."""
        scope = self.scope_for(function)
        func = call.func
        if isinstance(func, ast.Attribute):
            base = func.value
            cls = self.class_of(function)
            # self.m(...)
            if isinstance(base, ast.Name) and base.id == "self" and cls is not None:
                return self.lookup_method(cls, func.attr)
            # self.X.m(...) through the inferred attribute type
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and cls is not None
            ):
                type_name = cls.attr_types.get(base.attr)
                if type_name is not None:
                    return self._method_on(type_name, func.attr)
                return None
            # x.m(...) through the inferred local type
            if isinstance(base, ast.Name):
                if local_types is None:
                    local_types = self.local_types(function)
                type_name = local_types.get(base.id)
                if type_name is not None:
                    return self._method_on(type_name, func.attr)
            return None
        symbol = render(func, scope)
        if symbol is None:
            return None
        # Fully-qualified repo function (via imports) or same-module function.
        candidate = self.module_functions.get(symbol)
        if candidate is not None:
            return candidate
        local = f"{function.module.name}.{symbol}"
        if local in self.module_functions:
            return self.module_functions[local]
        # Imported class constructor: ClassName(...) -> __init__.
        simple = symbol.rsplit(".", 1)[-1]
        for cls in self.classes.get(simple, []):
            init = cls.methods.get("__init__")
            if init is not None:
                return init
        return None

    def _method_on(self, class_name: str, method: str) -> Optional[FunctionInfo]:
        for cls in self.classes.get(class_name, []):
            found = self.lookup_method(cls, method)
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------------ #
    # call graph
    # ------------------------------------------------------------------ #
    def _index_calls(self, function: FunctionInfo) -> None:
        scope = self.scope_for(function)
        local_types = self.local_types(function)
        for node, held, _stmt in iter_nodes_with_contexts(function.node, scope):
            if not isinstance(node, ast.Call):
                continue
            callee = self.resolve_call(node, function, local_types)
            if callee is None:
                continue
            site = CallSite(caller=function, callee=callee, node=node, held=held)
            self.calls.append(site)
            self.callers_of.setdefault(callee.qualname, []).append(site)

    def iter_functions(self) -> Iterator[FunctionInfo]:
        return iter(self.functions.values())


def _value_calls(value: ast.expr) -> Iterator[ast.Call]:
    """The calls an assigned value may evaluate to, looking through the
    operands of conditional expressions and ``and`` / ``or`` chains."""
    if isinstance(value, ast.Call):
        yield value
    elif isinstance(value, ast.IfExp):
        yield from _value_calls(value.body)
        yield from _value_calls(value.orelse)
    elif isinstance(value, ast.BoolOp):
        for operand in value.values:
            yield from _value_calls(operand)
