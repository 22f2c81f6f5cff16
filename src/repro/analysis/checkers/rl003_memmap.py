"""RL003 — memory-mapped shard columns are immutable outside copy-on-write.

Shard layouts are content-addressed: every ``np.load(..., mmap_mode=...)``
or ``np.memmap(...)`` result aliases bytes on disk that other shards,
processes, and archived layouts share.  Mutating one in place silently
corrupts every reader.  The only sanctioned path is copy-on-write
promotion (:data:`~repro.analysis.rules_config.MEMMAP_COW_ALLOWED`), which
replaces the mapped array with a private copy before writing.

The checker runs a per-function forward taint: sources are memmap-producing
calls; taint flows through plain assignment, ``np.asarray`` / ``np.ascontiguousarray``
(zero-copy for matching dtype), subscripting, and into ``self.<attr>``
(attrs in :data:`MEMMAP_TAINTED_ATTRS` are taint sources in *every* method
of their class).  Sinks are subscript stores, augmented assignment,
in-place ndarray methods (``sort``/``fill``/...), ``out=``-style kwargs,
and mutating free functions (``np.copyto`` etc.).  An explicit
``.copy()`` / ``np.array(x, copy=True)`` launders the taint.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from .. import rules_config as config
from ..callgraph import FunctionInfo
from ..engine import AnalysisProject, register_checker
from ..findings import Finding
from ..scopes import render

_PASSTHROUGH_CALLS = {
    "numpy.asarray",
    "numpy.ascontiguousarray",
    "numpy.atleast_1d",
    "numpy.atleast_2d",
    "numpy.ravel",
    "numpy.squeeze",
    "numpy.reshape",
}

_LAUNDERING_METHODS = {"copy", "astype", "tolist", "item"}


@register_checker("RL003")
def check_memmap_immutability(project: AnalysisProject) -> Iterable[Finding]:
    findings: List[Finding] = []
    for func in project.index.functions.values():
        if func.qualname in config.MEMMAP_COW_ALLOWED:
            continue
        findings.extend(_check_function(project, func))
    return findings


def _check_function(
    project: AnalysisProject, func: FunctionInfo
) -> Iterable[Finding]:
    scope = project.index.scope_for(func)
    tainted: Set[str] = set()
    if func.class_name is not None:
        for cls_name, attr in config.MEMMAP_TAINTED_ATTRS:
            if cls_name == func.class_name:
                tainted.add(f"self.{attr}")
    findings: List[Finding] = []

    body = getattr(func.node, "body", [])
    for stmt in body:
        _walk_stmt(stmt, scope, tainted, findings, func)
    return findings


def _walk_stmt(
    stmt: ast.stmt,
    scope,
    tainted: Set[str],
    findings: List[Finding],
    func: FunctionInfo,
) -> None:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return  # nested defs get their own pass via the function index
    if isinstance(stmt, ast.Assign):
        value_tainted = _is_tainted_expr(stmt.value, scope, tainted)
        _check_expr(stmt.value, scope, tainted, findings, func)
        for target in stmt.targets:
            _check_store(target, scope, tainted, findings, func)
            _rebind(target, value_tainted, scope, tainted)
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        value_tainted = _is_tainted_expr(stmt.value, scope, tainted)
        _check_expr(stmt.value, scope, tainted, findings, func)
        _check_store(stmt.target, scope, tainted, findings, func)
        _rebind(stmt.target, value_tainted, scope, tainted)
    elif isinstance(stmt, ast.AugAssign):
        symbol = _symbol_of(stmt.target, scope)
        base_symbol = _base_symbol(stmt.target, scope)
        if (symbol is not None and symbol in tainted) or (
            base_symbol is not None and base_symbol in tainted
        ):
            _report(
                findings,
                func,
                stmt,
                base_symbol or symbol or "<expr>",
                "augmented assignment mutates a memory-mapped array in place",
            )
    else:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                _walk_stmt(child, scope, tainted, findings, func)
            elif isinstance(child, ast.expr):
                _check_expr(child, scope, tainted, findings, func)
            elif isinstance(child, (ast.excepthandler,)):
                for inner in child.body:
                    _walk_stmt(inner, scope, tainted, findings, func)


def _rebind(
    target: ast.expr, value_tainted: bool, scope, tainted: Set[str]
) -> None:
    """Track taint through rebinding — but only a plain name/attribute
    *rebinds*; ``arr[0] = x`` stores into the existing (still tainted)
    array."""
    if not isinstance(target, (ast.Name, ast.Attribute)):
        return
    symbol = _symbol_of(target, scope)
    if symbol is None:
        return
    if value_tainted:
        tainted.add(symbol)
    else:
        tainted.discard(symbol)


def _check_store(
    target: ast.expr,
    scope,
    tainted: Set[str],
    findings: List[Finding],
    func: FunctionInfo,
) -> None:
    """A store into ``tainted[x] = ...`` or ``tainted.attr = ...``."""
    if isinstance(target, ast.Subscript):
        base_symbol = _symbol_of(target.value, scope)
        if base_symbol is not None and base_symbol in tainted:
            _report(
                findings,
                func,
                target,
                base_symbol,
                "subscript store mutates a memory-mapped array in place",
            )
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _check_store(element, scope, tainted, findings, func)


def _check_expr(
    node: ast.expr,
    scope,
    tainted: Set[str],
    findings: List[Finding],
    func: FunctionInfo,
) -> None:
    for call in [n for n in ast.walk(node) if isinstance(n, ast.Call)]:
        _check_call(call, scope, tainted, findings, func)


def _check_call(
    call: ast.Call,
    scope,
    tainted: Set[str],
    findings: List[Finding],
    func: FunctionInfo,
) -> None:
    # tainted.sort() / tainted.fill(...) / ...
    if isinstance(call.func, ast.Attribute):
        if call.func.attr in config.MUTATING_ARRAY_METHODS:
            base_symbol = _symbol_of(call.func.value, scope)
            if base_symbol is not None and base_symbol in tainted:
                _report(
                    findings,
                    func,
                    call,
                    base_symbol,
                    f".{call.func.attr}() mutates a memory-mapped array in place",
                )
    # np.copyto(tainted, ...) / np.place / np.putmask / np.put
    symbol = render(call.func, scope)
    if symbol is not None:
        plain = symbol[:-2] if symbol.endswith("()") else symbol
        if plain in config.MUTATING_FIRST_ARG_SYMBOLS and call.args:
            first_symbol = _symbol_of(call.args[0], scope)
            if first_symbol is not None and first_symbol in tainted:
                _report(
                    findings,
                    func,
                    call,
                    first_symbol,
                    f"{plain}() writes into a memory-mapped array",
                )
    # out=tainted on any numpy call
    for keyword in call.keywords:
        if keyword.arg == "out":
            out_symbol = _symbol_of(keyword.value, scope)
            if out_symbol is not None and out_symbol in tainted:
                _report(
                    findings,
                    func,
                    call,
                    out_symbol,
                    "out= targets a memory-mapped array",
                )


def _is_tainted_expr(node: ast.expr, scope, tainted: Set[str]) -> bool:
    """Does evaluating ``node`` yield (a view of) a memmap?"""
    if isinstance(node, ast.Call):
        symbol = render(node.func, scope)
        if symbol is not None:
            plain = symbol[:-2] if symbol.endswith("()") else symbol
            if plain in config.MEMMAP_PRODUCER_SYMBOLS:
                return True
            if plain in config.NUMPY_LOAD_SYMBOLS:
                return any(kw.arg == "mmap_mode" for kw in node.keywords)
            if plain in _PASSTHROUGH_CALLS and node.args:
                return _is_tainted_expr(node.args[0], scope, tainted)
        # tainted.copy() / .astype() launder; tainted.anything_else() doesn't
        # propagate (conservative: method results are untainted).
        return False
    if isinstance(node, ast.Subscript):
        return _is_tainted_expr(node.value, scope, tainted)
    if isinstance(node, (ast.Name, ast.Attribute)):
        symbol = _symbol_of(node, scope)
        return symbol is not None and symbol in tainted
    if isinstance(node, ast.IfExp):
        return _is_tainted_expr(node.body, scope, tainted) or _is_tainted_expr(
            node.orelse, scope, tainted
        )
    return False


def _symbol_of(node: ast.expr, scope) -> Optional[str]:
    """Stable symbol for a storable expression (no aliasing through scope —
    the taint set tracks *names as written*, so alias expansion would
    conflate distinct arrays)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _symbol_of(node.value, scope)
        if inner is None:
            return None
        return f"{inner}.{node.attr}"
    if isinstance(node, ast.Subscript):
        # element of a tainted container (e.g. self.arrays["lower_bounds"])
        return _symbol_of(node.value, scope)
    return None


def _base_symbol(node: ast.expr, scope) -> Optional[str]:
    if isinstance(node, ast.Subscript):
        return _symbol_of(node.value, scope)
    return None


def _report(
    findings: List[Finding],
    func: FunctionInfo,
    node: ast.AST,
    symbol: str,
    what: str,
) -> None:
    findings.append(
        Finding(
            rule_id="RL003",
            path=func.module.rel_path,
            line=node.lineno,
            col=node.col_offset,
            symbol=(
                f"{func.class_name}.{func.name}" if func.class_name else func.name
            ),
            message=f"{what} ({symbol})",
            hint=(
                "promote to a private copy first (np.array(x, copy=True)) or "
                "route the write through the copy-on-write path "
                "(IndexShard._promote_columns -> _write_column); if the "
                "mapping is opened writeable on purpose, suppress with "
                "# reprolint: disable=RL003(reason)"
            ),
        )
    )
