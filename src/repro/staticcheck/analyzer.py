"""Intraprocedural taint analysis over Python ASTs.

One :class:`ModuleAnalysis` per file: it discovers module-level lookup
tables (and tables imported from sibling modules), then runs a
flow-insensitive-per-pass, fixpoint-iterated taint pass over every
function and method.

Taint seeding (per function)
    Parameters named in the :class:`~repro.staticcheck.secrets.SecretConfig`,
    parameters listed in a ``@secret_params(...)`` decorator, and
    attribute reads whose attribute name is configured secret or listed
    in the enclosing class's ``@secret_attributes(...)`` decorator.

Propagation
    Assignments (including tuple unpacking, augmented assignment, and
    comprehension targets), arithmetic/bitwise/comparison expressions,
    subscripts of tainted containers, and calls with tainted arguments
    or a tainted receiver.  Taint only ever *grows* within a function
    (weak updates): re-assigning a tainted name to a public value does
    not clear it.  That over-approximates, but it makes the loop
    fixpoint sound without per-branch environments — the right trade
    for a leak detector.

Sinks
    * tainted subscript index           -> ``table-lookup``
    * ``map(getitem, tables, <tainted>)`` -> ``table-lookup``
    * tainted ``if``/ternary/``assert`` -> ``branch``
    * tainted ``while``/``for`` bound   -> ``loop-bound``
    * tainted ``MemoryAccess(address=)``-> ``memory-address``

Suppression
    A trailing ``# staticcheck: ignore`` comment silences every sink on
    that line; ``# staticcheck: ignore[branch,loop-bound]`` silences
    only the listed kinds.  (File-level known-intentional leaks belong
    in the baseline file instead — see :mod:`repro.staticcheck.baseline`.)
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cache.geometry import CacheGeometry, PAPER_DEFAULT_GEOMETRY
from .findings import (
    Finding,
    SinkKind,
    default_leak_bits,
    default_severity,
    table_finding_message,
)
from .secrets import DEFAULT_SECRET_CONFIG, SecretConfig
from .tables import TableInfo, collect_imported_names, collect_module_tables

#: Upper bound on fixpoint passes over one function body (taint can only
#: grow, and each pass adds at least one name, so this is generous).
_MAX_PASSES = 10

_IGNORE_PRAGMA = re.compile(
    r"#\s*staticcheck:\s*ignore(?:\[(?P<kinds>[a-z\-,\s]*)\])?"
)

#: Constructor names whose ``address`` argument is an address sink.
_ADDRESS_SINK_CALLEES = frozenset({"MemoryAccess"})


def _decorator_secret_names(decorators: Sequence[ast.expr],
                            decorator_name: str) -> Set[str]:
    """String arguments of ``@<decorator_name>(...)`` decorators."""
    names: Set[str] = set()
    for decorator in decorators:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        target = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if target != decorator_name:
            continue
        for arg in decorator.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names.add(arg.value)
    return names


def _callee_simple_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@dataclass
class _FunctionContext:
    """Mutable state of one function's taint pass."""

    qualname: str
    tainted: Set[str]
    #: Local names aliasing known tables (``table = GIFT_SBOX``).
    table_aliases: Dict[str, TableInfo]
    #: Which source seeded the taint, for the report.
    sources: Tuple[str, ...]


class ModuleAnalysis:
    """Analyse one module's source, collecting leak findings."""

    def __init__(self, source: str, path: str, module: str = "",
                 config: SecretConfig = DEFAULT_SECRET_CONFIG,
                 geometry: CacheGeometry = PAPER_DEFAULT_GEOMETRY,
                 external_tables: Optional[Dict[Tuple[str, str], TableInfo]]
                 = None) -> None:
        self.path = path
        self.module = module
        self.config = config
        self.geometry = geometry
        self.source_lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.tables = collect_module_tables(self.tree, module)
        if external_tables:
            imports = collect_imported_names(self.tree, module)
            for local, (origin, original) in imports.items():
                if local in self.tables:
                    continue
                info = external_tables.get((origin, original))
                if info is not None:
                    self.tables[local] = info
        self.functions_analyzed = 0
        self._findings: Dict[Tuple[int, int, str], Finding] = {}
        self._class_attrs: frozenset = frozenset()

    # ----------------------------------------------------------- driving

    def run(self) -> List[Finding]:
        """Analyse every function in the module; return its findings."""
        self._walk_body(self.tree.body, prefix="", class_attrs=frozenset())
        ordered = sorted(self._findings.values(),
                         key=lambda f: (f.line, f.column, f.kind.value))
        return ordered

    def _walk_body(self, body: Sequence[ast.stmt], prefix: str,
                   class_attrs: frozenset) -> None:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{statement.name}"
                self._analyze_function(statement, qualname, class_attrs)
                self._walk_body(statement.body, prefix=f"{qualname}.",
                                class_attrs=class_attrs)
            elif isinstance(statement, ast.ClassDef):
                attrs = class_attrs | _decorator_secret_names(
                    statement.decorator_list, "secret_attributes"
                )
                self._walk_body(statement.body,
                                prefix=f"{prefix}{statement.name}.",
                                class_attrs=attrs)

    # ------------------------------------------------------- per function

    def _analyze_function(self, node: ast.FunctionDef, qualname: str,
                          class_attrs: frozenset) -> None:
        self.functions_analyzed += 1
        annotated = _decorator_secret_names(node.decorator_list,
                                            "secret_params")
        arg_names = [a.arg for a in (
            list(node.args.posonlyargs) + list(node.args.args)
            + list(node.args.kwonlyargs)
        )]
        if node.args.vararg:
            arg_names.append(node.args.vararg.arg)
        if node.args.kwarg:
            arg_names.append(node.args.kwarg.arg)
        seeds = {
            name for name in arg_names
            if name in annotated or name in self.config.param_names
        }
        context = _FunctionContext(
            qualname=qualname,
            tainted=set(seeds),
            table_aliases={},
            sources=tuple(sorted(seeds)),
        )
        self._class_attrs = class_attrs
        for _ in range(_MAX_PASSES):
            before = (len(context.tainted), len(context.table_aliases),
                      len(self._findings))
            self._exec_block(node.body, context)
            after = (len(context.tainted), len(context.table_aliases),
                     len(self._findings))
            if after == before:
                break

    # --------------------------------------------------------- statements

    def _exec_block(self, body: Sequence[ast.stmt],
                    ctx: _FunctionContext) -> None:
        for statement in body:
            self._exec_statement(statement, ctx)

    def _exec_statement(self, node: ast.stmt, ctx: _FunctionContext) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs are analysed separately by _walk_body
        if isinstance(node, ast.Assign):
            tainted = self._eval(node.value, ctx)
            for target in node.targets:
                self._bind_target(target, tainted, node.value, ctx)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                tainted = self._eval(node.value, ctx)
                self._bind_target(node.target, tainted, node.value, ctx)
        elif isinstance(node, ast.AugAssign):
            tainted = self._eval(node.value, ctx)
            if tainted:
                self._bind_target(node.target, True, None, ctx)
        elif isinstance(node, ast.If):
            if self._eval(node.test, ctx):
                self._sink(node.test, SinkKind.BRANCH, ctx)
            self._exec_block(node.body, ctx)
            self._exec_block(node.orelse, ctx)
        elif isinstance(node, ast.While):
            if self._eval(node.test, ctx):
                self._sink(node.test, SinkKind.LOOP_BOUND, ctx)
            self._exec_block(node.body, ctx)
            self._exec_block(node.orelse, ctx)
        elif isinstance(node, ast.For):
            iter_tainted = self._eval(node.iter, ctx)
            if iter_tainted and self._is_range_call(node.iter):
                self._sink(node.iter, SinkKind.LOOP_BOUND, ctx)
            if iter_tainted:
                self._bind_target(node.target, True, None, ctx)
            self._exec_block(node.body, ctx)
            self._exec_block(node.orelse, ctx)
        elif isinstance(node, ast.Assert):
            if self._eval(node.test, ctx):
                self._sink(node.test, SinkKind.BRANCH, ctx)
            if node.msg is not None:
                self._eval(node.msg, ctx)
        elif isinstance(node, ast.Expr):
            self._eval(node.value, ctx)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self._eval(node.value, ctx)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self._eval(node.exc, ctx)
        elif isinstance(node, ast.With):
            for item in node.items:
                tainted = self._eval(item.context_expr, ctx)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, tainted, None, ctx)
            self._exec_block(node.body, ctx)
        elif isinstance(node, ast.Try):
            self._exec_block(node.body, ctx)
            for handler in node.handlers:
                self._exec_block(handler.body, ctx)
            self._exec_block(node.orelse, ctx)
            self._exec_block(node.finalbody, ctx)
        elif isinstance(node, (ast.Delete, ast.Pass, ast.Break, ast.Continue,
                               ast.Global, ast.Nonlocal, ast.Import,
                               ast.ImportFrom)):
            return
        elif isinstance(node, ast.Match):
            if self._eval(node.subject, ctx):
                self._sink(node.subject, SinkKind.BRANCH, ctx)
            for case in node.cases:
                self._exec_block(case.body, ctx)

    def _bind_target(self, target: ast.expr, tainted: bool,
                     value: Optional[ast.expr], ctx: _FunctionContext) -> None:
        if isinstance(target, ast.Name):
            if tainted:
                ctx.tainted.add(target.id)
            if value is not None:
                alias = self._resolve_table_expr(value, ctx)
                if alias is not None:
                    ctx.table_aliases[target.id] = alias
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, tainted, None, ctx)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, tainted, None, ctx)
        # Subscript/attribute targets: container-level taint is not
        # tracked per element; reads through tainted containers already
        # propagate, so nothing further to record here.

    # -------------------------------------------------------- expressions

    def _eval(self, node: ast.expr, ctx: _FunctionContext) -> bool:
        """Return whether ``node`` evaluates to a tainted value,
        recording any sinks encountered inside it."""
        if isinstance(node, ast.Name):
            return node.id in ctx.tainted
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value, ctx)
            return (base or node.attr in self.config.attribute_names
                    or node.attr in self._class_attrs)
        if isinstance(node, ast.Subscript):
            value_tainted = self._eval(node.value, ctx)
            index_tainted = self._eval(node.slice, ctx)
            if index_tainted and isinstance(node.ctx, ast.Load):
                self._table_sink(node, node.value, ctx)
            return value_tainted or index_tainted
        if isinstance(node, ast.Slice):
            return any(
                self._eval(part, ctx)
                for part in (node.lower, node.upper, node.step)
                if part is not None
            )
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, ctx)
            right = self._eval(node.right, ctx)
            return left or right
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, ctx)
        if isinstance(node, ast.BoolOp):
            return any(self._eval(v, ctx) for v in node.values)
        if isinstance(node, ast.Compare):
            results = [self._eval(node.left, ctx)]
            results.extend(self._eval(c, ctx) for c in node.comparators)
            return any(results)
        if isinstance(node, ast.IfExp):
            if self._eval(node.test, ctx):
                self._sink(node.test, SinkKind.BRANCH, ctx)
            body = self._eval(node.body, ctx)
            orelse = self._eval(node.orelse, ctx)
            return body or orelse
        if isinstance(node, ast.Call):
            return self._eval_call(node, ctx)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self._eval(e, ctx) for e in node.elts)
        if isinstance(node, ast.Dict):
            parts = [k for k in node.keys if k is not None] + list(node.values)
            return any(self._eval(p, ctx) for p in parts)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(node.generators, [node.elt], ctx)
        if isinstance(node, ast.DictComp):
            return self._eval_comprehension(node.generators,
                                            [node.key, node.value], ctx)
        if isinstance(node, ast.JoinedStr):
            return any(self._eval(v, ctx) for v in node.values)
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value, ctx)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, ctx)
        if isinstance(node, ast.NamedExpr):
            tainted = self._eval(node.value, ctx)
            self._bind_target(node.target, tainted, node.value, ctx)
            return tainted
        if isinstance(node, ast.Lambda):
            return False
        if isinstance(node, ast.Await):
            return self._eval(node.value, ctx)
        return False  # constants, ellipsis, etc.

    def _eval_call(self, node: ast.Call, ctx: _FunctionContext) -> bool:
        receiver_tainted = False
        if isinstance(node.func, ast.Attribute):
            receiver_tainted = self._eval(node.func.value, ctx)
        arg_taint = [self._eval(arg, ctx) for arg in node.args]
        kw_taint = {
            kw.arg: self._eval(kw.value, ctx) for kw in node.keywords
        }
        callee = _callee_simple_name(node.func)
        # ``map(getitem, tables, indices)`` is ``tables[i][indices[i]]``.
        if (callee == "map" and len(node.args) >= 3
                and _callee_simple_name(node.args[0]) == "getitem"
                and any(arg_taint[2:])):
            self._table_sink(node, node.args[1], ctx)
        if callee in _ADDRESS_SINK_CALLEES:
            address_tainted = kw_taint.get("address", False) or (
                bool(arg_taint) and arg_taint[0]
            )
            if address_tainted:
                self._sink(node, SinkKind.MEMORY_ADDRESS, ctx)
        if callee in self.config.declassifiers:
            return False
        return receiver_tainted or any(arg_taint) or any(kw_taint.values())

    def _eval_comprehension(self, generators: Sequence[ast.comprehension],
                            elements: Sequence[ast.expr],
                            ctx: _FunctionContext) -> bool:
        tainted_iter = False
        for generator in generators:
            iter_tainted = self._eval(generator.iter, ctx)
            tainted_iter = tainted_iter or iter_tainted
            if iter_tainted:
                self._bind_target(generator.target, True, None, ctx)
            for condition in generator.ifs:
                if self._eval(condition, ctx):
                    self._sink(condition, SinkKind.BRANCH, ctx)
        element_tainted = any(self._eval(e, ctx) for e in elements)
        return element_tainted or tainted_iter

    # -------------------------------------------------------------- sinks

    @staticmethod
    def _is_range_call(node: ast.expr) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "range")

    def _resolve_table_expr(self, node: ast.expr, ctx: _FunctionContext
                            ) -> Optional[TableInfo]:
        """Resolve an expression to a known module-level table."""
        if isinstance(node, ast.Name):
            if node.id in ctx.table_aliases:
                return ctx.table_aliases[node.id]
            return self.tables.get(node.id)
        if isinstance(node, ast.IfExp):
            return (self._resolve_table_expr(node.body, ctx)
                    or self._resolve_table_expr(node.orelse, ctx))
        if isinstance(node, ast.Attribute):
            return self.tables.get(node.attr)
        return None

    def _suppressed(self, node: ast.AST, kind: SinkKind) -> bool:
        lineno = getattr(node, "lineno", 0)
        if not 1 <= lineno <= len(self.source_lines):
            return False
        match = _IGNORE_PRAGMA.search(self.source_lines[lineno - 1])
        if match is None:
            return False
        kinds = match.group("kinds")
        if not kinds or not kinds.strip():
            return True
        listed = {k.strip() for k in kinds.split(",") if k.strip()}
        return kind.value in listed

    def _table_sink(self, node: ast.expr, table: ast.expr,
                    ctx: _FunctionContext) -> None:
        """Record a lookup into ``table`` at a secret index."""
        if self._suppressed(node, SinkKind.TABLE_LOOKUP):
            return
        info = self._resolve_table_expr(table, ctx)
        finding = Finding(
            path=self.path,
            line=node.lineno,
            column=node.col_offset,
            function=ctx.qualname,
            kind=SinkKind.TABLE_LOOKUP,
            expression=ast.unparse(node),
            message=table_finding_message(
                info.qualified_name if info else None,
                info.total_bytes if info else None,
                self.geometry,
            ),
            table=info.qualified_name if info else None,
            table_bytes=info.total_bytes if info else None,
            secret_sources=", ".join(ctx.sources),
        )
        finding = finding.with_geometry(self.geometry)
        self._record(finding)

    def _sink(self, node: ast.AST, kind: SinkKind,
              ctx: _FunctionContext) -> None:
        if self._suppressed(node, kind):
            return
        messages = {
            SinkKind.BRANCH: "branch condition depends on secret data "
                             "(execution time reveals the predicate)",
            SinkKind.LOOP_BOUND: "loop trip count depends on secret data "
                                 "(execution time reveals the bound)",
            SinkKind.MEMORY_ADDRESS: "secret-dependent address reaches the "
                                     "modelled memory bus (MemoryAccess)",
        }
        finding = Finding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            column=getattr(node, "col_offset", 0),
            function=ctx.qualname,
            kind=kind,
            expression=ast.unparse(node) if isinstance(node, ast.expr)
            else "",
            message=messages[kind],
            leak_bits=default_leak_bits(kind),
            severity=default_severity(kind),
            secret_sources=", ".join(ctx.sources),
        )
        self._record(finding)

    def _record(self, finding: Finding) -> None:
        key = (finding.line, finding.column, finding.kind.value)
        self._findings.setdefault(key, finding)


def analyze_module_source(source: str, path: str = "<string>",
                          module: str = "",
                          config: SecretConfig = DEFAULT_SECRET_CONFIG,
                          geometry: CacheGeometry = PAPER_DEFAULT_GEOMETRY,
                          external_tables: Optional[
                              Dict[Tuple[str, str], TableInfo]] = None,
                          ) -> List[Finding]:
    """Analyse one module's source text and return its findings."""
    analysis = ModuleAnalysis(source, path, module=module, config=config,
                              geometry=geometry,
                              external_tables=external_tables)
    return analysis.run()
