"""REP013: static race detection for callables handed to ``pmap``.

The deterministic executor's contract is that the mapped callable is a
pure-ish function of ``(item, its derived RNG)``: shard boundaries and
worker counts then cannot change results.  Four shapes break that
contract without breaking any test on the serial path:

* rebinding enclosing state (``nonlocal``/``global``) — workers mutate
  private copies, serial mutates the real one;
* mutating a shared argument or captured object in place (``item["x"] =``,
  ``acc.append(...)``) — order- and process-visibility-dependent;
* reading a *mutable* module global (a dict/list/set built at import
  time) — any writer anywhere races the map;
* drawing randomness from anything but the per-item stream — module-level
  ``random.*`` draws or a generator captured from an enclosing scope
  interleave across items, so results depend on shard order.

The rule resolves the callable at each ``pmap`` call site (lambda, local
or module-level ``def``, ``self.method``, ``functools.partial``) and
scans its body for those shapes.  Capturing enclosing objects and
*calling* them is deliberately allowed: the executor itself sanctions
closure-over-transport callables by falling back to the serial path, and
flagging every capture would bury the four real hazards in noise.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools.findings import Finding
from repro.devtools.layering import PARALLEL_PACKAGE_FRAGMENT
from repro.devtools.registry import AstRule, FileContext, register

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
        "write",
        "writelines",
    }
)

#: Calls whose result is a mutable container (for module-global scanning).
_MUTABLE_FACTORIES = frozenset(
    {"Counter", "OrderedDict", "defaultdict", "deque", "dict", "list", "set"}
)

#: Callables whose result is a live RNG stream (for capture tracking).
_RNG_PRODUCER_NAMES = frozenset(
    {"Random", "derive_rng", "item_rng", "split_rng"}
)


def _param_names(fn: ast.AST) -> Set[str]:
    args = fn.args
    names = {a.arg for a in args.posonlyargs}
    names |= {a.arg for a in args.args}
    names |= {a.arg for a in args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _local_names(fn: ast.AST) -> Set[str]:
    """Names the callable itself binds (assignment/for/with/comprehensions)."""
    locals_: Set[str] = set()
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                locals_.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                locals_.add(node.name)
            elif isinstance(node, ast.comprehension):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        locals_.add(target.id)
    return locals_


def _module_mutable_globals(tree: ast.Module) -> Set[str]:
    """Module-level names bound to mutable containers at import time."""
    mutable: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        is_mutable = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and (
                (
                    isinstance(value.func, ast.Name)
                    and value.func.id in _MUTABLE_FACTORIES
                )
                or (
                    isinstance(value.func, ast.Attribute)
                    and value.func.attr in _MUTABLE_FACTORIES
                )
            )
        )
        if not is_mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                mutable.add(target.id)
    return mutable


def _is_rng_producer_call(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Name):
        return func.id in _RNG_PRODUCER_NAMES
    return isinstance(func, ast.Attribute) and func.attr in _RNG_PRODUCER_NAMES


def _enclosing_rng_names(scopes: Sequence[ast.AST]) -> Set[str]:
    """Names the enclosing scopes bind to RNG-producing calls."""
    names: Set[str] = set()
    for scope in scopes:
        body = scope.body if isinstance(scope.body, list) else [scope.body]
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if (
                    isinstance(node, ast.Assign)
                    and _is_rng_producer_call(node.value)
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                elif (
                    isinstance(node, ast.AnnAssign)
                    and node.value is not None
                    and _is_rng_producer_call(node.value)
                    and isinstance(node.target, ast.Name)
                ):
                    names.add(node.target.id)
    return names


@register
class ShardSafetyRule(AstRule):
    """REP013: pmap callables must not share mutable state across items."""

    id = "REP013"
    summary = "pmap callable shares mutable state across items"

    def applies_to(self, ctx: FileContext) -> bool:
        # The executor package implements the machinery this rule guards.
        return PARALLEL_PACKAGE_FRAGMENT not in ctx.path

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        pmap_names = self._pmap_aliases(ctx)
        module_mutables = _module_mutable_globals(ctx.tree)
        for call, scopes in self._pmap_calls(ctx, pmap_names):
            fn_expr = self._fn_argument(call)
            if fn_expr is None:
                continue
            resolved = self._resolve_callable(ctx, fn_expr, scopes)
            if resolved is None:
                continue
            fn_node, fn_scopes = resolved
            yield from self._check_callable(
                ctx, call, fn_node, fn_scopes, module_mutables
            )

    # -- locating pmap call sites ------------------------------------------- #

    def _pmap_aliases(self, ctx: FileContext) -> Set[str]:
        """Local spellings of the executor's map: {"pmap", alias, "mod.pmap"}."""
        names: Set[str] = set()
        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if base in ("repro.parallel", "repro.parallel.executor"):
                    for alias in node.names:
                        if alias.name == "pmap":
                            names.add(alias.asname or alias.name)
                        elif alias.name == "executor":
                            names.add(f"{alias.asname or alias.name}.pmap")
                elif base == "repro":
                    for alias in node.names:
                        if alias.name == "parallel":
                            names.add(f"{alias.asname or alias.name}.pmap")
        return names

    def _pmap_calls(
        self, ctx: FileContext, pmap_names: Set[str]
    ) -> Iterator[Tuple[ast.Call, Tuple[ast.AST, ...]]]:
        """(call, enclosing function scopes outermost-first) per pmap call."""
        if not pmap_names:
            return

        def spelling(func: ast.AST) -> Optional[str]:
            if isinstance(func, ast.Name):
                return func.id
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                return f"{func.value.id}.{func.attr}"
            return None

        def visit(node: ast.AST, scopes: Tuple[ast.AST, ...]) -> Iterator:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scopes = scopes + (node,)
            if isinstance(node, ast.Call) and spelling(node.func) in pmap_names:
                yield node, scopes
            for child in ast.iter_child_nodes(node):
                yield from visit(child, scopes)

        yield from visit(ctx.tree, ())

    def _fn_argument(self, call: ast.Call) -> Optional[ast.AST]:
        for keyword in call.keywords:
            if keyword.arg == "fn":
                return keyword.value
        if call.args and not isinstance(call.args[0], ast.Starred):
            return call.args[0]
        return None

    # -- resolving the mapped callable -------------------------------------- #

    def _resolve_callable(
        self,
        ctx: FileContext,
        fn_expr: ast.AST,
        scopes: Tuple[ast.AST, ...],
    ) -> Optional[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
        """(callable node, its enclosing scopes), or None if unresolvable."""
        if isinstance(fn_expr, ast.Lambda):
            return fn_expr, scopes
        if (
            isinstance(fn_expr, ast.Call)
            and isinstance(fn_expr.func, (ast.Name, ast.Attribute))
            and (
                (isinstance(fn_expr.func, ast.Name) and fn_expr.func.id == "partial")
                or (
                    isinstance(fn_expr.func, ast.Attribute)
                    and fn_expr.func.attr == "partial"
                )
            )
            and fn_expr.args
        ):
            return self._resolve_callable(ctx, fn_expr.args[0], scopes)
        if isinstance(fn_expr, ast.Name):
            # Innermost enclosing scope defining the name wins, then module.
            for depth in range(len(scopes), -1, -1):
                container = scopes[depth - 1] if depth else ctx.tree
                body = (
                    container.body
                    if isinstance(container.body, list)
                    else [container.body]
                )
                for stmt in body:
                    if (
                        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and stmt.name == fn_expr.id
                    ):
                        return stmt, scopes[:depth] if depth else ()
            return None
        if (
            isinstance(fn_expr, ast.Attribute)
            and isinstance(fn_expr.value, ast.Name)
            and fn_expr.value.id == "self"
        ):
            for node in ctx.nodes:
                if isinstance(node, ast.ClassDef):
                    for stmt in node.body:
                        if (
                            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and stmt.name == fn_expr.attr
                        ):
                            return stmt, ()
        return None

    # -- the checks ---------------------------------------------------------- #

    def _check_callable(
        self,
        ctx: FileContext,
        call: ast.Call,
        fn: ast.AST,
        scopes: Tuple[ast.AST, ...],
        module_mutables: Set[str],
    ) -> Iterator[Finding]:
        params = _param_names(fn)
        locals_ = _local_names(fn) | params
        rng_captures = _enclosing_rng_names(scopes)
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        emitted: Set[Tuple[int, str]] = set()

        def finding(node: ast.AST, message: str) -> Optional[Finding]:
            line = getattr(node, "lineno", call.lineno)
            key = (line, message)
            if key in emitted:
                return None
            emitted.add(key)
            return Finding(
                rule=self.id,
                file=ctx.path,
                line=line,
                message=message,
                snippet=ctx.line_text(line),
            )

        for stmt in body:
            for node in ast.walk(stmt):
                result = self._check_node(
                    node, params, locals_, rng_captures, module_mutables, finding
                )
                for item in result:
                    if item is not None:
                        yield item

    def _check_node(
        self,
        node: ast.AST,
        params: Set[str],
        locals_: Set[str],
        rng_captures: Set[str],
        module_mutables: Set[str],
        finding,
    ) -> List[Optional[Finding]]:
        out: List[Optional[Finding]] = []
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            kind = "global" if isinstance(node, ast.Global) else "nonlocal"
            out.append(
                finding(
                    node,
                    f"pmap callable rebinds enclosing state via {kind} "
                    f"{', '.join(node.names)}; workers mutate private "
                    "copies while the serial path mutates the original — "
                    "return per-item results and merge after",
                )
            )
            return out
        base = self._mutation_base(node)
        if base is not None:
            name, how = base
            if name in params:
                out.append(
                    finding(
                        node,
                        f"pmap callable mutates its argument {name!r} "
                        f"({how}); in-process shards share the object while "
                        "worker processes copy it — build and return a new "
                        "value instead",
                    )
                )
            elif name not in locals_:
                out.append(
                    finding(
                        node,
                        f"pmap callable mutates captured state {name!r} "
                        f"({how}); shard execution order then changes the "
                        "result — return per-item results and merge after "
                        "the map",
                    )
                )
            return out
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in module_mutables and node.id not in locals_:
                out.append(
                    finding(
                        node,
                        f"pmap callable reads mutable module global "
                        f"{node.id!r}; any writer races the map — pass the "
                        "data in through the item or a frozen snapshot",
                    )
                )
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                out.append(
                    finding(
                        node,
                        f"pmap callable draws random.{func.attr}() from the "
                        "global stream; draws interleave across shards — "
                        "derive per-item randomness with item_rng",
                    )
                )
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in rng_captures
                and func.value.id not in locals_
            ):
                out.append(
                    finding(
                        node,
                        f"pmap callable draws from RNG {func.value.id!r} "
                        "captured from an enclosing scope; every item "
                        "advances one shared stream, so shard order changes "
                        "the draws — derive per-item streams with item_rng",
                    )
                )
        return out

    def _mutation_base(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        """(root name, description) when ``node`` mutates through a name."""
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = _root_name(target)
                    if root is not None:
                        kind = (
                            "item assignment"
                            if isinstance(target, ast.Subscript)
                            else "attribute assignment"
                        )
                        return root, kind
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS and isinstance(
                node.func.value, ast.Name
            ):
                return node.func.value.id, f".{node.func.attr}(...)"
        return None


def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None
