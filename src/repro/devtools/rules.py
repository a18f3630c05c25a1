"""Per-file AST rules REP001, REP002, REP004, REP005 and REP008.

Each rule walks the file's AST and yields :class:`Finding` objects.  The
rules are deliberately syntactic — no type inference — so every pattern
they flag has a sanctioned rewrite documented in the finding message.
The capability fences (REP003, REP007, REP009, REP010, REP014, REP015)
are one table in :mod:`repro.devtools.layering`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devtools.findings import Finding, Fix
from repro.devtools.registry import AstRule, FileContext, register

#: The one module allowed to construct random.Random / reseed streams raw:
#: it *implements* derive_rng and split_rng.
RNG_MODULE_SUFFIXES = ("sim/rng.py",)


def _finding(
    rule: "AstRule",
    ctx: FileContext,
    node: ast.AST,
    message: str,
    fix: Optional[Fix] = None,
) -> Finding:
    line = getattr(node, "lineno", 1)
    return Finding(
        rule=rule.id,
        file=ctx.path,
        line=line,
        message=message,
        snippet=ctx.line_text(line),
        fix=fix,
    )


def _source_segment(ctx: FileContext, node: ast.AST) -> Optional[str]:
    """The exact source text a node spans, or None without end positions."""
    end_line = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    if end_line is None or end_col is None:
        return None
    if end_line == node.lineno:
        return ctx.lines[node.lineno - 1][node.col_offset : end_col]
    parts = [ctx.lines[node.lineno - 1][node.col_offset :]]
    parts.extend(ctx.lines[node.lineno : end_line - 1])
    parts.append(ctx.lines[end_line - 1][:end_col])
    return "\n".join(parts)


def _replace_with(node: ast.AST, replacement: str) -> Optional[Fix]:
    """A fix replacing exactly the node's span, when the span is known."""
    end_line = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    if end_line is None or end_col is None:
        return None
    return Fix(
        start_line=node.lineno,
        start_col=node.col_offset,
        end_line=end_line,
        end_col=end_col,
        replacement=replacement,
    )


def _wrap_sorted(ctx: FileContext, node: ast.AST) -> Optional[Fix]:
    """A fix wrapping the node's source in ``sorted(...)``."""
    segment = _source_segment(ctx, node)
    if segment is None:
        return None
    return _replace_with(node, f"sorted({segment})")


def _is_getrandbits_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "getrandbits"
    )


@register
class RawSeedRule(AstRule):
    """REP001: raw ``random.Random(...)`` construction outside sim/rng.py.

    Every stream must come from ``derive_rng(seed, *path)`` (or
    ``split_rng`` for mid-flight forks) so that the (seed, path) → stream
    mapping is stable across processes and code growth.
    """

    id = "REP001"
    summary = "raw random.Random construction (use derive_rng(seed, *path))"
    allowed_path_suffixes = RNG_MODULE_SUFFIXES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            if "random.Random" not in ctx.call_names(node):
                continue
            if any(_is_getrandbits_call(arg) for arg in node.args):
                continue  # that shape is REP002's to report
            yield _finding(
                self,
                ctx,
                node,
                "raw RNG construction; derive streams with "
                "repro.sim.rng.derive_rng(seed, *path)",
            )


@register
class AdHocSplitRule(AstRule):
    """REP002: stream splitting via ``random.Random(rng.getrandbits(n))``.

    Re-seeding from raw draws couples the child stream to the parent's
    draw position without any path separation; ``split_rng(rng, *path)``
    hashes in an explicit path so sibling splits stay uncorrelated.
    """

    id = "REP002"
    summary = "ad-hoc getrandbits re-seeding (use split_rng(rng, *path))"
    allowed_path_suffixes = RNG_MODULE_SUFFIXES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            if "random.Random" not in ctx.call_names(node):
                continue
            if any(_is_getrandbits_call(arg) for arg in node.args):
                yield _finding(
                    self,
                    ctx,
                    node,
                    "ad-hoc stream split via getrandbits re-seeding; use "
                    "repro.sim.rng.split_rng(rng, *path)",
                )


#: Builtin exception types that must not be raised from library code.
_FORBIDDEN_RAISES = {"ValueError", "RuntimeError", "TypeError", "KeyError"}


@register
class BuiltinRaiseRule(AstRule):
    """REP004: builtin exceptions raised where a repro.errors subclass fits.

    Callers catch :class:`repro.errors.ReproError` to distinguish library
    failures from genuine bugs; builtin raises silently escape that net.
    """

    id = "REP004"
    summary = "builtin exception raised (use the repro.errors hierarchy)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _FORBIDDEN_RAISES:
                yield _finding(
                    self,
                    ctx,
                    node,
                    f"raise {name} bypasses the repro.errors hierarchy; raise "
                    "a ReproError subclass",
                )


def _is_set_expr(node: ast.AST) -> bool:
    """A set literal, set comprehension, or set()/frozenset() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register
class SetOrderingRule(AstRule):
    """REP005: order-sensitive consumption of an unordered set.

    ``list(set(x))`` and ``for item in set(x)`` iterate in hash order,
    which PYTHONHASHSEED perturbs for str/bytes elements; wrap the set in
    ``sorted(...)`` before anything order-sensitive consumes it.
    """

    id = "REP005"
    summary = "nondeterministic set ordering (wrap in sorted(...))"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
                and _is_set_expr(node.args[0])
            ):
                # list(set(x)) → sorted(set(x)) keeps the dedup and returns
                # a list; tuple(...) keeps its wrapper, sorting the inner.
                if node.func.id == "list":
                    segment = _source_segment(ctx, node.args[0])
                    fix = (
                        _replace_with(node, f"sorted({segment})")
                        if segment is not None
                        else None
                    )
                else:
                    fix = _wrap_sorted(ctx, node.args[0])
                yield _finding(
                    self,
                    ctx,
                    node,
                    f"{node.func.id}(set(...)) materialises hash order; use "
                    "sorted(...) for a stable ordering",
                    fix=fix,
                )
            elif isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(
                node.iter
            ):
                yield _finding(
                    self,
                    ctx,
                    node,
                    "iterating a set expression in hash order; wrap it in "
                    "sorted(...)",
                    fix=_wrap_sorted(ctx, node.iter),
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                # SetComp is exempt: its result is unordered regardless.
                for comp in node.generators:
                    if _is_set_expr(comp.iter):
                        yield _finding(
                            self,
                            ctx,
                            comp.iter,
                            "comprehension over a set expression iterates in "
                            "hash order; wrap it in sorted(...)",
                            fix=_wrap_sorted(ctx, comp.iter),
                        )


#: Packages whose job is absorbing failure: the fault/retry plane and the
#: executor may catch broadly by design.
_SWALLOW_EXEMPT_FRAGMENTS = ("repro/faults/", "repro/parallel/")

#: Catch-all exception names a handler must not use outside exempt packages.
_CATCH_ALL_NAMES = {"Exception", "BaseException"}


def caught_names(handler: ast.ExceptHandler) -> Iterator[str]:
    """The exception type names a handler catches (tuples flattened)."""
    node = handler.type
    if node is None:
        return
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    for element in elements:
        if isinstance(element, ast.Name):
            yield element.id
        elif isinstance(element, ast.Attribute):
            yield element.attr


def _swallows_silently(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body discards the exception without acting.

    A body that is nothing but ``pass`` / ``...`` statements neither
    re-raises, nor logs, nor substitutes a value — the failure vanishes.
    """
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            if stmt.value.value is Ellipsis:
                continue
        return False
    return True


@register
class ExceptionSwallowRule(AstRule):
    """REP008: catch-all handlers / silent swallowing outside the fault plane.

    A bare ``except``, ``except Exception`` or ``except BaseException``
    erases the distinction the fault taxonomy exists to draw — transient vs
    permanent failure — and a handler whose body is only ``pass`` erases
    the failure entirely.  Catch a specific :class:`repro.errors.ReproError`
    subclass and account the failure, or let it propagate.
    """

    id = "REP008"
    summary = "catch-all or silently swallowed exception"

    def applies_to(self, ctx: FileContext) -> bool:
        return not any(
            fragment in ctx.path for fragment in _SWALLOW_EXEMPT_FRAGMENTS
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield _finding(
                    self,
                    ctx,
                    node,
                    "bare except catches everything, including "
                    "KeyboardInterrupt; name the exception type",
                )
                continue
            caught = set(caught_names(node))
            if caught & _CATCH_ALL_NAMES:
                wide = ", ".join(sorted(caught & _CATCH_ALL_NAMES))
                yield _finding(
                    self,
                    ctx,
                    node,
                    f"except {wide} hides which failure occurred; catch a "
                    "specific repro.errors subclass",
                )
            elif _swallows_silently(node):
                yield _finding(
                    self,
                    ctx,
                    node,
                    "exception swallowed without action; account the "
                    "failure (e.g. in a FailureTaxonomy) or let it "
                    "propagate",
                )
