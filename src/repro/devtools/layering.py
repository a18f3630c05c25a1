"""Which layer may import what (REP006), and which layer may do what.

Measurement code sits *above* the substrates it measures: the crypto, sim,
and net layers must never import the trawl/experiments/analysis layers that
drive them, and the module graph must stay acyclic (module-level imports
only — ``TYPE_CHECKING`` blocks and function-local imports are runtime
no-ops and are excluded, matching how Python actually executes the code).
:func:`runtime_import_graph` builds that graph from the parsed files.

Six capabilities — the wall clock, raw concurrency, ad-hoc output and
timing, raw artifact writes, teardown interception and raw sockets — each
belong to the one layer that implements them.  :data:`FENCES` is that
table: one row per capability, served by one :class:`FenceRule` per row
under the row's own rule id.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.devtools.findings import Finding
from repro.devtools.registry import AstRule, FileContext, ProjectRule, register
from repro.devtools.rules import caught_names

#: Measurement-side subpackages that the low substrate layers may not import.
_MEASUREMENT_LAYERS = frozenset(
    {
        "analysis",
        "classify",
        "client",
        "crawl",
        "detection",
        "experiments",
        "popularity",
        # The service plane orchestrates experiments and serves their
        # views; it sits at the top of the graph like the experiments
        # layer, so every substrate below is forbidden from importing it.
        "service",
        "tracking",
        "trawl",
    }
)

#: subpackage -> subpackages it must not (transitively directly) import.
FORBIDDEN_IMPORTS: Dict[str, frozenset] = {
    "crypto": _MEASUREMENT_LAYERS,
    "sim": _MEASUREMENT_LAYERS,
    "net": _MEASUREMENT_LAYERS,
    # The executor is a substrate too: measurement layers call it, never
    # the other way around.
    "parallel": _MEASUREMENT_LAYERS,
    # The fault plane wraps net and is consumed by measurement layers; it
    # must never reach up into them.
    "faults": _MEASUREMENT_LAYERS,
    # The observability plane is threaded through every layer; if it
    # imported measurement code the dependency arrows would invert.
    "obs": _MEASUREMENT_LAYERS,
    # The artifact store checkpoints measurement stages but must stay
    # payload-agnostic: stages hand it encode/decode callables, so it
    # never needs (and must never take) a measurement-layer import.
    "store": _MEASUREMENT_LAYERS,
    # The supervision plane restarts pipelines it is handed as opaque
    # factories; lower layers receive its crash hook as a plain callable.
    # Neither direction justifies a measurement import.
    "supervise": _MEASUREMENT_LAYERS,
}


def _subpackage_of(module: str) -> str:
    """The layer name: second dotted component (``repro.net.geoip`` → ``net``)."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def iter_imports(tree: ast.Module, module: str) -> Iterator[Tuple[str, int]]:
    """Yield ``(imported_module_candidate, lineno)`` for a module's imports.

    Walks only statements that execute at import time — class bodies and
    plain ``if``/``try`` blocks, but not function bodies or ``if
    TYPE_CHECKING:`` guards.

    ``from pkg import name`` yields both ``pkg`` and ``pkg.name`` — the
    name may bind a submodule or an attribute; :func:`runtime_import_graph`
    keeps whichever actually exists in the scanned set.  Relative imports
    are resolved against ``module``.
    """
    package_parts = module.split(".")[:-1]

    def resolve_from(node: ast.ImportFrom) -> List[Tuple[str, int]]:
        if node.level == 0:
            base = node.module or ""
        else:
            anchor = package_parts[: len(package_parts) - (node.level - 1)]
            base = ".".join(anchor)
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
        if not base:
            return []
        out = [(base, node.lineno)]
        out.extend((f"{base}.{alias.name}", node.lineno) for alias in node.names)
        return out

    def walk(body: Sequence[ast.stmt]) -> Iterator[Tuple[str, int]]:
        for stmt in body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    yield alias.name, stmt.lineno
            elif isinstance(stmt, ast.ImportFrom):
                yield from resolve_from(stmt)
            elif isinstance(stmt, ast.If):
                if not _is_type_checking_test(stmt.test):
                    yield from walk(stmt.body)
                yield from walk(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                yield from walk(stmt.body)
                for handler in stmt.handlers:
                    yield from walk(handler.body)
                yield from walk(stmt.orelse)
                yield from walk(stmt.finalbody)
            elif isinstance(stmt, ast.ClassDef):
                yield from walk(stmt.body)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                yield from walk(stmt.body)

    yield from walk(tree.body)


def runtime_import_graph(
    files: Sequence[FileContext],
) -> Tuple[Dict[str, Set[str]], Dict[Tuple[str, str], int]]:
    """Module → imported scanned modules, import-time edges only.

    Resolution matches Python's runtime behaviour for layering purposes:
    ``from pkg import name`` edges to both ``pkg`` and ``pkg.name`` when
    both are scanned, ``import pkg.sub`` walks up to the deepest scanned
    prefix, and importing one's own ancestor package is not an edge.  The
    second map gives the line of each edge's first import.
    """
    graph: Dict[str, Set[str]] = {ctx.module: set() for ctx in files}
    edge_lines: Dict[Tuple[str, str], int] = {}
    for ctx in files:
        for target, lineno in iter_imports(ctx.tree, ctx.module):
            resolved = target
            while "." in resolved and resolved not in graph:
                resolved = resolved.rsplit(".", 1)[0]
            if resolved not in graph or resolved == ctx.module:
                continue
            if ctx.module.startswith(resolved + "."):
                continue
            graph[ctx.module].add(resolved)
            edge_lines.setdefault((ctx.module, resolved), lineno)
    return graph, edge_lines


def _strongly_connected(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan's SCC, iterative; returns components of size > 1 plus self-loops."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[List[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [(root, iter(sorted(graph[root])))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, edges = work[-1]
            advanced = False
            for succ in edges:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in graph[node]:
                    components.append(sorted(component))
    return components


@register
class LayeringRule(ProjectRule):
    """REP006: layer violations and import cycles across the scanned files."""

    id = "REP006"
    summary = "import-layer violation or cycle"

    def check_project(self, files: Sequence[FileContext]) -> Iterator[Finding]:
        by_module = {ctx.module: ctx for ctx in files}
        graph, edge_lines = runtime_import_graph(files)

        reported: Set[Tuple[str, int, str]] = set()
        for source in sorted(graph):
            source_layer = _subpackage_of(source)
            forbidden = FORBIDDEN_IMPORTS.get(source_layer)
            if not forbidden:
                continue
            for target in sorted(graph[source]):
                target_layer = _subpackage_of(target)
                if target_layer in forbidden:
                    lineno = edge_lines[(source, target)]
                    # One ``from pkg.x import y`` line edges to both pkg.x
                    # and pkg.x.y; report the layer breach once.
                    key = (source, lineno, target_layer)
                    if key in reported:
                        continue
                    reported.add(key)
                    ctx = by_module[source]
                    yield Finding(
                        rule=self.id,
                        file=ctx.path,
                        line=lineno,
                        message=(
                            f"layer violation: {source_layer} module {source} "
                            f"imports {target} from the measurement layer "
                            f"{target_layer}"
                        ),
                        snippet=ctx.line_text(lineno),
                    )

        for component in _strongly_connected(graph):
            anchor = component[0]
            successor = next(
                (m for m in sorted(graph[anchor]) if m in component), anchor
            )
            lineno = edge_lines.get((anchor, successor), 1)
            ctx = by_module[anchor]
            cycle = " -> ".join(component + [component[0]])
            yield Finding(
                rule=self.id,
                file=ctx.path,
                line=lineno,
                message=f"import cycle: {cycle}",
                snippet=ctx.line_text(lineno),
            )


@dataclass(frozen=True)
class Fence:
    """One capability, the only places allowed to use it, and its spellings.

    An ``allowed`` entry ending in ``.py`` matches as a path suffix, any
    other as a path fragment.  ``calls`` maps dotted call targets to a
    message template (``{name}`` is the call as spelled); ``imports``
    fences module roots; ``handlers`` fences caught exception names, and
    ``bare_except`` is the message for a bare ``except``.  ``match_call``
    catches the calls no dotted target names.
    """

    code: str
    summary: str
    allowed: Tuple[str, ...] = ()
    calls: Mapping[str, str] = field(default_factory=dict)
    imports: Tuple[str, ...] = ()
    import_message: str = ""
    handlers: frozenset = frozenset()
    handler_message: str = ""
    bare_except: str = ""
    match_call: Optional[Callable[[ast.Call], Optional[str]]] = None


class FenceRule(AstRule):
    """Flags one fence's capability wherever the fence does not allow it."""

    def __init__(self, fence: Fence) -> None:
        self.fence = fence
        self.id = fence.code
        self.summary = fence.summary

    def applies_to(self, ctx: FileContext) -> bool:
        return not any(
            ctx.path.endswith(place) if place.endswith(".py") else place in ctx.path
            for place in self.fence.allowed
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            message = self._message(ctx, node)
            if message:
                yield Finding(
                    rule=self.id,
                    file=ctx.path,
                    line=node.lineno,
                    message=message,
                    snippet=ctx.line_text(node.lineno),
                )

    def _message(self, ctx: FileContext, node: ast.AST) -> Optional[str]:
        fence = self.fence
        if isinstance(node, ast.Call):
            names = ctx.call_names(node)
            for name in names:
                if name in fence.calls:
                    return fence.calls[name].format(name=names[0])
            return fence.match_call(node) if fence.match_call else None
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in fence.imports:
                    return fence.import_message.format(name=alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in fence.imports:
                return fence.import_message.format(name=node.module)
        elif isinstance(node, ast.ExceptHandler) and fence.handlers:
            if node.type is None:
                return fence.bare_except
            caught = sorted(set(caught_names(node)) & fence.handlers)
            if caught:
                return fence.handler_message.format(name=", ".join(caught))
        return None


#: Characters in an ``open`` mode string that imply writing.
_WRITE_MODE_CHARS = set("wax+")

_AD_HOC_WRITE = (
    " writes an artifact ad hoc; serialise through repro.io or checkpoint "
    "through repro.store"
)


def _write_mode(node: ast.Call, position: int) -> str:
    """The call's constant mode string when it implies writing, else ''.

    ``position`` is where the positional mode argument sits: 1 for the
    ``open(path, mode)`` builtin, 0 for the ``path.open(mode)`` method.
    """
    mode = node.args[position] if len(node.args) > position else None
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and _WRITE_MODE_CHARS & set(mode.value)
    ):
        return mode.value
    return ""


def _artifact_write(call: ast.Call) -> Optional[str]:
    """REP010's own matcher: ``open``/``.open`` writes, ``.write_text/bytes``."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _write_mode(call, 1)
        return f"open(..., {mode!r}){_AD_HOC_WRITE}" if mode else None
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_text", "write_bytes"):
            return f".{func.attr}(...){_AD_HOC_WRITE}"
        if func.attr == "open" and _write_mode(call, 0):
            return f".open(...) in write mode{_AD_HOC_WRITE}"
    return None


FENCES = (
    Fence(
        "REP003",
        "wall-clock call (use the sim clock, or time.perf_counter())",
        # No place may read the wall clock: simulated time comes from
        # repro.sim.clock, and elapsed runtime from the monotonic
        # time.perf_counter(), which this fence deliberately leaves alone.
        calls=dict.fromkeys(
            (
                "time.time",
                "date.today",
                "datetime.now",
                "datetime.utcnow",
                "datetime.today",
                "datetime.date.today",
                "datetime.datetime.now",
                "datetime.datetime.utcnow",
                "datetime.datetime.today",
                "datetime.time.time",
            ),
            "wall-clock read {name}(); simulated time must come from "
            "repro.sim.clock (use time.perf_counter() for elapsed runtime)",
        ),
    ),
    Fence(
        "REP007",
        "raw concurrency primitive (use repro.parallel.pmap)",
        # Every module of the executor package may use the primitives it
        # wraps; elsewhere ad-hoc pools bring back completion-order
        # nondeterminism, so all fan-out goes through pmap.
        allowed=("repro/parallel/",),
        imports=("multiprocessing", "concurrent"),
        import_message="raw concurrency import {name!r}; fan work out "
        "through repro.parallel.pmap so shard order, RNG streams, and merges "
        "stay worker-count-invariant",
    ),
    Fence(
        "REP009",
        "ad-hoc print/perf_counter instrumentation (use repro.obs)",
        # Raw output and timers bypass the deterministic snapshot.  Allowed:
        # the obs plane itself, benchmarks (whose job is timing), tests,
        # examples (whose job is showing output) and the CLI (the
        # user-facing surface: printing reports and elapsed runtimes is
        # its job).
        allowed=(
            "repro/obs/",
            "benchmarks/",
            "tests/",
            "examples/",
            "repro/cli.py",
        ),
        calls={
            "print": "print() in library code is write-only telemetry; "
            "record the fact on a repro.obs Observer (counter, gauge, or "
            "event) so it lands in the deterministic snapshot",
            "time.perf_counter": "ad-hoc perf_counter timing in library "
            "code; wrap the stage in Observer.span(...) so the duration lands "
            "in the deterministic snapshot",
        },
    ),
    Fence(
        "REP010",
        "direct artifact write (use repro.io or repro.store)",
        # Ad-hoc writes scatter formats, skip schema versioning and leave
        # torn files when a process dies.  Allowed: the serialisation
        # layer, the artifact store (atomic writes are its job), the
        # metrics exporter, the lint tooling (baselines), benchmarks,
        # tests, examples and the CLI (it archives reports on request).
        allowed=(
            "repro/io",
            "repro/store/",
            "repro/obs/export",
            "repro/devtools/",
            "benchmarks/",
            "tests/",
            "examples/",
            "repro/cli.py",
        ),
        calls={
            "json.dump": "json.dump(...) writes an artifact ad hoc; serialise "
            "through repro.io (save_json) or checkpoint through repro.store",
        },
        match_call=_artifact_write,
    ),
    Fence(
        "REP014",
        "teardown interception outside repro.supervise",
        # Process death, real or the simulated SimulatedCrashError, must
        # reach the supervision plane untouched: it alone restarts,
        # budgets and accounts for it, so crash-resume stays one auditable
        # path.  Tests and examples exercise teardown on purpose.
        allowed=("repro/supervise/", "tests/", "examples/"),
        calls=dict.fromkeys(
            (
                "signal.signal",
                "signal.setitimer",
                "signal.siginterrupt",
                "signal.set_wakeup_fd",
            ),
            "{name}(...) installs a process-wide signal handler outside the "
            "supervision plane; handler installs belong to repro.supervise so "
            "teardown has a single owner",
        ),
        handlers=frozenset(
            {"BaseException", "KeyboardInterrupt", "SystemExit", "SimulatedCrashError"}
        ),
        handler_message="except {name} intercepts process teardown outside "
        "the supervision plane; crash containment belongs to repro.supervise "
        "alone — catch a repro.errors subclass or let it propagate",
        bare_except="bare except intercepts process teardown "
        "(KeyboardInterrupt, SystemExit, SimulatedCrashError); only "
        "repro.supervise may contain a crash — name a repro.errors exception "
        "type",
    ),
    Fence(
        "REP015",
        "raw socket/HTTP handling (route it through repro.service)",
        # The service front-end is the single network boundary: it owns the
        # one listener, response framing and error taxonomy.  Tests and
        # examples may drive it as clients.
        allowed=("repro/service/", "tests/", "examples/"),
        imports=("asyncio", "http", "selectors", "socket", "socketserver", "wsgiref"),
        import_message="raw network import {name!r}; socket/HTTP handling "
        "belongs to repro.service, which owns the project's single listener, "
        "response framing, and error taxonomy",
    ),
)

for _fence in FENCES:
    register(FenceRule(_fence))
