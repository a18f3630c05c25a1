"""Source checks: the determinism and layering rules, run over the tree.

One integer seed replays the paper's measurement run byte for byte.  The
conventions that keep it so are checked here by plain stdlib-``ast``
functions over ``src/repro`` and ``examples``:

* REP001/REP002 — streams come from ``derive_rng``/``split_rng`` only;
* REP004 — library code raises the ``repro.errors`` hierarchy;
* REP005 — no set is consumed in hash order;
* REP006 — the import-time graph keeps its layers and has no cycle;
* REP008 — no catch-all or silently swallowed exception;
* REP003/007/009/010/014/015 — the capability fences, one row each of
  :data:`FENCES`: the wall clock, raw concurrency, ad-hoc output and
  timing, raw artifact writes, teardown interception and raw sockets each
  belong to the one layer that implements them.

The checks are syntactic: every pattern they flag has the sanctioned
rewrite in its message.  Each finding is one ``path:line: RULE message``
line; ``tests/goldens/source_checks.txt`` pins the findings over the
seeded cases of :data:`tests.goldens.cases.SOURCE_CASES`.
"""

from __future__ import annotations

import ast
import graphlib
import pathlib
import tempfile
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

import pytest

from tests.goldens.cases import (
    FENCE_PLACES,
    FLAG,
    SOURCE_CASES,
    write_source_cases,
)

REPO = pathlib.Path(__file__).resolve().parent.parent

#: What the checks walk, relative to the repository root.
ROOTS = ("src/repro", "examples")

#: (line, rule, message) of one finding inside one file.
Hit = Tuple[int, str, str]


def module_name(path: pathlib.Path) -> str:
    """Dotted module name by walking up the ``__init__.py`` package chain."""
    directory = path.resolve().parent
    parts = [] if path.stem == "__init__" else [path.stem]
    while (directory / "__init__.py").is_file():
        parts.append(directory.name)
        directory = directory.parent
    return ".".join(reversed(parts))


@dataclass
class Source:
    """One parsed file: ``path`` is posix, relative to the checked base."""

    path: str
    module: str
    tree: ast.Module
    nodes: List[ast.AST] = field(init=False)
    #: Local name -> dotted origin of every aliased or level-0 ``from`` import.
    origins: Dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.nodes = list(ast.walk(self.tree))
        self.origins = {}
        for node in self.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.origins[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.origins[local] = f"{node.module}.{alias.name}"

    def call_names(self, call: ast.Call) -> Tuple[str, ...]:
        """A call's dotted target as spelled, then with its head resolved.

        After ``import datetime as _dt``, ``_dt.datetime.now()`` gives
        ``("_dt.datetime.now", "datetime.datetime.now")``; a target whose
        head is no imported name gives only the spelling, and one that is
        no dotted name gives ().
        """
        parts = []
        node = call.func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return ()
        spelled = ".".join([node.id, *reversed(parts)])
        origin = self.origins.get(node.id)
        if origin is None:
            return (spelled,)
        return (spelled, origin + spelled[len(node.id) :])


def load_sources(base: pathlib.Path, roots: Sequence[str]) -> List[Source]:
    """Every ``.py`` file under ``base/root`` for each root, parsed."""
    return [
        Source(
            path.relative_to(base).as_posix(),
            module_name(path),
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
        )
        for root in roots
        for path in sorted((base / root).rglob("*.py"))
    ]


# -- per-file rules ---------------------------------------------------------- #


def _is_getrandbits_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "getrandbits"
    )


def raw_rng(source: Source) -> Iterator[Hit]:
    """REP001: raw ``random.Random(...)``; REP002: re-seeding from its draws.

    Every stream must come from ``derive_rng(seed, *path)``, so the (seed,
    path) -> stream mapping is stable across processes and code growth, or
    from ``split_rng(rng, *path)``, which hashes in a path so sibling splits
    stay uncorrelated.  ``sim/rng.py`` implements both and is exempt.
    """
    if source.path.endswith("sim/rng.py"):
        return
    for node in source.nodes:
        if not isinstance(node, ast.Call):
            continue
        if "random.Random" not in source.call_names(node):
            continue
        if any(_is_getrandbits_call(arg) for arg in node.args):
            yield node.lineno, "REP002", (
                "ad-hoc stream split via getrandbits re-seeding; use "
                "repro.sim.rng.split_rng(rng, *path)"
            )
        else:
            yield node.lineno, "REP001", (
                "raw RNG construction; derive streams with "
                "repro.sim.rng.derive_rng(seed, *path)"
            )


#: Builtin exception types that must not be raised from library code.
_FORBIDDEN_RAISES = {"ValueError", "RuntimeError", "TypeError", "KeyError"}


def builtin_raise(source: Source) -> Iterator[Hit]:
    """REP004: callers catch ``ReproError`` to tell library failures from
    bugs; a builtin raise escapes that net."""
    for node in source.nodes:
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id in _FORBIDDEN_RAISES:
            yield node.lineno, "REP004", (
                f"raise {exc.id} bypasses the repro.errors hierarchy; raise "
                "a ReproError subclass"
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


def set_order(source: Source) -> Iterator[Hit]:
    """REP005: ``list(set(x))`` and ``for item in set(x)`` iterate in hash
    order, which PYTHONHASHSEED perturbs for str/bytes elements."""
    for node in source.nodes:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
            and _is_set_expr(node.args[0])
        ):
            yield node.lineno, "REP005", (
                f"{node.func.id}(set(...)) materialises hash order; use "
                "sorted(...) for a stable ordering"
            )
        elif isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(node.iter):
            yield node.lineno, "REP005", (
                "iterating a set expression in hash order; wrap it in sorted(...)"
            )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            # A set comprehension is exempt: its result is unordered anyway.
            for comp in node.generators:
                if _is_set_expr(comp.iter):
                    yield comp.iter.lineno, "REP005", (
                        "comprehension over a set expression iterates in "
                        "hash order; wrap it in sorted(...)"
                    )


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
    """Whether the body is nothing but ``pass``/``...``: the failure vanishes."""
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in handler.body
    )


def swallowed_exception(source: Source) -> Iterator[Hit]:
    """REP008: a catch-all handler erases the transient/permanent line the
    fault taxonomy draws, and a ``pass`` body erases the failure.  The fault
    plane and the executor absorb failure by design and are exempt."""
    if "repro/faults/" in source.path or "repro/parallel/" in source.path:
        return
    for node in source.nodes:
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node.lineno, "REP008", (
                "bare except catches everything, including "
                "KeyboardInterrupt; name the exception type"
            )
            continue
        wide = set(caught_names(node)) & {"Exception", "BaseException"}
        if wide:
            yield node.lineno, "REP008", (
                f"except {', '.join(sorted(wide))} hides which failure "
                "occurred; catch a specific repro.errors subclass"
            )
        elif _swallows_silently(node):
            yield node.lineno, "REP008", (
                "exception swallowed without action; account the failure "
                "(e.g. in a FailureTaxonomy) or let it propagate"
            )


# -- capability fences ------------------------------------------------------- #


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
    allowed: Tuple[str, ...] = ()
    calls: Mapping[str, str] = field(default_factory=dict)
    imports: Tuple[str, ...] = ()
    import_message: str = ""
    handlers: frozenset = frozenset()
    handler_message: str = ""
    bare_except: str = ""
    match_call: Optional[Callable[[ast.Call], Optional[str]]] = None

    def allows(self, path: str) -> bool:
        return any(
            path.endswith(place) if place.endswith(".py") else place in path
            for place in self.allowed
        )

    def message(self, source: Source, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call):
            names = source.call_names(node)
            for name in names:
                if name in self.calls:
                    return self.calls[name].format(name=names[0])
            return self.match_call(node) if self.match_call else None
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in self.imports:
                    return self.import_message.format(name=alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in self.imports:
                return self.import_message.format(name=node.module)
        elif isinstance(node, ast.ExceptHandler) and self.handlers:
            if node.type is None:
                return self.bare_except
            caught = sorted(set(caught_names(node)) & self.handlers)
            if caught:
                return self.handler_message.format(name=", ".join(caught))
        return None

    def check(self, source: Source) -> Iterator[Hit]:
        if self.allows(source.path):
            return
        for node in source.nodes:
            message = self.message(source, node)
            if message:
                yield node.lineno, self.code, message


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
        and set("wax+") & set(mode.value)
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
        # Ad-hoc writes scatter formats, skip schema versioning and leave
        # torn files when a process dies.  Allowed: the serialisation
        # layer, the artifact store (atomic writes are its job), the
        # metrics exporter, benchmarks, tests, examples and the CLI (it
        # archives reports on request).
        allowed=(
            "repro/io",
            "repro/store/",
            "repro/obs/export",
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

FILE_CHECKS = (raw_rng, builtin_raise, set_order, swallowed_exception) + tuple(
    fence.check for fence in FENCES
)


# -- REP006: the import-time graph ------------------------------------------- #

#: Substrate layers: measurement code sits above them and drives them, so
#: none may import a measurement layer.  The executor, the fault plane
#: (it wraps net), the observability plane (threaded through every layer),
#: the artifact store (stages hand it encode/decode callables) and the
#: supervision plane (it restarts pipelines handed to it as factories) are
#: substrates too.
SUBSTRATE_LAYERS = frozenset(
    {"crypto", "sim", "net", "parallel", "faults", "obs", "store", "supervise"}
)

#: Measurement layers.  The service plane orchestrates experiments and
#: serves their views, so it sits at the top of the graph with them.
MEASUREMENT_LAYERS = frozenset(
    {
        "analysis",
        "classify",
        "client",
        "crawl",
        "detection",
        "experiments",
        "popularity",
        "service",
        "tracking",
        "trawl",
    }
)


def layer_of(module: str) -> str:
    """The second dotted component (``repro.net.geoip`` -> ``net``)."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def iter_imports(tree: ast.Module, module: str) -> Iterator[Tuple[str, int]]:
    """``(imported module candidate, line)`` for each import-time import.

    Walks class bodies and plain ``if``/``try``/``with`` blocks, but not
    function bodies or ``if TYPE_CHECKING:`` guards: those are run-time
    no-ops at import.  ``from pkg import name`` yields both ``pkg`` and
    ``pkg.name`` (the name may be a submodule); relative imports resolve
    against ``module``.
    """
    package_parts = module.split(".")[:-1]

    def resolve_from(node: ast.ImportFrom) -> List[Tuple[str, int]]:
        if node.level == 0:
            base = node.module or ""
        else:
            base = ".".join(package_parts[: len(package_parts) - (node.level - 1)])
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
        if not base:
            return []
        return [(base, node.lineno)] + [
            (f"{base}.{alias.name}", node.lineno) for alias in node.names
        ]

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
            elif isinstance(stmt, (ast.ClassDef, ast.With, ast.AsyncWith)):
                yield from walk(stmt.body)

    yield from walk(tree.body)


def runtime_import_graph(
    sources: Sequence[Source],
) -> Tuple[Dict[str, Set[str]], Dict[Tuple[str, str], int]]:
    """Module -> the checked modules it imports at import time.

    ``import pkg.sub`` edges to its deepest checked prefix; importing one's
    own ancestor package is no edge.  The second map gives the line of each
    edge's first import.
    """
    graph: Dict[str, Set[str]] = {source.module: set() for source in sources}
    edge_lines: Dict[Tuple[str, str], int] = {}
    for source in sources:
        for target, lineno in iter_imports(source.tree, source.module):
            while "." in target and target not in graph:
                target = target.rsplit(".", 1)[0]
            if (
                target not in graph
                or target == source.module
                or source.module.startswith(target + ".")
            ):
                continue
            graph[source.module].add(target)
            edge_lines.setdefault((source.module, target), lineno)
    return graph, edge_lines


def import_cycles(graph: Mapping[str, Set[str]]) -> Iterator[List[str]]:
    """Import cycles as closed paths, each starting at its least module.

    A module's imports run before it, so they are its predecessors.  Each
    cycle found is taken out of the graph before the next search; a tree
    with no cycle yields nothing.
    """
    remaining = {module: sorted(graph[module]) for module in sorted(graph)}
    while True:
        try:
            graphlib.TopologicalSorter(remaining).prepare()
            return
        except graphlib.CycleError as exc:
            # Each node of the reported path is imported by the next.
            path = exc.args[1][:0:-1]
        start = path.index(min(path))
        path = path[start:] + path[:start]
        yield path + path[:1]
        remaining = {
            module: [target for target in targets if target not in path]
            for module, targets in remaining.items()
            if module not in path
        }


def layering(sources: Sequence[Source]) -> Iterator[Tuple[str, int, str, str]]:
    """REP006: substrate-to-measurement imports, and import cycles."""
    path_of = {source.module: source.path for source in sources}
    graph, edge_lines = runtime_import_graph(sources)
    reported = set()
    for module in sorted(graph):
        layer = layer_of(module)
        if layer not in SUBSTRATE_LAYERS:
            continue
        for target in sorted(graph[module]):
            target_layer = layer_of(target)
            if target_layer not in MEASUREMENT_LAYERS:
                continue
            lineno = edge_lines[(module, target)]
            # One ``from pkg.x import y`` line edges to both pkg.x and
            # pkg.x.y; report the breach once.
            if (module, lineno, target_layer) not in reported:
                reported.add((module, lineno, target_layer))
                yield path_of[module], lineno, "REP006", (
                    f"layer violation: {layer} module {module} imports "
                    f"{target} from the measurement layer {target_layer}"
                )
    for cycle in import_cycles(graph):
        yield path_of[cycle[0]], edge_lines[(cycle[0], cycle[1])], "REP006", (
            f"import cycle: {' -> '.join(cycle)}"
        )


def findings(sources: Sequence[Source]) -> List[str]:
    """Every finding over ``sources`` as ``path:line: RULE message``, sorted."""
    found = [
        (source.path, line, rule, message)
        for source in sources
        for check in FILE_CHECKS
        for line, rule, message in check(source)
    ]
    found.extend(layering(sources))
    return [
        f"{path}:{line}: {rule} {message}"
        for path, line, rule, message in sorted(found)
    ]


def seeded_findings() -> List[str]:
    """:func:`findings` over the seeded cases, by paths relative to their
    root, so the lines are the same on every machine.

    The cases live in a temporary directory, not under ``tests/`` (a path
    fragment four fences allow).
    """
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp)
        write_source_cases(base)
        return findings(load_sources(base, sorted(p.name for p in base.iterdir())))


# -- tests ------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def seeded():
    return seeded_findings()


def test_tree_is_clean():
    sources = load_sources(REPO, ROOTS)
    assert len(sources) > 100
    assert findings(sources) == []


@pytest.mark.parametrize("case", sorted(SOURCE_CASES))
def test_seeded_case(seeded, case):
    rule, verdict, _files = SOURCE_CASES[case]
    hits = [
        line
        for line in seeded
        if line.startswith(f"{case}/") and f": {rule} " in line
    ]
    assert bool(hits) == (verdict == FLAG), hits


@pytest.mark.parametrize("fence", FENCES, ids=[fence.code for fence in FENCES])
def test_fence_flags_every_place_it_does_not_allow(seeded, fence):
    fenced = [line for line in seeded if f": {fence.code} " in line]
    flagged = {
        place
        for place in FENCE_PLACES
        if any(line.startswith(f"fences/{place}:") for line in fenced)
    }
    assert flagged == {place for place in FENCE_PLACES if not fence.allows(place)}


# -- the checker's parts ----------------------------------------------------- #


def _source(text: str, path: str = "src/repro/m.py", module: str = "repro.m") -> Source:
    return Source(path, module, ast.parse(text))


def _first_call(source: Source) -> ast.Call:
    return next(node for node in source.nodes if isinstance(node, ast.Call))


def test_module_name_walks_package_chain(tmp_path):
    write_source_cases(tmp_path)
    case = tmp_path / "rep006_relative_import"
    assert module_name(case / "sim" / "clock.py") == "rep006_relative_import.sim.clock"
    assert module_name(case / "__init__.py") == "rep006_relative_import"
    assert module_name(tmp_path / "rep001_literal_seed" / "m.py") == "m"


def test_load_sources_reads_py_files_root_by_root(tmp_path):
    for name in ("b/y.py", "a/x.py", "a/sub/z.py", "a/notes.txt"):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text("X = 1\n", encoding="utf-8")
    (tmp_path / "a" / "__pycache__").mkdir()
    (tmp_path / "a" / "__pycache__" / "x.cpython-311.pyc").write_bytes(b"\0")
    paths = [source.path for source in load_sources(tmp_path, ["b", "a"])]
    assert paths == ["b/y.py", "a/sub/z.py", "a/x.py"]


def test_load_sources_rejects_a_syntax_error(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "broken.py").write_text("def f(:\n", encoding="utf-8")
    with pytest.raises(SyntaxError) as excinfo:
        load_sources(tmp_path, ["pkg"])
    assert excinfo.value.filename.endswith("broken.py")


@pytest.mark.parametrize(
    "text, names",
    [
        (
            "import datetime as _dt\n_dt.datetime.now()\n",
            ("_dt.datetime.now", "datetime.datetime.now"),
        ),
        ("from time import perf_counter as pc\npc()\n", ("pc", "time.perf_counter")),
        ("from json import dump\ndump(x, f)\n", ("dump", "json.dump")),
        ("import time\ntime.time()\n", ("time.time",)),
        ("f()()\n", ()),
        ("handles[0].write(b'')\n", ()),
    ],
    ids=[
        "aliased-module",
        "aliased-name",
        "from-import",
        "plain-import",
        "call-of-call",
        "subscript-head",
    ],
)
def test_call_names_resolve_the_imported_head(text, names):
    source = _source(text)
    assert source.call_names(_first_call(source)) == names


def test_message_names_the_call_as_spelled():
    source = _source("import datetime as _dt\nstamp = _dt.datetime.now()\n")
    (hit,) = [hit for fence in FENCES for hit in fence.check(source)]
    assert hit[:2] == (2, "REP003")
    assert hit[2].startswith("wall-clock read _dt.datetime.now(); ")


def test_caught_names_flatten_tuples_and_attributes():
    source = _source(
        "try:\n    pass\nexcept (ValueError, errors.FaultError, other()):\n    raise\n"
    )
    (handler,) = [node for node in source.nodes if isinstance(node, ast.ExceptHandler)]
    assert list(caught_names(handler)) == ["ValueError", "FaultError"]


@pytest.mark.parametrize(
    "path, allowed",
    [
        ("src/repro/cli.py", True),
        ("src/repro/cli.py.orig/m.py", False),
        ("tests/test_scan.py", True),
        ("src/repro/tests.py", False),
    ],
)
def test_fence_allows_a_py_suffix_or_a_path_fragment(path, allowed):
    fence = Fence("REP999", allowed=("repro/cli.py", "tests/"))
    assert fence.allows(path) is allowed


@pytest.mark.parametrize(
    "call, flagged",
    [
        ("open(path, 'a')", True),
        ("open(path, 'x')", True),
        ("open(path, 'r+')", True),
        ("open(path, mode='wb')", True),
        ("open(path, 'rb')", False),
        ("open(path, mode)", False),
        ("path.open('ab')", True),
        ("path.open()", False),
    ],
)
def test_artifact_write_reads_the_open_mode(call, flagged):
    (rep010,) = [fence for fence in FENCES if fence.code == "REP010"]
    hits = list(rep010.check(_source(f"{call}\n")))
    assert bool(hits) is flagged, hits


@pytest.mark.parametrize(
    "text, module, imports",
    [
        ("import a.b\n", "p.m", [("a.b", 1)]),
        ("from a import b, c\n", "p.m", [("a", 1), ("a.b", 1), ("a.c", 1)]),
        ("from ..x import y\n", "p.q.m", [("p.x", 1), ("p.x.y", 1)]),
        ("from . import y\n", "p.q.m", [("p.q", 1), ("p.q.y", 1)]),
        ("from .. import x\n", "p.m", []),
        (
            "if TYPE_CHECKING:\n    import a\nelse:\n    import b\n",
            "p.m",
            [("b", 4)],
        ),
        ("if typing.TYPE_CHECKING:\n    import a\n", "p.m", []),
        (
            "try:\n    import a\nexcept ImportError:\n    import b\n"
            "else:\n    import c\nfinally:\n    import d\n",
            "p.m",
            [("a", 2), ("b", 4), ("c", 6), ("d", 8)],
        ),
        ("class K:\n    import a\n", "p.m", [("a", 2)]),
        ("with lock:\n    import a\n", "p.m", [("a", 2)]),
        ("def f():\n    import a\n", "p.m", []),
    ],
    ids=[
        "import",
        "from-import",
        "relative-parent",
        "relative-package",
        "relative-above-top",
        "type-checking-guard",
        "type-checking-attribute",
        "try-blocks",
        "class-body",
        "with-body",
        "function-body",
    ],
)
def test_iter_imports_walks_what_runs_at_import(text, module, imports):
    assert list(iter_imports(ast.parse(text), module)) == imports


def test_runtime_graph_skips_function_local_imports(tmp_path):
    write_source_cases(tmp_path)
    case = "rep006_function_local_import"
    graph, _ = runtime_import_graph(load_sources(tmp_path, [case]))
    assert graph[f"{case}.app"] == {f"{case}.core"}


def _package_sources(files: Mapping[str, str]) -> List[Source]:
    return [
        _source(text, f"p/{name}", module)
        for name, text in sorted(files.items())
        for module in ["p" if name == "__init__.py" else f"p.{name[:-3]}"]
    ]


def test_runtime_graph_edges_to_the_deepest_checked_prefix():
    graph, edge_lines = runtime_import_graph(
        _package_sources(
            {
                "__init__.py": "",
                "a.py": "import os\n\nimport p.b.helper\nfrom p.b import helper\n",
                "b.py": "",
            }
        )
    )
    assert graph == {"p": set(), "p.a": {"p.b"}, "p.b": set()}
    assert edge_lines[("p.a", "p.b")] == 3


def test_runtime_graph_has_no_edge_to_an_ancestor_package():
    graph, _ = runtime_import_graph(
        _package_sources(
            {"__init__.py": "", "a.py": "import p\nfrom p import b\n", "b.py": ""}
        )
    )
    assert graph["p.a"] == {"p.b"}


@pytest.mark.parametrize(
    "graph, cycles",
    [
        ({"a": {"b"}, "b": set()}, []),
        ({"a": {"c"}, "c": {"b"}, "b": {"a"}}, [["a", "c", "b", "a"]]),
        (
            {"a": {"b"}, "b": {"a"}, "c": {"d"}, "d": {"c"}},
            [["a", "b", "a"], ["c", "d", "c"]],
        ),
    ],
    ids=["acyclic", "import-path-order", "disjoint-cycles"],
)
def test_import_cycles_follow_the_import_path(graph, cycles):
    assert list(import_cycles(graph)) == cycles


@pytest.mark.parametrize(
    "module, layer",
    [("repro.net.geoip", "net"), ("repro.service", "service"), ("repro", "repro")],
)
def test_layer_of_is_the_second_component(module, layer):
    assert layer_of(module) == layer


def test_layering_reports_a_from_import_breach_once():
    sources = [
        _source("", "p/__init__.py", "p"),
        _source("", "p/experiments/__init__.py", "p.experiments"),
        _source("X = 1\n", "p/experiments/campaign.py", "p.experiments.campaign"),
        _source(
            "from p.experiments import campaign\n", "p/crypto/keys.py", "p.crypto.keys"
        ),
    ]
    assert list(layering(sources)) == [
        (
            "p/crypto/keys.py",
            1,
            "REP006",
            "layer violation: crypto module p.crypto.keys imports "
            "p.experiments from the measurement layer experiments",
        )
    ]


def test_findings_are_sorted_path_line_rule_lines():
    sources = [
        _source("raise ValueError('x')\nitems = list(set(xs))\n", "b.py", "b"),
        _source("import random\nrng = random.Random(7)\n", "a.py", "a"),
    ]
    lines = findings(sources)
    assert [line.split(" ", 2)[:2] for line in lines] == [
        ["a.py:2:", "REP001"],
        ["b.py:1:", "REP004"],
        ["b.py:2:", "REP005"],
    ]
