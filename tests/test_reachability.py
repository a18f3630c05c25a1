"""Every ``src/repro`` module is reached by something the repo runs.

The roots are the entry points a user or a harness runs: ``repro.cli`` and
``repro.__main__``, the ``repro`` modules that ``examples/*.py`` and
``benchmarks/*.py`` import, and the modules named in
``benchmark/trace_shim.py``'s ``ENTRY_POINTS``, whose wrappers every traced
benchmark run installs.  The closure follows ``repro`` import statements
with the store's own scanner (:func:`repro.store.keys.scan_module`), across
every layer, so a module whose last non-test importer goes away fails here.
"""

import importlib
import importlib.util
import pathlib

import repro
from repro.store.keys import resolve_import, scan_imports, scan_module

REPRO_SRC = pathlib.Path(repro.__file__).parent
REPO = pathlib.Path(__file__).resolve().parent.parent
CONSUMER_DIRS = ("examples", "benchmarks")


def load_trace_shim():
    """``benchmark/trace_shim.py`` as a module, without running or
    installing anything (its top level only defines names)."""
    spec = importlib.util.spec_from_file_location(
        "trace_shim", REPO / "benchmark" / "trace_shim.py"
    )
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    return shim


def module_name(path):
    parts = path.relative_to(REPRO_SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def script_imports(path):
    """The ``repro`` modules a script outside ``src`` imports."""
    found = {
        resolve_import(base, name)
        for base, name in scan_imports(path.read_text(encoding="utf-8"))
    }
    found.discard(None)
    return found


def entry_point_specs(shim):
    return [spec for specs in shim.ENTRY_POINTS.values() for spec in specs]


def roots():
    found = {"repro.cli", "repro.__main__"}
    for directory in CONSUMER_DIRS:
        for path in sorted((REPO / directory).glob("*.py")):
            found |= script_imports(path)
    found |= {spec.split(":")[0] for spec in entry_point_specs(load_trace_shim())}
    return found


def reachable(start):
    """``start`` plus every module its imports reach, in every layer.

    Importing a module first runs the ``__init__`` of each package that
    holds it, so those packages are reached too, and so is what they import.
    """
    seen = set()
    pending = list(start)
    while pending:
        module = pending.pop()
        if module in seen:
            continue
        seen.add(module)
        pending.extend(scan_module(module)[1] - seen)
        if "." in module:
            pending.append(module.rsplit(".", 1)[0])
    return seen


class TestReachability:
    def test_every_module_is_reached(self):
        modules = {module_name(path) for path in REPRO_SRC.rglob("*.py")}
        unreached = sorted(modules - reachable(roots()))
        assert unreached == [], (
            "modules no command, example, benchmark or traced entry point "
            f"imports: {unreached}"
        )


class TestTraceShimEntryPoints:
    def test_every_entry_point_resolves(self):
        # Every traced CI run installs a wrapper on each of these names.
        unresolved = []
        for spec in entry_point_specs(load_trace_shim()):
            module, qualname = spec.split(":")
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            for part in qualname.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                unresolved.append(spec)
        assert unresolved == []
