"""Tests for repro.store.keys — cache-key derivation.

The property pair that matters: a key is *insensitive* to irrelevant
permutations (dict insertion order, tuple-vs-list spelling) and
*sensitive* to every real change (any config field, the stage name, the
code fingerprint, upstream digests, the RNG cursor).  The code
fingerprint's import scan is checked against an AST walk of the package.
"""

import ast
import enum
import pathlib
import textwrap

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.errors import StoreError
from repro.store.keys import (
    EXEMPT_LAYERS,
    CacheKey,
    canonicalize,
    code_fingerprint,
    import_closure,
    resolve_import,
    scan_imports,
    scan_module,
)

REPRO_SRC = pathlib.Path(repro.__file__).parent

_scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=12)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_configs = st.dictionaries(
    st.text(min_size=1, max_size=8), _values, min_size=1, max_size=6
)


def _reorder(value):
    """Deep copy with every dict's insertion order reversed."""
    if isinstance(value, dict):
        return {k: _reorder(v) for k, v in reversed(list(value.items()))}
    if isinstance(value, list):
        return [_reorder(item) for item in value]
    return value


class TestKeyProperties:
    @settings(max_examples=60, deadline=None)
    @given(_configs)
    def test_insertion_order_never_changes_the_key(self, config):
        original = CacheKey(stage="s", config=config, fingerprint="f")
        shuffled = CacheKey(stage="s", config=_reorder(config), fingerprint="f")
        assert original.digest() == shuffled.digest()

    @settings(max_examples=60, deadline=None)
    @given(_configs, st.integers())
    def test_changed_field_changes_the_key(self, config, salt):
        name = sorted(config)[0]
        mutated = dict(config)
        mutated[name] = ["__mutant__", salt]
        assume(canonicalize(mutated[name]) != canonicalize(config[name]))
        before = CacheKey(stage="s", config=config, fingerprint="f")
        after = CacheKey(stage="s", config=mutated, fingerprint="f")
        assert before.digest() != after.digest()

    @settings(max_examples=60, deadline=None)
    @given(_configs, st.text(min_size=1, max_size=8))
    def test_added_field_changes_the_key(self, config, name):
        assume(name not in config)
        grown = dict(config)
        grown[name] = "__added__"
        before = CacheKey(stage="s", config=config, fingerprint="f")
        after = CacheKey(stage="s", config=grown, fingerprint="f")
        assert before.digest() != after.digest()


class TestKeyFields:
    def test_every_field_is_load_bearing(self):
        base = dict(
            stage="scan", config={"seed": 7}, fingerprint="f" * 64,
            upstream=("scan=abc",), cursor="c" * 64,
        )
        reference = CacheKey(**base).digest()
        for field_name, changed in [
            ("stage", "crawl"),
            ("config", {"seed": 8}),
            ("fingerprint", "0" * 64),
            ("upstream", ("scan=def",)),
            ("cursor", "d" * 64),
        ]:
            variant = dict(base)
            variant[field_name] = changed
            assert CacheKey(**variant).digest() != reference, field_name

    def test_canonical_form_is_stable(self):
        key = CacheKey(stage="s", config={"b": 1, "a": 2}, fingerprint="f")
        assert key.canonical() == {
            "stage": "s",
            "config": {"a": 2, "b": 1},
            "fingerprint": "f",
            "upstream": [],
            "cursor": "",
        }


class TestCanonicalize:
    def test_tuple_and_list_spell_the_same_value(self):
        assert canonicalize((1, 2, 3)) == canonicalize([1, 2, 3])

    def test_sets_are_sorted(self):
        assert canonicalize({3, 1, 2}) == [1, 2, 3]
        assert canonicalize(frozenset({"b", "a"})) == ["a", "b"]

    def test_enums_collapse_to_values(self):
        class Kind(enum.Enum):
            OPEN = "open"

        assert canonicalize({"k": Kind.OPEN}) == {"k": "open"}

    def test_non_json_value_rejected(self):
        with pytest.raises(StoreError, match="not canonicalizable"):
            canonicalize({"x": object()})


class TestCodeFingerprint:
    def test_module_order_never_matters(self):
        a = code_fingerprint(("repro.sim.rng", "repro.sim.clock"))
        b = code_fingerprint(("repro.sim.clock", "repro.sim.rng"))
        assert a == b

    def test_module_set_is_load_bearing(self):
        a = code_fingerprint(("repro.sim.rng",))
        b = code_fingerprint(("repro.sim.clock",))
        assert a != b

    def test_unknown_module_rejected(self):
        with pytest.raises(StoreError, match="cannot fingerprint"):
            code_fingerprint(("repro.no_such_module",))


def ast_imports(source):
    """The oracle: every ``repro`` import an AST walk of ``source`` finds."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            }
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative imports are not scanned"
            if node.module.split(".")[0] == "repro":
                found |= {(node.module, alias.name) for alias in node.names}
    return found


def module_name(path):
    parts = path.relative_to(REPRO_SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


UNBALANCED_DOCSTRING = '''
"""Example: from repro.k import (
"""
from repro.m import n
'''


class TestImportScan:
    def test_scan_covers_every_ast_import_in_the_package(self):
        # A module the scan misses drops out of every closure that should
        # hold it, and the store then replays stale artifacts after edits
        # to it — the one cache bug no runtime check can see.
        misses = {}
        for path in sorted(REPRO_SRC.rglob("*.py")):
            module = module_name(path)
            expected = {
                resolve_import(base, name)
                for base, name in ast_imports(path.read_text(encoding="utf-8"))
            } - {module}
            missed = expected - scan_module(module)[1]
            if missed:
                misses[module] = sorted(missed)
        assert misses == {}

    @pytest.mark.parametrize(
        "source",
        [
            # Parenthesised, multi-line, with comments holding parens.
            """
            from repro.a import (  # the (first) group
                b,  # trailing ) in a comment
                c as d,
            )
            from repro.e import f
            """,
            # Several modules on one import, only one of them ours.
            "import a, repro.b\n",
            # A function-local import under an alias.
            """
            def main():
                from repro import io as repro_io
                return repro_io
            """,
            # A second statement after a semicolon.
            "x = 1; import repro.y\n",
            # Consecutive single-line imports (a greedy match once
            # swallowed the second and dropped it from every closure).
            """
            from repro.population.spec import PORT_SKYNET
            from repro.population import botnets
            """,
            # Backslash continuation and a TYPE_CHECKING guard.
            """
            from typing import TYPE_CHECKING
            from repro.g import h, \\
                i
            if TYPE_CHECKING:
                import repro.j as j
            """,
            # An unbalanced paren in a docstring must not hide what follows.
            UNBALANCED_DOCSTRING,
        ],
    )
    def test_scan_matches_the_ast(self, source):
        source = textwrap.dedent(source)
        assert ast_imports(source)
        assert scan_imports(source) >= ast_imports(source)

    def test_resolution_keeps_the_deepest_module(self):
        assert resolve_import("repro", "io") == "repro.io"
        assert resolve_import("repro.crawl", "Crawler") == "repro.crawl"
        assert resolve_import("repro.crawl.page", None) == "repro.crawl.page"
        assert resolve_import("repro.no_such_module", None) == "repro"


class TestImportClosure:
    def test_import_closure_includes_function_local_imports(self):
        # Table II imports repro.popularity.timeseries only inside a
        # function.
        source = (REPRO_SRC / "experiments" / "table2_popularity.py").read_text()
        top_level = ast.parse(source).body
        assert not any(
            isinstance(node, ast.ImportFrom)
            and (node.module or "") == "repro.popularity.timeseries"
            for node in top_level
        )
        table2 = "repro.experiments.table2_popularity"
        assert "repro.popularity.timeseries" in scan_module(table2)[1]
        assert "repro.popularity.timeseries" in import_closure((table2,))

    def test_exempt_layers_are_not_entered(self):
        closure = import_closure(("repro.experiments.pipeline",))
        assert not {module.split(".")[1] for module in closure} & EXEMPT_LAYERS
        # A root is hashed wherever it lives.
        assert import_closure(("repro.store.cas",)) == {"repro.store.cas"}

    def test_src_imports_name_defining_modules(self):
        # An import binds its deepest module, so a name taken from a
        # package's re-exports puts that package's __init__ into the
        # closure instead of the module that defines the name.
        via_package = set()
        for path in sorted(REPRO_SRC.rglob("*.py")):
            for base, name in ast_imports(path.read_text(encoding="utf-8")):
                package = REPRO_SRC.parent.joinpath(*base.split("."), "__init__.py")
                if name and package.is_file() and resolve_import(base, name) == base:
                    via_package.add(f"{module_name(path)}: from {base} import {name}")
        assert via_package == set()

    def test_closure_reaches_transitive_imports(self):
        # harvest imports the attack where it computes, and only the
        # attack imports the shadow fleet: a two-hop chain.
        harvest = "repro.experiments.harvest"
        assert "repro.trawl.shadowing" not in scan_module(harvest)[1]
        assert "repro.trawl.shadowing" in scan_module("repro.trawl.attack")[1]
        closure = import_closure((harvest,))
        assert {"repro.trawl.attack", "repro.trawl.shadowing"} <= closure
