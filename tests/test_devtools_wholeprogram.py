"""Tests for the whole-program analysis layer.

Covers the shared engine (:mod:`repro.devtools.callgraph` and the AST
cache), the project rules REP011/REP013 against seeded fixture packages,
SARIF byte-stability, and autofix idempotency.
"""

import json
import textwrap

from repro.cli import main as cli_main
from repro.devtools import run_lint
from repro.devtools.astcache import AstCache
from repro.devtools.callgraph import ProjectContext
from repro.devtools.engine import iter_python_files
from repro.devtools.sarif import render_sarif

def write_package(root, files):
    """Materialise ``{relative_path: source}`` as a package tree."""
    for relative, source in files.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
        probe = target.parent
        while probe != root:
            init = probe / "__init__.py"
            if not init.exists():
                init.write_text("")
            probe = probe.parent


def project_for(root):
    cache = AstCache()
    return ProjectContext(cache.contexts(iter_python_files([str(root)])))


def lint_package(root, rules=None):
    return run_lint([str(root)], rule_ids=rules).findings


class TestCallGraph:
    def fixture(self, tmp_path):
        write_package(
            tmp_path,
            {
                "demo/core.py": """
                    LABEL = "alpha"

                    def helper(x):
                        return x

                    class Engine:
                        def run(self):
                            return helper(1)
                """,
                "demo/app.py": """
                    from demo.core import LABEL, helper

                    def main():
                        from demo import extra
                        return helper(LABEL)
                """,
                "demo/extra.py": "VALUE = 2\n",
            },
        )
        return project_for(tmp_path / "demo")

    def test_indexes_functions_and_methods(self, tmp_path):
        project = self.fixture(tmp_path)
        assert "demo.core:helper" in project.functions
        assert "demo.core:Engine.run" in project.functions
        assert "demo.app:main" in project.functions
        assert project.functions["demo.core:Engine.run"].is_method

    def test_calls_resolve_across_modules(self, tmp_path):
        project = self.fixture(tmp_path)
        sites = project.calls_to["demo.core:helper"]
        callers = sorted(site.caller for site in sites)
        assert callers == ["demo.app:main", "demo.core:Engine.run"]

    def test_runtime_graph_skips_function_local_imports(self, tmp_path):
        # REP006 layering sees import-time edges only.
        graph, _ = self.fixture(tmp_path).runtime_import_graph()
        assert graph["demo.app"] == {"demo.core"}

    def test_resolves_constants_across_modules(self, tmp_path):
        project = self.fixture(tmp_path)
        ctx = project.by_module["demo.app"]
        call = next(
            record
            for record in project.call_records
            if record.callee == "demo.core:helper" and record.ctx is ctx
        )
        folded, value = project.resolve_constant(ctx, call.node.args[0])
        assert folded and value == "alpha"

    def test_param_bindings_collects_every_call_site(self, tmp_path):
        write_package(
            tmp_path,
            {
                "wires/flow.py": """
                    def wire(label):
                        return label

                    def first():
                        return wire("x")

                    def second():
                        return wire("y")
                """,
            },
        )
        project = project_for(tmp_path / "wires")
        bindings = project.param_bindings("wires.flow:wire", "label")
        assert bindings is not None
        assert [value for _, value in bindings] == ["x", "y"]


class TestAstCacheParsesOnce:
    def test_repeat_lint_reuses_parses(self, tmp_path):
        write_package(
            tmp_path,
            {"once/a.py": "A = 1\n", "once/b.py": "B = 2\n"},
        )
        cache = AstCache()
        run_lint([str(tmp_path / "once")], cache=cache)
        first = cache.parses
        assert first == len(cache)
        run_lint([str(tmp_path / "once")], cache=cache)
        assert cache.parses == first


class TestRep011Lineage:
    def test_detects_direct_label_collision(self, tmp_path):
        write_package(
            tmp_path,
            {
                "lineage/streams.py": """
                    from repro.sim.rng import derive_rng

                    def one(master):
                        return derive_rng(master, "scan")

                    def two(master):
                        return derive_rng(master, "scan")
                """,
            },
        )
        findings = lint_package(tmp_path / "lineage", rules=["REP011"])
        assert len(findings) == 1
        assert "is also derived at" in findings[0].message

    def test_detects_collision_through_parameter_fork(self, tmp_path):
        write_package(
            tmp_path,
            {
                "forked/flow.py": """
                    from repro.sim.rng import derive_rng

                    def make(master, label):
                        return derive_rng(master, label)

                    def first(master):
                        return make(master, "alpha")

                    def second(master):
                        return make(master, "alpha")
                """,
            },
        )
        findings = lint_package(tmp_path / "forked", rules=["REP011"])
        assert len(findings) == 1
        assert "alpha" in findings[0].message

    def test_distinct_labels_do_not_collide(self, tmp_path):
        write_package(
            tmp_path,
            {
                "clean/streams.py": """
                    from repro.sim.rng import derive_rng

                    def one(master):
                        return derive_rng(master, "scan")

                    def two(master):
                        return derive_rng(master, "crawl")
                """,
            },
        )
        assert lint_package(tmp_path / "clean", rules=["REP011"]) == []

    def test_detects_module_scope_escape(self, tmp_path):
        write_package(
            tmp_path,
            {"escape/state.py": "import random\n\nSTATE = random.Random(3)\n"},
        )
        findings = lint_package(tmp_path / "escape", rules=["REP011"])
        assert len(findings) == 1
        assert "escapes into a module" in findings[0].message

    def test_detects_default_argument_escape(self, tmp_path):
        write_package(
            tmp_path,
            {
                "defaults/fn.py": """
                    import random

                    def draw(rng=random.Random(0)):
                        return rng.random()
                """,
            },
        )
        findings = lint_package(tmp_path / "defaults", rules=["REP011"])
        assert len(findings) == 1
        assert "default" in findings[0].message


class TestRep013ShardSafety:
    def lint(self, tmp_path, body, name="shard.py"):
        target = tmp_path / name
        target.write_text(textwrap.dedent(body))
        return run_lint([str(target)], rule_ids=["REP013"]).findings

    def test_detects_captured_state_mutation(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            from repro.parallel import pmap

            def run(items):
                results = []

                def worker(item, item_rng):
                    results.append(item)
                    return item

                return pmap(worker, items)
            """,
        )
        assert len(findings) == 1
        assert "mutates captured state 'results'" in findings[0].message

    def test_detects_argument_mutation(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            from repro.parallel import pmap

            def run(shared, items):
                def worker(item, item_rng):
                    shared.update({item: True})
                    return item

                return pmap(worker, items)
            """,
        )
        assert findings
        assert any("captured state 'shared'" in f.message for f in findings)

    def test_detects_ambient_randomness(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            import random

            from repro.parallel import pmap

            def run(items):
                def worker(item, item_rng):
                    return item + random.random()

                return pmap(worker, items)
            """,
        )
        assert len(findings) == 1
        assert "random.random()" in findings[0].message

    def test_pure_worker_with_item_rng_is_clean(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            from repro.parallel import pmap

            def run(items):
                def worker(item, item_rng):
                    return item + item_rng.random()

                return pmap(worker, items)
            """,
        )
        assert findings == []


class TestSarifOutput:
    def seed_violation(self, tmp_path):
        target = tmp_path / "seeded.py"
        target.write_text("import random\nrng = random.Random(0)\n")
        return target

    def test_sarif_is_byte_stable(self, tmp_path):
        target = self.seed_violation(tmp_path)
        findings = run_lint([str(target)]).findings
        first = render_sarif(findings)
        second = render_sarif(findings)
        assert first == second
        assert first.endswith("\n")

    def test_sarif_document_shape(self, tmp_path):
        target = self.seed_violation(tmp_path)
        document = json.loads(render_sarif(run_lint([str(target)]).findings))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert "REP011" in rule_ids and "REP013" in rule_ids
        results = run["results"]
        assert results
        for result in results:
            assert result["partialFingerprints"]

    def test_cli_sarif_output_is_stable(self, tmp_path, capsys):
        target = self.seed_violation(tmp_path)
        assert cli_main(["lint", str(target), "--format", "sarif"]) == 1
        first = capsys.readouterr().out
        assert cli_main(["lint", str(target), "--format", "sarif"]) == 1
        assert capsys.readouterr().out == first
        json.loads(first)


class TestCliFix:
    def test_fix_rewrites_and_is_idempotent(self, tmp_path, capsys):
        target = tmp_path / "order.py"
        target.write_text("def names(xs):\n    return list(set(xs))\n")
        assert cli_main(["lint", str(target), "--fix", "--rules", "REP005"]) == 0
        out = capsys.readouterr().out
        assert "1 file(s) fixed" in out
        assert "sorted(set(xs))" in target.read_text()
        after_first = target.read_text()
        assert cli_main(["lint", str(target), "--fix", "--rules", "REP005"]) == 0
        assert "file(s) fixed" not in capsys.readouterr().out
        assert target.read_text() == after_first

    def test_nested_fixes_converge_through_the_relint_loop(self, tmp_path, capsys):
        # The inner list(set(...)) fix overlaps the outer one, so the first
        # pass skips it; the CLI's re-lint finds it again and applies it.
        target = tmp_path / "nested.py"
        target.write_text("def names(xs):\n    return list(set(list(set(xs))))\n")
        assert cli_main(["lint", str(target), "--fix", "--rules", "REP005"]) == 0
        assert "1 file(s) fixed" in capsys.readouterr().out
        assert target.read_text() == (
            "def names(xs):\n    return sorted(set(sorted(set(xs))))\n"
        )
