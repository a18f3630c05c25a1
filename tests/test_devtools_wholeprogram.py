"""Tests for the lint engine's project-wide layer.

Covers the runtime import graph REP006 reads, the parse-once AST cache,
SARIF byte-stability, and autofix idempotency.
"""

import json
import textwrap

from repro.cli import main as cli_main
from repro.devtools import all_rules, run_lint
from repro.devtools.astcache import AstCache
from repro.devtools.autofix import apply_fixes
from repro.devtools.baseline import apply_baseline
from repro.devtools.engine import iter_python_files
from repro.devtools.findings import Finding, Fix
from repro.devtools.layering import runtime_import_graph
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


class TestRuntimeImportGraph:
    def test_runtime_graph_skips_function_local_imports(self, tmp_path):
        # REP006 layering sees import-time edges only.
        write_package(
            tmp_path,
            {
                "demo/core.py": "LABEL = 1\n",
                "demo/app.py": """
                    from demo.core import LABEL

                    def main():
                        from demo import extra
                        return LABEL
                """,
                "demo/extra.py": "VALUE = 2\n",
            },
        )
        files = AstCache().contexts(iter_python_files([str(tmp_path / "demo")]))
        graph, _ = runtime_import_graph(files)
        assert graph["demo.app"] == {"demo.core"}


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
        assert rule_ids == [rule.id for rule in all_rules()]
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


def finding_with_fix(path, line, start_col, end_col, replacement, end_line=None):
    return Finding(
        rule="REP005",
        file=str(path),
        line=line,
        message="m",
        fix=Fix(line, start_col, end_line or line, end_col, replacement),
    )


class TestApplyFixes:
    """The span rewrites behind ``--fix``, fed hand-made findings."""

    def test_replaces_the_span(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("items = list(set(xs))\n")
        result = apply_fixes([finding_with_fix(target, 1, 8, 21, "sorted(xs)")])
        assert target.read_text() == "items = sorted(xs)\n"
        assert (result.applied, result.skipped_overlaps) == (1, 0)
        assert result.files == [str(target)]

    def test_two_spans_on_one_line_both_land(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("a, b = list(set(x)), list(set(y))\n")
        result = apply_fixes(
            [
                finding_with_fix(target, 1, 7, 19, "sorted(x)"),
                finding_with_fix(target, 1, 21, 33, "sorted(y)"),
            ]
        )
        assert target.read_text() == "a, b = sorted(x), sorted(y)\n"
        assert result.applied == 2

    def test_overlapping_fix_is_skipped(self, tmp_path):
        target = tmp_path / "m.py"
        source = "v = list(set(list(set(x))))\n"
        target.write_text(source)
        result = apply_fixes(
            [
                finding_with_fix(target, 1, 13, 25, "sorted(x)"),
                finding_with_fix(target, 1, 4, 27, "sorted(list(set(x)))"),
            ]
        )
        # The outer span starts first in document order, so it wins.
        assert target.read_text() == "v = sorted(list(set(x)))\n"
        assert (result.applied, result.skipped_overlaps) == (1, 1)

    def test_multi_line_span_collapses(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("v = list(set(\n    xs\n))\nw = 1\n")
        apply_fixes([finding_with_fix(target, 1, 4, 2, "sorted(xs)", end_line=3)])
        assert target.read_text() == "v = sorted(xs)\nw = 1\n"

    def test_findings_without_fixes_touch_nothing(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n")
        result = apply_fixes([Finding(rule="REP001", file=str(target), line=1, message="m")])
        assert (result.applied, result.files) == (0, [])
        assert target.read_text() == "x = 1\n"


class TestApplyBaseline:
    def test_only_findings_outside_the_baseline_remain(self):
        old = Finding(rule="REP001", file="a.py", line=3, message="m", snippet="rng = R(0)")
        moved = Finding(rule="REP001", file="a.py", line=9, message="m", snippet="rng = R(0)")
        new = Finding(rule="REP001", file="a.py", line=4, message="m", snippet="rng = R(1)")
        assert apply_baseline([moved, new], {old.fingerprint}) == [new]
