"""pqlint: fixture trees per rule, the engine's plumbing, and the
meta-test that the live ``src/repro`` tree is invariant-clean."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "pqlint"
SRC_TREE = REPO_ROOT / "src" / "repro"

sys.path.insert(0, str(REPO_ROOT / "tools"))
try:
    from anlz import (
        LintEngine,
        lint_paths,
        render_json,
        render_text,
        rule_codes,
        to_document,
    )
    from anlz.reporters import JSON_VERSION
    from pqlint import main as pqlint_main
finally:
    sys.path.pop(0)

RULES = (
    "PQ002",
    "PQ004",
    "PQ005",
    "PQ101",
    "PQ102",
    "PQ105",
)

#: Minimum finding count each _bad tree must produce (the fixtures each
#: contain at least two distinct violations).
MIN_BAD_FINDINGS = {
    "PQ002": 3,
    "PQ004": 2,
    "PQ005": 3,
    "PQ101": 3,
    "PQ102": 3,
    "PQ105": 3,
}


class TestRuleCatalogue:
    def test_codes(self):
        assert rule_codes() == list(RULES)

    @pytest.mark.parametrize("rule", RULES)
    def test_bad_fixture_fires(self, rule):
        result = lint_paths([FIXTURES / f"{rule}_bad"])
        assert not result.ok
        assert {f.rule for f in result.findings} == {rule}
        assert len(result.findings) >= MIN_BAD_FINDINGS[rule]
        assert result.counts_by_rule() == {rule: len(result.findings)}

    @pytest.mark.parametrize("rule", RULES)
    def test_suppressed_fixture_is_quiet_but_counted(self, rule):
        result = lint_paths([FIXTURES / f"{rule}_suppressed"])
        assert result.ok
        assert len(result.suppressed) >= 1
        assert {f.rule for f in result.suppressed} == {rule}

    @pytest.mark.parametrize("rule", RULES)
    def test_clean_fixture_is_clean(self, rule):
        result = lint_paths([FIXTURES / f"{rule}_clean"])
        assert result.ok
        assert not result.suppressed

    @pytest.mark.parametrize("rule", RULES)
    def test_single_rule_selection(self, rule):
        others = [code for code in RULES if code != rule]
        result = lint_paths([FIXTURES / f"{rule}_bad"], only=others)
        assert result.ok

    def test_unknown_rule_rejected(self):
        with pytest.raises(KeyError):
            lint_paths([FIXTURES / "PQ002_bad"], only=["PQ999"])

    def test_cross_file_finding_site_suppression(self):
        """PQ101 directives silence the *finding site* (util/io.py), two
        call-graph hops from the async root that reaches it."""
        result = lint_paths([FIXTURES / "PQ101_suppressed"])
        assert result.ok
        assert {f.rule for f in result.suppressed} == {"PQ101"}
        assert any(f.path == "util/io.py" for f in result.suppressed)


class TestEnginePlumbing:
    def test_findings_sorted_and_located(self):
        result = lint_paths([FIXTURES / "PQ002_bad"])
        assert result.findings == sorted(result.findings)
        finding = result.findings[0]
        assert finding.path == "core/widths.py"
        assert finding.line > 0
        assert finding.rule in finding.render()

    def test_syntax_error_becomes_pq000(self, tmp_path):
        bad = tmp_path / "core"
        bad.mkdir()
        (bad / "broken.py").write_text("def oops(:\n")
        result = lint_paths([tmp_path])
        assert [f.rule for f in result.findings] == ["PQ000"]

    def test_out_of_scope_packages_ignored(self, tmp_path):
        module = tmp_path / "traffic"
        module.mkdir()
        (module / "gen.py").write_text("MASK = 0xFF\nLOW = MASK & 0xF0\n")
        assert lint_paths([tmp_path]).ok

    def test_json_document_shape(self):
        result = lint_paths([FIXTURES / "PQ004_bad"])
        doc = json.loads(render_json(result))
        assert doc == to_document(result)
        assert doc["version"] == JSON_VERSION
        assert doc["ok"] is False
        assert doc["counts_by_rule"] == {"PQ004": len(result.findings)}
        assert doc["files_checked"] == 1
        assert doc["suppressed_by_rule"] == {}
        assert "files_selected" not in doc
        for record in doc["findings"]:
            assert set(record) == {"path", "line", "col", "rule", "message"}

    def test_json_suppressed_by_rule(self):
        result = lint_paths([FIXTURES / "PQ102_suppressed"])
        doc = to_document(result)
        assert doc["suppressed_by_rule"] == {"PQ102": len(result.suppressed)}
        assert doc["suppressed"] == len(result.suppressed) >= 1

    def test_changed_filter_scopes_findings(self):
        """--changed narrows *reporting*; the call graph stays whole."""
        tree = FIXTURES / "PQ101_bad"
        full = lint_paths([tree])
        changed = {(tree / "util" / "io.py").resolve()}
        result = lint_paths([tree], changed=changed)
        assert result.files_selected == 1
        assert result.findings
        assert {f.path for f in result.findings} == {"util/io.py"}
        assert len(result.findings) < len(full.findings)
        assert result.files_checked == full.files_checked
        # An empty selection reports nothing but still parses the tree.
        empty = lint_paths([tree], changed=set())
        assert empty.ok
        assert empty.files_selected == 0
        assert empty.files_checked == full.files_checked

    def test_text_report_summary_line(self):
        result = lint_paths([FIXTURES / "PQ002_suppressed"])
        text = render_text(result)
        assert "0 findings" in text
        assert "suppressed" in text

    def test_engine_skips_pycache(self, tmp_path):
        cache = tmp_path / "core" / "__pycache__"
        cache.mkdir(parents=True)
        (cache / "junk.py").write_text("raise ValueError('x')\n")
        engine = LintEngine()
        assert engine.discover(tmp_path) == []


class TestLiveTree:
    def test_src_repro_is_pqlint_clean(self):
        """The tentpole acceptance criterion: the shipped tree is clean."""
        result = lint_paths([SRC_TREE])
        assert result.findings == []
        assert result.files_checked > 50

    def test_cli_script_exit_codes(self):
        clean = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "pqlint.py"), str(SRC_TREE)],
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        dirty = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "pqlint.py"),
                str(FIXTURES / "PQ004_bad"),
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
        )
        assert dirty.returncode == 1
        doc = json.loads(dirty.stdout)
        assert doc["counts_by_rule"].get("PQ004", 0) >= 2

    def test_pqlint_main_in_process(self, capsys):
        assert pqlint_main([str(SRC_TREE)]) == 0
        assert pqlint_main([str(FIXTURES / "PQ002_bad")]) == 1
        capsys.readouterr()
        assert pqlint_main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == list(RULES)

    def test_changed_mode_cli(self):
        smoke = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "pqlint.py"),
                str(SRC_TREE),
                "--changed",
                "HEAD",
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
        )
        assert smoke.returncode == 0, smoke.stdout + smoke.stderr
        doc = json.loads(smoke.stdout)
        assert "files_selected" in doc
        bad_ref = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "pqlint.py"),
                str(SRC_TREE),
                "--changed",
                "no-such-ref-pqlint",
            ],
            capture_output=True,
            text=True,
        )
        assert bad_ref.returncode == 2
        assert "no-such-ref-pqlint" in bad_ref.stderr


class TestLintReport:
    """tools/lint_report.py: pqlint JSON -> pq_lint_* RunReport metrics."""

    def _lint_metrics(self):
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            from lint_report import lint_metrics
        finally:
            sys.path.pop(0)
        return lint_metrics

    def test_lint_metrics_entries(self):
        lint_metrics = self._lint_metrics()
        result = lint_paths([FIXTURES / "PQ002_bad"])
        entries = lint_metrics(to_document(result))
        assert entries["pq_lint_findings_total"] == len(result.findings)
        assert entries['pq_lint_findings_total{rule="PQ002"}'] >= 3
        # Every registered rule appears, fired or not, so diffs are stable.
        for code in rule_codes():
            assert f'pq_lint_findings_total{{rule="{code}"}}' in entries
        assert entries["pq_lint_files_checked_total"] == result.files_checked

    def test_lint_metrics_suppressed_by_rule(self):
        lint_metrics = self._lint_metrics()
        result = lint_paths([FIXTURES / "PQ102_suppressed"])
        entries = lint_metrics(to_document(result))
        assert entries['pq_lint_suppressed_total{rule="PQ102"}'] >= 1
        # Zero-filled like the finding counts, so diffs stay stable.
        for code in rule_codes():
            assert f'pq_lint_suppressed_total{{rule="{code}"}}' in entries

    def test_lint_metrics_rejects_unknown_version(self):
        lint_metrics = self._lint_metrics()
        with pytest.raises(ValueError, match="version"):
            lint_metrics({"version": 99})

    def test_appends_to_saved_run_report(self, tmp_path):
        from repro.experiments.runner import simulate_workload
        from repro.obs.metrics import Metrics

        run = simulate_workload(
            "ws", duration_ns=1_000_000, load=1.0, seed=5, metrics=Metrics()
        )
        report_path = tmp_path / "report.json"
        run.report().save(report_path)
        lint_json = tmp_path / "lint.json"
        dirty = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "pqlint.py"),
                str(FIXTURES / "PQ002_bad"),
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
        )
        assert dirty.returncode == 1
        lint_json.write_text(dirty.stdout)
        folded = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "lint_report.py"),
                "--lint-json",
                str(lint_json),
                "--report",
                str(report_path),
            ],
            capture_output=True,
            text=True,
        )
        assert folded.returncode == 0, folded.stdout + folded.stderr
        data = json.loads(report_path.read_text())
        metrics = data["metrics"]
        assert metrics["pq_lint_findings_total"] >= 3
        assert metrics['pq_lint_findings_total{rule="PQ002"}'] >= 3
        # The runtime counters collected before the fold are untouched.
        assert any(k.startswith("pq_ingest_") for k in metrics)

    def test_stdout_mode_prints_metric_lines(self):
        lint = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "pqlint.py"),
                str(SRC_TREE),
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
        )
        assert lint.returncode == 0
        folded = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "lint_report.py")],
            input=lint.stdout,
            capture_output=True,
            text=True,
        )
        assert folded.returncode == 0
        assert "pq_lint_findings_total 0" in folded.stdout
