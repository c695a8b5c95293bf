#!/usr/bin/env python
"""lint_report — fold pqlint results into the RunReport metrics vocabulary.

Usage::

    python tools/pqlint.py --format json | \
        python tools/lint_report.py --report report.json

    python tools/lint_report.py --lint-json lint.json --report report.json

Reads a pqlint JSON document (stdin by default, or ``--lint-json``) and
appends ``pq_lint_*`` entries to the ``metrics`` section of a saved
:class:`~repro.obs.report.RunReport`, keeping the "everything
observable" convention: static-analysis health rides in the same
vocabulary as the runtime counters, so dashboards and regression diffs
see both.  Without ``--report`` the metric lines are printed instead,
which is what the CI log archives.

Appended names (labels follow the registry's ``name{label="v"}``
rendering):

* ``pq_lint_findings_total`` — total unsuppressed findings;
* ``pq_lint_findings_total{rule="PQxxx"}`` — per-rule hit counts (every
  registered rule appears, zero or not, so diffs are stable);
* ``pq_lint_suppressed_total`` — findings silenced by directives;
* ``pq_lint_suppressed_total{rule="PQxxx"}`` — per-rule suppression
  counts, zero-filled like the finding counts (version-2 documents);
* ``pq_lint_files_checked_total`` — modules the engine parsed.

``--store-json`` additionally folds a snapshot-store stats document
(``repro store inspect --json``, or any ``SnapshotStore.stats()`` dump)
into the same section as ``pq_store_*`` entries — bytes per tier,
evictions, quarantine replacements, and replay position ride alongside
the lint counters.

Exit code 0 on success, 2 on bad invocation or malformed input.  The
lint *verdict* does not affect the exit code — gating belongs to
``tools/pqlint.py``; this tool only records.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from anlz.reporters import JSON_VERSION
from anlz.rules import rule_codes

REPO_ROOT = Path(__file__).resolve().parent.parent
# ``append_to_report`` loads RunReport from the uninstalled package.
sys.path.insert(0, str(REPO_ROOT / "src"))


def lint_metrics(document: Dict[str, Any]) -> Dict[str, int]:
    """The ``pq_lint_*`` metric entries for one pqlint JSON document.

    Every registered rule gets a labelled entry even when its count is
    zero — absent keys would make report diffs depend on which rules
    happened to fire.
    """
    version = document.get("version")
    if version != JSON_VERSION:
        raise ValueError(f"unsupported pqlint JSON version: {version!r}")
    counts = document.get("counts_by_rule", {})
    suppressed = document.get("suppressed_by_rule", {})
    out: Dict[str, int] = {
        "pq_lint_findings_total": sum(counts.values()),
        "pq_lint_suppressed_total": int(document.get("suppressed", 0)),
        "pq_lint_files_checked_total": int(document.get("files_checked", 0)),
    }
    for code in sorted(set(rule_codes()) | set(counts)):
        out[f'pq_lint_findings_total{{rule="{code}"}}'] = int(
            counts.get(code, 0)
        )
    for code in sorted(set(rule_codes()) | set(suppressed)):
        out[f'pq_lint_suppressed_total{{rule="{code}"}}'] = int(
            suppressed.get(code, 0)
        )
    return out


def store_metrics(document: Dict[str, Any]) -> Dict[str, int]:
    """The ``pq_store_*`` metric entries for one store stats document.

    Accepts a ``SnapshotStore.stats()`` dump (what ``repro store
    inspect --json`` emits under ``"stats"``, also accepted whole).
    Every entry appears even when zero, mirroring ``lint_metrics``.
    """
    stats = document.get("stats", document)
    if not isinstance(stats, dict) or "backend" not in stats:
        raise ValueError("not a snapshot-store stats document")
    tier = str(stats["backend"])
    return {
        "pq_store_tw_added_total": int(stats.get("tw_added", 0)),
        "pq_store_qm_added_total": int(stats.get("qm_added", 0)),
        'pq_store_evictions_total{kind="tw"}': int(
            stats.get("tw_evictions", 0)
        ),
        'pq_store_evictions_total{kind="qm"}': int(
            stats.get("qm_evictions", 0)
        ),
        "pq_store_quarantine_replacements_total": int(
            stats.get("quarantine_replacements", 0)
        ),
        "pq_store_version": int(stats.get("version", 0)),
        "pq_store_tw_snapshots": int(stats.get("tw_snapshots", 0)),
        "pq_store_qm_snapshots": int(stats.get("qm_snapshots", 0)),
        f'pq_store_bytes{{tier="{tier}",kind="tw"}}': int(
            stats.get("tw_bytes", 0)
        ),
        f'pq_store_bytes{{tier="{tier}",kind="qm"}}': int(
            stats.get("qm_bytes", 0)
        ),
        "pq_store_replay_position": int(stats.get("replay_position", 0)),
    }


def append_to_report(report_path: Path, entries: Dict[str, int]) -> None:
    """Merge ``entries`` into the report's ``metrics`` section, in place."""
    from repro.obs.report import RunReport

    report = RunReport.load(report_path)
    metrics = report.data.get("metrics")
    if metrics is None:
        metrics = {}
        report.data["metrics"] = metrics
    metrics.update(entries)
    report.save(report_path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lint_report",
        description="append pqlint counts to a RunReport's metrics",
    )
    parser.add_argument(
        "--lint-json",
        default=None,
        metavar="PATH",
        help="pqlint --format json output (default: read stdin)",
    )
    parser.add_argument(
        "--store-json",
        default=None,
        metavar="PATH",
        help="snapshot-store stats JSON (repro store inspect --json) "
        "to fold in as pq_store_* metrics",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="saved RunReport JSON to update in place "
        "(default: print the metric lines)",
    )
    args = parser.parse_args(argv)

    try:
        entries: Dict[str, int] = {}
        raw = ""
        if args.lint_json is not None:
            raw = Path(args.lint_json).read_text()
        elif args.store_json is None or not sys.stdin.isatty():
            # stdin is the lint document by default, but a store-only
            # invocation (``--store-json`` with no piped input) is legal.
            raw = sys.stdin.read()
        if raw.strip():
            entries.update(lint_metrics(json.loads(raw)))
        elif args.store_json is None:
            raise ValueError("expected a pqlint JSON document on stdin")
        if args.store_json is not None:
            store_doc = json.loads(Path(args.store_json).read_text())
            entries.update(store_metrics(store_doc))
    except (OSError, ValueError) as exc:
        print(f"lint_report: {exc}", file=sys.stderr)
        return 2

    if args.report is not None:
        try:
            append_to_report(Path(args.report), entries)
        except (OSError, ValueError) as exc:
            print(f"lint_report: {exc}", file=sys.stderr)
            return 2
        print(f"lint_report: appended {len(entries)} metric entries")
    else:
        for name, value in entries.items():
            print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
