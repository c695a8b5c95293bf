#!/usr/bin/env python3
"""Render benchmarks/results.json (and the tracked BENCH files) as markdown.

Every bench writes its tables to ``benchmarks/results.json`` (via
``common.print_table``); this script turns the accumulated store into
markdown for pasting into EXPERIMENTS.md or a report.  The two tracked
throughput records — ``BENCH_ingest.json`` (ingest Mpps) and
``BENCH_query.json`` (batch query QPS) — are appended as their own
sections when present.

Usage:  python benchmarks/render_results.py [path-to-results.json]
"""

import json
import sys
from pathlib import Path

from repro.experiments.reporting import ResultStore, render_markdown


def render_bench_ingest(path: Path) -> str:
    """Markdown table for the tracked ingest Mpps record."""
    record = json.loads(path.read_text())
    lines = [
        "## Tracked: ingest throughput (BENCH_ingest.json)",
        "",
        f"{record['packets']:,} packets at REPRO_SCALE={record['scale']}; "
        "Mpps = dequeued packets / best-of-N wall-clock seconds / 1e6.",
        "",
        "| config | scalar (oracle) Mpps | fused (production) Mpps | fused/scalar |",
        "|---|---|---|---|",
    ]
    for name, cfg in sorted(record["configs"].items()):
        lines.append(
            f"| {name} | {cfg['scalar_mpps']:.3f} | {cfg['fused_mpps']:.3f} "
            f"| {cfg['fused_speedup']:.2f}x |"
        )
    return "\n".join(lines)


def render_bench_query(path: Path) -> str:
    """Markdown table for the tracked batch-query QPS record."""
    record = json.loads(path.read_text())
    lines = [
        "## Tracked: batch query throughput (BENCH_query.json)",
        "",
        f"{record['victims']:,} victims over {record['snapshots']} snapshots "
        f"at REPRO_SCALE={record['scale']}.",
        "",
        "| path | seconds | QPS |",
        "|---|---|---|",
        f"| scalar | {record['scalar_s']:.4f} | {record['scalar_qps']:,.0f} |",
        f"| batched | {record['batch_s']:.4f} | {record['batch_qps']:,.0f} |",
        "",
        f"Batched speedup: **{record['speedup']:.2f}x**.",
    ]
    return "\n".join(lines)


def main() -> int:
    bench_dir = Path(__file__).parent
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else bench_dir / "results.json"
    if not path.exists():
        print(f"no results at {path}; run `pytest benchmarks/ --benchmark-only -s` first")
        return 1
    sections = [render_markdown(ResultStore.load(path))]
    ingest = bench_dir / "BENCH_ingest.json"
    if ingest.exists():
        sections.append(render_bench_ingest(ingest))
    query = bench_dir / "BENCH_query.json"
    if query.exists():
        sections.append(render_bench_query(query))
    print("\n\n".join(sections))
    return 0


if __name__ == "__main__":
    sys.exit(main())
