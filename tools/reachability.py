#!/usr/bin/env python
"""List the ``src/repro`` definitions no entry point reaches.

Usage: ``python tools/reachability.py`` (exit 1 and one ``path::name``
a line for each hit outside :data:`ALLOWED`, or allowlist entry that no
longer is a hit).  ``tests/test_reachability.py`` runs the same check
over the real tree, so new dead code fails tier-1.  Walks the pqlint call graph from
``cli.py``, ``repro.service``, every script under ``benchmarks/`` (the
figure benches, ``e2e/layers.py``) and ``examples/``, plus import-time
code.  Every example is executed in tier-1 (``tests/test_examples.py``),
so an example root reaches only code that runs.  Tests are not roots,
so a hit is code only tests exercise.  The
graph is static, so the walk widens until nothing changes: a definition
reached code names (as a name or attribute) counts as reached, and so do
dunders of a named class and methods of a class whose bases are all
outside the project (hooks like ``NodeVisitor.visit_*``).  Grep a hit
before deleting it.  An allowlisted *specification* (its reason starts
with :data:`SPECIFICATION`) may be reached by the benchmark harnesses,
which check production against it, but by no production root (the CLI,
the service, the ``benchmarks/e2e`` ledger, the examples).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Set

from anlz.callgraph import FunctionInfo, build_project_index
from anlz.contexts import propagate
from anlz.model import SourceModule, parse_module

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Name of the synthetic function that holds a module's import-time code.
MODULE_BODY = "__module__"

#: Reason prefix of an executable specification benchmarks may call.
SPECIFICATION = "specification"

#: Unreached definitions kept on purpose, each with its reason.
ALLOWED: Dict[str, str] = {
    # specification helpers
    "core/queuemonitor.py::QueueMonitorSnapshot.walk":
        "the Section 5 walk, the executable specification scan() is tested against",
    "core/queuemonitor.py::QueueMonitorSnapshot.scan":
        "walk() as arrays, sequence numbers included; queries tally the "
        "same survivors without gathering those",
    "core/queuemonitor.py::MonitorEntry": "walk()'s result type",
    "experiments/runner.py::query_time_windows_scalar":
        f"{SPECIFICATION} (the per-cell walk the plan is tested against)",
    "switch/packet.py::FlowKey.reversed":
        "the reverse-direction 5-tuple, part of the flow-key spec",
    # baseline accessors the baselines' tests check against their papers
    "baselines/conquest.py::ConQuest.is_contributor":
        "ConQuest's own contributor predicate",
    "baselines/conquest.py::ConQuest.sram_entries": "ConQuest's SRAM footprint",
    "baselines/flowradar.py::DecodeResult.fully_decoded":
        "FlowRadar's decode-success flag",
    "baselines/flowradar.py::FlowRadar.sram_entries": "FlowRadar's SRAM footprint",
    "baselines/hashpipe.py::HashPipe.heavy_hitters":
        "HashPipe's own heavy-hitter query",
    "baselines/hashpipe.py::HashPipe.sram_entries": "HashPipe's SRAM footprint",
    "baselines/interval.py::FixedIntervalEstimator.periods":
        "read-only view of the baseline's closed periods",
    # one-line accessors
    "core/multiqueue.py::ClassedQueueMonitor.active_classes":
        "which per-class monitors exist",
    "core/queries.py::QueryInterval.intersect":
        "half-open interval algebra beside overlaps()",
    "experiments/reporting.py::ResultTable.add_row":
        "width-checked row append of the results table",
    "metrics/accuracy.py::AccuracyScore.f1": "F1 beside precision and recall",
    "obs/metrics.py::Histogram.mean": "mean beside the histogram's sum and count",
    "switch/events.py::EventQueue.peek_time": "next event time without popping",
    "switch/queue.py::EgressQueue.buffered_bytes": "queue occupancy read-out",
    "switch/switchsim.py::Switch.single_port": "one-port switch constructor",
    "traffic/trace.py::Trace.flow_packet_counts": "per-flow packet totals of a trace",
    "traffic/trace.py::Trace.slice_time": "time-range sub-trace",
    "units.py::bits_to_bytes": "unit conversion beside its inverse",
    "units.py::ns_to_sec": "unit conversion beside its inverse",
}


def _import_time(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Module and class body statements (with class bases), defs aside."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from (ast.Expr(value=base) for base in node.bases)
            yield from _import_time(node.body)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _load(path: Path, base: Path) -> SourceModule:
    """Parse ``path`` with its import-time code wrapped in a function, so
    that code's calls become call-graph edges like any other."""
    module = parse_module(path, base)
    wrapper = ast.parse(f"def {MODULE_BODY}():\n    pass\n").body[0]
    wrapper.body = list(_import_time(module.tree.body)) or wrapper.body
    module.tree.body.append(wrapper)
    return module


def _py_files(root: Path) -> List[Path]:
    paths = root.rglob("*.py")
    return sorted(p.resolve() for p in paths if "__pycache__" not in p.parts)


def _is_dunder(f: FunctionInfo) -> bool:
    return f.name.startswith("__") and f.name.endswith("__")


def unreached(src: Path, roots: Iterable[Path]) -> List[str]:
    """``path::name`` of every definition under ``src`` no root reaches.

    ``roots`` are files whose every function is an entry point; those
    outside ``src`` are parsed with their own directory as import root.
    """
    return unreached_by_stage(src, [roots])[0]


def unreached_by_stage(
    src: Path, stages: Sequence[Iterable[Path]]
) -> List[List[str]]:
    """:func:`unreached` for growing root sets, over one parse: stage
    ``i`` walks from the roots of stages ``0..i`` and no other file."""
    src_files = _py_files(src)
    stage_files = [{p.resolve() for p in roots} for roots in stages]
    modules = [_load(p, src.resolve()) for p in src_files]
    outside = set().union(*stage_files) - set(src_files)
    modules += [_load(p, p.parent) for p in sorted(outside)]
    index = build_project_index(modules)
    classes = index.classes.values()
    hooked = {c.name for c in classes if c.node.bases and not c.base_names}
    known: Set[Path] = set()
    starts: List[FunctionInfo] = []
    out = []
    for root_files in stage_files:
        new = (set(src_files) | root_files) - known
        known |= new
        functions = [f for f in index.functions.values() if f.module.path in known]
        starts += [f for f in functions if f.module.path in root_files]
        starts += [
            f for f in functions if f.name == MODULE_BODY and f.module.path in new
        ]
        while True:
            reached = propagate(index, starts)
            bodies = [index.functions[q].node for q, _ in reached.items()]
            nodes = [n for body in bodies for n in ast.walk(body)]
            named: Set[str] = {n.id for n in nodes if isinstance(n, ast.Name)}
            named |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            widened = [
                f
                for f in functions
                if f.qualname not in reached
                and (
                    f.name in named
                    or f.class_name in named
                    and (_is_dunder(f) or f.class_name in hooked)
                )
            ]
            if not widened:
                break
            starts += widened
        hits = [
            f.short
            for f in functions
            if f.qualname not in reached
            and f.module.path in src_files
            and not (f.is_nested or _is_dunder(f))
        ]
        hits += [
            f"{c.module.rel_path}::{c.name}"
            for c in classes
            if c.module.path in src_files and c.name not in named
        ]
        out.append(sorted(hits))
    return out


def live_tree_findings() -> List[str]:
    """Hits outside :data:`ALLOWED`, then allowlist entries that are no
    longer hits, over ``src/repro`` and the real entry points.  A
    specification counts as a hit while no production root reaches it."""
    package = REPO_ROOT / "src" / "repro"
    production = [package / "cli.py", *_py_files(package / "service")]
    production += _py_files(REPO_ROOT / "benchmarks" / "e2e")
    production += _py_files(REPO_ROOT / "examples")
    harnesses = set(_py_files(REPO_ROOT / "benchmarks")) - set(production)
    production_hits, hits = unreached_by_stage(package, [production, harnesses])
    specs = {n for n, why in ALLOWED.items() if why.startswith(SPECIFICATION)}
    hits += sorted(specs.intersection(production_hits) - set(hits))
    stale = sorted(set(ALLOWED) - set(hits))
    findings = [hit for hit in hits if hit not in ALLOWED]
    return findings + [f"{name} (allowlisted, not a hit)" for name in stale]


def main() -> int:
    findings = live_tree_findings()
    for finding in findings:
        print(finding)
    print(f"{len(findings)} findings outside the allowlist", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
